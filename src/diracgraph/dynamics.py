"""Evolution equations driven by D and L, and the Lax isospectral flow.

The linear flows (heat, wave, Schroedinger, Poisson) are evaluated through
the spectral calculus of the symmetric operators, never by series, so the
long-time limits are exact projections.

The nonlinear deformation integrates the coupled system

    d' = d b - b d,        b' = 2 (d d* - d* d)

which is the commutator flow D' = [B, D] for D = d + d* + b, B = d - d*
written in block coordinates.  (Expanding the commutator shows the
block-diagonal part carries the factor 2; with the factor omitted the flow
is not isospectral, which the per-step diagnostics would flag immediately.)
The flow keeps sigma(D) and L = D^2 fixed while d(t) decays to zero and a
block-diagonal b(t) with b^2 = L emerges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, UnsolvableError
from .hodge import Cochain, kernel_cut
from .operators import Operators


def poisson_solve(ops: Operators, k: int, j: Cochain | np.ndarray, rtol: float = 1e-8) -> Cochain:
    """Minimum-norm solution of L_k A = j.

    The right-hand side must be orthogonal to ker(L_k) (relative to rtol);
    otherwise the problem is unsolvable and the offending kernel projection
    norm is reported.
    """
    values = np.asarray(j.values if isinstance(j, Cochain) else j, dtype=float)
    eigs, vecs = ops.block_eigensystems[k]
    if values.shape != eigs.shape:
        raise ValueError(f"right-hand side length {values.size} does not match stratum {k}")
    cut = kernel_cut(eigs)
    coeffs = vecs.T @ values
    kernel_part = coeffs[eigs < cut]
    knorm = float(np.linalg.norm(kernel_part))
    jnorm = float(np.linalg.norm(values))
    if knorm > rtol * max(jnorm, 1e-300):
        raise UnsolvableError(knorm)
    inv = np.divide(1.0, eigs, out=np.zeros_like(eigs), where=eigs >= cut)
    return Cochain(k, vecs @ (inv * coeffs))


def heat_evolve(ops: Operators, u0: Cochain, t: float) -> Cochain:
    """Solution e^(-t L_k) u0 of the heat equation."""
    if t < 0:
        raise ValueError("heat flow requires t >= 0")
    eigs, vecs = ops.block_eigensystems[u0.degree]
    values = np.asarray(u0.values, dtype=float)
    return Cochain(u0.degree, vecs @ (np.exp(-t * eigs) * (vecs.T @ values)))


@dataclass(frozen=True)
class WaveState:
    u: Cochain
    v: Cochain

    def __post_init__(self):
        if self.u.degree != self.v.degree:
            raise ValueError("position and velocity must share a degree")


def wave_evolve(ops: Operators, w: WaveState, t: float) -> WaveState:
    """Closed-form wave evolution u'' = -L u on one degree.

    On eigenspaces with L = lambda > 0 the solution is
    cos(sqrt(lambda) t) u0 + sin(sqrt(lambda) t)/sqrt(lambda) v0; a kernel
    component of the velocity drifts linearly, the unique continuous
    extension of the formula.
    """
    k = w.u.degree
    eigs, vecs = ops.block_eigensystems[k]
    cut = kernel_cut(eigs)
    u_hat = vecs.T @ np.asarray(w.u.values, dtype=float)
    v_hat = vecs.T @ np.asarray(w.v.values, dtype=float)
    omega = np.sqrt(np.clip(eigs, 0.0, None))
    positive = eigs >= cut
    cos_t = np.cos(omega * t)
    sin_t = np.sin(omega * t)
    sinc = np.divide(sin_t, omega, out=np.full_like(omega, t), where=positive)
    u_t = cos_t * u_hat + sinc * v_hat
    v_t = np.where(positive, -omega * sin_t, 0.0) * u_hat + np.where(positive, cos_t, 1.0) * v_hat
    return WaveState(u=Cochain(k, vecs @ u_t), v=Cochain(k, vecs @ v_t))


def schrodinger_evolve(ops: Operators, psi0: np.ndarray, t: float) -> np.ndarray:
    """Unitary evolution e^(i D t) psi0 on the full simplex space."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (ops.v,):
        raise ValueError(f"state must have length {ops.v}")
    eigs, vecs = ops.dirac_eigensystem
    return (vecs * np.exp(1j * t * eigs)) @ (vecs.conj().T @ psi0)


@dataclass(frozen=True)
class DeformationState:
    """One sample of the Lax trajectory with its diagnostics."""

    t: float
    d: np.ndarray
    b: np.ndarray
    tr_m: float
    spectrum_error: float
    nilpotency_error: float
    laplacian_error: float

    @property
    def dirac(self) -> np.ndarray:
        return self.d + self.d.conj().T + self.b


def _lax_rhs(d: np.ndarray, b: np.ndarray, variant: str):
    if variant == "real":
        return d @ b - b @ d, 2.0 * (d @ d.conj().T - d.conj().T @ d)
    # complexified generator B = d - d* + i b adds a phase to the d-equation
    return (1 - 1j) * (d @ b - b @ d), 2.0 * (d @ d.conj().T - d.conj().T @ d)


def lax_deform(
    ops: Operators,
    t_final: float,
    h: float = 0.01,
    variant: str = "real",
    max_halvings: int = 3,
    nilpotency_bound: float = 1e-8,
    spectrum_bound: float = 1e-6,
) -> list[DeformationState]:
    """Integrate the isospectral deformation from d(0) = d, b(0) = 0.

    Classical fixed-step RK4 on the coupled (d, b) system.  Diagnostics
    (nilpotency of d, spectral drift of D, entrywise drift of L) are
    recorded at every step; if a bound is breached the whole run restarts
    with half the step, up to max_halvings, to keep results reproducible
    functions of the inputs.
    """
    if t_final <= 0 or h <= 0:
        raise ValueError("t_final and h must be positive")
    if variant not in ("real", "complexified"):
        raise ValueError(f"unknown variant {variant!r}")
    dtype = complex if variant == "complexified" else float
    d0 = ops.d.astype(dtype)
    ref_spectrum = ops.dirac_eigensystem[0]
    l0 = ops.laplacian.astype(float)

    step = h
    for _ in range(max_halvings + 1):
        states = _integrate(
            d0, l0, ref_spectrum, t_final, step, variant, nilpotency_bound, spectrum_bound
        )
        if states is not None:
            return states
        step /= 2
    raise IntegrationError(
        f"diagnostics breached even at step size {step * 2:.3e}; use a smaller h"
    )


def _integrate(d0, l0, ref_spectrum, t_final, h, variant, nilpotency_bound, spectrum_bound):
    d = d0.copy()
    b = np.zeros_like(d0)
    steps = int(round(t_final / h))
    states: list[DeformationState] = []

    def snapshot(t):
        dirac_t = d + d.conj().T + b
        m = (d + d.conj().T) @ (d + d.conj().T)
        eigs = np.linalg.eigvalsh(dirac_t)
        spec_err = float(np.max(np.abs(eigs - ref_spectrum))) if eigs.size else 0.0
        nil_err = float(np.max(np.abs(d @ d))) if d.size else 0.0
        lap_err = float(np.max(np.abs(dirac_t @ dirac_t - l0))) if d.size else 0.0
        states.append(
            DeformationState(
                t=t,
                d=d.copy(),
                b=b.copy(),
                tr_m=float(np.trace(m).real),
                spectrum_error=spec_err,
                nilpotency_error=nil_err,
                laplacian_error=lap_err,
            )
        )
        return states[-1]

    snapshot(0.0)
    for i in range(1, steps + 1):
        k1 = _lax_rhs(d, b, variant)
        k2 = _lax_rhs(d + 0.5 * h * k1[0], b + 0.5 * h * k1[1], variant)
        k3 = _lax_rhs(d + 0.5 * h * k2[0], b + 0.5 * h * k2[1], variant)
        k4 = _lax_rhs(d + h * k3[0], b + h * k3[1], variant)
        d = d + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        b = b + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        state = snapshot(i * h)
        if state.nilpotency_error > nilpotency_bound or state.spectrum_error > spectrum_bound:
            return None
    return states


def trajectory_csv(states: list[DeformationState]) -> str:
    """CSV with one diagnostics row per recorded step."""
    lines = ["t,trM,spectrumError,nilpotencyError"]
    for s in states:
        lines.append(
            f"{s.t:.6f},{s.tr_m:.12g},{s.spectrum_error:.12g},{s.nilpotency_error:.12g}"
        )
    return "\n".join(lines) + "\n"
