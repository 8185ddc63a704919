"""Evolution equations driven by D and L, and the Lax isospectral flow.

The linear flows (heat, wave, Schroedinger, Poisson) are evaluated through
the spectral calculus of the symmetric operators, never by series, so the
long-time limits are exact projections.

The nonlinear deformation is the commutator flow D' = [B, D] for
D = d + d* + b, B = d - d*, which in block coordinates reads

    d' = d b - b d,        b' = 2 (d d* - d* d)

(expanding the commutator puts the factor 2 on the block-diagonal part).
From d(0) = d, b(0) = 0 it is integrable (O. Knill, "An integrable
evolution equation in geometry", 2013).  Since d_{k+1} d_k = 0, the
singular triples (s, u, w) of all blocks d_k = sum s u w^T form one
orthonormal family, and on each triple the flow closes:

    d(t) = sum a u w^T,    b(t) = sum beta (u u^T - w w^T),
    a = s sech(2 s t),     beta = s tanh(2 s t).

The complexified generator B = d - d* + i b multiplies a by the phase
exp(i log cosh(2 s t)) and leaves b as it is.  The flow keeps sigma(D) and
L = D^2 fixed while d(t) decays to zero and b(t) tends to
sqrt(d d*) - sqrt(d* d), block diagonal with b^2 = L.

lax_deform evaluates this solution at t = i h, so h is a sampling
interval, not a step size.  One SVD per block is taken per run, and every
state of the run shares those factors.  On each triple D(t) acts on
span(u, w) as [[beta, a], [conj a, -beta]], with eigenvalues +-s, so every
diagnostic of a state (tr_m and the certified upper bounds spectrum_error,
nilpotency_error and laplacian_error on the residuals of the matrices it
rebuilds) is a few constants, read once per run from the factors and the
blocks d_k, scaled by the sample's a(t) and beta(t).  A sample costs
O(sum r_k^2), and a run factors nothing but the blocks (see _Eigenframe).
The samples are evaluated as array operations over a leading time axis,
in chunks of about _CHUNK array elements, so a run's transient memory
does not grow with its length.
The dense d(t), b(t) and D(t) are built only when a state's d, b or dirac
is read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import ROUND_CEILING, Context

import numpy as np

from .errors import ConsistencyError, UnsolvableError
from .hodge import Cochain, nonzero
from .operators import Operators, place

# lax_deform evaluates samples in chunks of about this many array elements
# (samples times triples), so a run's transient memory does not grow with
# its length; 2**16 raised the lax-deform benchmark's peak RSS by 1.2 MB
_CHUNK = 2**14


def poisson_solve(ops: Operators, k: int, j: Cochain | np.ndarray) -> Cochain:
    """Minimum-norm solution of L_k A = j.

    The right-hand side must be orthogonal to ker(L_k), up to 1e-8 of its
    norm; otherwise the problem is unsolvable and the offending kernel
    projection norm is reported.
    """
    values = np.asarray(j.values if isinstance(j, Cochain) else j, dtype=float)
    eigs, vecs = ops.block_eigensystems[k]
    if values.shape != eigs.shape:
        raise ValueError(f"right-hand side length {values.size} does not match stratum {k}")
    positive = nonzero(eigs)
    coeffs = vecs.T @ values
    knorm = float(np.linalg.norm(coeffs[~positive]))
    if knorm > 1e-8 * max(float(np.linalg.norm(values)), 1e-300):
        raise UnsolvableError(knorm)
    inv = np.divide(1.0, eigs, out=np.zeros_like(eigs), where=positive)
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
    u_hat = vecs.T @ np.asarray(w.u.values, dtype=float)
    v_hat = vecs.T @ np.asarray(w.v.values, dtype=float)
    omega = np.sqrt(np.clip(eigs, 0.0, None))
    positive = nonzero(eigs)
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
class LaxFactors:
    """The nonzero singular triples of the blocks d_k, shared by one run.

    triples[k] = (u, s, w) with d_k = u diag(s) w^T; offsets are the
    stratum boundaries (stratum k spans offsets[k]:offsets[k+1], and the
    last entry is v).
    """

    offsets: tuple[int, ...]
    triples: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    complexified: bool

    def coefficients(self, t: float | np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(a, beta) of each block at time t: a = s sech 2st, times the phase
        exp(i log cosh 2st) if complexified, and beta = s tanh 2st.

        For a 1-D array of n times, a and beta are n x r_k, one row per time."""
        out = []
        for u, s, w in self.triples:
            x = 2.0 * np.multiply.outer(t, s)
            decay = np.exp(-x)  # sech and log cosh in forms that cannot overflow
            a = s * 2.0 * decay / (1.0 + decay * decay)
            if self.complexified:
                a = a * np.exp(1j * (x + np.log1p(decay * decay) - np.log(2.0)))
            out.append((a, s * np.tanh(x)))
        return out

    def blocks(self, t: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The blocks d_k(t) and the diagonal blocks b_k(t) at time t.

        b_k(t) is real in both variants.
        """
        return self._assemble(self.coefficients(t))

    def _assemble(self, coefficients) -> tuple[list[np.ndarray], list[np.ndarray]]:
        b = [np.zeros((n, n)) for n in np.diff(self.offsets)]
        d = []
        for k, ((u, s, w), (a, beta)) in enumerate(zip(self.triples, coefficients)):
            d.append((u * a) @ w.T)
            b[k + 1] += (u * beta) @ u.T
            b[k] -= (w * beta) @ w.T
        return d, b

    def dense(self, d: list[np.ndarray], b: list[np.ndarray], adjoint: bool = False) -> np.ndarray:
        """The v x v matrix with the blocks d at (k+1, k), their adjoints at
        (k, k+1) if asked, and b on the diagonal; pass [] to leave either out."""
        lower = [(k + 1, k, blk) for k, blk in enumerate(d)]
        blocks = lower + [(c, r, blk.conj().T) for r, c, blk in lower if adjoint]
        blocks += [(k, k, blk) for k, blk in enumerate(b)]
        return place(self.offsets, self.offsets[-1], blocks, complex if self.complexified else float)


@dataclass(frozen=True)
class _Eigenframe:
    """The constants that certify the diagnostics of every sample of a run.

    Let Z = [u | w] be the v x 2R matrix of the u and w columns of all R
    triples, and M(t) block diagonal with M = [[beta, a], [conj a, -beta]]
    on each triple, so that D(t) = Z M(t) Z^T for the blocks the factors
    define; M^2 = s'^2 on each triple, s' = hypot(beta, |a|) (= s up to
    rounding).  Columns on different strata are orthogonal, so G = Z^T Z is
    block diagonal with the Gram G_k of [U_{k-1} | W_k] on stratum k, whose
    entries are those of U^T U, W^T W and C_k = W_{k+1}^T U_k.  Hence, with
    no eigendecomposition, delta = max_k ||G_k - I||_F >= ||G - I|| and
    ||Z||^2 <= 1 + delta.  The blocks that LaxFactors._assemble builds
    differ from Z M Z^T by the rounding Delta D.  Higham's
    gamma = n u / (1 - n u), n = max r_k + 2, bounds each entry of it by
    gamma times the same sums taken in absolute values, so with
    |Re a| + |Im a| <= sqrt 2 |a| and ||u||^2, ||w||^2 <= 1 + delta

        ||Delta d_k||_F <= e_k = sqrt 2 gamma (1 + delta) sum |a_k|,
        ||Delta D||_F <= sqrt 2 sum_k e_k + 2 gamma (1 + delta) sum |beta|.

    The residual rho0 >= ||D - Z M(0) Z^T||_F = (2 sum_k ||d_k - U_k S_k W_k^T||_F^2)^(1/2)
    is one product per block and run, plus this rounding bound at t = 0;
    it includes the triples dropped below the kernel cut.

    tr_m = 2 sum_k ||d_k(t)||_F^2 = 2 sum_k a^H H_k a, H_k = (U_k^T U_k) o (W_k^T W_k).

    Spectrum.  The nonzero eigenvalues of Z M Z^T are those of
    G^(1/2) M G^(1/2), and the other v - 2R are 0.  By Ostrowski's theorem
    (Horn-Johnson, Matrix Analysis, Thm 4.5.9) the i-th eigenvalue of
    G^(1/2) M G^(1/2) is theta_i times that of M, theta_i in
    [1 - delta, 1 + delta], so the sorted spectrum of Z M(t) Z^T is within
    delta max s' of sort(s', -s', 0, ...).  With the same at t = 0, Weyl's
    inequality on D - Z M(0) Z^T and on Delta D, and sorting 1-Lipschitz in
    the max norm, the rounded D~(t) has

        max_i |eig_i D~(t) - eig_i D| <= rho0 + delta (max s + max s')
                                         + max |s' - s| + ||Delta D||_F.

    Nilpotency.  d_{k+1}(t) d_k(t) = U_{k+1} diag(a_{k+1}) C_k diag(a_k) W_k^T
    and ||U_k||, ||W_k|| <= (1 + delta)^(1/2), so every entry of the product
    of the rounded blocks is at most

        (1 + delta) ||diag(a_{k+1}) C_k diag(a_k)||_F + e_{k+1} n_k + n_{k+1} e_k + e_{k+1} e_k

    with n_k = (1 + delta) max |a_k| >= ||d_k(t)||.  It is 0 unless two
    consecutive blocks both have triples.

    Laplacian.  With G = I + E, (Z M Z^T)^2 = Z M^2 Z^T + Z M E M Z^T and
    D = Z M(0) Z^T + R0, ||R0|| <= rho0, every entry of D~(t)^2 - L is at
    most

        (1 + delta) (max |s'^2 - s^2| + delta (max s'^2 + max s^2))
            + 2 (1 + delta) max s rho0 + rho0^2
            + 2 (1 + delta) max s' ||Delta D||_F + ||Delta D||_F^2.

    The bounds hold up to the rounding of the once-per-run constants
    (delta, C_k, rho0), O(v eps max s^2).  A frame with delta > 1/2
    certifies nothing, and its residual is inf.
    """

    singular: np.ndarray  # s of every triple, block by block
    grams: tuple[np.ndarray, ...]  # H_k
    couplings: tuple[np.ndarray, ...]  # C_k o C_k
    delta: float
    residual: float  # rho0, or inf
    gamma: float

    def rounding(self, coefficients) -> tuple[list[np.ndarray], np.ndarray]:
        """The bounds e_k on ||Delta d_k||_F and the bound on ||Delta D||_F,
        one per row of the coefficients."""
        scale = self.gamma * (1.0 + self.delta)
        e = [2**0.5 * scale * np.sum(np.abs(a), axis=-1) for a, _ in coefficients]
        beta = sum(np.sum(np.abs(b), axis=-1) for _, b in coefficients)
        return e, 2**0.5 * sum(e) + 2.0 * scale * beta

    def diagnostics(self, coefficients) -> tuple[np.ndarray, ...]:
        """tr_m and the bounds on the spectral drift, the nilpotency and the
        Laplacian drift of the blocks that LaxFactors builds from coefficients.

        Each reduces the last axis, so coefficients at one time give scalars
        and coefficients at n times give n values; with no triples at all
        every diagnostic is a scalar, the same at every time.  A time's values
        do not depend on the times evaluated with it: the quadratic forms take
        one dot or matrix-vector product per time (vecdot, matvec, vecmat),
        and squares and square roots of per-time values are products and
        np.sqrt, because a matrix product over all n, and ** on a 0-d value,
        round differently."""
        grow, rho = 1.0 + self.delta, self.residual
        mags = [np.abs(a) for a, _ in coefficients]
        s = np.concatenate([np.hypot(b, m) for (_, b), m in zip(coefficients, mags)] or [np.zeros(0)], axis=-1)
        top, top0 = np.max(s, axis=-1, initial=0.0), float(np.max(self.singular, initial=0.0))
        e, rounding = self.rounding(coefficients)
        tr_m = 2.0 * sum(np.vecdot(a, np.matvec(h, a)).real for (a, _), h in zip(coefficients, self.grams))
        spectrum = (rho + self.delta * (top0 + top) + np.max(np.abs(s - self.singular), axis=-1, initial=0.0)
                    + rounding)
        n = [grow * np.max(m, axis=-1, initial=0.0) for m in mags]  # >= ||d_k(t)||
        nilpotency = 0.0
        for k, c in enumerate(self.couplings):
            exact = grow * np.sqrt(np.vecdot(np.vecmat(mags[k + 1] ** 2, c), mags[k] ** 2))
            nilpotency = np.maximum(nilpotency, exact + e[k + 1] * n[k] + n[k + 1] * e[k] + e[k + 1] * e[k])
        laplacian = (grow * (np.max(np.abs(s * s - self.singular**2), axis=-1, initial=0.0)
                             + self.delta * (top * top + top0 * top0))
                     + (2.0 * grow * top0 + rho) * rho + (2.0 * grow * top + rounding) * rounding)
        return tr_m, spectrum, nilpotency, laplacian


@dataclass(frozen=True)
class DeformationState:
    """One sample of the Lax flow with its diagnostics.

    A state keeps t, the diagnostics of the matrices at t and a reference
    to the run's shared LaxFactors, never a matrix, so its size does not
    depend on v or on the length of the run.  d, b and dirac rebuild a
    fresh dense v x v array from the factors on every read; bind the
    result once.
    """

    t: float
    factors: LaxFactors
    tr_m: float
    spectrum_error: float
    nilpotency_error: float
    laplacian_error: float

    @property
    def d(self) -> np.ndarray:
        return self.factors.dense(self.factors.blocks(self.t)[0], [])

    @property
    def b(self) -> np.ndarray:
        return self.factors.dense([], self.factors.blocks(self.t)[1])

    @property
    def dirac(self) -> np.ndarray:
        return self.factors.dense(*self.factors.blocks(self.t), adjoint=True)


def lax_deform(
    ops: Operators,
    t_final: float,
    h: float = 0.01,
    variant: str = "real",
    nilpotency_bound: float = 1e-8,
    spectrum_bound: float = 1e-6,
) -> list[DeformationState]:
    """The isospectral deformation from d(0) = d, b(0) = 0, sampled at t = i h.

    The flow is evaluated in closed form (see the module docstring) at
    every t = i h up to round(t_final / h) h.  Each state records tr_m and
    three certified upper bounds on the residuals of the matrices that the
    state rebuilds at its t: spectrum_error on the spectral drift
    max |eig D(t) - eig D|, nilpotency_error on max |d(t)^2| and
    laplacian_error on max |D(t)^2 - L|.  They scale constants read once
    per run from the factors and the blocks d_k (see _Eigenframe), so the
    run factors nothing but the blocks and a sample forms no matrix.
    The times are evaluated in chunks of _CHUNK // R samples for R triples,
    and each state's diagnostics are bit for bit those of its t alone.
    Nilpotency or spectral drift beyond its bound is a bug and raises
    ConsistencyError.
    """
    if t_final <= 0 or h <= 0:
        raise ValueError("t_final and h must be positive")
    if variant not in ("real", "complexified"):
        raise ValueError(f"unknown variant {variant!r}")
    factors = _lax_factors(ops, variant == "complexified")
    frame = _eigenframe(factors, ops)
    times = np.arange(int(round(t_final / h)) + 1) * h  # = i * h, bit for bit
    size = max(1, _CHUNK // max(1, frame.singular.size))
    states = []
    for chunk in (times[lo:lo + size] for lo in range(0, times.size, size)):
        columns = [np.broadcast_to(x, chunk.shape).tolist()
                   for x in frame.diagnostics(factors.coefficients(chunk))]
        for t, *diagnostics in zip(chunk.tolist(), *columns):
            state = DeformationState(t, factors, *diagnostics)
            if state.nilpotency_error > nilpotency_bound or state.spectrum_error > spectrum_bound:
                raise ConsistencyError(
                    f"Lax state at t = {state.t:g} breaches its bounds: nilpotency"
                    f" {state.nilpotency_error:.3e}, spectral drift {state.spectrum_error:.3e}"
                )
            states.append(state)
    return states


def _lax_factors(ops: Operators, complexified: bool) -> LaxFactors:
    """One SVD per block d_k, keeping the triples whose s^2 is nonzero."""
    triples = []
    for blk in ops.dblocks:
        u, s, wt = np.linalg.svd(blk.astype(float), full_matrices=False)
        keep = nonzero(s * s)
        triples.append((u[:, keep], s[keep], wt[keep].T))
    return LaxFactors(ops.offsets + (ops.v,), tuple(triples), complexified)


def _eigenframe(factors: LaxFactors, ops: Operators) -> _Eigenframe:
    """The constants of _Eigenframe, once per run, from the factors and ops.dblocks."""
    triples = factors.triples
    uu, ww = [u.T @ u for u, _, _ in triples], [w.T @ w for _, _, w in triples]
    couplings = [(w.T @ u) ** 2 for (u, _, _), (_, _, w) in zip(triples, triples[1:])]

    def gap(g):
        return float(np.sum((g - np.eye(len(g))) ** 2))

    # ||G_k - I||_F^2 on stratum k, from U_{k-1}^T U_{k-1}, W_k^T W_k and C_{k-1}
    empty = np.zeros((0, 0))
    delta = max(gap(gu) + gap(gw) + 2.0 * float(np.sum(c))
                for gu, gw, c in zip([empty] + uu, ww + [empty], [empty] + couplings + [empty])) ** 0.5
    unit = float(np.finfo(float).eps) / 2 * (max([s.size for _, s, _ in triples], default=0) + 2)
    frame = _Eigenframe(
        singular=np.concatenate([np.zeros(0)] + [s for _, s, _ in triples]),
        grams=tuple(gu * gw for gu, gw in zip(uu, ww)),
        couplings=tuple(couplings),
        delta=delta,
        residual=np.inf,
        gamma=unit / (1.0 - unit),
    )
    if delta > 0.5:
        return frame
    square = sum(float(np.sum((blk - (u * s) @ w.T) ** 2)) for blk, (u, s, w) in zip(ops.dblocks, triples))
    _, rounding = frame.rounding([(s, 0.0 * s) for _, s, _ in triples])
    return replace(frame, residual=(2.0 * square) ** 0.5 + rounding)


def trajectory_csv(states: list[DeformationState]) -> str:
    """CSV with one diagnostics row per sample.

    spectrumError and nilpotencyError are the state's spectrum_error and
    nilpotency_error: certified upper bounds on max |eig D(t) - eig D| and
    max |d(t)^2|, not measured residuals.  Both are rounded up to 3
    significant digits, so they stay upper bounds.
    """
    up = Context(prec=3, rounding=ROUND_CEILING).create_decimal_from_float
    rows = [f"{s.t:.6f},{s.tr_m:.12g},{up(s.spectrum_error):g},{up(s.nilpotency_error):g}"
            for s in states]
    return "\n".join(["t,trM,spectrumError,nilpotencyError"] + rows) + "\n"
