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
state of the run shares those factors.  The same factors give the
eigenvectors of D(t) in closed form: on each triple D(t) acts on span(u, w)
as [[beta, a], [conj a, -beta]], with eigenvalues +-s, and the complement
of all u and w is the kernel.  So a state's spectrum_error is a certified
Weyl upper bound on max |eig D(t) - eig D| from the residual of D(t) in
that eigenframe, not the drift of a dense eigendecomposition per sample
(see _Eigenframe).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_CEILING, Context

import numpy as np

from .errors import ConsistencyError, UnsolvableError
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
class LaxFactors:
    """The nonzero singular triples of the blocks d_k, shared by one run.

    triples[k] = (u, s, w) with d_k = u diag(s) w^T; offsets are the
    stratum boundaries (stratum k spans offsets[k]:offsets[k+1], and the
    last entry is v).
    """

    offsets: tuple[int, ...]
    triples: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    complexified: bool

    def coefficients(self, t: float) -> list[tuple[np.ndarray, np.ndarray]]:
        """(a, beta) of each block at time t: a = s sech 2st, times the phase
        exp(i log cosh 2st) if complexified, and beta = s tanh 2st."""
        out = []
        for u, s, w in self.triples:
            x = 2.0 * s * t
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
        strata = [slice(lo, hi) for lo, hi in zip(self.offsets, self.offsets[1:])]
        m = np.zeros((self.offsets[-1],) * 2, dtype=complex if self.complexified else float)
        for k, blk in enumerate(d):
            m[strata[k + 1], strata[k]] = blk
            if adjoint:
                m[strata[k], strata[k + 1]] = blk.conj().T
        for k, blk in enumerate(b):
            m[strata[k], strata[k]] = blk
        return m


@dataclass(frozen=True)
class _Eigenframe:
    """The closed-form eigenvectors of D(t), and the constants of their Weyl bound.

    frames[k] = [u | w | kernel] is square in stratum k: the u columns of
    the triples of d_{k-1}, the w columns of those of d_k, then an
    orthonormal basis of their complement, which lies in ker D(t) at every
    t.  Together the frames make a v x v matrix Z0, block diagonal up to the
    order of its columns.  On each triple D(t) acts on span(u, w) as
    M = [[beta, a], [conj a, -beta]], whose eigenvalues are +-s' with
    s' = hypot(beta, |a|) (= s up to rounding).  With tan 2 theta = |a| / beta
    (= sech 2st / tanh 2st) and the phase p = a / |a|, its eigenvectors are

        z+ = u cos theta + conj(p) w sin theta   (eigenvalue s'),
        z- = -u sin theta + conj(p) w cos theta  (eigenvalue -s'),

    so Z(t) = Z0 G(t), G(t) unitary, is an eigenframe of the closed form
    with Lam = (s', -s', 0, ...), and the residual

        R = D(t) Z(t) - Z(t) Lam = (D(t) Z0 - Z0 M(t)) G(t)

    has ||R||_F = ||D(t) Z0 - Z0 M(t)||_F.  spectrum_bound takes that norm
    from the blocks of D(t) in the fixed frame, stratum by stratum, so
    neither G(t) nor the dense D(t) is formed.

    The certificate.  Let E = Z*Z - I, whose 2-norm
    delta = ||Z0* Z0 - I|| = max_k ||frames[k]* frames[k] - I|| does not
    depend on t, and let Z = Q P be the polar decomposition, Q unitary,
    P = (Z*Z)^(1/2).  Then Q* D(t) Q = P Lam P^-1 + Q* R P^-1 = Lam + F
    with the Hermitian

        F = [P - I, Lam] P^-1 + Q* R P^-1.

    The eigenvalues of P are sqrt(1 + e), |e| <= delta, so ||P - I|| <= delta
    and ||P^-1|| <= (1 - delta)^(-1/2) <= 1 + delta for delta <= 1/2, and
    ||[X, Lam]|| <= 2 max s' ||X||.  Weyl's inequality on Lam + F gives

        |eig_i D(t) - sort(Lam)_i| <= ||F|| <= (1 + delta) ||R||_F + c max s delta

    with c = 2 (1 + delta) <= 3.  Sorting is 1-Lipschitz in the max norm, so
    max |sort(Lam) - eig D| <= off + max |s' - s| with
    off = max |sort(s, -s, 0, ...) - eig D| taken once per run; the sum of
    these terms bounds max_i |eig_i D(t) - eig_i D|.  It holds for the
    rounded blocks of D(t) up to the rounding of the products that form R,
    delta and off, O(v eps max s), the order of the error of a dense
    symmetric eigensolver itself.  A frame with delta > 1/2 certifies
    nothing, and its offset is inf.
    """

    frames: tuple[np.ndarray, ...]
    triples: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    delta: float
    offset: float  # off + c max s delta

    def spectrum_bound(self, coefficients, d: list[np.ndarray], b: list[np.ndarray]) -> float:
        """The bound on max |eig D(t) - eig D| for the blocks d, b that
        LaxFactors builds from coefficients."""
        square = 0.0
        drift = 0.0
        lead = 0  # the u columns of d_{k-1} lead frames[k]
        for k, q in enumerate(self.frames):
            # column block k of D(t) Z0 - Z0 M(t), in the rows of strata k-1, k, k+1
            mid = b[k] @ q
            rows = [mid]
            if k:  # the u columns of d_{k-1}: D u = beta u + conj(a) w
                u, _, w = self.triples[k - 1]
                a, beta = coefficients[k - 1]
                below = d[k - 1].conj().T @ q
                below[:, :lead] -= w * a.conj()
                mid[:, :lead] -= u * beta
                rows.append(below)
            if k < len(d):  # the w columns of d_k: D w = a u - beta w
                u, s, w = self.triples[k]
                a, beta = coefficients[k]
                cols = slice(lead, lead + s.size)
                above = d[k] @ q
                above[:, cols] -= u * a
                mid[:, cols] += w * beta
                rows.append(above)
                s_rounded = np.hypot(beta, np.abs(a))  # the eigenvalues of M are +-s_rounded
                drift = max(drift, float(np.max(np.abs(s_rounded - s), initial=0.0)))
                lead = s.size
            square += sum(float(np.vdot(x, x).real) for x in rows)
        return self.offset + drift + (1.0 + self.delta) * square**0.5


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


def _max_abs(blocks) -> float:
    return max((float(np.max(np.abs(x))) for x in blocks), default=0.0)


def _sample(factors: LaxFactors, frame: _Eigenframe, ops: Operators, t: float) -> DeformationState:
    """The state at t, with the residuals of the matrices rebuilt at t."""
    coefficients = factors.coefficients(t)
    d, b = factors._assemble(coefficients)
    spec_err = frame.spectrum_bound(coefficients, d, b)
    # D(t)^2 - L is Hermitian; below its diagonal it has the (k+1, k)
    # blocks d_k b_k + b_{k+1} d_k and the (k+2, k) blocks d_{k+1} d_k
    nil = [d[k + 1] @ d[k] for k in range(len(d) - 1)]
    lower = [dk @ b[k] + b[k + 1] @ dk for k, dk in enumerate(d)]
    diag = [bk @ bk - lk for bk, lk in zip(b, ops.lap_blocks)]
    for k, dk in enumerate(d):
        diag[k] = diag[k] + dk.conj().T @ dk
        diag[k + 1] = diag[k + 1] + dk @ dk.conj().T
    nil_err = _max_abs(nil)
    return DeformationState(
        t=t,
        factors=factors,
        tr_m=2.0 * sum(float(np.vdot(dk, dk).real) for dk in d),
        spectrum_error=spec_err,
        nilpotency_error=nil_err,
        laplacian_error=max(nil_err, _max_abs(lower), _max_abs(diag)),
    )


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
    every t = i h up to round(t_final / h) h.  Each state records
    diagnostics of the matrices rebuilt at its t: spectrum_error, a
    certified Weyl upper bound on the spectral drift max |eig D(t) - eig D|
    from the residual of D(t) in its closed-form eigenframe (see
    _Eigenframe; no eigendecomposition per sample), the nilpotency
    max |d(t)^2| and the entrywise drift max |D(t)^2 - L|.  The closed form
    keeps them at rounding level, so nilpotency or spectral drift beyond
    its bound is a bug and raises ConsistencyError.
    """
    if t_final <= 0 or h <= 0:
        raise ValueError("t_final and h must be positive")
    if variant not in ("real", "complexified"):
        raise ValueError(f"unknown variant {variant!r}")
    factors = _lax_factors(ops, variant == "complexified")
    frame = _eigenframe(factors, ops)
    states = []
    for i in range(int(round(t_final / h)) + 1):
        state = _sample(factors, frame, ops, i * h)
        if state.nilpotency_error > nilpotency_bound or state.spectrum_error > spectrum_bound:
            raise ConsistencyError(
                f"Lax state at t = {state.t:g} breaches its bounds: nilpotency"
                f" {state.nilpotency_error:.3e}, spectral drift {state.spectrum_error:.3e}"
            )
        states.append(state)
    return states


def _lax_factors(ops: Operators, complexified: bool) -> LaxFactors:
    """One SVD per block d_k, keeping the triples with s^2 above the kernel cut."""
    triples = []
    for blk in ops.dblocks:
        u, s, wt = np.linalg.svd(blk.astype(float), full_matrices=False)
        keep = s * s >= kernel_cut(s * s)
        triples.append((u[:, keep], s[keep], wt[keep].T))
    return LaxFactors(ops.offsets + (ops.v,), tuple(triples), complexified)


def _eigenframe(factors: LaxFactors, ops: Operators) -> _Eigenframe:
    """The frames of _Eigenframe with their delta and offset, once per run."""
    spans = [[np.zeros((hi - lo, 0))] for lo, hi in zip(factors.offsets, factors.offsets[1:])]
    for k, (u, _, w) in enumerate(factors.triples):
        spans[k + 1].append(u)
        spans[k].append(w)
    frames = []
    for span in spans:
        basis = np.hstack(span)
        complement = np.linalg.qr(basis, mode="complete").Q[:, basis.shape[1] :]
        frames.append(np.hstack([basis, complement]))
    delta = max((float(np.linalg.norm(q.T @ q - np.eye(len(q)), 2)) for q in frames), default=0.0)
    s = np.concatenate([np.zeros(0)] + [s for _, s, _ in factors.triples])
    lam = np.sort(np.concatenate([s, -s, np.zeros(factors.offsets[-1] - 2 * s.size)]))
    off = float(np.max(np.abs(lam - ops.dirac_eigensystem[0]), initial=0.0))
    c = 2.0 * (1.0 + delta)
    offset = off + c * float(np.max(s, initial=0.0)) * delta if delta <= 0.5 else np.inf
    return _Eigenframe(tuple(frames), factors.triples, delta, offset)


def trajectory_csv(states: list[DeformationState]) -> str:
    """CSV with one diagnostics row per sample.

    spectrumError is the state's spectrum_error: a certified Weyl upper
    bound on max |eig D(t) - eig D|, not the drift of an eigendecomposition.
    It and nilpotencyError are rounded up to 3 significant digits: still
    upper bounds, and free of the residuals' rounding noise.
    """
    up = Context(prec=3, rounding=ROUND_CEILING).create_decimal_from_float
    rows = [f"{s.t:.6f},{s.tr_m:.12g},{up(s.spectrum_error):g},{up(s.nilpotency_error):g}"
            for s in states]
    return "\n".join(["t,trM,spectrumError,nilpotencyError"] + rows) + "\n"
