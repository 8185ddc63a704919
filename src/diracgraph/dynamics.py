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
of all u and w is the kernel.  So every diagnostic of a state (tr_m and
the certified upper bounds spectrum_error, nilpotency_error and
laplacian_error on the residuals of the matrices it rebuilds) is a few
small constants, taken once per run from the factors, scaled by the
sample's a(t) and beta(t): a sample costs O(sum r_k^2) and forms no
stratum-sized matrix (see _Eigenframe).  The dense d(t), b(t) and D(t) are
built only when a state's d, b or dirac is read.
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
    """The constants that certify the diagnostics of every sample of a run.

    frames[k] = [u | w | kernel] is square in stratum k: the u columns of
    the triples of d_{k-1}, the w columns of those of d_k, then an
    orthonormal basis of their complement (one complete QR per run).
    Together the frames make a v x v matrix Z0, block diagonal up to the
    order of its columns, with E = Z0^T Z0 - I and
    delta = ||E|| = max_k ||frames[k]^T frames[k] - I||.  On each triple D(t)
    acts on span(u, w) as M = [[beta, a], [conj a, -beta]], and with M(t)
    block diagonal over the triples and zero on the kernel columns

        D(t) = Z0 M(t) Z0^T

    holds exactly for the blocks that the factors define.  M^2 = s'^2 on each
    triple, s' = hypot(beta, |a|) (= s up to rounding).  The blocks that
    LaxFactors._assemble builds differ from these by the rounding Delta D.
    Higham's gamma = n u / (1 - n u), n = max r_k + 2, bounds each entry of
    it by gamma times the same sums taken in absolute values, so with
    |Re a| + |Im a| <= sqrt 2 |a| and ||u||^2, ||w||^2 <= 1 + delta

        ||Delta d_k||_F <= e_k = sqrt 2 gamma (1 + delta) sum |a_k|,
        ||Delta D||_F <= sqrt 2 sum_k e_k + 2 gamma (1 + delta) sum |beta|.

    Every diagnostic of a sample is then a few of these constants scaled by
    its a(t) and beta(t), in O(sum r_k^2) and without a v_k x v_k product:

    tr_m = 2 sum_k ||d_k(t)||_F^2 = 2 sum_k a^H H_k a, H_k = (U_k^T U_k) o (W_k^T W_k).

    Spectrum.  M has unitary eigenvectors G(t), 2 x 2 per triple, so
    Z = Z0 G is an eigenframe of the closed form with Lam = (s', -s', 0, ...)
    and the residual R = D(t) Z - Z Lam = Z0 M E G.  The two rows of a
    triple have disjoint stratum supports, so
    ||M E||_F^2 = sum s'^2 (rho_u^2 + rho_w^2) exactly, where rho are the row
    norms of E at the triple's columns, and ||R||_F <= (1 + delta)^(1/2) ||M E||_F.
    With the polar decomposition Z = Q P, Q* D(t) Q = Lam + F with the
    Hermitian F = [P - I, Lam] P^-1 + Q* R P^-1.  The eigenvalues of P are
    sqrt(1 + e), |e| <= delta, so ||P - I|| <= delta and
    ||P^-1|| <= (1 - delta)^(-1/2) <= 1 + delta for delta <= 1/2.  Weyl's
    inequality on Lam + F and on Delta D gives

        |eig_i D~(t) - sort(Lam)_i| <= (1 + delta)^(3/2) ||M E||_F
                                       + 2 (1 + delta) delta max s' + ||Delta D||_F

    for the rounded D~(t).  Sorting is 1-Lipschitz in the max norm, so
    max |sort(Lam) - eig D| <= off + max |s' - s| with
    off = max |sort(s, -s, 0, ...) - eig D| taken once per run; the sum
    bounds max_i |eig_i D~(t) - eig_i D|.

    Nilpotency.  d_{k+1}(t) d_k(t) = U_{k+1} diag(a_{k+1}) C_k diag(a_k) W_k^T
    with C_k = W_{k+1}^T U_k, and ||U_k||, ||W_k|| <= (1 + delta)^(1/2), so
    every entry of the product of the rounded blocks is at most

        (1 + delta) ||diag(a_{k+1}) C_k diag(a_k)||_F + e_{k+1} n_k + n_{k+1} e_k + e_{k+1} e_k

    with n_k = (1 + delta) max |a_k| >= ||d_k(t)||.  It is 0 unless two
    consecutive blocks both have triples.

    Laplacian.  D(t)^2 = Z0 M (I + E) M Z0^T
    = sum s'^2 (u u^T + w w^T) + Z0 M E M Z0^T, and
    Lam0 = max |sum s^2 (u u^T + w w^T) - L| is taken once per run.  With
    ||D(t)|| <= (1 + delta) max s', every entry of D~(t)^2 - L is at most

        Lam0 + (1 + delta) max |s'^2 - s^2| + (1 + delta) delta max s'^2
             + 2 (1 + delta) max s' ||Delta D||_F + ||Delta D||_F^2.

    The bounds hold up to the rounding of the once-per-run constants
    (delta, rho, C_k, off, Lam0), O(v eps max s^2), the order of the error
    of a dense symmetric eigensolver itself.  A frame with delta > 1/2
    certifies nothing, and its offset is inf.
    """

    singular: np.ndarray  # s of every triple, block by block
    rows: np.ndarray  # rho_u^2 + rho_w^2 of every triple
    grams: tuple[np.ndarray, ...]  # H_k
    couplings: tuple[np.ndarray, ...]  # C_k o C_k
    delta: float
    offset: float  # off, or inf
    defect: float  # Lam0
    gamma: float

    def rounding(self, coefficients) -> tuple[list[float], float]:
        """The bounds e_k on ||Delta d_k||_F and the bound on ||Delta D||_F."""
        scale = self.gamma * (1.0 + self.delta)
        e = [2**0.5 * scale * float(np.sum(np.abs(a))) for a, _ in coefficients]
        beta = sum(float(np.sum(np.abs(b))) for _, b in coefficients)
        return e, 2**0.5 * sum(e) + 2.0 * scale * beta

    def diagnostics(self, coefficients) -> tuple[float, float, float, float]:
        """tr_m and the bounds on the spectral drift, the nilpotency and the
        Laplacian drift of the blocks that LaxFactors builds from coefficients."""
        grow = 1.0 + self.delta
        mags = [np.abs(a) for a, _ in coefficients]
        s = np.concatenate([np.zeros(0)] + [np.hypot(b, m) for (_, b), m in zip(coefficients, mags)])
        top = float(np.max(s, initial=0.0))
        e, rounding = self.rounding(coefficients)
        tr_m = 2.0 * sum(float(np.vdot(a, h @ a).real) for (a, _), h in zip(coefficients, self.grams))
        spectrum = (self.offset + float(np.max(np.abs(s - self.singular), initial=0.0))
                    + 2.0 * grow * self.delta * top + grow**1.5 * float(s * s @ self.rows) ** 0.5
                    + rounding)
        n = [grow * float(np.max(m, initial=0.0)) for m in mags]  # >= ||d_k(t)||
        nilpotency = 0.0
        for k, c in enumerate(self.couplings):
            exact = grow * float(mags[k + 1] ** 2 @ c @ mags[k] ** 2) ** 0.5
            nilpotency = max(nilpotency, exact + e[k + 1] * n[k] + n[k + 1] * e[k] + e[k + 1] * e[k])
        laplacian = (self.defect + grow * float(np.max(np.abs(s * s - self.singular**2), initial=0.0))
                     + grow * self.delta * top**2 + 2.0 * grow * top * rounding + rounding**2)
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
    laplacian_error on max |D(t)^2 - L|.  They come from constants taken
    once per run, scaled by the sample's coefficients (see _Eigenframe), so
    a sample forms no block and no eigendecomposition.  The closed form
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
        state = DeformationState(i * h, factors, *frame.diagnostics(factors.coefficients(i * h)))
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
    """The constants of _Eigenframe, once per run."""
    triples = factors.triples
    strata = zip(factors.offsets, factors.offsets[1:])
    spans = [[(np.zeros((hi - lo, 0)), np.zeros(0))] for lo, hi in strata]
    for k, (u, s, w) in enumerate(triples):
        spans[k + 1].append((u, s))
        spans[k].append((w, s))
    rows, delta, defect = [], 0.0, 0.0
    for span, lap in zip(spans, ops.lap_blocks):
        basis = np.hstack([x for x, _ in span])
        frame = np.hstack([basis, np.linalg.qr(basis, mode="complete").Q[:, basis.shape[1] :]])
        gap = frame.T @ frame - np.eye(len(frame))
        delta = max(delta, float(np.max(np.abs(np.linalg.eigvalsh(gap)))))  # gap is symmetric
        rows.append(np.sum(gap[: basis.shape[1]] ** 2, axis=1))  # rho^2 of the u, then the w columns
        square = (basis * np.concatenate([s * s for _, s in span])) @ basis.T
        defect = max(defect, float(np.max(np.abs(square - lap), initial=0.0)))
    s = np.concatenate([np.zeros(0)] + [s for _, s, _ in triples])
    lam = np.sort(np.concatenate([s, -s, np.zeros(factors.offsets[-1] - 2 * s.size)]))
    off = float(np.max(np.abs(lam - ops.dirac_eigensystem[0]), initial=0.0))
    lead = [0] + [s.size for _, s, _ in triples]  # the u columns of d_{k-1} lead frames[k]
    rho = [rows[k + 1][:r] + rows[k][lead[k] : lead[k] + r] for k, r in enumerate(lead[1:])]
    unit = float(np.finfo(float).eps) / 2 * (max(lead) + 2)
    return _Eigenframe(
        singular=s,
        rows=np.concatenate([np.zeros(0)] + rho),
        grams=tuple((u.T @ u) * (w.T @ w) for u, _, w in triples),
        couplings=tuple((w.T @ u) ** 2 for (u, _, _), (_, _, w) in zip(triples, triples[1:])),
        delta=delta,
        offset=off if delta <= 0.5 else np.inf,
        defect=defect,
        gamma=unit / (1.0 - unit),
    )


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
