"""Spectral invariants: pseudo-determinants, zeta functions, tree counts.

The Dirac spectrum is symmetric about zero, so powers of negative
eigenvalues need a branch choice.  We take lambda^(-s) = e^(-i pi s)
|lambda|^(-s) for lambda < 0, which pairs each negative eigenvalue with
its positive partner into the factor (1 + e^(-i pi s)) and makes
zeta(-n) = tr(D^n) hold for every positive integer n: odd traces vanish,
even ones are real.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, fsum, isinf, log, prod
from numbers import Integral

import numpy as np

from .complexes import CliqueComplex, SimpleGraph, build_complex, simplex_graph
from .errors import ComputationError, GraphMismatchError
from .hodge import KERNEL_TOL, nonzero
from .operators import Operators, build_operators


def charpoly_int(m) -> list[int]:
    """Exact characteristic polynomial det(xI - M) of an integer matrix.

    Faddeev-LeVerrier over Python integers (object-dtype products); every
    interior division is exact.  Coefficients are returned in descending
    powers, leading 1.  Raises ValueError unless M is a square 2-D array of
    integral entries; integral floats such as 2.0 are accepted.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"charpoly_int expects a square 2-D array, got shape {a.shape}")
    entries = a.ravel().tolist()
    if not all(isinstance(x, Integral) or isinstance(x, float) and x.is_integer() for x in entries):
        raise ValueError("charpoly_int expects integral entries")
    a = np.array([int(x) for x in entries], dtype=object).reshape(a.shape)
    n = len(a)
    mk = np.eye(n, dtype=object)
    coeffs = [1]
    for k in range(1, n + 1):
        mk = a @ mk
        c = -(sum(mk.diagonal()) // k)
        coeffs.append(c)
        mk.flat[:: n + 1] += c
    return coeffs


def dirac_charpoly(ops: Operators) -> list[int]:
    """Exact det(xI - D) in descending powers, from the blocks d_k alone.

    The nonzero eigenvalues of D = d + d^T are +-sigma for the nonzero
    singular values sigma of each d_k, so
    det(xI - D) = x^(v - 2R) * prod_k q_k(x^2), where q_k is the
    characteristic polynomial of the smaller Gram matrix of d_k with its
    trailing zero coefficients dropped and R = sum_k deg q_k = rank d.
    """
    p = np.ones(1, dtype=object)
    for b in ops.dblocks:
        q = charpoly_int(b @ b.T if b.shape[0] <= b.shape[1] else b.T @ b)
        p = np.convolve(p, np.trim_zeros(np.array(q, dtype=object), "b"))
    coeffs = np.zeros(ops.v + 1, dtype=object)
    coeffs[: 2 * len(p) - 1 : 2] = p
    return coeffs.tolist()


def pseudo_det(m: np.ndarray, tol: float = KERNEL_TOL) -> float:
    """Product of the nonzero eigenvalues of a symmetric matrix (empty = 1, overflow = inf)."""
    m = np.asarray(m, dtype=float)
    if not np.allclose(m, m.T):
        raise ValueError("pseudo_det expects a symmetric matrix")
    return nonzero_product(np.linalg.eigvalsh(m), tol)


def nonzero_product(eigs: np.ndarray, tol: float = KERNEL_TOL) -> float:
    """Product of the nonzero eigenvalues (none = 1, overflow = inf)."""
    with np.errstate(over="ignore"):  # a product beyond double range is inf
        return float(np.prod(eigs[nonzero(eigs, tol)]))


# two primes below 2**31: every product of two residues fits in int64
_TREE_PRIMES = (2147483647, 2147483629)


def _det_mod(a: np.ndarray, p: int) -> int:
    """Determinant of an integer matrix modulo a prime p < 2**31, by int64 elimination."""
    a = a % p
    det = 1
    for k in range(len(a)):
        rows = np.flatnonzero(a[k:, k])
        if rows.size == 0:
            return 0
        if rows[0]:
            a[[k, k + rows[0]]] = a[[k + rows[0], k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % p
        factors = a[k + 1 :, k] * pow(pivot, -1, p) % p
        a[k + 1 :, k:] = (a[k + 1 :, k:] - np.outer(factors, a[k, k:]) % p) % p
    return det


def kirchhoff_trees(g: SimpleGraph) -> int:
    """Spanning trees of a connected graph via the scalar Laplacian.

    The count is the determinant of the reduced Laplacian (the first vertex
    deleted), which is positive semidefinite, so by Hadamard's inequality
    the product of the other degrees bounds it.  When that product, or
    else the float estimate pseudo_det(L)/n, is below 2**60, the count is
    exact: it is taken modulo two primes near 2**31 and combined by the
    Chinese remainder theorem, whose range 2**62 holds it.  Larger counts
    are the rounded estimate, which is float-rounded beyond 2**53; an
    estimate that overflows raises OverflowError.
    """
    if g.n == 0:
        raise ComputationError("spanning trees of the empty graph are undefined")
    if not g.is_connected():
        raise ComputationError(
            "graph is disconnected: it has no spanning tree and the "
            "pseudo-determinant formula does not apply"
        )
    if g.n == 1:
        return 1
    pos = g.position
    l0 = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        l0[i, j] -= 1
        l0[j, i] -= 1
        l0[i, i] += 1
        l0[j, j] += 1
    if prod(l0.diagonal()[1:].tolist()) >= 2 ** 60:
        estimate = pseudo_det(l0) / g.n
        if isinf(estimate):
            raise OverflowError(
                f"the spanning-tree count of this {g.n}-vertex graph overflows the float range"
            )
        if estimate >= 2 ** 60:
            return round(estimate)
    p, q = _TREE_PRIMES
    r, s = _det_mod(l0[1:, 1:], p), _det_mod(l0[1:, 1:], q)
    return r + p * ((s - r) * pow(p, -1, q) % q)


def simplex_graph_trees(c: CliqueComplex) -> int:
    """Spanning trees of the simplex graph, whose adjacency matrix is |D|."""
    return kirchhoff_trees(simplex_graph(c))


def cauchy_binet_coeffs(f, g, k: int):
    """Sum of det(F_P) det(G_P) over all k x k row/column selections P.

    For n x m matrices F, G this is the k-th elementary symmetric function
    of the eigenvalues of F^T G, i.e. (-1)^k times the x^(m-k) coefficient
    of det(xI - F^T G).  Integer inputs are exact: F^T G is formed over
    Python ints and passed to charpoly_int.  Other inputs use np.poly in
    floating point.
    """
    fa = np.asarray(f)
    ga = np.asarray(g)
    if fa.shape != ga.shape:
        raise ValueError(f"shape mismatch: {fa.shape} vs {ga.shape}")
    n, m = fa.shape
    if not 0 <= k <= min(n, m):
        raise ValueError(f"minor size {k} out of range for shape {fa.shape}")
    if np.issubdtype(fa.dtype, np.integer) and np.issubdtype(ga.dtype, np.integer):
        return (-1) ** k * charpoly_int(fa.astype(object).T @ ga.astype(object))[k]
    eigs = np.linalg.eigvals(fa.astype(float).T @ ga.astype(float))
    return float((-1) ** k * np.atleast_1d(np.poly(eigs))[k])


def invariant_report(name: str, lhs: float, rhs: float, tolerance: float) -> dict:
    """One spectral identity as a JSON-ready pass/fail record."""
    scale = max(abs(rhs), 1.0)
    return {
        "name": name,
        "lhs": lhs,
        "rhs": rhs,
        "tolerance": tolerance,
        "pass": bool(abs(lhs - rhs) <= tolerance * scale),
    }


@dataclass(frozen=True)
class ZetaEvaluation:
    s: complex
    value: complex
    branch: str = "negative-axis phase e^(-i pi s)"


def _zeta(eigs: np.ndarray, s: complex, tol: float) -> complex:
    """Sum of lambda^(-s) over the nonzero eigenvalues, negative ones by the branch above.

    Raises ComputationError when the sum is not finite in double precision,
    as for large Re s when some |lambda| < 1.
    """
    eigs = eigs[nonzero(eigs, tol)]
    pos = eigs[eigs > 0]
    neg = -eigs[eigs < 0]
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.sum(pos ** (-s))) if pos.size else 0j
        if neg.size:
            value += np.exp(-1j * np.pi * s) * complex(np.sum(neg ** (-s)))
    if not np.isfinite(value):
        raise ComputationError(f"zeta({s}) is not finite in double precision")
    return value


def dirac_zeta(ops: Operators, s: complex, tol: float = KERNEL_TOL) -> ZetaEvaluation:
    """Dirac zeta function: sum over nonzero eigenvalues of lambda^(-s).

    Takes an Operators and reads D's spectrum from its dirac_eigensystem.
    """
    s = complex(s)
    return ZetaEvaluation(s=s, value=_zeta(ops.dirac_eigensystem[0], s, tol))


def zeta_derivative_at_zero(ops: Operators, tol: float = KERNEL_TOL) -> complex:
    """zeta'(0) = -sum log|lambda| - i pi #{lambda < 0}, over the nonzero Dirac eigenvalues."""
    eigs = ops.dirac_eigensystem[0]
    eigs = eigs[nonzero(eigs, tol)]
    return complex(-fsum(np.log(np.abs(eigs))), -np.pi * int(np.sum(eigs < 0)))


def eta(ops: Operators, s: complex, tol: float = KERNEL_TOL) -> complex:
    """Alternating sum over degrees of the block zeta functions.

    McKean-Singer pairing of the nonzero block spectra makes this vanish
    identically.
    """
    total = 0j
    for p in range(len(ops.complex.strata)):
        total += (-1) ** p * _zeta(ops.block_eigensystems[p][0], complex(s), tol)
    return total


def analytic_torsion(ops: Operators, tol: float = KERNEL_TOL) -> float:
    """Ratio of even-degree to odd-degree nonzero eigenvalue products (= 1)."""
    log_even = 0.0
    log_odd = 0.0
    for p in range(len(ops.complex.strata)):
        eigs = ops.block_eigensystems[p][0]
        s = fsum(log(x) for x in eigs[nonzero(eigs, tol)])
        if p % 2 == 0:
            log_even += s
        else:
            log_odd += s
    return exp(log_even - log_odd)


@dataclass(frozen=True)
class SpectralDistanceReport:
    """sum |alpha_i - beta_i| over the sorted spectra (gap) and sum |A - B| (entries).

    distance and bound are their means over size indices.  Zero rows and
    columns added to both matrices change neither sum, only size.
    """

    gap: float
    entries: float
    size: int

    @property
    def distance(self) -> float:
        return float(Fraction(self.gap) / self.size)

    @property
    def bound(self) -> float:
        return float(Fraction(self.entries) / self.size)


def spectral_distance(a: np.ndarray, b: np.ndarray) -> SpectralDistanceReport:
    """Lidskii comparison: mean eigenvalue gap vs mean entry difference."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need symmetric matrices of one size, got {a.shape} and {b.shape}")
    gap = np.sum(np.abs(np.linalg.eigvalsh(a) - np.linalg.eigvalsh(b)))  # both ascending
    return SpectralDistanceReport(float(gap), float(np.sum(np.abs(a - b))), a.shape[0])


def aligned_dirac_pair(g: SimpleGraph, h: SimpleGraph) -> tuple[np.ndarray, np.ndarray]:
    """Dirac matrices of two graphs embedded in the union of their complexes.

    Both graphs must share one vertex list.  A simplex that only one graph
    has is a zero row and column of the other's matrix, so the two are
    directly comparable and the Lidskii inequality applies.
    """
    if g.vertices != h.vertices:
        raise GraphMismatchError("aligned comparison requires a shared vertex list")
    pair = [build_operators(build_complex(graph)) for graph in (g, h)]
    union = {s: i for i, s in enumerate(dict.fromkeys(pair[0].complex.simplices
                                                      + pair[1].complex.simplices))}
    out = []
    for ops in pair:
        big = np.zeros((len(union), len(union)), dtype=np.int64)
        idx = [union[s] for s in ops.complex.simplices]
        big[np.ix_(idx, idx)] = ops.dirac
        out.append(big)
    return out[0], out[1]


def max_simplex_degree(*matrices: np.ndarray) -> int:
    """Largest column support among the given Dirac matrices."""
    return max(int(np.max(np.count_nonzero(m, axis=0))) if m.size else 0 for m in matrices)


def magnitude(g: SimpleGraph) -> float:
    """Sum of the entries of Z^(-1) with Z_ij = exp(-geodesic distance).

    A similarity matrix with condition number above 1e12 is singular.
    """
    if g.n == 0:
        raise ComputationError("magnitude of the empty graph is undefined")
    if not g.is_connected():
        raise ComputationError("magnitude requires finite distances (graph is disconnected)")
    n = g.n
    pos = g.position
    z = np.empty((n, n))
    for v in g.vertices:
        dist = g.distances_from(v)
        for u, duv in dist.items():
            z[pos[v], pos[u]] = exp(-duv)
    cond = np.linalg.cond(z)
    if not np.isfinite(cond) or cond > 1e12:
        raise ComputationError(f"similarity matrix is numerically singular (cond = {cond:.3e})")
    w = np.linalg.solve(z, np.ones(n))
    return float(np.sum(w))
