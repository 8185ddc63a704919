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
from functools import cache
from math import exp, fsum, isinf, isqrt, log, log2, prod
from numbers import Integral
from operator import mul

import numpy as np

from .complexes import CliqueComplex, SimpleGraph, build_complex, simplex_graph
from .errors import CapacityError, ComputationError, GraphMismatchError
from .hodge import nonzero
from .operators import Operators, build_operators


# charpoly_int works modulo primes 2**19 < p < 2**20 in float64, exact for
# order n < 2**13 (see _faddeev_leverrier_mod)
_MAX_ORDER = 2**13
# the primes are processed in groups whose (primes, n, n) stacks hold at most
# this many elements (three float64 stacks of 8 MB each), or one prime's
# n * n when that is more
_STACK = 2**20


def charpoly_int(m) -> list[int]:
    """Exact characteristic polynomial det(xI - M) of an integer matrix.

    Faddeev-LeVerrier modulo word-size primes, all primes of a group at once
    on one float64 stack, joined by the Chinese remainder theorem into
    symmetric residues.  Hadamard's inequality on each principal minor bounds
    every coefficient by prod_i (1 + r_i) for the row 2-norms r_i, and enough
    primes are taken that their product exceeds twice that bound, so the
    result is exact for any square integer matrix.  Coefficients are
    returned in descending powers, leading 1.  Raises ValueError unless M is
    a square 2-D array of integral entries (integral floats such as 2.0 are
    accepted), and CapacityError for order 2**13 or more, where float64
    products stop being exact, before converting anything.
    """
    a = _integer_matrix(m)
    if len(a) == 0:
        return [1]
    # one bit for the sign of a symmetric residue; the float sums of log2
    # err by far less than the 2**-10 bit added for them
    need = _coefficient_bits(a) + 1 + 2**-10
    for window in (2**14, 2**19):
        primes, log2_cumulative = _prime_table(window)
        count = int(np.searchsorted(log2_cumulative, need)) + 1
        if count <= len(primes):
            return _charpoly(a, primes[:count])
    raise CapacityError(
        f"charpoly_int: a coefficient bound of 2**{need:.0f} needs more primes than lie in (2**19, 2**20)"
    )


def _integer_matrix(m) -> np.ndarray:
    """M as a square int64 array, or as an object array of Python ints beyond int64."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"charpoly_int expects a square 2-D array, got shape {a.shape}")
    if len(a) >= _MAX_ORDER:
        raise CapacityError(f"charpoly_int is exact for order below {_MAX_ORDER}, got {len(a)}")
    if a.dtype.kind == "f":
        integral = np.isfinite(a).all() and (a == np.trunc(a)).all()
    elif a.dtype == object:
        integral = all(isinstance(x, Integral) or isinstance(x, float) and x.is_integer() for x in a.flat)
    else:
        integral = a.dtype.kind in "biu"
    if not integral:
        raise ValueError("charpoly_int expects integral entries")
    if np.can_cast(a.dtype, np.int64) or a.size == 0 or -(2**63) <= int(a.min()) and int(a.max()) < 2**63:
        return a.astype(np.int64)
    return np.array([int(x) for x in a.flat], dtype=object).reshape(a.shape)


def _coefficient_bits(a: np.ndarray) -> float:
    """log2 prod_i (1 + r_i), r_i the ceiling of row i's 2-norm, from exact integers.

    Hadamard's inequality bounds each principal k-minor by the product of
    its rows' norms, so |c_k| <= e_k(r) <= prod_i (1 + r_i).
    """
    if a.dtype == object or a.min() < -(2**25) or a.max() > 2**25:
        squares = (a.astype(object) ** 2).sum(axis=1)
    else:
        squares = np.einsum("ij,ij->i", a, a)  # at most n 2**50 < 2**63
    return sum(log2(1 + r + (r * r < s)) for s in squares.tolist() for r in (isqrt(s),))


@cache
def _prime_table(window: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes in [2**20 - window, 2**20), largest first, and the running sums of their log2.

    Sieved on first use, so importing the module builds nothing; the window
    of 2**14 (1,181 primes, 23,606 bits) costs about 0.1 ms, the whole
    range above 2**19 about 2 ms.
    """
    lo = 2**20 - window
    small = np.ones(2**10, dtype=bool)  # the primes up to sqrt(2**20)
    small[:2] = False
    for q in range(2, 2**5):
        if small[q]:
            small[q * q :: q] = False
    composite = np.zeros(window, dtype=bool)
    for q in np.flatnonzero(small).tolist():
        composite[-lo % q :: q] = True
    primes = (lo + np.flatnonzero(~composite))[::-1]
    table = primes, np.cumsum(np.log2(primes))
    for column in table:
        column.setflags(write=False)  # the cache hands the same arrays to every caller
    return table


def _charpoly(a: np.ndarray, primes: np.ndarray) -> list[int]:
    """det(xI - A) from its residues modulo primes whose product exceeds twice every |c_k|."""
    n = len(a)
    group = max(1, _STACK // (n * n))
    residues = np.concatenate(
        [_faddeev_leverrier_mod(a, primes[i : i + group]) for i in range(0, len(primes), group)]
    )
    ps = primes.tolist()
    modulus = prod(ps)
    weights = [modulus // p * pow(modulus // p, -1, p) for p in ps]
    joined = [sum(map(mul, column, weights)) % modulus for column in residues.T.tolist()]
    return [1] + [c - modulus if 2 * c > modulus else c for c in joined]


def _faddeev_leverrier_mod(a: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """c_1 .. c_n of det(xI - A) modulo each prime p in (n, 2**20), shape (primes, n).

    Faddeev-LeVerrier, M_1 = A and M_(k+1) = A (M_k + c_k I) with
    c_k = -tr(M_k) / k, for every prime at once: one batched float64 matmul
    and one reduction mod p per step.  A holds residues in [0, p) and
    M_k + c_k I integers of magnitude at most p - 1 off the diagonal and
    2(p - 1) on it, so every partial sum of a product has magnitude at most
    (n + 1)(p - 1)**2, which is below 2**53 for n < 2**13 and p < 2**20:
    each matmul is exact.
    """
    count, n = len(primes), len(a)
    p = primes.astype(float)[:, None]
    am = (a % primes.astype(a.dtype)[:, None, None]).astype(float)
    mk, scratch = am.copy(), np.empty_like(am)
    neg_inverses = np.array([[-pow(k, -1, q) % q for q in primes.tolist()] for k in range(1, n + 1)])
    coeffs = []
    for k in range(n):
        if k:
            np.matmul(am, mk, out=scratch)
            mk, scratch = scratch, mk
            # x - p floor(x / p) is x mod p up to one multiple of p: fl(x / p)
            # rounds to nearest, so its floor is the true quotient or one
            # above it.  The result lies in (-p, p), and p floor(x / p) is an
            # integer of magnitude at most |x| + p < 2**53: the reduction is exact.
            flat, tmp = mk.reshape(count, -1), scratch.reshape(count, -1)
            np.divide(flat, p, out=tmp)
            np.floor(tmp, out=tmp)
            tmp *= p
            flat -= tmp
        diag = mk.reshape(count, -1)[:, :: n + 1]
        coeffs.append(diag.sum(axis=1).astype(np.int64) * neg_inverses[k] % primes)
        diag += coeffs[-1][:, None]
    return np.stack(coeffs, axis=1)


def dirac_charpoly(ops: Operators) -> list[int]:
    """Exact det(xI - D) in descending powers, from the blocks d_k alone.

    The nonzero eigenvalues of D = d + d^T are +-sigma for the nonzero
    singular values sigma of each d_k, so
    det(xI - D) = x^(v - 2R) * prod_k q_k(x^2), where q_k is the
    characteristic polynomial of the smaller Gram matrix of d_k with its
    trailing zero coefficients dropped and R = sum_k deg q_k = rank d.
    Each q_k is charpoly_int's, exact modulo primes, so a Gram of order
    2**13 or more raises CapacityError.
    """
    p = np.ones(1, dtype=object)
    for b in ops.dblocks:
        q = charpoly_int(b @ b.T if b.shape[0] <= b.shape[1] else b.T @ b)
        p = np.convolve(p, np.trim_zeros(np.array(q, dtype=object), "b"))
    coeffs = np.zeros(ops.v + 1, dtype=object)
    coeffs[: 2 * len(p) - 1 : 2] = p
    return coeffs.tolist()


def pseudo_det(m: np.ndarray) -> float:
    """Product of the nonzero eigenvalues of a symmetric matrix (empty = 1, overflow = inf)."""
    m = np.asarray(m, dtype=float)
    if not np.allclose(m, m.T):
        raise ValueError("pseudo_det expects a symmetric matrix")
    return nonzero_product(np.linalg.eigvalsh(m))


def nonzero_product(eigs: np.ndarray) -> float:
    """Product of the nonzero eigenvalues (none = 1, overflow = inf)."""
    with np.errstate(over="ignore"):  # a product beyond double range is inf
        return float(np.prod(eigs[nonzero(eigs)]))


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
        estimate = nonzero_product(np.linalg.eigvalsh(l0)) / g.n  # l0 is symmetric by construction
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
    Python ints, so no product overflows, and charpoly_int computes its
    characteristic polynomial modulo primes (m below 2**13, else
    CapacityError).  Other inputs use np.poly in floating point.
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


def _zeta(eigs: np.ndarray, s: complex) -> complex:
    """Sum of lambda^(-s) over the nonzero eigenvalues, negative ones by the branch above.

    Raises ComputationError when the sum is not finite in double precision,
    as for large Re s when some |lambda| < 1.
    """
    eigs = eigs[nonzero(eigs)]
    pos = eigs[eigs > 0]
    neg = -eigs[eigs < 0]
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.sum(pos ** (-s))) if pos.size else 0j
        if neg.size:
            value += np.exp(-1j * np.pi * s) * complex(np.sum(neg ** (-s)))
    if not np.isfinite(value):
        raise ComputationError(f"zeta({s}) is not finite in double precision")
    return value


def dirac_zeta(ops: Operators, s: complex) -> ZetaEvaluation:
    """Dirac zeta function: sum over nonzero eigenvalues of lambda^(-s).

    Takes an Operators and reads D's spectrum from its dirac_eigensystem.
    """
    s = complex(s)
    return ZetaEvaluation(s=s, value=_zeta(ops.dirac_eigensystem[0], s))


def zeta_derivative_at_zero(ops: Operators) -> complex:
    """zeta'(0) = -sum log|lambda| - i pi #{lambda < 0}, over the nonzero Dirac eigenvalues."""
    eigs = ops.dirac_eigensystem[0]
    eigs = eigs[nonzero(eigs)]
    return complex(-fsum(np.log(np.abs(eigs))), -np.pi * int(np.sum(eigs < 0)))


def eta(ops: Operators, s: complex) -> complex:
    """Alternating sum over degrees of the block zeta functions.

    McKean-Singer pairing of the nonzero block spectra makes this vanish
    identically.
    """
    total = 0j
    for p in range(len(ops.complex.strata)):
        total += (-1) ** p * _zeta(ops.block_eigensystems[p][0], complex(s))
    return total


def analytic_torsion(ops: Operators) -> float:
    """Ratio of even-degree to odd-degree nonzero eigenvalue products (= 1)."""
    logs = [fsum(log(x) for x in eigs[nonzero(eigs)]) for eigs, _ in ops.block_eigensystems]
    return exp(sum(logs[::2]) - sum(logs[1::2]))


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
