"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: cliques
are enumerated by testing all vertex subsets, ranks are computed exactly
over the rationals, spanning trees by edge-subset enumeration.  Expected
values in the tests come from these, from the worked example, or from
closed forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from diracgraph import (
    SimpleGraph,
    build_complex,
    compose,
    example_graph,
    lefschetz,
    morphisms,
    operators_for,
)


# det(xI - D) of the worked example, in descending powers
GOLDEN_CHARPOLY = [1, 0, -24, 0, 242, 0, -1334, 0, 4377, 0, -8706, 0,
                   10187, 0, -6370, 0, 1624, 0, 0]


@pytest.fixture(scope="session")
def example():
    return example_graph()


@pytest.fixture(scope="session")
def example_ops(example):
    return operators_for(example)


@pytest.fixture
def corrupted_trace(monkeypatch):
    """Add 1 to the degree-1 trace of every induced cohomology map."""
    honest = morphisms.induced_cohomology_map

    def off_by_one(ops, t, k):
        m = honest(ops, t, k)
        return m + np.eye(len(m)) if k == 1 else m

    monkeypatch.setattr(morphisms, "induced_cohomology_map", off_by_one)


def octahedron() -> SimpleGraph:
    """K_{2,2,2}: all pairs adjacent except the three antipodal ones."""
    verts = range(6)
    anti = {frozenset((0, 3)), frozenset((1, 4)), frozenset((2, 5))}
    edges = [e for e in combinations(verts, 2) if frozenset(e) not in anti]
    return SimpleGraph(verts, edges)


def icosahedron() -> SimpleGraph:
    edges = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
        (1, 6), (2, 6), (2, 7), (3, 7), (3, 8),
        (4, 8), (4, 9), (5, 9), (5, 10), (1, 10),
        (6, 7), (7, 8), (8, 9), (9, 10), (10, 6),
        (6, 11), (7, 11), (8, 11), (9, 11), (10, 11),
    ]
    return SimpleGraph(range(12), edges)


def truncated_cube() -> SimpleGraph:
    """Cube with each corner cut: 24 vertices, triangles on the cuts."""
    verts = [(c, i) for c in range(8) for i in range(3)]
    index = {v: n for n, v in enumerate(verts)}
    edges = []
    for c in range(8):
        for i, j in combinations(range(3), 2):
            edges.append((index[(c, i)], index[(c, j)]))
    for c in range(8):
        for i in range(3):  # axis i edge of the cube at corner c
            c2 = c ^ (1 << i)
            if c < c2:
                edges.append((index[(c, i)], index[(c2, i)]))
    return SimpleGraph(range(24), edges)


def erdos_renyi(n: int, p: float, rng: random.Random) -> SimpleGraph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return SimpleGraph(range(n), edges)


def random_suite(count=50, seed=20130605, n_max=8, ps=(0.3, 0.5, 0.7)):
    """The deterministic random-graph suite used by identity tests."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(3, n_max)
        p = rng.choice(ps)
        graphs.append(erdos_renyi(n, p, rng))
    return graphs


# ---------------------------------------------------------------- oracles

def brute_cliques(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Every vertex subset that induces a complete subgraph (by definition)."""
    out = []
    for r in range(1, g.n + 1):
        found = False
        for subset in combinations(g.vertices, r):
            if all(g.has_edge(u, v) for u, v in combinations(subset, 2)):
                out.append(subset)
                found = True
        if not found:
            break
    return out


def brute_chi(g: SimpleGraph) -> int:
    return sum((-1) ** (len(s) - 1) for s in brute_cliques(g))


def exact_rank(m) -> int:
    """Rank of an integer matrix, exact Gaussian elimination over Q."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(m)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def betti_exact(g: SimpleGraph) -> list[int]:
    """Betti numbers by exact rank-nullity over Q (no floating point)."""
    c = build_complex(g)
    from diracgraph import exterior_derivative

    ranks = []
    for k in range(c.top_dim):
        ranks.append(exact_rank(exterior_derivative(c, None, k)))
    ranks.append(0)  # the top d_k is the zero map
    out = []
    prev_rank = 0
    for k in range(len(c.strata)):
        out.append(c.count(k) - ranks[k] - prev_rank)
        prev_rank = ranks[k]
    return out


def spanning_trees_brute(g: SimpleGraph) -> int:
    """Count spanning trees by enumerating (n-1)-edge subsets."""
    if g.n == 0:
        return 0
    if g.n == 1:
        return 1
    count = 0
    for subset in combinations(g.edges, g.n - 1):
        parent = {v: v for v in g.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


def index_expectation_brute(g: SimpleGraph, x: int) -> Fraction:
    """Average of i_f(x) = 1 - chi(S^-(x)) over all |V|! orderings of the vertices."""
    chi = {}
    total = 0
    for order in permutations(g.vertices):
        rank = {v: i for i, v in enumerate(order)}
        below = frozenset(y for y in g.adjacency[x] if rank[y] < rank[x])
        if below not in chi:
            chi[below] = brute_chi(g.induced(below))
        total += 1 - chi[below]
    return Fraction(total, math.factorial(g.n))


def sphere_curvature(g: SimpleGraph, x: int) -> Fraction:
    """K(x) = 1 + sum_k (-1)^(k+1) V_k/(k+2) over the clique counts V_k of the unit sphere."""
    counts = [0] * g.n
    for s in brute_cliques(g.induced(g.adjacency[x])):
        counts[len(s) - 1] += 1
    return 1 + sum(Fraction((-1) ** (k + 1) * n, k + 2) for k, n in enumerate(counts))


def sphere_is_geometric(g: SimpleGraph, k: int) -> bool:
    """The recursive geometric-graph check, with chi taken from each unit sphere's own cliques."""
    if g.n == 0:
        return False
    for x in g.vertices:
        s = g.induced(g.adjacency[x])
        if k == 1:
            if s.n != 2 or s.m != 0:
                return False
        elif brute_chi(s) != 1 + (-1) ** (k - 1) or not sphere_is_geometric(s, k - 1):
            return False
    return True


def automorphisms_brute(g: SimpleGraph) -> list[dict[int, int]]:
    """All automorphisms by filtering every permutation (test oracle)."""
    out = []
    for perm in permutations(g.vertices):
        t = dict(zip(g.vertices, perm))
        if all(g.has_edge(t[u], t[v]) for u, v in g.edges):
            out.append(t)
    return out


def det_fraction(rows) -> Fraction:
    """Determinant by Gaussian elimination over Q (exact)."""
    a = [[Fraction(int(x)) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                factor = a[i][k] / a[k][k]
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def cauchy_binet_minor_sum(f, g, k: int) -> int:
    """Sum of det(F_P) det(G_P) over every k x k row/column selection P (exact)."""
    f, g = np.asarray(f), np.asarray(g)
    n, m = f.shape
    total = Fraction(0)
    for rows in combinations(range(n), k):
        for cols in combinations(range(m), k):
            sub = np.ix_(rows, cols)
            total += det_fraction(f[sub]) * det_fraction(g[sub])
    assert total.denominator == 1
    return int(total)


def simplex_graph_trees_exact(g: SimpleGraph) -> int:
    """Spanning trees of the simplex graph by the matrix-tree theorem over Q.

    The simplex graph joins each brute-force clique to its codimension-1
    faces; its count is the exact determinant of the Laplacian with the
    first row and column deleted.
    """
    cliques = brute_cliques(g)
    index = {s: i for i, s in enumerate(cliques)}
    lap = [[0] * len(cliques) for _ in cliques]
    for y in cliques:
        for x in combinations(y, len(y) - 1):
            if x:
                i, j = index[x], index[y]
                lap[i][j] -= 1
                lap[j][i] -= 1
                lap[i][i] += 1
                lap[j][j] += 1
    det = det_fraction([row[1:] for row in lap[1:]])
    assert det.denominator == 1
    return int(det)


def complete_dirac_pair(g: SimpleGraph, h: SimpleGraph) -> tuple[np.ndarray, np.ndarray]:
    """The Dirac matrices of g and h embedded in the complete complex on their vertices.

    The 2^n - 1 rows and columns make spectral_distance of the pair the
    Lidskii comparison over every simplex of the complete graph.
    """
    full = build_complex(SimpleGraph(g.vertices, combinations(g.vertices, 2)))
    index = {s: i for i, s in enumerate(full.simplices)}
    out = []
    for graph in (g, h):
        ops = operators_for(graph)
        big = np.zeros((full.v, full.v), dtype=np.int64)
        idx = [index[s] for s in ops.complex.simplices]
        big[np.ix_(idx, idx)] = ops.dirac
        out.append(big)
    return out[0], out[1]


def trace_lefschetz(traces) -> int:
    """The Lefschetz number as the rounded alternating sum of cohomology traces."""
    return round(sum((-1) ** k * tr for k, tr in enumerate(traces)))


def lefschetz_zeta_power_loop(ops, t, z, order=40):
    """The truncated Lefschetz zeta with L(T^n) taken from the traces for every n <= order."""
    total = 0j
    power = dict(zip(ops.complex.host.vertices, ops.complex.host.vertices))
    for n in range(1, order + 1):
        power = compose(t, power)
        total += trace_lefschetz(lefschetz(ops, power).traces) * z ** n / n
    return complex(np.exp(total))


@dataclass(frozen=True)
class DenseLaxState:
    """One state of dense_lax_deform, with d and b kept as dense v x v arrays."""

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


def _rational(x) -> np.ndarray:
    return np.vectorize(Fraction, otypes=[object])(np.asarray(x, dtype=float))


def exact_lax_blocks(factors, coefficients):
    """The blocks d_k(t) and b_k(t) over Q, from the same float factors and coefficients.

    Every float is a rational, so these are the blocks of the factor form
    Z M(t) Z^T that the lax_deform bounds certify: what LaxFactors._assemble
    forms, without its rounding.  Each d_k is a pair (real part, imaginary
    part) of Fraction arrays.
    """
    b = [np.full((n, n), Fraction(0), dtype=object) for n in np.diff(factors.offsets)]
    d = []
    for k, ((u, _, w), (a, beta)) in enumerate(zip(factors.triples, coefficients)):
        u, w, beta = _rational(u), _rational(w), _rational(beta)
        d.append(tuple((u * _rational(part)) @ w.T for part in (np.real(a), np.imag(a))))
        b[k + 1] = b[k + 1] + (u * beta) @ u.T
        b[k] = b[k] - (w * beta) @ w.T
    return d, b


def _dense_lax_rhs(d, b, variant):
    if variant == "real":
        return d @ b - b @ d, 2.0 * (d @ d.conj().T - d.conj().T @ d)
    return (1 - 1j) * (d @ b - b @ d), 2.0 * (d @ d.conj().T - d.conj().T @ d)


def dense_lax_deform(ops, t_final, h=0.01, variant="real", max_halvings=3,
                     nilpotency_bound=1e-8, spectrum_bound=1e-6):
    """The Lax flow as dense RK4 that copies the full d and b into every state.

    An independent oracle for the closed form of lax_deform: at step h the
    two differ by RK4's O(h^4) error.
    """
    dtype = complex if variant == "complexified" else float
    d0 = np.tril(ops.dirac).astype(dtype)  # d sits below the diagonal of D = d + d^T
    ref_spectrum = ops.dirac_eigensystem[0]
    l0 = ops.laplacian.astype(float)
    step = h
    for _ in range(max_halvings + 1):
        states = _dense_integrate(
            d0, l0, ref_spectrum, t_final, step, variant, nilpotency_bound, spectrum_bound
        )
        if states is not None:
            return states
        step /= 2
    raise AssertionError("the dense oracle breached its bounds")


def _dense_integrate(d0, l0, ref_spectrum, t_final, h, variant, nilpotency_bound, spectrum_bound):
    d = d0.copy()
    b = np.zeros_like(d0)
    steps = int(round(t_final / h))
    states = []

    def snapshot(t):
        dirac_t = d + d.conj().T + b
        m = (d + d.conj().T) @ (d + d.conj().T)
        eigs = np.linalg.eigvalsh(dirac_t)
        spec_err = float(np.max(np.abs(eigs - ref_spectrum))) if eigs.size else 0.0
        nil_err = float(np.max(np.abs(d @ d))) if d.size else 0.0
        lap_err = float(np.max(np.abs(dirac_t @ dirac_t - l0))) if d.size else 0.0
        states.append(
            DenseLaxState(
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
        k1 = _dense_lax_rhs(d, b, variant)
        k2 = _dense_lax_rhs(d + 0.5 * h * k1[0], b + 0.5 * h * k1[1], variant)
        k3 = _dense_lax_rhs(d + 0.5 * h * k2[0], b + 0.5 * h * k2[1], variant)
        k4 = _dense_lax_rhs(d + h * k3[0], b + h * k3[1], variant)
        d = d + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        b = b + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        state = snapshot(i * h)
        if state.nilpotency_error > nilpotency_bound or state.spectrum_error > spectrum_bound:
            return None
    return states
