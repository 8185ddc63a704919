"""Graph automorphisms, induced cohomology maps and Lefschetz data.

An automorphism permutes every stratum of the clique complex.  Its
pullback on k-cochains is (T*f)(x) = sign(T|x) f(T(x)), where the sign is
the parity of the permutation that sorts the image vertices back into
ascending order; compressing the pullback to the harmonic space gives the
induced map on cohomology.  The Lefschetz number is computed exactly as
the sum of the indices of the fixed simplices, and the alternating trace
of the induced maps certifies it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .complexes import CliqueComplex, SimpleGraph, Simplex
from .errors import CapacityError, ConsistencyError
from .hodge import harmonic_basis
from .operators import Operators

AUTOMORPHISM_CAP = 10

GraphMap = dict[int, int]


def _neighbor_degree_profile(g: SimpleGraph) -> dict[int, tuple]:
    return {
        v: (g.degree(v), tuple(sorted(g.degree(u) for u in g.adjacency[v])))
        for v in g.vertices
    }


def is_automorphism(g: SimpleGraph, t: GraphMap) -> bool:
    if set(t) != set(g.vertices) or set(t.values()) != set(g.vertices):
        return False
    return all(g.has_edge(u, v) == g.has_edge(t[u], t[v]) for u, v in combinations(g.vertices, 2))


def automorphisms(g: SimpleGraph) -> list[GraphMap]:
    """All adjacency-preserving vertex permutations, lexicographic by image.

    Brute-force backtracking pruned by degree and neighbor-degree
    profiles; capped at 10 vertices.
    """
    if g.n > AUTOMORPHISM_CAP:
        raise CapacityError(
            f"automorphism enumeration is capped at {AUTOMORPHISM_CAP} vertices"
        )
    if g.n == 0:
        return [{}]
    profile = _neighbor_degree_profile(g)
    verts = g.vertices
    found: list[GraphMap] = []

    def extend(assigned: dict[int, int], used: set[int]):
        if len(assigned) == g.n:
            found.append(dict(assigned))
            return
        x = verts[len(assigned)]
        for y in verts:
            if y in used or profile[x] != profile[y]:
                continue
            ok = True
            for u, img in assigned.items():
                if g.has_edge(x, u) != g.has_edge(y, img):
                    ok = False
                    break
            if ok:
                assigned[x] = y
                used.add(y)
                extend(assigned, used)
                del assigned[x]
                used.discard(y)

    extend({}, set())
    return found


def compose(t: GraphMap, s: GraphMap) -> GraphMap:
    """The map x -> t(s(x))."""
    return {x: t[s[x]] for x in s}


def map_simplex(t: GraphMap, x: Simplex, position: dict[int, int]) -> tuple[Simplex, int]:
    """Image simplex in canonical order, and the sign of the sorting permutation."""
    keys = [position[t[v]] for v in x]
    inversions = sum(a > b for a, b in combinations(keys, 2))
    return tuple(sorted((t[v] for v in x), key=position.__getitem__)), (-1) ** inversions


def pullback_matrix(ops: Operators, t: GraphMap, k: int) -> np.ndarray:
    """Matrix of f -> T*f on k-cochains in stratum order."""
    c = ops.complex
    pos = c.host.position
    local = c.local_index[k]
    n = c.count(k)
    m = np.zeros((n, n))
    for i, x in enumerate(c.stratum(k)):
        image, sign = map_simplex(t, x, pos)
        m[i, local[image]] = sign
    return m


def induced_cohomology_map(ops: Operators, t: GraphMap, k: int) -> np.ndarray:
    """The b_k x b_k matrix of T* on harmonic representatives.

    The pullback of an automorphism commutes with d and preserves the
    harmonic space, so projecting pulled-back basis vectors onto that
    space loses nothing.
    """
    basis = harmonic_basis(ops, k)
    if not basis:
        return np.zeros((0, 0))
    h = np.column_stack([b.values for b in basis])
    return h.T @ pullback_matrix(ops, t, k) @ h


@dataclass(frozen=True)
class LefschetzReport:
    traces: tuple[float, ...]
    lefschetz: int
    fixed_simplices: tuple[tuple[Simplex, int], ...]


def _cycles(c: CliqueComplex, t: GraphMap) -> list[tuple[Simplex, int, int]]:
    """The cycles of T on the simplices as (first simplex, length l, sign of T^l on it)."""
    pos = c.host.position
    seen: set[Simplex] = set()
    cycles = []
    for x in c.simplices:
        if x in seen:
            continue
        y, length, sign = x, 0, 1
        while y not in seen:  # T permutes the simplices, so this stops back at x
            seen.add(y)
            y, s = map_simplex(t, y, pos)
            length, sign = length + 1, sign * s
        cycles.append((x, length, sign))
    return cycles


def lefschetz(ops: Operators, t: GraphMap) -> LefschetzReport:
    """Lefschetz number as the exact sum of fixed-simplex indices.

    The fixed simplices are the cycles of length 1; the index of one is
    (-1)^dim(x) times the sign of T on its vertices.  The alternating sum of
    the traces of T* on harmonic forms certifies the number: a gap above 1/2
    contradicts the Lefschetz fixed point theorem and raises
    ConsistencyError.
    """
    c = ops.complex
    fixed = tuple((x, (-1) ** (len(x) - 1) * sign)
                  for x, length, sign in _cycles(c, t) if length == 1)
    number = sum(i for _, i in fixed)
    traces = tuple(
        float(np.trace(induced_cohomology_map(ops, t, k))) for k in range(len(c.strata))
    )
    gap = abs(sum((-1) ** k * tr for k, tr in enumerate(traces)) - number)
    if gap > 0.5:
        raise ConsistencyError(
            f"harmonic traces miss the fixed-simplex Lefschetz number {number} by {gap:.3g}"
        )
    return LefschetzReport(traces=traces, lefschetz=number, fixed_simplices=fixed)


def lefschetz_zeta(ops: Operators, t: GraphMap, z: complex) -> complex:
    """Lefschetz zeta function exp(sum_n L(T^n) z^n / n), for |z| < 1.

    A cycle of length l through k-simplices, on which T^l has sign e, adds
    l (-1)^k e^(n/l) to L(T^n) for each n divisible by l: the factor
    (1 - e z^l)^((-1)^(k+1)).  As 1 + z^l = (1 - z^2l)/(1 - z^l), all factors
    are powers of the independent 1 - z^m, whose exponents are summed first,
    so a zeta function that is identically 1 evaluates to exactly 1.
    """
    if not abs(z) < 1:  # NaN fails too
        raise ValueError("the series requires |z| < 1")
    exponents: Counter[int] = Counter()
    for x, length, sign in _cycles(ops.complex, t):
        e = (-1) ** len(x)
        if sign < 0:
            exponents[2 * length] += e
            e = -e
        exponents[length] += e
    value = 1 + 0j
    for m, e in sorted(exponents.items()):
        value *= (1 - z ** m) ** e
    return value
