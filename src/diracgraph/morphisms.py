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

from dataclasses import dataclass

import numpy as np

from .complexes import CliqueComplex, SimpleGraph, Simplex
from .errors import CapacityError, ConsistencyError
from .hodge import KERNEL_TOL, harmonic_basis
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
    return all(g.has_edge(t[u], t[v]) for u, v in g.edges) and all(
        g.has_edge(u, v) == g.has_edge(t[u], t[v])
        for i, u in enumerate(g.vertices)
        for v in g.vertices[i + 1 :]
    )


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
    """Image simplex in canonical order together with the orientation sign."""
    image = [t[v] for v in x]
    order = sorted(range(len(image)), key=lambda i: position[image[i]])
    sign = _permutation_sign(order)
    return tuple(image[i] for i in order), sign


def _permutation_sign(perm: list[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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


def induced_cohomology_map(
    ops: Operators, t: GraphMap, k: int, tol: float = KERNEL_TOL
) -> np.ndarray:
    """The b_k x b_k matrix of T* on harmonic representatives.

    The pullback of an automorphism commutes with d and preserves the
    harmonic space, so projecting pulled-back basis vectors onto that
    space loses nothing.
    """
    basis = harmonic_basis(ops, k, tol)
    if not basis:
        return np.zeros((0, 0))
    h = np.column_stack([b.values for b in basis])
    return h.T @ pullback_matrix(ops, t, k) @ h


@dataclass(frozen=True)
class LefschetzReport:
    traces: tuple[float, ...]
    lefschetz: int
    fixed_simplices: tuple[tuple[Simplex, int], ...]


def _fixed_simplices(c: CliqueComplex, t: GraphMap) -> tuple[tuple[Simplex, int], ...]:
    """Simplices that T maps onto themselves, each with its index.

    The index of a fixed simplex x is (-1)^dim(x) times the sign of the
    permutation T induces on its vertices.
    """
    pos = c.host.position
    fixed = []
    for x in c.simplices:
        image, sign = map_simplex(t, x, pos)
        if image == x:
            fixed.append((x, (-1) ** (len(x) - 1) * sign))
    return tuple(fixed)


def lefschetz(ops: Operators, t: GraphMap, tol: float = KERNEL_TOL) -> LefschetzReport:
    """Lefschetz number as the exact sum of fixed-simplex indices.

    The alternating sum of the traces of T* on harmonic forms certifies it:
    a gap above 1/2 contradicts the Lefschetz fixed point theorem and
    raises ConsistencyError.
    """
    c = ops.complex
    fixed = _fixed_simplices(c, t)
    number = sum(i for _, i in fixed)
    traces = tuple(
        float(np.trace(induced_cohomology_map(ops, t, k, tol))) for k in range(len(c.strata))
    )
    gap = abs(sum((-1) ** k * tr for k, tr in enumerate(traces)) - number)
    if gap > 0.5:
        raise ConsistencyError(
            f"harmonic traces miss the fixed-simplex Lefschetz number {number} by {gap:.3g}"
        )
    return LefschetzReport(traces=traces, lefschetz=number, fixed_simplices=fixed)


def lefschetz_zeta(ops: Operators, t: GraphMap, z: complex, order: int = 40) -> complex:
    """Truncated zeta function exp(sum_{n<=order} L(T^n) z^n / n).

    L(T^n) is periodic in n with the period of T, so only the powers in one
    period (at most ``order`` of them) are summed over their fixed simplices.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    if abs(z) >= 1:
        raise ValueError("the series requires |z| < 1")
    c = ops.complex
    identity = dict(zip(c.host.vertices, c.host.vertices))
    period = []
    power = identity
    while len(period) < order:
        power = compose(t, power)
        period.append(sum(i for _, i in _fixed_simplices(c, power)))
        if power == identity:
            break
    total = sum((period[(n - 1) % len(period)] * z ** n / n for n in range(1, order + 1)), 0j)
    return complex(np.exp(total))
