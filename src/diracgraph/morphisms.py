"""Graph automorphisms, induced cohomology maps and Lefschetz data.

An automorphism permutes every stratum of the clique complex.  Its
pullback on k-cochains is (T*f)(x) = sign(T|x) f(T(x)), where the sign is
the parity of the permutation that sorts the image vertices back into
ascending order; compressing the pullback to the harmonic space gives the
induced map on cohomology, whose alternating trace is the Lefschetz
number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import SimpleGraph, Simplex
from .errors import CapacityError
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

    @property
    def index_sum(self) -> int:
        return sum(i for _, i in self.fixed_simplices)


def lefschetz(ops: Operators, t: GraphMap, tol: float = KERNEL_TOL) -> LefschetzReport:
    """Alternating trace sum and the fixed-simplex indices realizing it."""
    c = ops.complex
    pos = c.host.position
    traces = []
    total = 0.0
    for k in range(len(c.strata)):
        tr = float(np.trace(induced_cohomology_map(ops, t, k, tol)))
        traces.append(tr)
        total += (-1) ** k * tr
    fixed = []
    for x in c.simplices:
        image, sign = map_simplex(t, x, pos)
        if image == x:
            fixed.append((x, (-1) ** (len(x) - 1) * sign))
    return LefschetzReport(
        traces=tuple(traces),
        lefschetz=round(total),
        fixed_simplices=tuple(fixed),
    )


def lefschetz_zeta(
    ops: Operators, t: GraphMap, z: complex, order: int = 40, tol: float = KERNEL_TOL
) -> complex:
    """Truncated zeta function exp(sum_{n<=order} L(T^n) z^n / n).

    L(T^n) is periodic in n with the period of T, so only the powers in one
    period (at most ``order`` of them) are passed to lefschetz.
    """
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    if abs(z) >= 1:
        raise ValueError("the series requires |z| < 1")
    identity = dict(zip(ops.complex.host.vertices, ops.complex.host.vertices))
    period = []
    power = identity
    while len(period) < order:
        power = compose(t, power)
        period.append(lefschetz(ops, power, tol).lefschetz)
        if power == identity:
            break
    total = sum((period[(n - 1) % len(period)] * z ** n / n for n in range(1, order + 1)), 0j)
    return complex(np.exp(total))
