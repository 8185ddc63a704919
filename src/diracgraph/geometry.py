"""Local geometry on graphs: curvature, Morse indices, dimension, homotopy.

Vertex-local quantities are sums over the simplices s that contain x, read
in one pass over the clique complex: the curvature K(x) = sum of
(-1)^dim s / |s|, the Poincare-Hopf indices and chi(S(x)) = 1 - sum of
(-1)^dim s, since the cliques of the unit sphere S(x) are the faces s - {x}.
Each simplex hands 1/|s| to each vertex: Gauss-Bonnet reindexes chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .complexes import SimpleGraph, build_complex


def unit_sphere(g: SimpleGraph, x: int) -> SimpleGraph:
    """Induced subgraph on the neighbors of x."""
    if x not in g.position:
        raise ValueError(f"unknown vertex {x}")
    return g.induced(g.adjacency[x])


def _star_counts(g: SimpleGraph) -> dict[int, list[int]]:
    """For each vertex x, the number of k-simplices that contain x, by k."""
    c = build_complex(g)
    counts = {x: [0] * len(c.strata) for x in g.vertices}
    for s in c.simplices:
        for x in s:
            counts[x][len(s) - 1] += 1
    return counts


def curvature(g: SimpleGraph, x: int) -> Fraction:
    """Exact rational curvature of a vertex, which is its index expectation.

    The simplices that contain x are x joined to the cliques of its unit
    sphere, so K(x) = 1 + sum of (-1)^(k+1) n_k / (k+2) over the counts n_k
    of the sphere's k-simplices.  K(x) is also the average Poincare-Hopf
    index E[i_f(x)] over injective vertex functions f: i_f(x) is the sum of
    (-1)^dim s over the simplices s that contain x and have x as their
    f-maximum, and x is the top vertex of s in exactly 1/|s| of all
    orderings (Knill, arXiv:1202.4514).
    """
    counts = build_complex(unit_sphere(g, x)).counts
    return sum((Fraction((-1) ** (k + 1) * n, k + 2) for k, n in enumerate(counts)), Fraction(1))


def curvature_vector(g: SimpleGraph) -> dict[int, Fraction]:
    return {
        x: sum(Fraction((-1) ** k * n, k + 1) for k, n in enumerate(counts))
        for x, counts in _star_counts(g).items()
    }


@dataclass(frozen=True)
class MorseData:
    f: dict[int, float]
    indices: dict[int, int]
    critical: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.indices.values())


def poincare_hopf(g: SimpleGraph, f: Mapping[int, float] | Sequence[float]) -> MorseData:
    """Indices i_f(x) = 1 - chi(S^-(x)) of an injective vertex function.

    S^-(x) is the induced subgraph on neighbors with smaller f-value.  Its
    cliques are the simplices s with f-maximum x, less x, so i_f(x) sums
    (-1)^dim s over them; every s has one f-maximum, so the indices sum to chi.
    """
    if not isinstance(f, Mapping):
        if len(f) != g.n:
            raise ValueError("function values must match the vertex count")
        f = dict(zip(g.vertices, f))
    if set(f) != set(g.vertices):
        raise ValueError("function must be defined exactly on the vertices")
    if any(math.isnan(value) for value in f.values()):
        raise ValueError("function values must not be NaN")
    if any(math.isinf(value) for value in f.values()):
        raise ValueError("function values must not be infinite")
    if len(set(f.values())) != g.n:
        raise ValueError("function must be injective (ties are undefined)")
    indices = dict.fromkeys(g.vertices, 0)
    for s in build_complex(g).simplices:
        indices[max(s, key=f.get)] += (-1) ** (len(s) - 1)
    critical = tuple(x for x in g.vertices if indices[x] != 0)
    return MorseData(f=dict(f), indices=indices, critical=critical)


def dimension(g: SimpleGraph) -> Fraction:
    """Inductive Menger-Uryson dimension; the empty graph has dimension -1."""
    memo: dict[frozenset, Fraction] = {}

    def dim_of(vertex_set: frozenset) -> Fraction:
        if not vertex_set:
            return Fraction(-1)
        if vertex_set in memo:
            return memo[vertex_set]
        h = g.induced(vertex_set)
        total = Fraction(0)
        for x in h.vertices:
            total += 1 + dim_of(frozenset(h.adjacency[x]))
        result = total / len(vertex_set)
        memo[vertex_set] = result
        return result

    return dim_of(frozenset(g.vertices))


def is_geometric(g: SimpleGraph, k: int) -> bool:
    """Recursive sphere check for a geometric graph of dimension k.

    Base case k = 1: every unit sphere is two isolated vertices.  For
    k >= 2 every sphere must be geometric of dimension k-1 with Euler
    characteristic 1 + (-1)^(k-1) (circles have chi = 0, two-dimensional
    spheres chi = 2), read from the star sums of one complex of g.
    """
    if k < 1:
        raise ValueError("geometric dimension starts at 1")
    if g.n == 0:
        return False
    if k == 1:
        return all(g.degree(x) == 2 and unit_sphere(g, x).m == 0 for x in g.vertices)
    return all(
        1 - sum((-1) ** j * n for j, n in enumerate(counts)) == 1 + (-1) ** (k - 1)
        and is_geometric(unit_sphere(g, x), k - 1)
        for x, counts in _star_counts(g).items()
    )


@dataclass(frozen=True)
class ContractionResult:
    reduced: SimpleGraph
    steps: tuple[int, ...]
    contractible: bool | None  # None means the greedy reduction is inconclusive


def _greedy_reduce(g: SimpleGraph, memo: dict) -> tuple[SimpleGraph, list[int]]:
    """Remove the first vertex with a greedily contractible sphere until none is left."""
    current = g
    steps: list[int] = []
    while current.n > 1:
        removable = next(
            (x for x in current.vertices if _greedy_contractible(unit_sphere(current, x), memo)),
            None,
        )
        if removable is None:
            break
        steps.append(removable)
        current = current.induced(v for v in current.vertices if v != removable)
    return current, steps


def _greedy_contractible(g: SimpleGraph, memo: dict) -> bool:
    key = (g.vertices, g.edges)
    if key not in memo:
        memo[key] = _greedy_reduce(g, memo)[0].n == 1
    return memo[key]


def contract(g: SimpleGraph) -> ContractionResult:
    """Greedy homotopy reduction: remove vertices with contractible spheres.

    Greedy collapsibility only semi-decides contractibility, so when the
    reduction stalls the verdict is None unless cohomology
    (a component count above one or a positive higher Betti number)
    certifies the graph non-contractible.
    """
    current, steps = _greedy_reduce(g, {})
    if current.n <= 1:
        verdict = True if current.n == 1 else None  # empty input stays undecided
        return ContractionResult(current, tuple(steps), verdict)
    from .hodge import betti_numbers  # local import to avoid a cycle
    from .operators import operators_for

    b = betti_numbers(operators_for(current))
    obstructed = b[0] > 1 or any(x > 0 for x in b[1:])
    return ContractionResult(current, tuple(steps), False if obstructed else None)
