"""Local geometry on graphs: curvature, Morse indices, dimension, homotopy.

Curvature is the alternating sum K(x) = sum_k (-1)^k V_{k-1}(x)/(k+1)
over clique counts V_j(x) of the unit sphere, with V_{-1} = 1.  The
denominators make Gauss-Bonnet (sum of K = Euler characteristic) an exact
rational identity via the handshake lemma, and they are what the worked
curvature vectors in the literature satisfy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .complexes import CliqueComplex, SimpleGraph, build_complex, graph_euler_characteristic


def unit_sphere(g: SimpleGraph, x: int) -> SimpleGraph:
    """Induced subgraph on the neighbors of x."""
    if x not in g.position:
        raise ValueError(f"unknown vertex {x}")
    return g.induced(g.adjacency[x])


def curvature(g: SimpleGraph, x: int) -> Fraction:
    """Exact rational curvature of a vertex."""
    sphere_counts = build_complex(unit_sphere(g, x)).counts
    k_x = Fraction(1, 1)
    for k, count in enumerate(sphere_counts):
        k_x += Fraction((-1) ** (k + 1) * count, k + 2)
    return k_x


def curvature_vector(g: SimpleGraph) -> dict[int, Fraction]:
    return {x: curvature(g, x) for x in g.vertices}


@dataclass(frozen=True)
class MorseData:
    f: dict[int, float]
    indices: dict[int, int]
    critical: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.indices.values())


def _star_index(star: CliqueComplex, f: Mapping[int, float], x: int) -> int:
    """Index of x on its star: 1 + sum of (-1)^|s| over the cliques s of S(x) below x.

    star is the clique complex of the unit sphere S(x).  Each clique s
    stands for the simplex s + {x}, and the empty clique gives the 1, so
    the sum is 1 - chi(S^-(x)).
    """
    fx = f[x]
    return 1 + sum((-1) ** len(s) for s in star.simplices if all(f[y] < fx for y in s))


def poincare_hopf(g: SimpleGraph, f: Mapping[int, float] | Sequence[float]) -> MorseData:
    """Indices i_f(x) = 1 - chi(S^-(x)) of an injective vertex function.

    S^-(x) is the induced subgraph on neighbors with smaller f-value; the
    indices always sum to the Euler characteristic.
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
    indices = {x: _star_index(build_complex(unit_sphere(g, x)), f, x) for x in g.vertices}
    critical = tuple(x for x in g.vertices if indices[x] != 0)
    return MorseData(f=dict(f), indices=indices, critical=critical)


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    stderr: float
    samples: int


def index_expectation(
    g: SimpleGraph,
    x: int,
    mode: str = "exact",
    samples: int = 10000,
    seed: int | None = None,
):
    """Average Poincare-Hopf index of x over injective vertex functions.

    Exact mode returns the curvature K(x), which is that average: by the
    star sum in _star_index, i_f(x) = sum of (-1)^|s| over the cliques s of
    S(x) (the empty one included) that lie below x.  A clique with |s|
    vertices lies below x in exactly 1/(|s|+1) of all orderings, so by
    linearity E[i_f(x)] = sum of (-1)^|s|/(|s|+1) = K(x) (Knill,
    arXiv:1202.4514).  Monte Carlo mode samples random orderings and
    reports mean and standard error.
    """
    if x not in g.position:
        raise ValueError(f"unknown vertex {x}")
    if mode == "exact":
        return curvature(g, x)
    if mode == "montecarlo":
        if samples < 1:
            raise ValueError(f"montecarlo mode needs at least one sample, got {samples}")
        star = build_complex(unit_sphere(g, x))
        rng = random.Random(seed)
        verts = list(g.vertices)
        values = []
        for _ in range(samples):
            order = verts[:]
            rng.shuffle(order)
            values.append(_star_index(star, {v: i for i, v in enumerate(order)}, x))
        mean = sum(values) / samples
        var = sum((v - mean) ** 2 for v in values) / max(samples - 1, 1)
        return MonteCarloEstimate(mean=mean, stderr=math.sqrt(var / samples), samples=samples)
    raise ValueError(f"unknown mode {mode!r}")


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
    characteristic 1 + (-1)^(k-1), the value that makes one-dimensional
    spheres circles (chi = 0) and two-dimensional ones chi = 2.
    """
    if k < 1:
        raise ValueError("geometric dimension starts at 1")
    if g.n == 0:
        return False
    for x in g.vertices:
        s = unit_sphere(g, x)
        if k == 1:
            if s.n != 2 or s.m != 0:
                return False
        else:
            if graph_euler_characteristic(s) != 1 + (-1) ** (k - 1):
                return False
            if not is_geometric(s, k - 1):
                return False
    return True


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
