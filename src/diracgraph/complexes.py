"""Finite simple graphs and their clique complexes.

A simplex is represented as a tuple of vertex identifiers sorted by the
host graph's vertex order; that ascending order is also its canonical
orientation.  The clique complex lists every complete subgraph, graded by
dimension, and assigns each simplex a global index (dimension-major,
lexicographic within each stratum).  All matrices downstream use that
indexing, so it is part of the public contract.  The face relation is
walked once, into the index arrays CliqueComplex.faces, which every
boundary operator and the simplex graph read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ComputationError, EdgeListError, GraphMismatchError

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph with a fixed vertex order.

    The vertex order given at construction is used for every canonical
    ordering downstream (simplex orientation, stratum sorting, matrix
    indexing), so two graphs with the same edges but different vertex
    orders are distinct objects.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertices: Iterable[int], edges: Iterable[Sequence[int]] = ()):
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertex identifiers")
        pos = {v: i for i, v in enumerate(verts)}
        seen = set()
        norm = []
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in pos or v not in pos:
                raise ValueError(f"edge ({u}, {v}) endpoint not a listed vertex")
            if pos[u] > pos[v]:
                u, v = v, u
            if (u, v) in seen:
                continue
            seen.add((u, v))
            norm.append((u, v))
        norm.sort(key=lambda e: (pos[e[0]], pos[e[1]]))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(norm))

    @cached_property
    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(s) for v, s in adj.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency.get(u, frozenset())

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def induced(self, subset: Iterable[int]) -> "SimpleGraph":
        """Induced subgraph, preserving the host vertex order."""
        keep, pos = set(subset), self.position
        unknown = [v for v in keep if v not in pos]
        if unknown:
            raise ValueError(f"unknown vertices {sorted(unknown)}")
        verts = sorted(keep, key=pos.__getitem__)
        return SimpleGraph(verts, [(u, v) for u in verts for v in self.adjacency[u] & keep if pos[u] < pos[v]])

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            x = stack.pop()
            for y in self.adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n

    def distances_from(self, source: int) -> dict[int, int]:
        """BFS geodesic distances; vertices unreachable from source are absent."""
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for x in frontier:
                for y in self.adjacency[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        return dist

    # small constructors used all over the test suite and CLI docs
    @staticmethod
    def complete(n: int) -> "SimpleGraph":
        verts = range(1, n + 1)
        return SimpleGraph(verts, combinations(verts, 2))

    @staticmethod
    def cycle(n: int) -> "SimpleGraph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        verts = list(range(1, n + 1))
        edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
        return SimpleGraph(verts, edges)

    @staticmethod
    def path(n: int) -> "SimpleGraph":
        verts = list(range(1, n + 1))
        return SimpleGraph(verts, [(verts[i], verts[i + 1]) for i in range(n - 1)])

    @staticmethod
    def star(n: int) -> "SimpleGraph":
        """Star on n vertices: center 1 joined to n-1 leaves."""
        verts = list(range(1, n + 1))
        return SimpleGraph(verts, [(1, v) for v in verts[1:]])


def parse_edge_list(text: str) -> SimpleGraph:
    """Parse the canonical edge-list format.

    One edge per line ``u v`` with nonnegative integer identifiers; a line
    with a single identifier declares an isolated vertex; blank lines and
    lines starting with ``#`` are ignored.  Vertices are ordered ascending.
    """
    verts: set[int] = set()
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise EdgeListError(lineno, f"non-integer token in {line!r}") from None
        if any(i < 0 for i in ids):
            raise EdgeListError(lineno, "negative vertex identifier")
        if len(ids) == 1:
            verts.add(ids[0])
        elif len(ids) == 2:
            if ids[0] == ids[1]:
                raise EdgeListError(lineno, f"self-loop at vertex {ids[0]}")
            verts.update(ids)
            edges.append((ids[0], ids[1]))
        else:
            raise EdgeListError(lineno, "expected one or two identifiers")
    return SimpleGraph(sorted(verts), edges)


def load_edge_list(path) -> SimpleGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def example_graph() -> SimpleGraph:
    """The bundled 7-vertex example: two triangles on a homotopy circle."""
    return SimpleGraph(
        range(1, 8),
        [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (3, 5), (5, 6), (4, 6), (4, 7)],
    )


@dataclass(frozen=True)
class CliqueComplex:
    """All cliques of a graph, graded by dimension and globally indexed."""

    host: SimpleGraph
    strata: tuple[tuple[Simplex, ...], ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strata)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """The global index of the first simplex of each stratum."""
        return tuple(accumulate(self.counts, initial=0))[:-1]

    @property
    def v(self) -> int:
        return sum(self.counts)

    @property
    def top_dim(self) -> int:
        return len(self.strata) - 1

    @cached_property
    def simplices(self) -> tuple[Simplex, ...]:
        return tuple(s for stratum in self.strata for s in stratum)

    def stratum(self, k: int) -> tuple[Simplex, ...]:
        if 0 <= k < len(self.strata):
            return self.strata[k]
        return ()

    def count(self, k: int) -> int:
        return len(self.stratum(k))

    @cached_property
    def local_index(self) -> tuple[dict[Simplex, int], ...]:
        return tuple({s: i for i, s in enumerate(st)} for st in self.strata)

    @cached_property
    def faces(self) -> tuple[np.ndarray, ...]:
        """The face relation, one int array per degree k < top_dim.

        faces[k][j, i] is the local index in stratum k of the j-th
        (k+1)-simplex with its i-th vertex (ascending order) removed.
        """
        out = []
        for k, lower in enumerate(self.local_index[:-1]):
            rows = [[lower[y[:i] + y[i + 1 :]] for i in range(k + 2)] for y in self.strata[k + 1]]
            out.append(np.array(rows, dtype=np.intp).reshape(-1, k + 2))
        return tuple(out)


def build_complex(g: SimpleGraph, max_dim: int | None = None) -> CliqueComplex:
    """Enumerate all cliques of g up to max_dim (default: until exhausted).

    Strata are grown one dimension at a time: each k-simplex is extended by
    the common neighbors of its vertices that come later in vertex order,
    which visits every clique exactly once.
    """
    if max_dim is not None and max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    pos = g.position
    strata: list[tuple[Simplex, ...]] = []
    if g.n:
        strata.append(tuple((v,) for v in g.vertices))
    adj = g.adjacency
    while strata and (max_dim is None or len(strata) - 1 < max_dim):
        nxt: list[Simplex] = []
        for s in strata[-1]:
            common = adj[s[0]]
            for x in s[1:]:
                common = common & adj[x]
            last = pos[s[-1]]
            nxt.extend(s + (u,) for u in common if pos[u] > last)
        if not nxt:
            break
        nxt.sort(key=lambda s: tuple(pos[x] for x in s))
        strata.append(tuple(nxt))
    return CliqueComplex(host=g, strata=tuple(strata))


def euler_characteristic(c: CliqueComplex) -> int:
    """Alternating sum of the clique counts, i.e. the value v(-1)."""
    return sum((-1) ** k * n for k, n in enumerate(c.counts))


@dataclass(frozen=True)
class OrientationAssignment:
    """Per-simplex sign flips relative to the canonical ascending order.

    The default assignment (no flips) is the canonical orientation.  Any
    two assignments give Dirac matrices conjugate by a diagonal +-1 matrix.
    """

    flips: Mapping[Simplex, int] = field(default_factory=dict)

    def __post_init__(self):
        for s, sign in self.flips.items():
            if sign not in (1, -1):
                raise ValueError(f"flip for {s} must be +1 or -1, got {sign}")

    def sign(self, simplex: Simplex) -> int:
        return self.flips.get(simplex, 1)

    @staticmethod
    def random(c: CliqueComplex, rng) -> "OrientationAssignment":
        return OrientationAssignment(
            {s: rng.choice((1, -1)) for s in c.simplices}
        )


def simplex_graph(c: CliqueComplex) -> SimpleGraph:
    """Graph on all simplices, joined by codimension-1 incidence.

    Vertices are the global indices 0..v-1; the result is triangle-free
    because incidence only links adjacent dimensions and two distinct
    faces of a simplex are never incident to each other.
    """
    edges = []
    for k, faces in enumerate(c.faces):
        cofaces = np.repeat(np.arange(len(faces)), k + 2) + c.offsets[k + 1]
        edges += zip((faces.ravel() + c.offsets[k]).tolist(), cofaces.tolist())
    return SimpleGraph(range(c.v), edges)


def simplex_distance(g: SimpleGraph, h: SimpleGraph) -> Fraction:
    """Fraction of simplices of the complete graph on which g and h differ."""
    if g.vertices != h.vertices:
        raise GraphMismatchError(
            "graphs are incomparable: vertex lists differ "
            f"({g.vertices} vs {h.vertices})"
        )
    if g.n == 0:
        raise ComputationError("simplex distance of two empty graphs is undefined (no simplices)")
    total = 2 ** g.n - 1
    sg = set(build_complex(g).simplices)
    sh = set(build_complex(h).simplices)
    return Fraction(len(sg ^ sh), total)
