"""Independent oracles for the benchmark's correctness checks.

None of these call into diracgraph: cliques come from testing vertex
subsets, ranks from exact elimination over Q, tree counts from an exact
integer determinant.  They run outside the timed region.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import exp

import numpy as np


def adjacency(vertices, edges) -> dict[int, set[int]]:
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def cliques(vertices, edges) -> list[list[tuple[int, ...]]]:
    """All cliques by dimension, each a sorted tuple, each stratum sorted.

    Every clique is found exactly once from its smallest vertex by testing
    all subsets of that vertex's larger neighbours; the search at one size
    stops when no subset of that size is complete.
    """
    adj = adjacency(vertices, edges)
    strata: list[list[tuple[int, ...]]] = []
    for v in sorted(vertices):
        up = sorted(u for u in adj[v] if u > v)
        for r in range(len(up) + 1):
            found = False
            for subset in combinations(up, r):
                if all(b in adj[a] for a, b in combinations(subset, 2)):
                    while len(strata) <= r:
                        strata.append([])
                    strata[r].append((v,) + subset)
                    found = True
            if not found:
                break
    return [sorted(s) for s in strata]


def incidence_rows(lower, upper) -> list[dict[int, int]]:
    """Sparse rows of d_k: one row per upper simplex, alternating face signs."""
    index = {s: i for i, s in enumerate(lower)}
    return [
        {index[y[:i] + y[i + 1:]]: (-1) ** i for i in range(len(y))} for y in upper
    ]


def rank_q(rows: list[dict[int, int]]) -> int:
    """Exact rank over Q of a sparse integer matrix (row echelon form)."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for r in rows:
        row = {c: Fraction(x) for c, x in r.items() if x}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / row[lead]
                pivots[lead] = {c: x * inv for c, x in row.items()}
                break
            factor = row[lead]
            for c, x in pivot.items():
                value = row.get(c, 0) - factor * x
                if value:
                    row[c] = value
                else:
                    row.pop(c, None)
    return len(pivots)


def betti(strata) -> list[int]:
    """Betti numbers b_k = v_k - rank d_k - rank d_{k-1}, ranks over Q."""
    ranks = [rank_q(incidence_rows(strata[k], strata[k + 1])) for k in range(len(strata) - 1)]
    ranks.append(0)
    return [len(strata[k]) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(len(strata))]


def euler(counts) -> int:
    return sum((-1) ** k * n for k, n in enumerate(counts))


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1] if n else 1


def reduced_laplacian(n: int, edges) -> list[list[int]]:
    """Graph Laplacian on vertices 0..n-1 with the last row and column removed."""
    lap = [[0] * n for _ in range(n)]
    for i, j in edges:
        lap[i][j] -= 1
        lap[j][i] -= 1
        lap[i][i] += 1
        lap[j][j] += 1
    return [row[:-1] for row in lap[:-1]]


def relabel(vertices, edges) -> tuple[int, list[tuple[int, int]]]:
    pos = {v: i for i, v in enumerate(sorted(vertices))}
    return len(pos), [(pos[u], pos[v]) for u, v in edges]


def spanning_trees(vertices, edges) -> int:
    """Matrix-tree theorem with an exact integer determinant."""
    n, e = relabel(vertices, edges)
    return det_int(reduced_laplacian(n, e)) if n > 1 else 1


def simplex_graph_edges(strata) -> tuple[int, list[tuple[int, int]]]:
    """Codimension-one incidence graph on all simplices, globally indexed."""
    index = {s: i for i, s in enumerate(s for st in strata for s in st)}
    edges = [
        (index[y[:i] + y[i + 1:]], index[y])
        for st in strata[1:]
        for y in st
        for i in range(len(y))
    ]
    return len(index), edges


def log_spanning_trees(n: int, edges) -> float:
    """Natural log of the tree count, in floating point (for large graphs)."""
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i, j] -= 1
        lap[j, i] -= 1
        lap[i, i] += 1
        lap[j, j] += 1
    sign, logdet = np.linalg.slogdet(lap[:-1, :-1])
    return logdet if sign > 0 else float("nan")


def is_connected(vertices, edges) -> bool:
    vertices = list(vertices)
    if len(vertices) <= 1:
        return True
    return len(distances(adjacency(vertices, edges), vertices[0])) == len(vertices)


def distances(adj, source) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def magnitude(vertices, edges) -> float:
    vertices = sorted(vertices)
    adj = adjacency(vertices, edges)
    pos = {v: i for i, v in enumerate(vertices)}
    z = np.empty((len(vertices), len(vertices)))
    for v in vertices:
        for u, d in distances(adj, v).items():
            z[pos[v], pos[u]] = exp(-d)
    return float(np.sum(np.linalg.solve(z, np.ones(len(vertices)))))


def automorphisms(vertices, edges) -> list[dict[int, int]]:
    """Every adjacency-preserving permutation, by plain backtracking."""
    vertices = sorted(vertices)
    adj = adjacency(vertices, edges)
    found = []

    def extend(assigned: dict[int, int]):
        if len(assigned) == len(vertices):
            found.append(dict(assigned))
            return
        x = vertices[len(assigned)]
        used = set(assigned.values())
        for y in vertices:
            if y in used or len(adj[x]) != len(adj[y]):
                continue
            if all((u in adj[x]) == (img in adj[y]) for u, img in assigned.items()):
                assigned[x] = y
                extend(assigned)
                del assigned[x]

    extend({})
    return found


def dimension(vertices, edges) -> Fraction:
    """Inductive dimension: mean over x of 1 + dim(unit sphere), dim(empty) = -1."""
    adj = adjacency(vertices, edges)
    memo: dict[frozenset, Fraction] = {}

    def dim(vs: frozenset) -> Fraction:
        if not vs:
            return Fraction(-1)
        if vs not in memo:
            memo[vs] = sum((1 + dim(frozenset(adj[x] & vs)) for x in vs), Fraction(0)) / len(vs)
        return memo[vs]

    return dim(frozenset(vertices))
