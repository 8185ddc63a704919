"""Graph automorphisms, induced cohomology maps and Lefschetz data.

An automorphism permutes every stratum of the clique complex.  Its
pullback on k-cochains is (T*f)(x) = sign(T|x) f(T(x)), where the sign is
the parity of the permutation that sorts the image vertices back into
ascending order; compressing the pullback to the harmonic space gives the
induced map on cohomology.  The Lefschetz number is computed exactly as
the sum of the indices of the fixed simplices, and the alternating trace
of the induced maps certifies it.

simplex_action computes that permutation and its signs for a whole list
of maps in one array pass per stratum; the fixed simplices, the traces
and the cycles behind the zeta function are all read from its arrays.
The one-map functions lefschetz, lefschetz_zeta and
induced_cohomology_map are the case of a list of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

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


@dataclass(frozen=True)
class SimplexAction:
    """How each of a list of maps permutes every stratum, with orientation signs.

    images[k][m, j] is the local index of the image of the j-th k-simplex
    under map m, and signs[k][m, j] is +1 or -1: the parity of the
    permutation that sorts its image vertices into ascending order.  count
    is the number of maps, which the arrays cannot show when the complex
    is empty.
    """

    count: int
    images: tuple[np.ndarray, ...]
    signs: tuple[np.ndarray, ...]


def _vertex_permutations(g: SimpleGraph, maps: Sequence[GraphMap]) -> np.ndarray:
    """perm[m, i] is the position of the image of the i-th vertex under map m.

    Raises ValueError unless every map is a bijection of the vertices."""
    pos = g.position
    perm = np.empty((len(maps), g.n), dtype=np.intp)
    for m, t in enumerate(maps):
        if t.keys() != pos.keys():
            missing, extra = pos.keys() - t.keys(), t.keys() - pos.keys()
            raise ValueError(f"the map is not defined on vertex {min(missing)}" if missing
                             else f"the map is defined on {min(extra)}, which is not a vertex")
        images = [pos.get(t[v], -1) for v in g.vertices]
        if -1 in images:
            v = g.vertices[images.index(-1)]
            raise ValueError(f"the map sends vertex {v} to {t[v]}, which is not a vertex")
        perm[m] = images
    ordered = np.sort(perm, axis=1)
    twice = np.argwhere(ordered[:, 1:] == ordered[:, :-1])
    if len(twice):
        m, i = twice[0]
        raise ValueError("the map is not a bijection: more than one vertex goes to "
                         f"{g.vertices[ordered[m, i]]}")
    return perm


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of nonnegative integers as one key; keys order as the rows do lexicographically.

    A big-endian unsigned integer compares bytewise like the number it
    encodes, and numpy compares void keys bytewise, so no row is packed
    into one integer that could overflow.
    """
    rows = np.ascontiguousarray(rows, dtype=">u8")
    return rows.view(np.dtype((np.void, 8 * rows.shape[-1])))[..., 0]


def simplex_action(c: CliqueComplex, maps: Sequence[GraphMap]) -> SimplexAction:
    """The permutation and signs that every map induces on every stratum, in one array pass.

    Stratum k's vertex positions come from the face table: a k-simplex is
    its face without the last vertex, followed by the last vertex of its
    face without the first.  Each map's vertex permutation sends those
    rows to image rows; the inversions of an image row give its sign, and
    the sorted row is looked up among the stratum's rows, which are in
    lexicographic order.  Raises ValueError naming the fault unless every
    map is a bijection of the vertices that sends every simplex to a
    simplex, that is, an automorphism of c.
    """
    g = c.host
    perm = _vertex_permutations(g, maps)
    rows = np.arange(g.n)[:, None]
    images, signs = [], []
    for k, stratum in enumerate(c.strata):
        if k:
            f = c.faces[k - 1]
            rows = np.column_stack([rows[f[:, -1]], rows[f[:, 0], -1]])
        image = perm[:, rows]
        inversions = np.zeros(image.shape[:2], dtype=np.intp)
        for i in range(k):
            inversions += np.count_nonzero(image[..., i, None] > image[..., i + 1 :], axis=-1)
        image.sort(axis=-1)
        keys, wanted = _row_keys(rows), _row_keys(image)
        index = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
        missed = keys[index] != wanted
        if missed.any():
            m, j = np.argwhere(missed)[0]
            raise ValueError(f"the map sends simplex {stratum[j]} to "
                             f"{tuple(g.vertices[p] for p in image[m, j])}, which is not a simplex")
        images.append(index)
        signs.append(1 - 2 * (inversions % 2))
    return SimplexAction(count=len(maps), images=tuple(images), signs=tuple(signs))


def _induced_maps(ops: Operators, action: SimplexAction, k: int) -> list[np.ndarray]:
    """The b_k x b_k matrix of T* on harmonic representatives, for each map of action.

    The pullback matrix P has the sign of T on the i-th k-simplex at row i
    and the column of its image; the harmonic basis h is formed once.
    """
    basis = harmonic_basis(ops, k)
    if not basis:
        return [np.zeros((0, 0))] * action.count
    h = np.column_stack([b.values for b in basis])
    rows = np.arange(len(h))
    out = []
    for image, sign in zip(action.images[k], action.signs[k]):
        p = np.zeros((len(h), len(h)))
        p[rows, image] = sign
        out.append(h.T @ p @ h)
    return out


def induced_cohomology_map(ops: Operators, t: GraphMap, k: int) -> np.ndarray:
    """The b_k x b_k matrix of T* on harmonic representatives.

    The pullback of an automorphism commutes with d and preserves the
    harmonic space, so projecting pulled-back basis vectors onto that
    space loses nothing.  Raises ValueError unless t is an automorphism.
    """
    return _induced_maps(ops, simplex_action(ops.complex, [t]), k)[0]


@dataclass(frozen=True)
class LefschetzReport:
    traces: tuple[float, ...]
    lefschetz: int
    fixed_simplices: tuple[tuple[Simplex, int], ...]


def lefschetz_reports(ops: Operators, action: SimplexAction) -> list[LefschetzReport]:
    """The LefschetzReport of each map of action; see lefschetz."""
    c = ops.complex
    fixed: list[list[tuple[Simplex, int]]] = [[] for _ in range(action.count)]
    traces: list[list[float]] = [[] for _ in range(action.count)]
    for k, (image, sign) in enumerate(zip(action.images, action.signs)):
        maps, simplices = np.nonzero(image == np.arange(image.shape[1]))
        for m, j, s in zip(maps.tolist(), simplices.tolist(), sign[maps, simplices].tolist()):
            fixed[m].append((c.strata[k][j], (-1) ** k * s))
        for tr, h in zip(traces, _induced_maps(ops, action, k)):
            tr.append(float(np.trace(h)))
    reports = []
    for tr, fx in zip(traces, fixed):
        number = sum(i for _, i in fx)
        gap = abs(sum((-1) ** k * x for k, x in enumerate(tr)) - number)
        if gap > 0.5:
            raise ConsistencyError(
                f"harmonic traces miss the fixed-simplex Lefschetz number {number} by {gap:.3g}"
            )
        reports.append(LefschetzReport(traces=tuple(tr), lefschetz=number, fixed_simplices=tuple(fx)))
    return reports


def lefschetz(ops: Operators, t: GraphMap) -> LefschetzReport:
    """Lefschetz number as the exact sum of fixed-simplex indices.

    The fixed simplices, in global order, are those that t maps to
    themselves; the index of one is (-1)^dim(x) times the sign of t on its
    vertices.  The alternating sum of the traces of T* on harmonic forms
    certifies the number: a gap above 1/2 contradicts the Lefschetz fixed
    point theorem and raises ConsistencyError.  Raises ValueError unless t
    is an automorphism.  The one-map case of lefschetz_reports.
    """
    return lefschetz_reports(ops, simplex_action(ops.complex, [t]))[0]


def _cycle_labels(image: np.ndarray) -> np.ndarray:
    """label[m, j]: the least local index on the cycle of simplex j under map m.

    Pointer doubling: after r rounds label covers the first 2^r points of
    each orbit and step is the 2^r-th power of the map.
    """
    rows = np.arange(len(image))[:, None]
    label = np.zeros_like(image) + np.arange(image.shape[1])
    step = image
    for _ in range(image.shape[1].bit_length()):
        label = np.minimum(label, label[rows, step])
        step = step[rows, step]
    return label


def lefschetz_zetas(action: SimplexAction, z: complex) -> list[complex]:
    """The Lefschetz zeta function of each map of action at z; see lefschetz_zeta.

    Every factor 1 - z^m that some cycle adds to is multiplied in, also when
    its exponents cancel to 0: the product then has the bits of the one
    taken cycle by cycle, since a factor 1 can still turn an imaginary part
    of -0.0 into 0.0.
    """
    if not abs(z) < 1:  # NaN fails too
        raise ValueError("the series requires |z| < 1")
    width = 2 * max((image.shape[1] for image in action.images), default=0) + 1
    exponents = np.zeros((action.count, width), dtype=np.int64)
    touched = np.zeros((action.count, width), dtype=bool)
    for k, (image, sign) in enumerate(zip(action.images, action.signs)):
        # the cycle of map m through its least simplex j is numbered m n + j
        maps, n = image.shape
        cycle = (np.arange(maps)[:, None] * n + _cycle_labels(image)).ravel()
        size = np.bincount(cycle, minlength=maps * n)
        odd = np.bincount(cycle, weights=(sign < 0).ravel(), minlength=maps * n) % 2 == 1  # sign of T^l
        cycles = np.flatnonzero(size)
        m, length, negative, e = cycles // n, size[cycles], odd[cycles], (-1) ** (k + 1)
        np.add.at(exponents, (m, length), np.where(negative, -e, e))
        np.add.at(exponents, (m[negative], 2 * length[negative]), e)
        touched[m, length] = True
        touched[m[negative], 2 * length[negative]] = True
    values = []
    for row, hit in zip(exponents.tolist(), touched):
        value = 1 + 0j
        for m in np.flatnonzero(hit).tolist():
            value *= (1 - z ** m) ** row[m]
        values.append(value)
    return values


def lefschetz_zeta(ops: Operators, t: GraphMap, z: complex) -> complex:
    """Lefschetz zeta function exp(sum_n L(T^n) z^n / n), for |z| < 1.

    A cycle of length l through k-simplices, on which T^l has sign e (the
    product of the signs of T along the cycle), adds l (-1)^k e^(n/l) to
    L(T^n) for each n divisible by l: the factor (1 - e z^l)^((-1)^(k+1)).
    As 1 + z^l = (1 - z^2l)/(1 - z^l), all factors are powers of the
    independent 1 - z^m, whose exponents are summed first, so a zeta
    function that is identically 1 evaluates to exactly 1.  Raises
    ValueError unless t is an automorphism.  The one-map case of
    lefschetz_zetas.
    """
    return lefschetz_zetas(simplex_action(ops.complex, [t]), z)[0]
