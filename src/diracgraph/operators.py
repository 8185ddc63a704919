"""Exterior derivative blocks, the Dirac matrix and the Laplacian.

The block d_k maps functions on k-simplices to functions on
(k+1)-simplices with the alternating sign rule, scattered from the face
table CliqueComplex.faces; d_{k+1} d_k = 0, and D = d + d^T squares to the
block-diagonal Laplace-Beltrami operator with blocks
L_k = d_{k-1} d_{k-1}^T + d_k^T d_k.

Only the blocks d_k are stored.  The blocks L_k and the dense v x v
matrices D and L are built from them on first read, and place is the one
function that puts blocks on the v x v stratum grid.  Every one is an
exact int64 integer matrix.  The block products run in float64, which is
exact for these integers (each entry is bounded by a block dimension, far
below 2^53); floating point is otherwise left to callers that
eigendecompose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .complexes import CliqueComplex, OrientationAssignment, SimpleGraph, build_complex, simplex_graph
from .errors import ConsistencyError


def exterior_derivative(
    c: CliqueComplex, o: OrientationAssignment | None, k: int
) -> np.ndarray:
    """Signed incidence matrix d_k from the k-stratum to the (k+1)-stratum.

    Entry (y, x) is o(y)*o(x)*(-1)^i when x is y with its i-th vertex
    (ascending order) removed, else 0.
    """
    if not 0 <= k < c.top_dim:
        raise ValueError(f"degree {k} out of range for a complex of top dimension {c.top_dim}")
    o = o or OrientationAssignment()
    faces = c.faces[k]
    upper = np.array([o.sign(y) for y in c.stratum(k + 1)], dtype=np.int64)
    lower = np.array([o.sign(x) for x in c.stratum(k)], dtype=np.int64)
    d = np.zeros((c.count(k + 1), c.count(k)), dtype=np.int64)
    d[np.arange(len(faces))[:, None], faces] = upper[:, None] * lower[faces] * (-1) ** np.arange(k + 2)
    return d


def place(offsets: Sequence[int], v: int, blocks: Iterable[tuple[int, int, np.ndarray]],
          dtype=np.int64) -> np.ndarray:
    """The v x v matrix holding each (row stratum, column stratum, block).

    Stratum k starts at offsets[k]; a block's shape gives its extent.
    """
    m = np.zeros((v, v), dtype=dtype)
    for r, c, blk in blocks:
        m[offsets[r] : offsets[r] + blk.shape[0], offsets[c] : offsets[c] + blk.shape[1]] = blk
    return m


@dataclass(frozen=True)
class Operators:
    """The assembled operator family of one complex and orientation.

    Only the blocks d_k are stored; everything else is built from them on
    first read and cached, the dense matrices by place.

    Attributes
    ----------
    dblocks    : the signed incidence matrices d_0, d_1, ...
    parity     : (lazy) +-1 vector, +1 on even-dimensional simplices
    lap_blocks : (lazy) the diagonal blocks L_k = d_{k-1} d_{k-1}^T + d_k^T d_k
    dirac      : (lazy) D = d + d^T, d holding d_k at (k+1, k)
    laplacian  : (lazy) L = D^2, block diagonal with blocks lap_blocks
    """

    complex: CliqueComplex
    dblocks: tuple[np.ndarray, ...]

    @property
    def v(self) -> int:
        return self.complex.v

    @cached_property
    def parity(self) -> np.ndarray:
        c = self.complex
        return np.repeat((-1) ** np.arange(len(c.strata), dtype=np.int64), c.counts)

    @property
    def offsets(self) -> tuple[int, ...]:
        return self.complex.offsets

    @cached_property
    def lap_blocks(self) -> tuple[np.ndarray, ...]:
        # float64 BLAS products are exact here: every entry of a product is an
        # integer bounded by the block's inner dimension, far below 2^53
        f = [b.astype(float) for b in self.dblocks]
        out = []
        for k in range(len(self.complex.strata)):
            lap = np.zeros((self.complex.count(k),) * 2)
            if k > 0:
                lap += f[k - 1] @ f[k - 1].T
            if k < len(f):
                lap += f[k].T @ f[k]
            out.append(lap.astype(np.int64))
        return tuple(out)

    @cached_property
    def dirac(self) -> np.ndarray:
        lower = [(k + 1, k, b) for k, b in enumerate(self.dblocks)]
        return place(self.offsets, self.v, lower + [(c, r, b.T) for r, c, b in lower])

    @cached_property
    def laplacian(self) -> np.ndarray:
        return place(self.offsets, self.v, ((k, k, b) for k, b in enumerate(self.lap_blocks)))

    @cached_property
    def dirac_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.dirac.astype(float))

    @cached_property
    def block_eigensystems(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(np.linalg.eigh(b.astype(float)) for b in self.lap_blocks)


def build_operators(
    c: CliqueComplex, orientation: OrientationAssignment | None = None
) -> Operators:
    """Assemble the blocks d_k, verifying d_{k+1} d_k = 0."""
    dblocks = tuple(exterior_derivative(c, orientation, k) for k in range(c.top_dim))
    for k in range(len(dblocks) - 1):
        # a violation is an assembly bug, never a property of the input graph;
        # the float64 product is exact, as in Operators.lap_blocks
        if (dblocks[k + 1].astype(float) @ dblocks[k].astype(float)).any():
            raise ConsistencyError(f"d_{k + 1} d_{k} != 0 (d^2 != 0)")
    return Operators(complex=c, dblocks=dblocks)


def operators_for(g: SimpleGraph, orientation=None, max_dim=None) -> Operators:
    return build_operators(build_complex(g, max_dim), orientation)


def simplex_degree(ops: Operators, p: int, x: int) -> int:
    """Number of (p+1)-simplices containing the simplex with global index x:
    the nonzeros of its column of d_p (none on the top stratum)."""
    c = ops.complex
    if not 0 <= p < len(c.strata):
        raise IndexError(f"no stratum of dimension {p}")
    lo = c.offsets[p]
    if not lo <= x < lo + c.count(p):
        raise IndexError(f"global index {x} is not in stratum {p}")
    return int(np.count_nonzero(ops.dblocks[p][:, x - lo])) if p < len(ops.dblocks) else 0


def path_count(ops: Operators, x: int, y: int, k: int) -> int:
    """Number of length-k paths between simplices x and y in the simplex graph.

    Exact: walk counts from x are pushed k times over Python integers along
    the simplex graph's adjacency, which is the support of D.
    """
    if k < 0:
        raise ValueError("path length must be nonnegative")
    v = ops.v
    if not (0 <= x < v and 0 <= y < v):
        raise IndexError("simplex index out of range")
    adj = simplex_graph(ops.complex).adjacency
    walks = [0] * v
    walks[x] = 1
    for _ in range(k):
        walks = [sum(walks[u] for u in adj[w]) for w in range(v)]
    return walks[y]

