"""Exterior derivative blocks, the Dirac matrix and the Laplacian.

The block d_k maps functions on k-simplices to functions on
(k+1)-simplices with the alternating sign rule; stacking the blocks below
the diagonal gives d with d^2 = 0, and D = d + d^T squares to the
block-diagonal Laplace-Beltrami operator with blocks
L_k = d_{k-1} d_{k-1}^T + d_k^T d_k.

Only the blocks d_k and L_k are stored.  The dense v x v matrices d, D and
L are built from them on first read.  Every stored matrix is an exact
int64 integer matrix.  The block products run in float64, which is exact
for these integers (each entry is bounded by a block dimension, far below
2^53); floating point is otherwise left to callers that eigendecompose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complexes import CliqueComplex, OrientationAssignment, build_complex, SimpleGraph
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
    rows, cols = c.count(k + 1), c.count(k)
    lower = c.local_index[k]
    d = np.zeros((rows, cols), dtype=np.int64)
    for j, y in enumerate(c.stratum(k + 1)):
        oy = o.sign(y)
        for i in range(len(y)):
            x = y[:i] + y[i + 1 :]
            d[j, lower[x]] = oy * o.sign(x) * (-1) ** i
    return d


@dataclass(frozen=True)
class Operators:
    """The assembled operator family of one complex and orientation.

    Only the blocks are stored; the dense v x v matrices are built from
    them on first read and cached.

    Attributes
    ----------
    dblocks    : the signed incidence matrices d_0, d_1, ...
    lap_blocks : the diagonal blocks L_k = d_{k-1} d_{k-1}^T + d_k^T d_k
    parity     : +-1 vector, +1 on even-dimensional simplices
    d          : (lazy) v x v strictly lower-block-triangular exterior derivative
    dirac      : (lazy) D = d + d^T
    laplacian  : (lazy) L = D^2, block diagonal with blocks lap_blocks
    """

    complex: CliqueComplex
    orientation: OrientationAssignment
    dblocks: tuple[np.ndarray, ...]
    lap_blocks: tuple[np.ndarray, ...]
    parity: np.ndarray

    @property
    def v(self) -> int:
        return self.complex.v

    @property
    def offsets(self) -> tuple[int, ...]:
        return self.complex.offsets

    def block_slice(self, k: int) -> slice:
        start = self.complex.offsets[k]
        return slice(start, start + self.complex.count(k))

    def _dense(self, blocks) -> np.ndarray:
        """v x v int64 matrix holding each (row stratum, column stratum, block)."""
        m = np.zeros((self.v, self.v), dtype=np.int64)
        for r, c, blk in blocks:
            m[self.block_slice(r), self.block_slice(c)] = blk
        return m

    @cached_property
    def d(self) -> np.ndarray:
        return self._dense((k + 1, k, b) for k, b in enumerate(self.dblocks))

    @cached_property
    def dirac(self) -> np.ndarray:
        lower = [(k + 1, k, b) for k, b in enumerate(self.dblocks)]
        return self._dense(lower + [(c, r, b.T) for r, c, b in lower])

    @cached_property
    def laplacian(self) -> np.ndarray:
        return self._dense((k, k, b) for k, b in enumerate(self.lap_blocks))

    @cached_property
    def dirac_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.dirac.astype(float))

    @cached_property
    def block_eigensystems(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(np.linalg.eigh(b.astype(float)) for b in self.lap_blocks)


def parity_vector(c: CliqueComplex) -> np.ndarray:
    p = np.empty(c.v, dtype=np.int64)
    for k in range(len(c.strata)):
        p[c.offsets[k] : c.offsets[k] + c.count(k)] = (-1) ** k
    return p


def build_operators(
    c: CliqueComplex, orientation: OrientationAssignment | None = None
) -> Operators:
    """Assemble the blocks d_k and L_k, verifying d_{k+1} d_k = 0."""
    o = orientation or OrientationAssignment()
    dblocks = tuple(exterior_derivative(c, o, k) for k in range(max(c.top_dim, 0)))
    # float64 BLAS products are exact here: every entry of a product is an
    # integer bounded by the block's inner dimension, far below 2^53
    fblocks = [b.astype(float) for b in dblocks]
    for k in range(len(fblocks) - 1):
        # a violation is an assembly bug, never a property of the input graph
        if (fblocks[k + 1] @ fblocks[k]).any():
            raise ConsistencyError(f"d_{k + 1} d_{k} != 0 (d^2 != 0)")
    lap_blocks = []
    for k in range(len(c.strata)):
        lap = np.zeros((c.count(k), c.count(k)))
        if k > 0:
            lap += fblocks[k - 1] @ fblocks[k - 1].T
        if k < len(fblocks):
            lap += fblocks[k].T @ fblocks[k]
        lap_blocks.append(lap.astype(np.int64))
    return Operators(
        complex=c,
        orientation=o,
        dblocks=dblocks,
        lap_blocks=tuple(lap_blocks),
        parity=parity_vector(c),
    )


def operators_for(g: SimpleGraph, orientation=None, max_dim=None) -> Operators:
    return build_operators(build_complex(g, max_dim), orientation)


def simplex_degree(ops: Operators, p: int, x: int) -> int:
    """Number of (p+1)-simplices containing the simplex with global index x.

    Reads off the Laplacian diagonal: L_p(x,x) - (p+1) for p >= 1 and
    L_0(x,x) for p = 0.
    """
    c = ops.complex
    if not 0 <= p < len(c.strata):
        raise IndexError(f"no stratum of dimension {p}")
    lo = c.offsets[p]
    if not lo <= x < lo + c.count(p):
        raise IndexError(f"global index {x} is not in stratum {p}")
    diag = int(ops.lap_blocks[p][x - lo, x - lo])
    return diag if p == 0 else diag - (p + 1)


def path_count(ops: Operators, x: int, y: int, k: int) -> int:
    """Number of length-k paths between simplices x and y in the simplex graph.

    Exact: the row vector e_x is multiplied by |D| k times over Python
    integers, O(k v^2) work.
    """
    if k < 0:
        raise ValueError("path length must be nonnegative")
    v = ops.v
    if not (0 <= x < v and 0 <= y < v):
        raise IndexError("simplex index out of range")
    adj = np.abs(ops.dirac).astype(object)
    walks = np.zeros(v, dtype=object)
    walks[x] = 1
    for _ in range(k):
        walks = walks @ adj
    return int(walks[y])


def matrix_to_json(m: np.ndarray) -> str:
    """Dense integer matrix as a JSON array of arrays, globalIndex order."""
    return json.dumps([[int(x) for x in row] for row in m], separators=(",", ":"))


def matrix_to_text(m: np.ndarray) -> str:
    """Dense integer matrix as whitespace-separated text, one row per line."""
    return "\n".join(" ".join(str(int(x)) for x in row) for row in m)
