"""Dirac and Laplacian assembly against the worked example and invariants.

The worked example prints d0, d1, D and L with its own edge ordering
((1,3) before (1,2), (2,4) before (2,3)) and with both triangles flipped
relative to ascending orientation.  The tests below apply exactly that
permutation and flip, so the comparison against the printed matrices is
entry-exact.
"""

import random

import numpy as np
import pytest

from diracgraph import (
    ConsistencyError,
    example_graph,
    OrientationAssignment,
    SimpleGraph,
    build_complex,
    build_operators,
    exterior_derivative,
    operators_for,
    parity_vector,
    path_count,
    simplex_degree,
)
from diracgraph import operators
from conftest import erdos_renyi, octahedron

# the conftest graphs the block assembly is checked on
ASSEMBLY_GRAPHS = {
    "example": example_graph,
    "k5": lambda: SimpleGraph.complete(5),
    "octahedron": octahedron,
    "er": lambda: erdos_renyi(9, 0.5, random.Random(7)),
}

# the worked example's orderings, relative to ours (dimension-major,
# lexicographic): edge rows 0,1 and 2,3 are swapped; triangles flipped
EDGE_PERM = [1, 0, 3, 2, 4, 5, 6, 7, 8]  # ours[EDGE_PERM[j]] = printed row j
TRIANGLE_FLIPS = {(1, 2, 3): -1, (2, 3, 4): -1}

PRINTED_D0 = np.array([
    [-1, 0, 1, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0, 0, 0],
    [0, -1, 0, 1, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0],
    [0, 0, -1, 1, 0, 0, 0],
    [0, 0, -1, 0, 1, 0, 0],
    [0, 0, 0, -1, 0, 1, 0],
    [0, 0, 0, -1, 0, 0, 1],
    [0, 0, 0, 0, -1, 1, 0],
])

PRINTED_D1 = np.array([
    [1, -1, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 1, -1, -1, 0, 0, 0, 0],
])


def test_gradient_matches_printed_matrix(example):
    c = build_complex(example)
    d0 = exterior_derivative(c, None, 0)
    assert np.array_equal(d0[EDGE_PERM, :], PRINTED_D0)


def test_curl_matches_printed_matrix(example):
    c = build_complex(example)
    d1 = exterior_derivative(c, OrientationAssignment(TRIANGLE_FLIPS), 1)
    assert np.array_equal(d1[:, EDGE_PERM], PRINTED_D1)


def test_k2_gradient_sign_rule():
    c = build_complex(SimpleGraph.complete(2))
    assert np.array_equal(exterior_derivative(c, None, 0), [[-1, 1]])


def test_exterior_derivative_degree_range(example):
    c = build_complex(example)
    with pytest.raises(ValueError):
        exterior_derivative(c, None, 2)
    with pytest.raises(ValueError):
        exterior_derivative(c, None, -1)


def test_dirac_matches_printed_matrix(example):
    ops = operators_for(example, OrientationAssignment(TRIANGLE_FLIPS))
    perm = list(range(7)) + [7 + j for j in EDGE_PERM] + [16, 17]
    printed = ops.dirac[np.ix_(perm, perm)]
    # spot-check the printed rows quoted in the source of the example
    assert list(printed[0]) == [0, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert list(printed[16]) == [0, 0, 0, 0, 0, 0, 0, 1, -1, 0, -1, 0, 0, 0, 0, 0, 0, 0]
    assert list(printed[17]) == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, -1, 0, 0, 0, 0, 0, 0]
    assert np.array_equal(printed, printed.T)
    assert not printed.diagonal().any()


def test_dirac_single_vertex():
    ops = operators_for(SimpleGraph([1], []))
    assert ops.dirac.shape == (1, 1)
    assert ops.dirac[0, 0] == 0


def test_laplacian_blocks_example(example, example_ops):
    ops = example_ops
    assert np.array_equal(ops.lap_blocks[2], [[3, 1], [1, 3]])
    # scalar block is degree matrix minus adjacency
    deg = np.diag([example.degree(v) for v in example.vertices])
    adj = np.zeros((7, 7), dtype=int)
    pos = example.position
    for u, v in example.edges:
        adj[pos[u], pos[v]] = adj[pos[v], pos[u]] = 1
    assert np.array_equal(ops.lap_blocks[0], deg - adj)


def test_laplacian_c4_is_circulant():
    ops = operators_for(SimpleGraph.cycle(4))
    expected = 2 * np.eye(4) - np.array(
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    )
    assert np.array_equal(ops.lap_blocks[0], expected)


def test_d_squared_zero_and_block_structure():
    rng = random.Random(23)
    for _ in range(10):
        g = erdos_renyi(rng.randint(2, 7), rng.choice((0.3, 0.5, 0.7)), rng)
        c = build_complex(g)
        flips = OrientationAssignment.random(c, rng)
        ops = build_operators(c, flips)
        d = np.tril(ops.dirac)  # d sits below the diagonal of D = d + d^T
        assert np.array_equal(d + d.T, ops.dirac)
        assert not (d @ d).any()
        for k, blk in enumerate(ops.dblocks[:-1]):
            assert not (ops.dblocks[k + 1] @ blk).any()


@pytest.mark.parametrize("name", ASSEMBLY_GRAPHS)
def test_block_assembly_matches_dirac_squared(name):
    ops = operators_for(ASSEMBLY_GRAPHS[name]())
    square = ops.dirac @ ops.dirac  # the reference: L = D^2 in int64
    assert len(ops.lap_blocks) == len(ops.complex.strata)
    off = ops.laplacian.copy()
    for k, blk in enumerate(ops.lap_blocks):
        s = slice(ops.offsets[k], ops.offsets[k] + len(blk))
        assert blk.dtype == np.int64
        assert np.array_equal(blk, square[s, s])
        off[s, s] = 0
    assert not off.any()  # L is block diagonal
    assert np.array_equal(ops.laplacian, square)


def test_dblock_row_support():
    c = build_complex(SimpleGraph.complete(4))
    for k in range(c.top_dim):
        d = exterior_derivative(c, None, k)
        assert (np.count_nonzero(d, axis=1) == k + 2).all()


def test_parity_and_supersymmetry(example_ops):
    ops = example_ops
    p = parity_vector(ops.complex)
    assert np.array_equal(p * p, np.ones(18, dtype=int))
    pd = np.diag(p)
    assert not (ops.dirac @ pd + pd @ ops.dirac).any()


def test_orientation_flip_conjugation(example):
    c = build_complex(example)
    rng = random.Random(1)
    base = build_operators(c)
    flips = OrientationAssignment.random(c, rng)
    flipped = build_operators(c, flips)
    s = np.array([flips.sign(x) for x in c.simplices])
    assert np.array_equal(flipped.dirac, s[:, None] * base.dirac * s[None, :])
    # spectra agree; Laplacian conjugates, leaving diagonal and moduli fixed
    assert np.allclose(
        np.linalg.eigvalsh(flipped.dirac.astype(float)),
        np.linalg.eigvalsh(base.dirac.astype(float)),
    )
    assert np.array_equal(np.abs(flipped.laplacian), np.abs(base.laplacian))
    assert np.array_equal(np.diag(flipped.laplacian), np.diag(base.laplacian))


def test_orientation_flip_constant_per_stratum_leaves_l_identical(example):
    c = build_complex(example)
    flips = OrientationAssignment({s: -1 for s in c.stratum(1)})
    assert np.array_equal(build_operators(c, flips).laplacian,
                          build_operators(c).laplacian)


def test_trace_identities():
    rng = random.Random(31)
    for _ in range(8):
        g = erdos_renyi(rng.randint(2, 7), 0.5, rng)
        c = build_complex(g)
        ops = build_operators(c)
        assert np.trace(ops.lap_blocks[0]) == 2 * c.count(1)
        for p in range(1, len(c.strata)):
            assert np.trace(ops.lap_blocks[p]) == (p + 2) * c.count(p + 1) + (
                p + 1
            ) * c.count(p)


def test_simplex_degree(example_ops):
    ops = example_ops
    c = ops.complex
    for t in c.stratum(2):  # no tetrahedra: every triangle has degree 0
        assert simplex_degree(ops, 2, c.simplices.index(t)) == 0
    k3 = operators_for(SimpleGraph.complete(3))
    for e in k3.complex.stratum(1):
        assert simplex_degree(k3, 1, k3.complex.simplices.index(e)) == 1
    c4 = operators_for(SimpleGraph.cycle(4))
    for v in c4.complex.stratum(0):
        assert simplex_degree(c4, 0, c4.complex.simplices.index(v)) == 2
    with pytest.raises(IndexError):
        simplex_degree(ops, 1, 0)  # global index 0 lives in stratum 0


def test_eigenvalue_pairing(example_ops):
    eigs = np.linalg.eigvalsh(example_ops.dirac.astype(float))
    assert np.allclose(np.sort(eigs), -np.sort(-eigs)[::-1], atol=1e-9)


def test_path_count():
    k2 = operators_for(SimpleGraph.complete(2))
    assert path_count(k2, 0, 0, 0) == 1
    assert path_count(k2, 0, 1, 0) == 0
    assert path_count(k2, 0, 0, 2) == 1  # out to the edge simplex and back
    ops = operators_for(example_graph())
    adj = np.abs(ops.dirac).astype(object)
    for k in range(7):
        power = np.linalg.matrix_power(adj, k)
        for x in range(ops.v):
            for y in range(ops.v):
                assert path_count(ops, x, y, k) == power[x, y]
    ops = operators_for(SimpleGraph.cycle(4))
    # odd closed signed powers vanish identically
    d5 = np.linalg.matrix_power(ops.dirac.astype(object), 5)
    assert not any(d5[i, i] for i in range(ops.v))


def test_even_odd_closed_path_split(example_ops):
    ops = example_ops
    adj = np.abs(ops.dirac).astype(object)
    power = adj @ adj
    for _ in range(2):  # k = 1, 2
        diag = np.diag(power)
        even = sum(int(diag[i]) for i in range(ops.v) if ops.parity[i] == 1)
        odd = sum(int(diag[i]) for i in range(ops.v) if ops.parity[i] == -1)
        assert even == odd
        power = power @ adj @ adj


def test_consistency_error_on_corrupt_block(monkeypatch):
    exact = operators.exterior_derivative

    def corrupt(c, o, k):
        d = exact(c, o, k)
        if k == 1:
            d[0, 0] += 1  # one wrong sign breaks d_1 d_0 = 0
        return d

    monkeypatch.setattr(operators, "exterior_derivative", corrupt)
    with pytest.raises(ConsistencyError):
        build_operators(build_complex(example_graph()))
