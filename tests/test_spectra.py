"""Spectral invariants: charpoly, pseudo-det, zeta, minors, trees, magnitude."""

import math
import random

import numpy as np
import pytest

from diracgraph import (
    CapacityError,
    ComputationError,
    GraphMismatchError,
    SimpleGraph,
    aligned_dirac_pair,
    analytic_torsion,
    build_complex,
    cauchy_binet_coeffs,
    charpoly_int,
    dirac_charpoly,
    dirac_zeta,
    eta,
    example_graph,
    kirchhoff_trees,
    magnitude,
    max_simplex_degree,
    operators_for,
    pseudo_det,
    simplex_distance,
    simplex_graph,
    simplex_graph_trees,
    spectral_distance,
    zeta_derivative_at_zero,
)
from diracgraph import spectra
from conftest import (
    GOLDEN_CHARPOLY,
    cauchy_binet_minor_sum,
    det_fraction,
    erdos_renyi,
    faddeev_leverrier_charpoly,
    icosahedron,
    octahedron,
    random_suite,
    simplex_graph_trees_exact,
    spanning_trees_brute,
    truncated_cube,
)


def minor_sum_symmetric(a, k):
    """Trace-formula oracle: sum of principal k x k minors of a square matrix."""
    from itertools import combinations

    a = np.asarray(a)
    total = 0
    for rows in combinations(range(a.shape[0]), k):
        sub = a[np.ix_(rows, rows)]
        total += round(np.linalg.det(sub.astype(float)))
    return total


def test_charpoly_example(example_ops):
    assert charpoly_int(example_ops.dirac) == GOLDEN_CHARPOLY
    assert dirac_charpoly(example_ops) == GOLDEN_CHARPOLY


@pytest.mark.parametrize("graph", [
    SimpleGraph([], []),
    SimpleGraph([0], []),
    SimpleGraph(range(4), []),
    SimpleGraph.complete(5),
    octahedron(),
    icosahedron(),
], ids=["empty", "vertex", "edgeless", "K5", "octahedron", "icosahedron"])
def test_dirac_charpoly_matches_dense(graph):
    ops = operators_for(graph)
    assert dirac_charpoly(ops) == charpoly_int(ops.dirac)


def test_charpoly_rejects_non_integer_input():
    assert charpoly_int(np.array([[2.0, 1.0], [0.0, 3.0]])) == [1, -5, 6]
    assert charpoly_int(np.zeros((0, 0), dtype=int)) == [1]
    for bad in ([[0.5]], [[1.5, 0], [0, 2.5]], [[float("nan")]], [[float("inf")]], [[1j]],
                [1, 2], [[1, 2, 3], [4, 5, 6]]):
        with pytest.raises(ValueError):
            charpoly_int(np.array(bad))


def test_charpoly_accepts_every_integer_dtype():
    # bool, narrow ints, uint64 beyond int64, integral floats beyond int64,
    # and object arrays mixing Python, numpy and float integers
    for a in (np.array([[True, False], [True, True]]),
              np.array([[1, -2], [3, 4]], dtype=np.int8),
              np.array([[2**64 - 1, 1], [0, 2]], dtype=np.uint64),
              np.array([[2.0**70, 1.0], [3.0, -(2.0**66)]]),
              np.array([[2**70, np.int64(3)], [1.0, -5]], dtype=object)):
        assert charpoly_int(a) == faddeev_leverrier_charpoly(a)


@pytest.mark.parametrize("n", range(1, 9))
def test_charpoly_of_a_scalar_matrix_meets_its_bound(n):
    # det(xI - cI) = sum_k C(n, k) (-c)^k x^(n-k): the absolute coefficients
    # sum to (1 + c)^n, exactly the product prod(1 + r_i) that sizes the
    # primes, and c^n = 2^(40 n) needs up to 17 of them
    c = 2**40
    expected = [math.comb(n, k) * (-c) ** k for k in range(n + 1)]
    assert charpoly_int(np.eye(n, dtype=np.int64) * c) == expected
    assert charpoly_int(np.eye(n, dtype=object) * -c) == [abs(x) for x in expected]


def test_charpoly_prime_sets_and_groups_agree(monkeypatch):
    # two disjoint prime sets, each above twice the coefficient bound, give
    # the same integers; so does one prime per group
    rng = np.random.default_rng(7)
    a = rng.integers(-50, 51, size=(10, 10))
    expected = faddeev_leverrier_charpoly(a)
    primes, _ = spectra._prime_table(2**14)
    assert spectra._charpoly(a, primes[:6]) == spectra._charpoly(a, primes[6:12]) == expected
    monkeypatch.setattr(spectra, "_STACK", 1)
    assert spectra._charpoly(a, primes[20:26]) == expected


def test_charpoly_primes_leave_room_for_the_sign():
    # c just above half the product M of the k largest primes: modulo M alone
    # the symmetric residue of -c reads as M - c, so the bound's sign bit
    # must call for one more prime
    primes, _ = spectra._prime_table(2**14)
    for k in (1, 2, 5):
        c = math.prod(primes[:k].tolist()) // 2 + 1
        assert charpoly_int(np.array([[c]], dtype=object)) == [1, -c]
        assert charpoly_int(np.array([[-c]], dtype=object)) == [1, c]


def test_charpoly_size_limits_raise_capacity_error():
    # order 2^13 is where float64 products stop being exact; the view holds
    # no memory, so the check runs before anything is converted
    with pytest.raises(CapacityError):
        charpoly_int(np.broadcast_to(np.int64(0), (8192, 8192)))
    # a coefficient bound beyond the product of every prime in (2^19, 2^20)
    with pytest.raises(CapacityError):
        charpoly_int(np.array([[2**800_000]], dtype=object))


def test_charpoly_matches_principal_minor_oracle():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        coeffs = charpoly_int(a)
        # det(xI - A) = sum_k (-1)^k e_k x^(n-k)
        for k in range(n + 1):
            assert coeffs[k] == (-1) ** k * minor_sum_symmetric(a, k)


def test_pseudo_det():
    assert pseudo_det(np.zeros((3, 3))) == 1.0
    assert pseudo_det(np.zeros((0, 0))) == 1.0
    ops = operators_for(SimpleGraph.cycle(3))
    l0 = ops.lap_blocks[0].astype(float)
    assert abs(pseudo_det(l0) - 9.0) < 1e-9  # eigenvalues 0, 3, 3
    with pytest.raises(ValueError, match="symmetric"):
        pseudo_det(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_pseudo_det_example(example_ops):
    assert abs(pseudo_det(example_ops.dirac) - 1624) < 1624 * 1e-6


def test_pseudo_det_squares_to_laplacian_det():
    rng = random.Random(13)
    for _ in range(8):
        g = erdos_renyi(rng.randint(2, 7), 0.5, rng)
        ops = operators_for(g)
        lhs = pseudo_det(ops.dirac) ** 2
        rhs = pseudo_det(ops.laplacian)
        assert abs(lhs - rhs) <= 1e-6 * max(abs(rhs), 1.0)


def test_kirchhoff_trees():
    assert kirchhoff_trees(SimpleGraph.cycle(3)) == 3
    assert kirchhoff_trees(SimpleGraph.path(5)) == 1
    assert kirchhoff_trees(SimpleGraph.complete(4)) == 16
    with pytest.raises(ComputationError):
        kirchhoff_trees(SimpleGraph(range(4), [(0, 1), (2, 3)]))


def test_kirchhoff_matches_brute_force():
    rng = random.Random(29)
    checked = 0
    while checked < 10:
        g = erdos_renyi(rng.randint(2, 6), 0.6, rng)
        if not g.is_connected():
            continue
        assert kirchhoff_trees(g) == spanning_trees_brute(g)
        checked += 1


def test_kirchhoff_trees_exact_between_2_53_and_2_60():
    # K_{9,11} has 9^10 * 11^8 (about 2^59.4) spanning trees; the float
    # estimate is off in its last three digits
    g = SimpleGraph(range(20), [(i, j) for i in range(9) for j in range(9, 20)])
    assert kirchhoff_trees(g) == 9 ** 10 * 11 ** 8


def test_kirchhoff_trees_match_the_exact_reduced_determinant(monkeypatch):
    def reduced_laplacian(g):
        lap = [[0] * g.n for _ in g.vertices]
        for u, v in g.edges:
            i, j = g.position[u], g.position[v]
            lap[i][j] -= 1
            lap[j][i] -= 1
            lap[i][i] += 1
            lap[j][j] += 1
        return [row[1:] for row in lap[1:]]

    graphs = [example_graph(), octahedron(), icosahedron(), truncated_cube()]
    graphs += [g for g in random_suite() if g.is_connected()]
    expected = [det_fraction(reduced_laplacian(g)) for g in graphs]
    # C_62 has 62 trees but a degree product of 2^61, so only there does
    # the float estimate choose the exact path
    cycle = SimpleGraph.cycle(62)
    assert kirchhoff_trees(cycle) == 62 == det_fraction(reduced_laplacian(cycle))

    def no_eigensolver(m, tol=None):
        raise AssertionError("the degree product already bounds the count below 2^60")

    monkeypatch.setattr(spectra, "pseudo_det", no_eigensolver)
    assert [kirchhoff_trees(g) for g in graphs] == expected


def test_det_mod_with_row_swaps():
    # Laplacians rarely need a pivot swap, so test the elimination on
    # matrices with zero leading entries and negative determinants
    rng = np.random.default_rng(5)
    for p in spectra._TREE_PRIMES:
        for n in (1, 2, 5, 9):
            a = rng.integers(-3, 4, size=(n, n))
            a[0, 0] = 0
            assert spectra._det_mod(a, p) == det_fraction(a) % p
        assert spectra._det_mod(np.array([[0, 1], [1, 0]]), p) == p - 1
        assert spectra._det_mod(np.array([[2, 4], [1, 2]]), p) == 0


def test_simplex_graph_trees_regression_off_by_one():
    # a 9-vertex graph whose 34-vertex simplex graph has about 2^45.5 trees;
    # the float estimate round(pseudo_det / n) is 51186046079999
    g = SimpleGraph(range(9), [
        (0, 1), (0, 4), (0, 5), (0, 7), (1, 4), (1, 5), (1, 6), (1, 8),
        (2, 6), (2, 8), (3, 7), (3, 8), (4, 5), (4, 7), (6, 8), (7, 8),
    ])
    c = build_complex(g)
    assert c.v == 34
    assert simplex_graph_trees(c) == 51186046080000 == simplex_graph_trees_exact(g)


def test_simplex_graph_trees():
    assert simplex_graph_trees(build_complex(SimpleGraph.complete(2))) == 1
    c4 = build_complex(SimpleGraph.cycle(4))
    assert simplex_graph_trees(c4) == 8  # the simplex graph is C_8
    k3 = build_complex(SimpleGraph.complete(3))
    expected = spanning_trees_brute(simplex_graph(k3))
    assert simplex_graph_trees(k3) == expected
    with pytest.raises(ComputationError):
        simplex_graph_trees(build_complex(SimpleGraph([], [])))


def test_cauchy_binet_identity():
    assert cauchy_binet_coeffs(np.eye(2, dtype=int), np.eye(2, dtype=int), 2) == 1


def test_cauchy_binet_matches_charpoly():
    rng = random.Random(37)
    for _ in range(10):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        f = np.array([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        g = np.array([[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        for k in range(min(n, m) + 1):
            e_k = cauchy_binet_minor_sum(f, g, k)
            assert cauchy_binet_coeffs(f, g, k) == e_k
            approx = cauchy_binet_coeffs(f.astype(float), g.astype(float), k)
            assert approx == pytest.approx(e_k, rel=1e-9, abs=1e-6)


def test_cauchy_binet_has_no_size_cap_and_no_overflow():
    eye = np.eye(30, dtype=int)
    assert cauchy_binet_coeffs(eye, eye, 15) == math.comb(30, 15)
    f = np.array([[4_000_000_000, 1], [2, 3]], dtype=np.int64)
    assert cauchy_binet_coeffs(f, f, 1) == 16000000000000000014


def test_pythagoras_for_pseudo_determinants():
    ones = np.ones((2, 2), dtype=int)
    assert cauchy_binet_coeffs(ones, ones, 1) == 4  # Det(ones) = 2
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        a = a + a.T
        coeffs = charpoly_int(a)
        # rank of a symmetric matrix = largest k with e_k != 0
        rank = max(i for i in range(n + 1) if coeffs[i] != 0)
        det_sq = ((-1) ** rank * coeffs[rank]) ** 2
        assert cauchy_binet_coeffs(a, a, rank) == det_sq


def test_cauchy_binet_shape_errors():
    with pytest.raises(ValueError):
        cauchy_binet_coeffs(np.eye(2), np.eye(3), 1)
    with pytest.raises(ValueError):
        cauchy_binet_coeffs(np.eye(2), np.eye(2), 3)


def test_zeta_trace_identities(example_ops):
    assert abs(dirac_zeta(example_ops, -2).value - 48) < 1e-8
    assert abs(dirac_zeta(example_ops, -1).value) < 1e-8
    assert abs(dirac_zeta(example_ops, -4).value
               - np.trace(example_ops.laplacian @ example_ops.laplacian)) < 1e-8


def test_zeta_regularized_determinant(example_ops):
    det = np.exp(-zeta_derivative_at_zero(example_ops))
    assert abs(det - 1624) < 1624 * 1e-9


def test_zeta_odd_negative_integers_vanish():
    rng = random.Random(47)
    for _ in range(4):
        g = erdos_renyi(rng.randint(2, 6), 0.5, rng)
        ops = operators_for(g)
        for n in (1, 3, 5):
            assert abs(dirac_zeta(ops, -n).value) < 1e-8


def test_eta_vanishes(example_ops):
    for s in (1, 2):
        assert abs(eta(example_ops, s)) < 1e-8


def test_analytic_torsion_is_one(example_ops):
    assert abs(analytic_torsion(example_ops) - 1) < 1e-8
    for g in (SimpleGraph.cycle(4), SimpleGraph.complete(5)):
        assert abs(analytic_torsion(operators_for(g)) - 1) < 1e-8


def test_circular_dirac_spectrum_closed_form():
    for n in (4, 5, 6):
        ops = operators_for(SimpleGraph.cycle(n))
        eigs = ops.dirac_eigensystem[0]
        positive = np.sort(eigs[eigs > 1e-9])
        expected = np.sort([2 * math.sin(math.pi * k / n) for k in range(1, n)])
        assert np.allclose(positive, expected, atol=1e-8)


def test_spectral_distance_basics():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    rep = spectral_distance(a, a)
    assert rep.distance == 0 and rep.bound == 0
    shifted = spectral_distance(a, a + 0.25 * np.eye(2))
    assert abs(shifted.distance - 0.25) < 1e-12
    assert abs(shifted.bound - 0.25) < 1e-12
    with pytest.raises(ValueError):
        spectral_distance(np.eye(2), np.eye(3))


def test_lidskii_bound_random_matrices():
    rng = np.random.default_rng(59)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        a = rng.integers(-1, 2, size=(n, n))
        b = rng.integers(-1, 2, size=(n, n))
        a = np.triu(a) + np.triu(a, 1).T
        b = np.triu(b) + np.triu(b, 1).T
        rep = spectral_distance(a, b)
        assert rep.distance <= rep.bound + 1e-12


def test_lidskii_for_graph_pair():
    c4 = SimpleGraph.cycle(4)
    chord = SimpleGraph(c4.vertices, list(c4.edges) + [(1, 3)])
    da, db = aligned_dirac_pair(c4, chord)
    rep = spectral_distance(da, db)
    deg = max_simplex_degree(da, db)
    dist = simplex_distance(c4, chord)
    assert rep.distance <= rep.bound + 1e-12
    assert rep.distance <= float(deg * dist) + 1e-12
    # the aligned matrices keep each graph's own spectrum (plus padding zeros)
    own = np.linalg.eigvalsh(operators_for(c4).dirac.astype(float))
    padded = np.linalg.eigvalsh(da.astype(float))
    nonzero = padded[np.abs(padded) > 1e-9]
    assert np.allclose(np.sort(nonzero), np.sort(own[np.abs(own) > 1e-9]))


def test_aligned_pair_requires_same_vertices():
    with pytest.raises(GraphMismatchError):
        aligned_dirac_pair(SimpleGraph([1, 2], []), SimpleGraph([1, 3], []))


def test_magnitude_values():
    assert abs(magnitude(SimpleGraph.complete(1)) - 1) < 1e-12
    for n in (2, 3, 5, 8):
        expected = n / (1 + (n - 1) * math.exp(-1))
        assert abs(magnitude(SimpleGraph.complete(n)) - expected) < 1e-10
    assert magnitude(SimpleGraph.star(5)) > magnitude(SimpleGraph.complete(5))
    with pytest.raises(ComputationError):
        magnitude(SimpleGraph(range(4), [(0, 1), (2, 3)]))
    with pytest.raises(ComputationError, match="empty graph"):
        magnitude(SimpleGraph([], []))
