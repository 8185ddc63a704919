"""Property tests on random graphs with at most six to nine vertices, against oracles."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracgraph import (
    ComputationError,
    SimpleGraph,
    aligned_dirac_pair,
    automorphisms,
    build_complex,
    charpoly_int,
    contract,
    curvature,
    curvature_vector,
    dirac_charpoly,
    dirac_zeta,
    eta,
    index_expectation,
    is_geometric,
    lax_deform,
    lefschetz_zeta,
    max_simplex_degree,
    operators_for,
    path_count,
    poincare_hopf,
    simplex_graph_trees,
    spectral_distance,
)
from conftest import (
    betti_exact,
    brute_chi,
    complete_dirac_pair,
    index_expectation_brute,
    lefschetz_zeta_power_loop,
    octahedron,
    simplex_graph_trees_exact,
    sphere_curvature,
    sphere_is_geometric,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def small_graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(range(n), [e for e, k in zip(pairs, keep) if k])


@PROPERTY_SETTINGS
@given(small_graphs())
def test_dirac_charpoly_matches_dense_charpoly(g):
    ops = operators_for(g)
    assert dirac_charpoly(ops) == charpoly_int(ops.dirac)


@PROPERTY_SETTINGS
@given(small_graphs(), st.data())
def test_path_count_matches_powers_of_abs_dirac(g, data):
    ops = operators_for(g)
    x = data.draw(st.integers(0, ops.v - 1))
    adj = np.abs(ops.dirac)
    for k in range(5):
        power = np.linalg.matrix_power(adj, k)
        assert [path_count(ops, x, y, k) for y in range(ops.v)] == power[x].tolist()


@PROPERTY_SETTINGS
@given(small_graphs())
def test_simplex_graph_trees_matches_exact_determinant(g):
    c = build_complex(g)
    if not g.is_connected():
        with pytest.raises(ComputationError):
            simplex_graph_trees(c)
        return
    exact = simplex_graph_trees_exact(g)
    value = simplex_graph_trees(c)
    if exact < 2 ** 60:
        assert value == exact
    else:
        # float-rounded beyond 2^60 (ROADMAP item 4); see the strict xfail below
        assert abs(value - exact) <= 1e-12 * exact


@pytest.mark.xfail(strict=True, reason="tree counts are float-rounded beyond 2^60")
def test_simplex_graph_trees_exact_beyond_float_range():
    k5 = SimpleGraph.complete(5)
    assert simplex_graph_trees(build_complex(k5)) == simplex_graph_trees_exact(k5)


@PROPERTY_SETTINGS
@given(small_graphs(), st.sampled_from([2, 1.5, 0.5 + 1j, -3]))
def test_eta_vanishes_and_zeta_at_minus_two_is_trace(g, s):
    ops = operators_for(g)
    scale = sum(float(np.sum(np.abs(e[e > 1e-6]) ** -np.real(s))) for e, _ in ops.block_eigensystems)
    assert abs(eta(ops, s)) <= 1e-9 * (1 + scale)
    trace = int(np.trace(ops.laplacian))
    assert abs(dirac_zeta(ops, -2).value - trace) <= 1e-9 * max(1, trace)


@PROPERTY_SETTINGS
@given(small_graphs())
def test_contract_verdict_agrees_with_exact_betti_numbers(g):
    result = contract(g)
    b = betti_exact(g)
    point = [1] + [0] * (len(b) - 1)
    if result.contractible is not None:
        assert result.contractible == (b == point)
    # removing a vertex with a contractible unit sphere keeps the homotopy type
    assert np.trim_zeros(betti_exact(result.reduced), "b") == np.trim_zeros(b, "b")


@PROPERTY_SETTINGS
@given(small_graphs(max_n=7), st.data())
def test_star_indices_match_every_ordering(g, data):
    x = data.draw(st.sampled_from(g.vertices))
    assert index_expectation(g, x, mode="exact") == index_expectation_brute(g, x)
    order = data.draw(st.permutations(g.vertices))
    rank = {v: i for i, v in enumerate(order)}
    indices = poincare_hopf(g, rank).indices
    for y in g.vertices:
        below = [u for u in g.adjacency[y] if rank[u] < rank[y]]
        assert indices[y] == 1 - brute_chi(g.induced(below))


@PROPERTY_SETTINGS
@given(small_graphs(max_n=8))
@example(SimpleGraph.cycle(5))
@example(octahedron())
def test_star_sums_match_the_unit_sphere_complexes(g):
    ks = curvature_vector(g)
    assert ks == {x: sphere_curvature(g, x) for x in g.vertices}
    assert all(curvature(g, x) == ks[x] for x in g.vertices)
    for k in (1, 2):
        assert is_geometric(g, k) == sphere_is_geometric(g, k)


@st.composite
def graph_pairs(draw, max_n=9):
    """Two graphs on one vertex list: g, and g with a random set of pairs toggled."""
    g = draw(small_graphs(max_n))
    pairs = list(combinations(g.vertices, 2))
    toggle = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return g, SimpleGraph(g.vertices, [e for e, f in zip(pairs, toggle) if g.has_edge(*e) != f])


@PROPERTY_SETTINGS
@given(graph_pairs())
@example((SimpleGraph.complete(9), SimpleGraph.cycle(9)))
def test_union_alignment_matches_the_complete_complex(pair):
    g, h = pair
    union = aligned_dirac_pair(g, h)
    full = complete_dirac_pair(g, h)
    rep = replace(spectral_distance(*union), size=2 ** g.n - 1)
    expected = spectral_distance(*full)
    assert rep.bound == expected.bound
    assert abs(rep.distance - expected.distance) <= 1e-12
    assert max_simplex_degree(*union) == max_simplex_degree(*full)


@PROPERTY_SETTINGS
@given(small_graphs(), st.data())
def test_lefschetz_zeta_matches_every_power_loop(g, data):
    ops = operators_for(g)
    t = data.draw(st.sampled_from(automorphisms(g)))
    z = data.draw(st.sampled_from([0.3, -0.5, 0.2 + 0.4j]))
    # at order 60 the series' tail is below 1e-14 of its value
    assert lefschetz_zeta(ops, t, z) == pytest.approx(lefschetz_zeta_power_loop(ops, t, z, 60),
                                                     rel=1e-12)


@PROPERTY_SETTINGS
@given(small_graphs(), st.floats(0.01, 5.0), st.sampled_from(["real", "complexified"]))
def test_lax_states_are_residual_free_and_follow_the_closed_form(g, t_final, variant):
    ops = operators_for(g)
    states = lax_deform(ops, t_final, t_final / 4, variant=variant)
    tol = 1e-12 * max(1, int(np.trace(ops.laplacian)))
    sigmas = [np.linalg.svd(d.astype(float), compute_uv=False) for d in ops.dblocks]
    for s in states:
        assert max(s.laplacian_error, s.nilpotency_error, s.spectrum_error) <= tol
        tr_m = 2 * sum(float(np.sum((x / np.cosh(2 * x * s.t)) ** 2)) for x in sigmas)
        assert s.tr_m == pytest.approx(tr_m, rel=1e-12)
    tr = [s.tr_m for s in states]
    assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))


@PROPERTY_SETTINGS
@given(small_graphs(), st.floats(0.01, 5.0), st.sampled_from(["real", "complexified"]))
def test_lax_spectrum_error_bounds_the_dense_drift(g, t_final, variant):
    # spectrum_error is a certified bound, so it may not fall below the drift
    # that a dense eigvalsh of the same matrix observes, beyond the rounding
    # of eigvalsh itself
    ops = operators_for(g)
    eigs = ops.dirac_eigensystem[0]
    slack = 8 * np.finfo(float).eps * ops.v * float(np.max(np.abs(eigs)))
    for s in lax_deform(ops, t_final, t_final / 4, variant=variant):
        drift = float(np.max(np.abs(np.linalg.eigvalsh(s.dirac) - eigs)))
        assert s.spectrum_error >= drift - slack
