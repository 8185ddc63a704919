"""Curvature, Morse indices, index expectation, dimension, homotopy."""

import random
from fractions import Fraction

import pytest

from diracgraph import (
    SimpleGraph,
    betti_numbers,
    build_complex,
    contract,
    curvature,
    curvature_vector,
    dimension,
    euler_characteristic,
    example_graph,
    index_expectation,
    is_geometric,
    operators_for,
    poincare_hopf,
    unit_sphere,
)
from diracgraph import geometry
from conftest import (
    erdos_renyi,
    icosahedron,
    index_expectation_brute,
    octahedron,
    random_suite,
    truncated_cube,
)


def graph_chi(g: SimpleGraph) -> int:
    return euler_characteristic(build_complex(g))


def test_unit_sphere(example):
    s6 = unit_sphere(example, 6)
    assert s6.vertices == (4, 5) and s6.m == 0
    assert graph_chi(s6) == 2
    c4 = SimpleGraph.cycle(4)
    s = unit_sphere(c4, 1)
    assert s.n == 2 and s.m == 0
    for x in octahedron().vertices:
        s = unit_sphere(octahedron(), x)
        assert s.n == 4 and all(s.degree(v) == 2 for v in s.vertices)
    with pytest.raises(ValueError):
        unit_sphere(c4, 99)


def test_curvature_example(example):
    expected = [Fraction(k, 6) for k in (2, 1, -2, -4, 0, 0, 3)]
    assert [curvature(example, x) for x in example.vertices] == expected


def test_curvature_triangle_free_vertex():
    g = SimpleGraph.cycle(5)
    for x in g.vertices:
        assert curvature(g, x) == Fraction(0)  # 1 - 2/2
    star = SimpleGraph.star(5)
    assert curvature(star, 1) == 1 - Fraction(4, 2)


def test_curvature_icosahedron_vertex():
    g = icosahedron()
    for x in g.vertices:
        assert curvature(g, x) == Fraction(1, 6)  # 1 - 5/2 + 5/3


def test_vertex_curvature_reads_the_unit_sphere(monkeypatch):
    graphs = [example_graph(), octahedron(), icosahedron(), truncated_cube()] + random_suite()
    expected = [curvature_vector(g) for g in graphs]
    built = []
    exact = geometry.build_complex
    monkeypatch.setattr(geometry, "build_complex", lambda g: built.append(g.n) or exact(g))
    for g, ks in zip(graphs, expected):
        for x in g.vertices:
            built.clear()
            assert curvature(g, x) == ks[x] == index_expectation(g, x)
            # one complex per call, on the neighbours of x only
            assert built == [g.degree(x)] * 2


def test_gauss_bonnet_random_suite():
    rng = random.Random(97)
    for _ in range(12):
        g = erdos_renyi(rng.randint(1, 8), rng.choice((0.3, 0.5, 0.7)), rng)
        total = sum(curvature_vector(g).values())
        assert total == graph_chi(g)


def test_poincare_hopf_example(example):
    data = poincare_hopf(example, {x: x for x in example.vertices})
    assert [data.indices[x] for x in example.vertices] == [1, 0, 0, 0, 0, -1, 0]
    assert data.total == 0
    assert data.critical == (1, 6)


def test_poincare_hopf_minimum_has_index_one():
    rng = random.Random(3)
    g = erdos_renyi(6, 0.5, rng)
    values = {v: i for i, v in enumerate(g.vertices)}
    data = poincare_hopf(g, values)
    assert data.indices[g.vertices[0]] == 1


def test_poincare_hopf_c4_sequence():
    data = poincare_hopf(SimpleGraph.cycle(4), [1, 2, 3, 4])
    assert [data.indices[v] for v in (1, 2, 3, 4)] == [1, 0, 0, -1]


def test_poincare_hopf_sums_to_chi():
    rng = random.Random(101)
    for _ in range(8):
        g = erdos_renyi(rng.randint(2, 8), 0.5, rng)
        chi = graph_chi(g)
        for _ in range(10):
            values = list(range(g.n))
            rng.shuffle(values)
            assert poincare_hopf(g, values).total == chi


def test_poincare_hopf_rejects_ties():
    with pytest.raises(ValueError):
        poincare_hopf(SimpleGraph.cycle(3), [1, 1, 2])


def test_poincare_hopf_rejects_nan():
    # a triangle with a pendant vertex; NaN compares false both ways, so
    # accepting it gave indices that sum to 2 although chi = 1
    g = SimpleGraph(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
    with pytest.raises(ValueError, match="NaN"):
        poincare_hopf(g, [float("nan"), 1, 2, 3])


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_poincare_hopf_rejects_infinite_values(value):
    # an infinite value orders fine, but it cannot be reported in JSON
    g = SimpleGraph(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
    with pytest.raises(ValueError, match="infinite"):
        poincare_hopf(g, [value, 1, 2, 3])


def test_index_expectation_exact_is_curvature(example):
    oracle = index_expectation_brute(example, 1)
    assert oracle == Fraction(1, 3) == curvature(example, 1)
    assert index_expectation(example, 1, mode="exact") == oracle


def test_index_expectation_small_graphs():
    single = SimpleGraph([1], [])
    assert index_expectation(single, 1) == 1
    c4 = SimpleGraph.cycle(4)
    for x in c4.vertices:
        assert index_expectation(c4, x) == 0 == curvature(c4, x)


def test_index_expectation_exact_has_no_vertex_cap():
    # every ordering's indices sum to chi, so the expectations do too
    g = erdos_renyi(30, 0.25, random.Random(1))
    total = sum(index_expectation(g, x, mode="exact") for x in g.vertices)
    assert total == graph_chi(g)


def test_index_expectation_montecarlo():
    g = SimpleGraph.cycle(5)
    est = index_expectation(g, 1, mode="montecarlo", samples=4000, seed=11)
    assert abs(est.mean - 0) <= 5 * est.stderr + 1e-12
    # pinned: the same random orderings give the same estimate bit for bit
    assert (est.mean, est.stderr, est.samples) == (0.0035, 0.012856448170661018, 4000)
    est2 = index_expectation(g, 1, mode="montecarlo", samples=4000, seed=11)
    assert est.mean == est2.mean  # deterministic for a fixed seed
    with pytest.raises(ValueError):
        index_expectation(g, 1, mode="montecarlo", samples=0)


def test_dimension_values():
    assert dimension(SimpleGraph([], [])) == -1
    for k in range(4):
        assert dimension(SimpleGraph.complete(k + 1)) == k
    for n in (4, 5, 6):
        assert dimension(SimpleGraph.cycle(n)) == 1
    assert dimension(SimpleGraph.cycle(3)) == 2


def test_dimension_truncated_cube():
    g = truncated_cube()
    # structural certificate: 3-regular, each sphere one edge plus a point
    assert all(g.degree(v) == 3 for v in g.vertices)
    spheres = [unit_sphere(g, v) for v in g.vertices]
    assert all(s.n == 3 and s.m == 1 for s in spheres)
    assert all(dimension(s) == Fraction(2, 3) for s in spheres)
    # the inductive formula then gives 1 + 2/3 for the graph itself
    assert dimension(g) == Fraction(5, 3)


def test_is_geometric():
    for n in (4, 5, 7):
        assert is_geometric(SimpleGraph.cycle(n), 1)
    assert not is_geometric(SimpleGraph.cycle(3), 1)
    assert is_geometric(octahedron(), 2)
    assert is_geometric(icosahedron(), 2)
    assert not is_geometric(SimpleGraph.complete(4), 2)
    assert not is_geometric(SimpleGraph.path(3), 1)


def test_contract_contractible_graphs(example):
    assert contract(SimpleGraph([1], [])).contractible is True
    for n in (2, 3, 5):
        result = contract(SimpleGraph.complete(n))
        assert result.contractible is True
        assert result.reduced.n == 1
    star = contract(SimpleGraph.star(6))
    assert star.contractible is True


def test_contract_c4_certified_not_contractible():
    result = contract(SimpleGraph.cycle(4))
    assert result.contractible is False
    assert result.reduced.n == 4  # nothing removable


def test_contract_example_collapses_to_circle(example):
    result = contract(example)
    assert result.contractible is False  # b1 = 1 survives
    assert betti_numbers(operators_for(result.reduced))[1] == 1


def test_contraction_steps_preserve_cohomology(example):
    # replay the greedy steps, checking Betti numbers after each removal
    result = contract(example)
    g = example
    b = betti_numbers(operators_for(g))
    for x in result.steps:
        g = g.induced(v for v in g.vertices if v != x)
        b2 = betti_numbers(operators_for(g))
        assert list(b2[:2]) == list(b[:2])
        b = b2
