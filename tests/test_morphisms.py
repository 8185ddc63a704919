"""Automorphisms, induced cohomology maps, Lefschetz numbers and zeta."""

import random

import numpy as np
import pytest

from diracgraph import (
    CapacityError,
    ConsistencyError,
    SimpleGraph,
    automorphisms,
    betti_numbers,
    build_complex,
    compose,
    contract,
    euler_characteristic,
    induced_cohomology_map,
    is_automorphism,
    lefschetz,
    lefschetz_zeta,
    operators_for,
)
from conftest import automorphisms_brute, erdos_renyi, trace_lefschetz

C5_REFLECTION = {1: 1, 2: 5, 5: 2, 3: 4, 4: 3}
C5_ROTATION = {1: 2, 2: 3, 3: 4, 4: 5, 5: 1}


def test_automorphism_counts():
    assert len(automorphisms(SimpleGraph.cycle(5))) == 10
    assert len(automorphisms(SimpleGraph.complete(4))) == 24
    assert len(automorphisms(SimpleGraph.path(3))) == 2


def test_automorphisms_match_brute_force():
    rng = random.Random(61)
    for _ in range(8):
        g = erdos_renyi(rng.randint(2, 6), rng.choice((0.3, 0.5, 0.7)), rng)
        ours = automorphisms(g)
        brute = automorphisms_brute(g)
        key = lambda t: tuple(t[v] for v in g.vertices)
        assert sorted(map(key, ours)) == sorted(map(key, brute))
        assert all(is_automorphism(g, t) for t in ours)


def test_automorphisms_group_closure():
    g = SimpleGraph.cycle(5)
    maps = automorphisms(g)
    keys = {tuple(t[v] for v in g.vertices) for t in maps}
    for t in maps:
        for s in maps:
            assert tuple(compose(t, s)[v] for v in g.vertices) in keys
        inverse = {v: k for k, v in t.items()}
        assert tuple(inverse[v] for v in g.vertices) in keys


def test_automorphism_capacity():
    with pytest.raises(CapacityError):
        automorphisms(SimpleGraph(range(11), []))


def test_induced_map_identity(example_ops):
    ident = {v: v for v in example_ops.complex.host.vertices}
    for k in (0, 1):
        m = induced_cohomology_map(example_ops, ident, k)
        b = betti_numbers(example_ops)[k]
        assert m.shape == (b, b)
        assert np.allclose(m, np.eye(b), atol=1e-10)


def test_induced_map_on_c5():
    ops = operators_for(SimpleGraph.cycle(5))
    assert np.allclose(induced_cohomology_map(ops, C5_REFLECTION, 1), [[-1]], atol=1e-9)
    assert np.allclose(induced_cohomology_map(ops, C5_ROTATION, 1), [[1]], atol=1e-9)


def test_functoriality_of_induced_maps():
    ops = operators_for(SimpleGraph.cycle(5))
    maps = automorphisms(SimpleGraph.cycle(5))
    for t in maps[:5]:
        for s in maps[:5]:
            lhs = induced_cohomology_map(ops, compose(t, s), 1)
            rhs = induced_cohomology_map(ops, t, 1) @ induced_cohomology_map(ops, s, 1)
            assert np.allclose(lhs, rhs, atol=1e-8)


def test_lefschetz_reflection_on_c5():
    ops = operators_for(SimpleGraph.cycle(5))
    rep = lefschetz(ops, C5_REFLECTION)
    assert rep.lefschetz == 2
    assert rep.fixed_simplices == (((1,), 1), ((3, 4), 1))
    assert trace_lefschetz(rep.traces) == 2


def test_lefschetz_rotation_on_c5():
    ops = operators_for(SimpleGraph.cycle(5))
    rep = lefschetz(ops, C5_ROTATION)
    assert rep.lefschetz == 0
    assert rep.fixed_simplices == ()
    assert round(rep.traces[0]) == 1 and round(rep.traces[1]) == 1


def test_lefschetz_identity_is_euler_characteristic(example, example_ops):
    rep = lefschetz(example_ops, {v: v for v in example.vertices})
    assert rep.lefschetz == euler_characteristic(build_complex(example)) == 0
    assert len(rep.fixed_simplices) == example_ops.v
    assert trace_lefschetz(rep.traces) == sum(i for _, i in rep.fixed_simplices) == 0


def test_brouwer_lefschetz_over_random_suite():
    rng = random.Random(67)
    checked = 0
    while checked < 6:
        g = erdos_renyi(rng.randint(3, 6), rng.choice((0.4, 0.6)), rng)
        ops = operators_for(g)
        for t in automorphisms(g):
            rep = lefschetz(ops, t)
            assert trace_lefschetz(rep.traces) == rep.lefschetz
            assert rep.lefschetz == sum(i for _, i in rep.fixed_simplices)
            assert all(abs(tr - round(tr)) < 1e-8 for tr in rep.traces)
        checked += 1


def test_corrupted_trace_is_consistency_error(corrupted_trace):
    ops = operators_for(SimpleGraph.cycle(5))
    with pytest.raises(ConsistencyError, match="fixed-simplex Lefschetz number 2"):
        lefschetz(ops, C5_REFLECTION)


def test_contractible_graphs_have_fixed_simplices():
    rng = random.Random(71)
    checked = 0
    while checked < 6:
        g = erdos_renyi(rng.randint(2, 6), 0.7, rng)
        b = betti_numbers(operators_for(g))
        if b[0] != 1 or any(b[1:]):
            continue
        if contract(g).contractible is not True:
            continue
        ops = operators_for(g)
        for t in automorphisms(g):
            rep = lefschetz(ops, t)
            assert rep.lefschetz == 1
            assert len(rep.fixed_simplices) >= 1
        checked += 1


def test_lefschetz_zeta_identity_on_k1():
    ops = operators_for(SimpleGraph.complete(1))
    value = lefschetz_zeta(ops, {1: 1}, 0.5)
    assert abs(value - 2.0) < 1e-12  # geometric series 1/(1-z)


def test_lefschetz_zeta_reflection_closed_form():
    ops = operators_for(SimpleGraph.cycle(5))
    value = lefschetz_zeta(ops, C5_REFLECTION, 0.3)
    assert abs(value - 13 / 7) < 1e-12  # (1+z)/(1-z) at z = 0.3
    assert lefschetz_zeta(ops, C5_REFLECTION, 0.0) == 1.0


def test_lefschetz_zeta_validation(example_ops):
    ident = {v: v for v in example_ops.complex.host.vertices}
    with pytest.raises(ValueError):
        lefschetz_zeta(example_ops, ident, 1.5)
