"""Graph and clique-complex construction, orderings, distances."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from diracgraph import (
    ComputationError,
    EdgeListError,
    GraphMismatchError,
    SimpleGraph,
    build_complex,
    euler_characteristic,
    example_graph,
    parse_edge_list,
    simplex_distance,
    simplex_graph,
)
from conftest import (
    brute_cliques,
    brute_chi,
    erdos_renyi,
    icosahedron,
    octahedron,
    random_suite,
    truncated_cube,
)


def test_simple_graph_normalizes_edges():
    g = SimpleGraph([3, 1, 2], [(2, 3), (3, 2), (1, 3)])
    assert g.edges == ((3, 1), (3, 2))  # ordered by vertex position, deduped
    assert g.has_edge(2, 3) and g.has_edge(3, 2)
    assert not g.has_edge(1, 2)


def test_simple_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        SimpleGraph([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph([1, 2], [(1, 3)])
    with pytest.raises(ValueError):
        SimpleGraph([1, 1], [])


def test_build_complex_k3():
    c = build_complex(SimpleGraph.complete(3))
    assert c.counts == (3, 3, 1)
    assert c.v == 7


def test_build_complex_example(example):
    c = build_complex(example)
    assert c.counts == (7, 9, 2)
    assert c.v == 18
    assert c.strata[2] == ((1, 2, 3), (2, 3, 4))


def test_build_complex_c4_has_no_triangles():
    c = build_complex(SimpleGraph.cycle(4))
    assert c.counts == (4, 4)


def test_complete_graph_strata_are_binomials():
    for n in range(1, 7):
        c = build_complex(SimpleGraph.complete(n))
        assert c.counts == tuple(math.comb(n, k + 1) for k in range(n))


def test_max_dim_truncates():
    c = build_complex(SimpleGraph.complete(5), max_dim=1)
    assert c.counts == (5, 10)


def test_empty_and_single_vertex():
    assert build_complex(SimpleGraph([], [])).counts == ()
    c = build_complex(SimpleGraph([7], []))
    assert c.counts == (1,)
    assert euler_characteristic(c) == 1


def test_complex_matches_brute_force_enumeration():
    rng = random.Random(7)
    for _ in range(10):
        g = erdos_renyi(rng.randint(2, 7), rng.choice((0.3, 0.5, 0.7)), rng)
        c = build_complex(g)
        assert sorted(c.simplices) == sorted(brute_cliques(g))


def test_face_closure():
    rng = random.Random(11)
    for _ in range(5):
        g = erdos_renyi(7, 0.6, rng)
        c = build_complex(g)
        stored = set(c.simplices)
        for s in c.simplices:
            for i in range(len(s)):
                if len(s) > 1:
                    assert s[:i] + s[i + 1 :] in stored


def test_face_table_removes_each_vertex_in_turn():
    rng = random.Random(13)
    for g in [octahedron(), SimpleGraph.complete(5), SimpleGraph([4]), SimpleGraph([])] + [
            erdos_renyi(7, 0.6, rng) for _ in range(3)]:
        c = build_complex(g)
        assert len(c.faces) == max(c.top_dim, 0)
        for k, faces in enumerate(c.faces):
            assert faces.shape == (c.count(k + 1), k + 2)
            for y, row in zip(c.stratum(k + 1), faces.tolist()):
                assert [c.stratum(k)[x] for x in row] == [
                    tuple(v for v in y if v != y[i]) for i in range(len(y))]


def test_global_index_is_dimension_major_lexicographic(example):
    c = build_complex(example)
    flat = list(c.simplices)
    assert flat == sorted(flat, key=lambda s: (len(s), s))
    assert [c.offsets[len(s) - 1] + c.local_index[len(s) - 1][s] for s in flat] == list(range(c.v))
    assert c.offsets == (0, 7, 16)


def test_clique_polynomial_and_chi(example):
    assert build_complex(example).counts == (7, 9, 2)  # clique-polynomial coefficients
    assert euler_characteristic(build_complex(example)) == 0
    assert euler_characteristic(build_complex(SimpleGraph.complete(3))) == 1
    assert build_complex(octahedron()).counts == (6, 12, 8)
    assert euler_characteristic(build_complex(octahedron())) == 2
    assert brute_chi(octahedron()) == 2  # oracle agrees


def test_simplex_graph_k3_is_cube_minus_vertex():
    sg = simplex_graph(build_complex(SimpleGraph.complete(3)))
    assert sg.n == 7 and sg.m == 9
    # explicit 3-cube on binary words, with vertex 111 removed
    cube7 = SimpleGraph(
        range(7),
        [(a, b) for a in range(7) for b in range(a + 1, 7)
         if bin(a ^ b).count("1") == 1],
    )
    assert cube7.m == sg.m
    assert any(  # bijection sending edges to edges = isomorphism (equal sizes)
        all(cube7.has_edge(perm[u], perm[v]) for u, v in sg.edges)
        for perm in (dict(zip(sg.vertices, p)) for p in permutations(range(7)))
    )
    # bipartite between even and odd dimensions: no triangles
    c2 = build_complex(sg)
    assert len(c2.strata) <= 2


def test_simplex_graph_small_cases():
    assert simplex_graph(build_complex(SimpleGraph.complete(1))).edges == ()
    p = simplex_graph(build_complex(SimpleGraph.complete(2)))
    assert p.n == 3 and p.m == 2  # path on 3 vertices
    assert p.degree(2) == 2  # the edge simplex links both endpoints
    c4sg = simplex_graph(build_complex(SimpleGraph.cycle(4)))
    assert c4sg.n == 8 and c4sg.m == 8 and all(c4sg.degree(v) == 2 for v in c4sg.vertices)


def test_simplex_graph_triangle_free_always():
    rng = random.Random(3)
    for _ in range(8):
        g = erdos_renyi(rng.randint(2, 6), 0.6, rng)
        sg = simplex_graph(build_complex(g))
        assert len(build_complex(sg).strata) <= 2


def test_handshake_lemma():
    rng = random.Random(5)
    for _ in range(8):
        g = erdos_renyi(rng.randint(2, 7), 0.5, rng)
        c = build_complex(g)
        for k in range(len(c.strata)):
            total = 0
            for x in g.vertices:
                sphere = g.induced(g.adjacency[x])
                total += build_complex(sphere).count(k - 1) if k >= 1 else 1
            assert total == (k + 1) * c.count(k)


def test_simplex_distance_examples():
    g = SimpleGraph([1, 2], [(1, 2)])
    h = SimpleGraph([1, 2], [])
    assert simplex_distance(g, g) == 0
    assert simplex_distance(g, h) == Fraction(1, 3)
    k3 = SimpleGraph.complete(3)
    p3 = SimpleGraph([1, 2, 3], [(1, 2), (1, 3)])
    assert simplex_distance(k3, p3) == Fraction(2, 7)


def test_simplex_distance_requires_shared_vertices():
    with pytest.raises(GraphMismatchError):
        simplex_distance(SimpleGraph([1, 2], []), SimpleGraph([1, 3], []))
    with pytest.raises(ComputationError):
        simplex_distance(SimpleGraph([], []), SimpleGraph([], []))


def test_parse_edge_list_round_trip(example):
    text = "# comment\n\n1 2\n2 3\n1 3\n3 4\n2 4\n3 5\n5 6\n4 6\n4 7\n"
    g = parse_edge_list(text)
    assert g.vertices == example.vertices
    assert set(g.edges) == set(example.edges)


def test_parse_edge_list_isolated_vertex():
    g = parse_edge_list("0 1\n5\n")
    assert g.vertices == (0, 1, 5)
    assert g.degree(5) == 0


@pytest.mark.parametrize(
    "text,line",
    [("1 2\nx 3\n", 2), ("1 2 3\n", 1), ("4 4\n", 1), ("-1 2\n", 1)],
)
def test_parse_edge_list_reports_line(text, line):
    with pytest.raises(EdgeListError) as err:
        parse_edge_list(text)
    assert err.value.line == line


def test_induced_subgraph_preserves_order():
    g = SimpleGraph([5, 3, 1], [(5, 3), (3, 1)])
    h = g.induced([1, 3])
    assert h.vertices == (3, 1)
    assert h.edges == ((3, 1),)
    with pytest.raises(ValueError, match="unknown vertices"):
        g.induced([1, 7])
    # random subsets, against the definition: the host's edges with both ends kept
    rng = random.Random(3)
    graphs = random_suite() + [octahedron(), icosahedron(), truncated_cube(), SimpleGraph([4, 0, 2], [])]
    for g in graphs:
        for _ in range(5):
            keep = set(rng.sample(g.vertices, rng.randint(0, g.n)))
            h = g.induced(keep)
            assert h.vertices == tuple(v for v in g.vertices if v in keep)
            assert h.edges == tuple(e for e in g.edges if e[0] in keep and e[1] in keep)


def test_distances_bfs():
    g = SimpleGraph.cycle(6)
    d = g.distances_from(1)
    assert d == {1: 0, 2: 1, 6: 1, 3: 2, 5: 2, 4: 3}
