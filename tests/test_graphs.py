"""Graph type, family generators, and edge-list I/O."""

import random

import pytest

from invkit import (
    EdgeListParseError,
    Graph,
    PrismSpec,
    cycle,
    degrees,
    is_connected,
    parse_edge_list,
    path,
    prism_family,
    serialize_edge_list,
    spanning_trees,
    strong_double,
    wiener,
)
from invkit.graphs import _read_edge_list, min_degree_order
from oracles import (
    assert_simple_symmetric,
    bfs_distances,
    brute_force_spanning_trees,
    brute_force_wiener,
    random_connected_graph,
    random_tree,
    reference_min_degree_order,
)


def test_cycle_triangle():
    g = cycle(3)
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert degrees(g) == [2, 2, 2]


def test_cycle_four_antipodal_distance():
    assert bfs_distances(cycle(4), 0)[2] == 2


def test_cycle_spanning_trees_vs_brute_force():
    g = cycle(6)
    expected = brute_force_spanning_trees(g)
    assert expected == 6
    assert spanning_trees(g) == expected


@pytest.mark.parametrize("n", [0, 1, 2])
def test_cycle_rejects_small_n(n):
    with pytest.raises(ValueError):
        cycle(n)


def test_path_two_is_single_edge():
    g = path(2)
    assert g.edge_count == 1
    assert g.adjacency == ((1,), (0,))


def test_path_one_is_isolated_vertex():
    g = path(1)
    assert g.vertex_count == 1
    assert g.edge_count == 0


def test_path_wiener_matches_brute_force():
    g = path(5)
    assert brute_force_wiener(g) == 20
    assert wiener(g) == 20


def test_path_rejects_zero():
    with pytest.raises(ValueError):
        path(0)


def _strong_product_reference(g, h):
    """Adjacency predicate straight from the definition, for exhaustive checks."""
    nh = h.vertex_count
    pairs = [(u, v) for u in range(g.vertex_count) for v in range(nh)]
    edges = set()
    for a, (u1, v1) in enumerate(pairs):
        for b, (u2, v2) in enumerate(pairs):
            if a >= b:
                continue
            u_ok = u1 == u2 or u2 in g.adjacency[u1]
            v_ok = v1 == v2 or v2 in h.adjacency[v1]
            if u_ok and v_ok:
                edges.add((a, b))
    return edges


@pytest.mark.parametrize("gf,hf", [(path(2), cycle(3))])
def test_strong_product_matches_definition(gf, hf):
    """`strong_double(h)` is `gf` ⊠ h for the one first factor it builds, gf = P_2."""
    prod = strong_double(hf)
    assert set(prod.edges()) == _strong_product_reference(gf, hf)
    assert_simple_symmetric(prod)


def test_strong_product_p2_c3_is_k6():
    g = strong_double(cycle(3))
    assert g.vertex_count == 6
    assert g.edge_count == 15
    assert degrees(g) == [5] * 6


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_strong_product_p2_cn_counts(n):
    g = prism_family(PrismSpec(n))
    assert set(g.edges()) == _strong_product_reference(path(2), cycle(n))
    assert_simple_symmetric(g)
    assert g.vertex_count == 2 * n
    assert g.edge_count == 5 * n


def test_prism_empty_deletion_equals_strong_product():
    """`strong_double` of any h, C_k (the prism member) among them, is the definition's P_2 ⊠ h; a cut drops its vertical."""
    rng = random.Random(700)
    for k in range(1, 15):
        complete = Graph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
        for h in [random_tree(rng, k), complete, random_connected_graph(rng, k)] + ([cycle(k)] if k >= 3 else []):
            intact = _strong_product_reference(path(2), h)
            assert set(strong_double(h).edges()) == intact
            cut = {i for i in range(k) if rng.random() < 0.5}
            g = strong_double(h, cut)
            assert set(g.edges()) == intact - {(i, k + i) for i in cut}, (h.edges(), cut)
            assert_simple_symmetric(g)


@pytest.mark.parametrize("bad", [-1, 4])
def test_strong_double_rejects_a_cut_vertex_outside_h(bad):
    with pytest.raises(ValueError, match=r"not all in 0\.\.3"):
        strong_double(cycle(4), {0, bad})


def test_prism_single_deletion_structure():
    g = prism_family(PrismSpec(5, frozenset({2})))
    assert g.vertex_count == 10
    assert g.edge_count == 24
    deg = degrees(g)
    assert sorted(deg) == [4, 4] + [5] * 8
    # rim position 2 maps to indices 1 (lower) and 6 (upper)
    assert deg[1] == 4 and deg[6] == 4


def test_prism_all_deleted_still_connected():
    g = prism_family(PrismSpec(4, frozenset({1, 2, 3, 4})))
    assert degrees(g) == [4] * 8
    assert g.edge_count == 16
    assert is_connected(g)


def test_prism_edge_count_and_connectivity_sweep():
    rng = random.Random(7)
    for n in range(3, 12):
        for r in range(n + 1):
            spec = PrismSpec(n, frozenset(rng.sample(range(1, n + 1), r)))
            g = prism_family(spec)
            assert g.vertex_count == 2 * n
            assert g.edge_count == 5 * n - r
            assert is_connected(g)
            assert_simple_symmetric(g)


def test_prism_spec_validation():
    with pytest.raises(ValueError):
        PrismSpec(2)
    with pytest.raises(ValueError):
        PrismSpec(5, frozenset({0}))
    with pytest.raises(ValueError):
        PrismSpec(5, frozenset({6}))
    assert PrismSpec(5, frozenset({1, 5})).r == 2


def test_degrees_single_deletion_large():
    deg = degrees(prism_family(PrismSpec(6, frozenset({1}))))
    assert deg.count(4) == 2
    assert deg.count(5) == 10


def test_is_connected_cycle():
    assert is_connected(cycle(5))


def test_is_connected_false_for_disjoint_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(g)


def test_parse_triangle():
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
    assert g == cycle(3)


def test_parse_serialize_round_trip():
    g = cycle(4)
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_round_trip_random_graphs():
    from oracles import random_connected_graph

    rng = random.Random(42)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 10))
        again = parse_edge_list(serialize_edge_list(g))
        assert again == g
        assert_simple_symmetric(again)


def test_parse_comments_and_blank_lines():
    text = "# a triangle\n3 3\n\n0 1\n# middle comment\n1 2\n0 2\n"
    assert parse_edge_list(text) == cycle(3)


def test_parse_self_loop_reports_line():
    with pytest.raises(EdgeListParseError) as exc_info:
        parse_edge_list("2 1\n0 0")
    assert exc_info.value.line_no == 2
    assert "self-loop" in str(exc_info.value)


def test_parse_duplicate_edge_rejected():
    with pytest.raises(EdgeListParseError) as exc_info:
        parse_edge_list("3 3\n0 1\n1 0\n1 2")
    assert exc_info.value.line_no == 3
    assert "duplicate edge (1, 0)" in str(exc_info.value)


def test_read_edge_list_keeps_file_order():
    text = "4 3\n2 3\n# reversed endpoints are stored low first\n1 0\n1 2\n"
    assert _read_edge_list(text) == (4, [(2, 3), (0, 1), (1, 2)])


def test_parse_out_of_range_vertex():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 1\n0 5")


def test_parse_malformed_line():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 1\n0 1 2")
    for text, line_no in [("3 1 2\n0 1", 1), ("# header\n0 1\n", 2), ("3 -1\n", 1), ("3 1\n\n0 x\n", 3)]:
        with pytest.raises(EdgeListParseError) as exc_info:
            parse_edge_list(text)
        assert exc_info.value.line_no == line_no, text


def test_parse_wrong_edge_count():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 2\n0 1")


def test_parse_empty_input():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("# nothing here\n")


def test_generators_are_simple_and_symmetric():
    for g in (cycle(7), path(6), strong_double(cycle(5)),
              prism_family(PrismSpec(6, frozenset({2, 3})))):
        assert_simple_symmetric(g)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])


def test_min_degree_order_matches_the_reference_order_exactly():
    rng = random.Random(47)
    for n in range(3, 60):
        for r in sorted({0, n // 2, n}):
            g = prism_family(PrismSpec(n, frozenset(rng.sample(range(1, n + 1), r))))
            assert min_degree_order(g) == reference_min_degree_order(g)
    for v in range(1, 121):
        for p in (0.0, 0.02, 0.1, 0.3):  # p = 0 gives a tree
            g = random_connected_graph(rng, v, p)
            assert min_degree_order(g) == reference_min_degree_order(g)
    # no connectivity check here: the elimination finds the singular Laplacian
    g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert min_degree_order(g) == reference_min_degree_order(g) == ([2, 4, 0, 1, 3], [[], [], [3], []])
