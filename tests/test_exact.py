"""Exact invariants against independent oracles and frozen known values."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from invkit import (
    DisconnectedGraphError,
    Graph,
    PrismSpec,
    ResistanceMatrix,
    cycle,
    degrees,
    full_report,
    gutman,
    kf_cycle,
    kirchhoff_index,
    mult_deg_kirchhoff,
    path,
    prism_family,
    resistance_matrix,
    spanning_trees,
    strong_double,
    wiener,
)
from invkit import exact
from invkit.graphs import min_degree_order
from oracles import (
    _dense_bareiss,
    _dense_grounded_laplacian,
    bareiss_resistance,
    bareiss_tree_count,
    bfs_distance_sum,
    bfs_distances,
    brute_force_spanning_trees,
    brute_force_wiener,
    cofactor_resistance,
    cycle_pair_resistance,
    random_connected_graph,
    random_sparse_graph,
    random_tree,
)


def k6() -> Graph:
    return prism_family(PrismSpec(3))


def two_disjoint_edges() -> Graph:
    return Graph.from_edges(4, [(0, 1), (2, 3)])


# ---------------------------------------------------------------------------
# resistance


def test_single_edge_resistance():
    rm = resistance_matrix(path(2))
    assert rm.entry(0, 1) == 1


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_resistances_match_series_parallel(n):
    rm = resistance_matrix(cycle(n))
    for i in range(n):
        for j in range(n):
            assert rm.entry(i, j) == cycle_pair_resistance(n, i, j)


def test_cycle4_adjacent_resistance_value():
    assert resistance_matrix(cycle(4)).entry(0, 1) == Fraction(3, 4)


def test_k6_resistance_sum():
    assert resistance_matrix(k6()).pairs_sum() == 5


def test_resistance_matches_cofactor_oracle():
    """Grounded-solve resistances equal Laplacian cofactor ratios."""
    rng = random.Random(101)
    for _ in range(12):
        g = random_connected_graph(rng, rng.randint(2, 7))
        rm = resistance_matrix(g)
        for i in range(g.vertex_count):
            for j in range(i + 1, g.vertex_count):
                assert rm.entry(i, j) == cofactor_resistance(g, i, j), (i, j, g.edges())


def test_resistance_matches_cofactor_oracle_eight_vertices():
    # the cofactor expansion is factorial-time, so spot-check one 8-vertex graph
    rng = random.Random(103)
    g = random_connected_graph(rng, 8)
    rm = resistance_matrix(g)
    for j in (1, 4, 7):
        assert rm.entry(0, j) == cofactor_resistance(g, 0, j)


def test_resistance_matrix_properties():
    rng = random.Random(5)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 9))
        rm = resistance_matrix(g)
        n = g.vertex_count
        for i in range(n):
            assert rm.num[i][i] == 0
            for j in range(n):
                assert rm.num[i][j] == rm.num[j][i]
                assert rm.num[i][j] >= 0
        for i, j, k in combinations(range(n), 3):
            assert rm.entry(i, k) <= rm.entry(i, j) + rm.entry(j, k)


def test_resistance_denominator_is_tree_count():
    g = prism_family(PrismSpec(5, frozenset({1, 4})))
    assert resistance_matrix(g).den == spanning_trees(g)


def test_resistance_rejects_disconnected_and_trivial():
    with pytest.raises(DisconnectedGraphError):
        resistance_matrix(two_disjoint_edges())
    with pytest.raises(ValueError):
        resistance_matrix(path(1))


# ---------------------------------------------------------------------------
# Kirchhoff indices


def test_kirchhoff_cycle_closed_form():
    assert kirchhoff_index(cycle(5)) == 10
    assert kirchhoff_index(cycle(5)) == kf_cycle(5)


def test_kirchhoff_prism4():
    assert kirchhoff_index(prism_family(PrismSpec(4))) == Fraction(31, 3)


def test_kirchhoff_equals_wiener_on_trees():
    rng = random.Random(17)
    for _ in range(10):
        t = random_tree(rng, rng.randint(2, 10))
        assert kirchhoff_index(t) == wiener(t)


def test_kirchhoff_below_wiener_off_trees():
    rng = random.Random(23)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 9))
        kf, w = kirchhoff_index(g), wiener(g)
        if g.edge_count == g.vertex_count - 1:
            assert kf == w
        else:
            assert kf < w


def test_mult_deg_kirchhoff_k6():
    assert mult_deg_kirchhoff(k6()) == 125


def test_mult_deg_kirchhoff_prism8():
    value = mult_deg_kirchhoff(prism_family(PrismSpec(8)))
    assert value == Fraction(4750, 3)
    assert value == 25 * kirchhoff_index(prism_family(PrismSpec(8)))


def test_mult_deg_kirchhoff_cycle_is_4kf():
    # 2-regular, so every pair weight is 4
    assert mult_deg_kirchhoff(cycle(6)) == 4 * kirchhoff_index(cycle(6)) == 70


# ---------------------------------------------------------------------------
# distance-based indices


def test_vertex_distance_sums_on_prism():
    g5 = prism_family(PrismSpec(5))
    assert all(sum(bfs_distances(g5, i)) == 13 for i in range(10))
    g6 = prism_family(PrismSpec(6))
    assert all(sum(bfs_distances(g6, i)) == 19 for i in range(12))


def test_distance_matrix_k6():
    d = [bfs_distances(k6(), s) for s in range(6)]
    for i in range(6):
        for j in range(6):
            assert d[i][j] == (0 if i == j else 1)


def test_wiener_prism_values():
    assert wiener(prism_family(PrismSpec(7))) == 175
    assert wiener(prism_family(PrismSpec(6))) == 114


def test_wiener_matches_floyd_warshall():
    rng = random.Random(31)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 10))
        assert wiener(g) == brute_force_wiener(g)


def test_gutman_prism5():
    g = prism_family(PrismSpec(5))
    assert gutman(g) == 25 * wiener(g) == 1625


def test_gutman_tree_identity():
    """Gut = 4W - (2n-1)(n-1) on trees."""
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(2, 12)
        t = random_tree(rng, n)
        assert gutman(t) == 4 * wiener(t) - (2 * n - 1) * (n - 1)


def test_distance_ops_reject_disconnected():
    g = two_disjoint_edges()
    for fn in (wiener, gutman):
        with pytest.raises(DisconnectedGraphError):
            fn(g)
    with pytest.raises(DisconnectedGraphError):
        bfs_distances(g, 0)


def _star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def _complete(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def _seeded_prism(n: int, r: int) -> Graph:
    return prism_family(PrismSpec(n, frozenset(random.Random(n * 31 + r).sample(range(1, n + 1), r))))


def _seeded_random(v: int, prob: float) -> Graph:
    return random_connected_graph(random.Random(v * 1009 + int(prob * 100)), v, prob)


_DISTANCE_CASES = (
    [pytest.param(_seeded_prism, (n, r), id=f"prism-{n}-{r}") for n in range(3, 31) for r in sorted({0, n // 2, n})]
    + [
        pytest.param(_seeded_random, (v, prob), id=f"random-{v}-{prob}")
        for v in range(1, 121)
        for prob in (0.0, 0.03, 0.3)
    ]
    + [pytest.param(path, (n,), id=f"path-{n}") for n in range(1, 31)]
    + [pytest.param(cycle, (n,), id=f"cycle-{n}") for n in range(3, 31)]
    + [pytest.param(_star, (n,), id=f"star-{n}") for n in range(2, 31)]
    + [pytest.param(_complete, (n,), id=f"complete-{n}") for n in range(1, 13)]
    + [
        pytest.param(Graph.from_edges, (v, edges), id=f"disconnected-{i}")
        for i, (v, edges) in enumerate(
            [
                (2, []),
                (5, []),
                (4, [(0, 1), (2, 3)]),
                (4, [(0, 1), (1, 2)]),  # an isolated vertex beside a path
                (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
            ]
        )
    ]
)


@pytest.mark.parametrize("build, args", _DISTANCE_CASES)
def test_distance_indices_match_the_bfs_oracle(build, args):
    g = build(*args)
    for index, weights in ((wiener, [1] * g.vertex_count), (gutman, degrees(g))):
        try:
            want = bfs_distance_sum(g, weights)
        except DisconnectedGraphError:
            with pytest.raises(DisconnectedGraphError):
                index(g)
        else:
            assert index(g) == want


# ---------------------------------------------------------------------------
# spanning trees


def test_spanning_trees_cycle():
    assert spanning_trees(cycle(9)) == 9


def test_spanning_trees_k6():
    assert spanning_trees(k6()) == 1296


def test_spanning_trees_prism9():
    assert spanning_trees(prism_family(PrismSpec(9))) == 11609505792


def test_spanning_trees_vs_brute_force_small():
    rng = random.Random(61)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 6))
        assert spanning_trees(g) == brute_force_spanning_trees(g)


def test_spanning_trees_disconnected_is_zero():
    assert spanning_trees(two_disjoint_edges()) == 0


def test_spanning_trees_single_vertex():
    assert spanning_trees(path(1)) == 1


def _upper_rows(m: list[list[int]]) -> list[dict[int, int]]:
    """The upper triangle of a dense symmetric matrix, every position a key, as `_eliminate` takes it."""
    return [{j: row[j] for j in range(i, len(m))} for i, row in enumerate(m)]


# in the last matrix, row 1 at step 0 and row 2 at step 1 have zero
# multipliers and are left stale; the bad pivot, -1, is read at step 2 only
# after row 2 catches up
@pytest.mark.parametrize("rows", [[[0]], [[1, 2], [2, 1]], [[2, 0, 1], [0, 1, 0], [1, 0, 0]]])
def test_elimination_rejects_a_matrix_that_is_not_positive_definite(rows):
    with pytest.raises(ValueError, match="not positive definite"):
        exact._eliminate(_upper_rows(rows))


def test_elimination_pivots_are_the_leading_principal_minors():
    m = [[2, 0, 1], [0, 3, -1], [1, -1, 4]]
    assert exact._eliminate(_upper_rows(m)) == [2, 6, 19]


def test_resistances_that_fail_foster_raise(monkeypatch):
    """On the general route the whole inverse is built, and num certified, on the first read of num."""
    real = exact._inverse_from_u

    def corrupted(*args):
        y = real(*args)
        y[0][0] += 1
        return y

    monkeypatch.setattr(exact, "_inverse_from_u", corrupted)
    rm = resistance_matrix(cycle(5))
    for read in (lambda: rm.num, lambda: rm.entry(0, 1)):
        with pytest.raises(ArithmeticError, match="Foster"):
            read()


@pytest.mark.parametrize("entry", ["diagonal", "edge"])
def test_selected_entries_that_fail_foster_raise(monkeypatch, entry):
    real = exact._selected_inverse

    def corrupted(u, pivots):
        z = real(u, pivots)
        i = next(i for i, row in enumerate(z) if len(row) > 1)  # a row with an entry off the diagonal
        j = i if entry == "diagonal" else next(j for j in z[i] if j != i)
        z[i][j] += 1
        z[j][i] = z[i][j]
        return z

    g = cycle(5)  # grounded, a path: no fill, so every selected entry off the diagonal is an edge's
    assert exact._twin_split(g) is None
    monkeypatch.setattr(exact, "_selected_inverse", corrupted)
    for fn in (resistance_matrix, full_report):
        with pytest.raises(ArithmeticError, match="Foster"):
            fn(g)


# Kf(C_5) = 10 and W(C_5) = 15; Kf = W = 10 on the path with 4 vertices.
# None of the three graphs splits into twin pairs, so `wiener` runs on g itself.
@pytest.mark.parametrize(
    "g, fake_wiener",
    [
        (cycle(5), lambda w: 0),  # Kf > W
        (cycle(5), lambda w: 10),  # Kf = W off a tree
        (path(4), lambda w: w + 1),  # Kf < W on a tree
    ],
)
def test_reports_that_fail_kf_at_most_wiener_raise(monkeypatch, g, fake_wiener):
    real = exact.wiener
    monkeypatch.setattr(exact, "wiener", lambda h: fake_wiener(real(h)))
    with pytest.raises(ArithmeticError, match="Kf <= W"):
        full_report(g)


# ---------------------------------------------------------------------------
# the sparse solve on the minimum-degree order against the dense Bareiss oracle


def test_the_dense_echelon_form_stays_inside_the_symbolic_patterns():
    rng = random.Random(229)
    cases = [
        prism_family(PrismSpec(n, frozenset(rng.sample(range(1, n + 1), r))))
        for n in range(3, 21)
        for r in sorted({0, n // 2, n})
    ]
    cases += [random_connected_graph(rng, v, p) for v in range(2, 41) for p in (0.0, 0.1, 0.3)]
    for g in cases:
        order, pattern = min_degree_order(g)
        # relabel so that the oracle, which grounds vertex 0, eliminates in `order`
        label = {v: i for i, v in enumerate(order[-1:] + order[:-1])}
        a = _dense_grounded_laplacian(Graph.from_edges(g.vertex_count, [(label[u], label[v]) for u, v in g.edges()]))
        _dense_bareiss(a)
        for i, row in enumerate(a):
            assert {j for j in range(i + 1, len(a)) if row[j]} <= set(pattern[i]), g.edges()


def _assert_matches_dense_oracle(g: Graph) -> None:
    rm = resistance_matrix(g)
    num, den = bareiss_resistance(g)
    assert rm.den == den, g.edges()
    assert rm.num == num, g.edges()
    assert spanning_trees(g) == bareiss_tree_count(g) == den


@pytest.mark.parametrize("n", range(3, 9))
def test_every_prism_member_matches_the_dense_oracle(n):
    for mask in range(2**n):
        deleted = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        _assert_matches_dense_oracle(prism_family(PrismSpec(n, deleted)))


def test_seeded_prism_members_match_the_dense_oracle():
    rng = random.Random(211)
    for n in range(9, 21):
        for r in sorted({0, rng.randint(1, n - 1), n}):
            _assert_matches_dense_oracle(prism_family(PrismSpec(n, frozenset(rng.sample(range(1, n + 1), r)))))


@pytest.mark.parametrize("v", range(2, 41))
def test_random_graphs_match_the_dense_oracle(v):
    rng = random.Random(1000 + v)
    for density in (0.05, 0.2, 0.6):
        _assert_matches_dense_oracle(random_connected_graph(rng, v, density))


def test_bandless_trees_and_complete_graphs_match_the_dense_oracle():
    rng = random.Random(223)
    for v in range(2, 13):
        _assert_matches_dense_oracle(Graph.from_edges(v, combinations(range(v), 2)))
    for v in range(2, 21):
        _assert_matches_dense_oracle(path(v))
        _assert_matches_dense_oracle(Graph.from_edges(v, [(0, i) for i in range(1, v)]))
        _assert_matches_dense_oracle(random_tree(rng, v))


def test_relabeling_permutes_resistances_and_keeps_every_invariant():
    rng = random.Random(227)
    cases = [random_connected_graph(rng, rng.randint(2, 30), 0.15) for _ in range(12)]
    cases += [prism_family(PrismSpec(n, frozenset(rng.sample(range(1, n + 1), n // 2)))) for n in (5, 9, 14)]
    for g in cases:
        n = g.vertex_count
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        rg, rh = resistance_matrix(g), resistance_matrix(h)
        assert rh.den == rg.den
        assert all(rh.num[perm[i]][perm[j]] == rg.num[i][j] for i in range(n) for j in range(n))
        fields = [(rep.kf, rep.kf_star, rep.wiener, rep.gutman, rep.tree_count) for rep in map(full_report, (g, h))]
        assert fields[0] == fields[1]


# ---------------------------------------------------------------------------
# report


def test_full_report_k6():
    rep = full_report(k6())
    assert (rep.kf, rep.kf_star, rep.wiener, rep.gutman, rep.tree_count) == (5, 125, 15, 375, 1296)


def test_full_report_single_edge():
    rep = full_report(path(2))
    assert (rep.kf, rep.kf_star, rep.wiener, rep.gutman, rep.tree_count) == (1, 1, 1, 1, 1)


def test_full_report_cycle4():
    rep = full_report(cycle(4))
    assert rep.kf == 5
    assert rep.wiener == 8
    assert rep.tree_count == 4


def test_full_report_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        full_report(two_disjoint_edges())


def test_choice_independence_small():
    """kf, tau, wiener depend only on (n, r), exhaustively for n <= 6.

    The degree-weighted index does NOT share this property (deleting adjacent
    vs antipodal verticals at n=4 gives 931/4 vs 233), so it is excluded.
    """
    for n in range(3, 7):
        by_r: dict[int, set] = {}
        for mask in range(2**n):
            deleted = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            g = prism_family(PrismSpec(n, deleted))
            rm = resistance_matrix(g)
            by_r.setdefault(len(deleted), set()).add((rm.pairs_sum(), rm.den, wiener(g)))
        assert all(len(vals) == 1 for vals in by_r.values()), f"n={n} values vary within an r"


def test_mult_deg_kirchhoff_is_choice_dependent():
    """Fixed counterexample: same (n, r), different deletion pattern, different value."""
    adjacent = mult_deg_kirchhoff(prism_family(PrismSpec(4, frozenset({1, 2}))))
    antipodal = mult_deg_kirchhoff(prism_family(PrismSpec(4, frozenset({1, 3}))))
    assert adjacent == Fraction(931, 4)
    assert antipodal == 233
    assert adjacent != antipodal


# ---------------------------------------------------------------------------
# the half-size solve for graphs that split into twin pairs


def _strong_double(h: Graph, deleted, rng) -> Graph:
    """`strong_double(h, deleted)` with its vertices shuffled."""
    perm = list(range(2 * h.vertex_count))
    rng.shuffle(perm)
    return Graph.from_edges(len(perm), [(perm[u], perm[v]) for u, v in strong_double(h, deleted).edges()])


def _general_route(monkeypatch, fn, g: Graph):
    """fn(g) with the twin split switched off, so that g takes the general solve."""
    with monkeypatch.context() as m:
        m.setattr(exact, "_twin_split", lambda g: None)
        return fn(g)


def _assert_split_rebuilds(g: Graph) -> None:
    """Relabelled so that pair i of `_twin_split` is {i, k + i}, g is the strong double of its split.

    Either vertex of a pair may take i: swapping twins is an automorphism.
    """
    split = exact._twin_split(g)
    assert split is not None, "g does not split into twin pairs"
    h, half, cut = split
    k = h.vertex_count
    label = [0] * g.vertex_count
    seen = set()
    for v, i in enumerate(half):
        label[v] = k + i if i in seen else i
        seen.add(i)
    relabelled = Graph.from_edges(g.vertex_count, [(label[u], label[v]) for u, v in g.edges()])
    deleted = {i for i, c in enumerate(cut) if c}
    assert relabelled == strong_double(h, deleted), "g is not the strong double of its split"


def _triangle_sum(rm: ResistanceMatrix, weights) -> Fraction:
    n = rm.order
    return Fraction(sum(weights[u] * weights[v] * rm.num[u][v] for u in range(n) for v in range(u + 1, n)), rm.den)


def _assert_twin_sums_match(monkeypatch, g: Graph) -> None:
    """The pair sums read off the quotient equal triangle sums over num, and the general route's sums.

    The weights include a vector that differs between the two copies of
    every pair and one with zeros, since the quotient formula assumes
    neither, and equal non-unit weights; the matrix itself equals the
    general route's.
    """
    split = exact._twin_split(g)
    assert split is not None, "g does not split into twin pairs"
    rm = resistance_matrix(g)
    general = _general_route(monkeypatch, resistance_matrix, g)
    assert rm == general, "matrix equality: the twin route's num or den differs from the general solve's"
    n = g.vertex_count
    rng = random.Random(g.edge_count)
    seen = set()
    uneven = []
    for i in split[1]:  # the first copy of each pair weighs even, the second odd
        uneven.append(2 * rng.randrange(50) + (i in seen))
        seen.add(i)
    zeros = [rng.choice((0, 0, rng.randrange(1, 50))) for _ in range(n)]
    assert rm.pairs_sum() == _triangle_sum(rm, [1] * n) == general.pairs_sum(), (
        "pairs_sum: the twin route, the sum over num and the general solve disagree"
    )
    kinds = (("unit", [1] * n), ("degree", degrees(g)), ("uneven", uneven), ("zeros", zeros), ("equal", [3] * n))
    for kind, weights in kinds:
        want = _triangle_sum(rm, weights)
        assert rm.weighted_pairs_sum(weights) == want == general.weighted_pairs_sum(weights), (
            f"weighted_pairs_sum, {kind} weights: the twin route, the sum over num and the general solve disagree"
        )


def _assert_report_matches(monkeypatch, g: Graph) -> None:
    """full_report equals the general solve's report, and its distance indices one BFS per source."""
    rep = full_report(g)
    assert rep == _general_route(monkeypatch, full_report, g), "full_report differs from the general solve's report"
    assert rep.wiener == bfs_distance_sum(g, [1] * g.vertex_count), "full_report's wiener differs from the BFS oracle"
    assert rep.gutman == bfs_distance_sum(g, degrees(g)), "full_report's gutman differs from the BFS oracle"


def _assert_twin_route_matches(monkeypatch, g: Graph) -> None:
    _assert_split_rebuilds(g)
    _assert_matches_dense_oracle(g)
    _assert_twin_sums_match(monkeypatch, g)
    _assert_report_matches(monkeypatch, g)


def _quotients(k: int, rng):
    yield random_connected_graph(rng, k, 0.1)
    yield random_connected_graph(rng, k, 0.5)
    yield random_tree(rng, k)
    yield _complete(k)
    if k >= 3:
        yield cycle(k)


@pytest.mark.parametrize("k", range(2, 15))
def test_strong_doubles_take_the_twin_route_and_match_the_dense_oracle(monkeypatch, k):
    rng = random.Random(2000 + k)
    for h in _quotients(k, rng):
        deleted = {i for i in range(k) if rng.random() < 0.5}
        _assert_twin_route_matches(monkeypatch, _strong_double(h, deleted, rng))


# From n = 5 on every class of twins is one vertical pair, so the pairing is
# forced; at n = 3 and 4 some members have classes of four (test below).
@pytest.mark.parametrize("n", range(5, 9))
def test_every_prism_member_splits_into_the_cycle_in_rim_order(n):
    for r in range(n + 1):
        for deleted in combinations(range(1, n + 1), r):
            h, half, cut = exact._twin_split(prism_family(PrismSpec(n, frozenset(deleted))))
            assert (h, half, cut) == (cycle(n), list(range(n)) * 2, [1 if i + 1 in deleted else 0 for i in range(n)])


@pytest.mark.parametrize("n", range(3, 9))
def test_every_prism_member_is_the_strong_double_of_its_split(n):
    for mask in range(2**n):
        _assert_split_rebuilds(prism_family(PrismSpec(n, frozenset(i + 1 for i in range(n) if mask >> i & 1))))


def test_twin_classes_larger_than_two_pair_off_in_any_order(monkeypatch):
    rng = random.Random(233)
    k44 = Graph.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)])
    for g in (_complete(6), cycle(4), k44, _strong_double(cycle(4), {0, 2}, rng)):
        _assert_twin_route_matches(monkeypatch, g)
    h, _, cut = exact._twin_split(_complete(6))
    assert (h.adjacency, cut) == (_complete(3).adjacency, [0, 0, 0])
    # the four copies of the two cut positions are one class of false twins
    h, _, cut = exact._twin_split(_strong_double(cycle(4), {0, 2}, rng))
    assert (h.edge_count, sorted(cut)) == (4, [0, 0, 1, 1])


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + [(i, i + 5) for i in range(5)])


@pytest.mark.parametrize(
    "g",
    [
        path(2),  # the quotient would have one vertex
        _star(4),  # the leaves are an odd class and the centre has no twin
        Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),  # K_{3,3}: two odd classes
        _complete(5),
        _petersen(),
        cycle(6),
    ],
    ids=["K2", "K13", "K33", "K5", "petersen", "C6"],
)
def test_graphs_without_a_twin_pairing_take_the_general_route(monkeypatch, g):
    assert exact._twin_split(g) is None
    _assert_matches_dense_oracle(g)
    _assert_report_matches(monkeypatch, g)


def test_random_graphs_take_the_general_route():
    rng = random.Random(239)
    for v in range(6, 41, 2):
        for prob in (0.1, 0.3):
            g = random_connected_graph(rng, v, prob)
            assert exact._twin_split(g) is None, g.edges()


def test_a_disconnected_strong_double_raises():
    g = _strong_double(two_disjoint_edges(), {1, 2}, random.Random(241))
    assert exact._twin_split(g) is not None
    for fn in (resistance_matrix, full_report):
        with pytest.raises(DisconnectedGraphError):
            fn(g)


def test_twin_route_resistances_that_fail_foster_raise(monkeypatch):
    real = exact._inverse_from_u

    def corrupted(*args):
        y = real(*args)
        y[0][0] += 1
        return y

    g = prism_family(PrismSpec(6, frozenset({1, 3})))
    assert exact._twin_split(g) is not None
    monkeypatch.setattr(exact, "_inverse_from_u", corrupted)
    with pytest.raises(ArithmeticError, match="Foster"):
        resistance_matrix(g)


@pytest.mark.parametrize("n", range(3, 9))
def test_twin_route_pair_sums_match_triangle_sums_on_every_prism_member(monkeypatch, n):
    for mask in range(2**n):
        deleted = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        _assert_twin_sums_match(monkeypatch, prism_family(PrismSpec(n, deleted)))


def _assert_general_sums_match(g: Graph, rng) -> None:
    """On the general route, the pair sums off the selected inverse and forward solves equal triangle sums over num.

    The weights are unit, degree, uneven (drawn from rng, negatives
    included) and equal non-unit ones.
    """
    assert exact._twin_split(g) is None, "g splits into twin pairs"
    rm = resistance_matrix(g)
    n = g.vertex_count
    assert rm.pairs_sum() == _triangle_sum(rm, [1] * n), "pairs_sum differs from the sum over num"
    uneven = [rng.randrange(-5, 50) for _ in range(n)]
    for kind, weights in (("unit", [1] * n), ("degree", degrees(g)), ("uneven", uneven), ("equal", [3] * n)):
        assert rm.weighted_pairs_sum(weights) == _triangle_sum(rm, weights), (
            f"weighted_pairs_sum, {kind} weights: differs from the sum over num"
        )


@pytest.mark.parametrize("v", range(2, 31, 4))
def test_general_route_weighted_pairs_sum_matches_the_triangle_sum(v):
    rng = random.Random(5000 + v)
    _assert_general_sums_match(random_connected_graph(rng, v, 0.3), rng)


@pytest.mark.parametrize(
    "g",
    [prism_family(PrismSpec(6, frozenset({1, 3}))), random_connected_graph(random.Random(251), 12, 0.3)],
    ids=["twin", "general"],
)
def test_pair_sums_do_not_read_num(g):
    rm = resistance_matrix(g)
    sums = (rm.pairs_sum(), rm.weighted_pairs_sum(degrees(g)))
    rm.num[0][1] += 1
    rm.num[1][0] += 1
    assert (rm.pairs_sum(), rm.weighted_pairs_sum(degrees(g))) == sums


# ---------------------------------------------------------------------------
# the general route's sums without the whole inverse, against the dense routes


def _general_graphs(v: int):
    """Seeded connected graphs on v vertices, sparse and dense, that take the general route."""
    rng = random.Random(3000 + v)
    for density in (0.05, 0.3):
        g = random_connected_graph(rng, v, density)
        if exact._twin_split(g) is None:
            yield g


@pytest.mark.parametrize("v", range(2, 41))
def test_the_bordered_form_matches_the_dense_quadratic_form(v):
    rng = random.Random(3100 + v)
    for g in _general_graphs(v):
        _, rows = exact._grounded_rows(g)
        pivots = exact._eliminate(rows)
        y = exact._inverse_from_u(rows, pivots)
        k = len(rows)
        kinds = (
            ("unit", [1] * k),
            ("zeros", [rng.choice((0, 0, rng.randint(-5, 8))) for _ in range(k)]),
            ("negative", [rng.randint(-5, 8) for _ in range(k)]),
            ("all zero", [0] * k),
        )
        for kind, b in kinds:
            want = sum(bi * yij * bj for bi, row in zip(b, y) for yij, bj in zip(row, b))
            assert exact._bordered_form(rows, pivots, b) == want, f"{kind} weights: b^T Y b differs"


@pytest.mark.parametrize("v", range(2, 41))
def test_the_selected_inverse_matches_the_whole_inverse_on_the_pattern(v):
    for g in _general_graphs(v):
        _, rows = exact._grounded_rows(g)
        pivots = exact._eliminate(rows)
        y = exact._inverse_from_u(rows, pivots)
        z = exact._selected_inverse(rows, pivots)
        assert len(z) == len(rows)
        for i, zi in enumerate(z):
            assert set(zi) == set(rows[i]) | {t for t in range(i) if i in rows[t]}, "not the pattern and diagonal"
            assert all(x == y[i][j] for j, x in zi.items()), "a selected entry differs from the whole inverse"


@pytest.mark.parametrize("v", range(2, 41))
def test_general_route_num_is_built_on_first_read_and_matches_the_dense_oracle(monkeypatch, v):
    calls = []
    real = exact._inverse_from_u

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(exact, "_inverse_from_u", counted)
    for g in _general_graphs(v):
        calls.clear()
        rm = resistance_matrix(g)
        deg = degrees(g)
        before = (rm.pairs_sum(), rm.weighted_pairs_sum(deg))
        assert not calls, "the solve or its sums built the whole inverse"
        num, den = bareiss_resistance(g)
        assert (rm.den, rm.num) == (den, num), "num or den differs from the dense oracle"
        assert rm.entry(0, v - 1) == Fraction(num[0][v - 1], den)
        assert len(calls) == 1, "num was not built once, on its first read"
        assert (rm.pairs_sum(), rm.weighted_pairs_sum(deg)) == before, "reading num moved a sum"
        assert before == (_triangle_sum(rm, [1] * v), _triangle_sum(rm, deg)), "a sum differs from the sum over num"


def _assert_report_needs_no_whole_inverse(monkeypatch, g: Graph) -> None:
    """On the general route full_report runs with `_inverse_from_u` switched off, and its sums match those over num."""
    rm = resistance_matrix(g)
    want = (_triangle_sum(rm, [1] * g.vertex_count), _triangle_sum(rm, degrees(g)), rm.den)

    def whole_inverse(*args):
        raise AssertionError("full_report built the whole grounded inverse")

    with monkeypatch.context() as m:
        m.setattr(exact, "_inverse_from_u", whole_inverse)
        rep = full_report(g)
    assert (rep.kf, rep.kf_star, rep.tree_count) == want, "full_report differs from the sums over num"


@pytest.mark.parametrize("v", range(2, 41, 3))
def test_general_route_full_report_needs_no_whole_inverse(monkeypatch, v):
    for g in _general_graphs(v):
        _assert_report_needs_no_whole_inverse(monkeypatch, g)


@pytest.mark.parametrize("v", range(2, 6))
def test_random_sparse_graph_refuses_fewer_than_six_vertices_without_drawing(v):
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ValueError, match="v >= 6"):
        random_sparse_graph(rng, v)
    assert rng.getstate() == state


def test_random_sparse_graph_keeps_its_draws():
    """CI steps rebuild their graphs from seeds, so a change in how it draws would change them."""
    g = random_sparse_graph(random.Random(1), 8)
    assert g.edges() == [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (1, 2), (1, 3), (1, 7),
        (2, 3), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (5, 7), (6, 7),
    ]  # fmt: skip
