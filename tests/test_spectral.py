"""Laplacians, the symmetry split, and spectral invariant formulas."""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

from invkit import (
    DecompositionError,
    DisconnectedGraphError,
    Graph,
    PrismSpec,
    cycle,
    cycle_spectrum,
    degrees,
    eigenvalues_sym,
    full_report,
    involution_split,
    kf_cycle,
    laplacian,
    normalized_laplacian,
    path,
    prism_family,
    rim_swap,
    spectral_kf,
    spectral_kf_star,
    spectral_tree_count,
    spanning_trees,
    strong_double,
)
from oracles import random_connected_graph, random_tree


def test_laplacian_triangle():
    expected = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert np.array_equal(laplacian(cycle(3)), expected)


def test_laplacian_k6():
    m = laplacian(prism_family(PrismSpec(3)))
    assert np.array_equal(np.diag(m), np.full(6, 5))
    assert np.all(m[~np.eye(6, dtype=bool)] == -1)


def test_laplacian_rows_sum_to_zero():
    m = laplacian(prism_family(PrismSpec(7, frozenset({2, 5}))))
    assert np.array_equal(m.sum(axis=1), np.zeros(14, dtype=np.int64))


def test_normalized_laplacian_regular_case():
    g = prism_family(PrismSpec(4))
    nl = normalized_laplacian(g)
    assert np.allclose(nl, laplacian(g) / 5.0, atol=1e-15, rtol=0)
    assert np.array_equal(nl, nl.T)


def test_normalized_laplacian_cycle():
    nl = normalized_laplacian(cycle(4))
    assert np.allclose(np.diag(nl), 1.0)
    assert math.isclose(nl[0, 1], -0.5, rel_tol=1e-14)


def test_normalized_laplacian_mixed_degrees():
    # rim position 1 loses its vertical: index 0 has degree 4, index 1 degree 5
    g = prism_family(PrismSpec(5, frozenset({1})))
    nl = normalized_laplacian(g)
    assert math.isclose(nl[1, 0], -1.0 / math.sqrt(20.0), rel_tol=1e-14)


def test_normalized_laplacian_rejects_isolated_vertex():
    with pytest.raises(ValueError):
        normalized_laplacian(path(1))


# ---------------------------------------------------------------------------
# involution split


def test_split_blocks_on_intact_family():
    for n in (3, 5, 8):
        g = prism_family(PrismSpec(n))
        split = involution_split(g, rim_swap(n))
        assert np.array_equal(split.block_a, 2 * laplacian(cycle(n)))
        assert np.array_equal(split.block_s, 6 * np.eye(n, dtype=np.int64))


def test_split_block_s_marks_deletions():
    deleted = frozenset({2, 4, 5})
    g = prism_family(PrismSpec(6, deleted))
    split = involution_split(g, rim_swap(6))
    assert np.array_equal(split.block_a, 2 * laplacian(cycle(6)))
    diag = np.diag(split.block_s)
    assert np.array_equal(split.block_s, np.diag(diag))
    assert [int(x) for x in diag] == [6, 4, 6, 4, 4, 6]


def test_split_spectrum_union_matches_full():
    rng = random.Random(3)
    for n in (3, 4, 7, 11):
        for r in (0, n // 2, n):
            deleted = frozenset(rng.sample(range(1, n + 1), r))
            g = prism_family(PrismSpec(n, deleted))
            split = involution_split(g, rim_swap(n))
            full = eigenvalues_sym(laplacian(g))
            assert np.allclose(split.combined(), full, atol=1e-8, rtol=0)


def test_rim_swap_splits_every_strong_double():
    """block_a = 2 L(H) and block_s = diag(2 s_i), s_i = deg_H(i) + 1 - [i cut], for any H, not only C_n."""
    rng = random.Random(18)
    for k in range(2, 13):
        for h in (random_tree(rng, k), random_connected_graph(rng, k)):
            cut = {i for i in range(k) if rng.random() < 0.5}
            g = strong_double(h, cut)
            split = involution_split(g, rim_swap(k))
            s = [len(h.adjacency[i]) + 1 - (i in cut) for i in range(k)]
            assert np.array_equal(split.block_a, 2 * laplacian(h)), (h.edges(), cut)
            assert np.array_equal(split.block_s, np.diag(2 * np.array(s))), (h.edges(), cut)
            assert np.allclose(split.combined(), eigenvalues_sym(laplacian(g)), atol=1e-8, rtol=0)


def test_split_normalized_regular_case():
    g = prism_family(PrismSpec(6))
    split = involution_split(g, rim_swap(6), normalized=True)
    full = eigenvalues_sym(normalized_laplacian(g))
    assert np.allclose(split.combined(), full, atol=1e-8, rtol=0)
    # 5-regular: blocks are the integer split scaled by 1/5
    assert np.allclose(split.block_a, 2.0 / 5.0 * laplacian(cycle(6)), atol=1e-15)
    assert np.allclose(split.block_s, 6.0 / 5.0 * np.eye(6), atol=1e-15)


def test_split_normalized_full_range():
    """Normalized split agrees with the full normalized spectrum, n up to 30."""
    for n in range(3, 31):
        g = prism_family(PrismSpec(n))
        split = involution_split(g, rim_swap(n), normalized=True)
        full = eigenvalues_sym(normalized_laplacian(g))
        assert np.allclose(split.combined(), full, atol=1e-8, rtol=0), f"n={n}"


def test_split_normalized_with_deletions():
    """The split applies to the non-regular members too; spectra still match."""
    rng = random.Random(13)
    for n in (5, 9, 14):
        deleted = frozenset(rng.sample(range(1, n + 1), n // 2))
        g = prism_family(PrismSpec(n, deleted))
        split = involution_split(g, rim_swap(n), normalized=True)
        full = eigenvalues_sym(normalized_laplacian(g))
        assert np.allclose(split.combined(), full, atol=1e-8, rtol=0), f"n={n}"


def test_split_on_cycle_with_antipodal_map():
    g = cycle(4)
    split = involution_split(g, (2, 3, 0, 1))
    assert np.allclose(split.combined(), [0.0, 2.0, 2.0, 4.0], atol=1e-9)
    assert np.allclose(split.combined(), eigenvalues_sym(laplacian(g)), atol=1e-9)


def test_off_diagonal_block_diagonal_tracks_degree():
    """Diagonal of L12 is 4 - d_i across the family."""
    rng = random.Random(9)
    for n in (4, 6, 9):
        deleted = frozenset(rng.sample(range(1, n + 1), n // 3))
        g = prism_family(PrismSpec(n, deleted))
        full = laplacian(g)
        l12 = full[:n, n:]
        deg = degrees(g)
        assert [int(l12[i, i]) for i in range(n)] == [4 - deg[i] for i in range(n)]


def test_split_rejects_non_permutation():
    with pytest.raises(DecompositionError):
        involution_split(cycle(4), (0, 0, 1, 2))


def test_split_rejects_fixed_points():
    with pytest.raises(DecompositionError):
        involution_split(cycle(4), (0, 1, 2, 3))


def test_split_rejects_non_involution():
    with pytest.raises(DecompositionError):
        involution_split(cycle(4), (1, 2, 3, 0))


def test_split_rejects_non_automorphism():
    with pytest.raises(DecompositionError):
        involution_split(path(4), (1, 0, 3, 2))
    # a fixed-point-free involution that keeps every degree but not the edge {1, 2}
    for normalized in (False, True):
        with pytest.raises(DecompositionError, match="not a graph automorphism"):
            involution_split(cycle(6), (1, 0, 3, 2, 5, 4), normalized=normalized)


# ---------------------------------------------------------------------------
# spectra


def test_cycle_spectrum_small_values():
    assert np.allclose(cycle_spectrum(4), [2.0, 4.0, 2.0, 0.0], atol=1e-12)
    assert np.allclose(cycle_spectrum(3), [3.0, 3.0, 0.0], atol=1e-12)


def test_cycle_spectrum_matches_eigensolver():
    for n in (3, 5, 10, 17):
        assert np.allclose(
            np.sort(cycle_spectrum(n)), eigenvalues_sym(laplacian(cycle(n))), atol=1e-9
        )


def test_cycle_spectrum_reciprocal_sum_identity():
    """Sum of 1/eigenvalue over nonzero entries is (n^2 - 1)/12; ties to kf_cycle."""
    n = 7
    alphas = cycle_spectrum(n)[:-1]
    recip = float(np.sum(1.0 / alphas))
    assert math.isclose(recip, (n**2 - 1) / 12, rel_tol=1e-12)
    assert math.isclose(recip, float(kf_cycle(n)) / n, rel_tol=1e-12)


def test_eigenvalues_sym_scaled_identity():
    assert np.allclose(eigenvalues_sym(6 * np.eye(4)), [6.0] * 4)


def test_eigenvalues_sym_k6():
    eigs = eigenvalues_sym(laplacian(prism_family(PrismSpec(3))))
    assert np.allclose(eigs, [0.0] + [6.0] * 5, atol=1e-9)


def test_eigenvalues_sym_prism5_multiset():
    eigs = eigenvalues_sym(laplacian(prism_family(PrismSpec(5))))
    predicted = np.sort(np.concatenate([[0.0], 2.0 * cycle_spectrum(5)[:-1], [6.0] * 5]))
    assert np.allclose(eigs, predicted, atol=1e-9)


def test_eigenvalues_sym_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigenvalues_sym(np.ones((2, 3)))


def test_eigenpair_residuals_meet_contract():
    m = laplacian(prism_family(PrismSpec(7, frozenset({2, 5})))).astype(float)
    w, v = np.linalg.eigh(m)
    norm = np.linalg.norm(m, 2)
    for k in range(len(w)):
        residual = np.linalg.norm(m @ v[:, k] - w[k] * v[:, k])
        assert residual <= 1e-9 * max(norm, 1.0)


# ---------------------------------------------------------------------------
# spectral invariant formulas


def test_spectral_kf_k6():
    eigs = eigenvalues_sym(laplacian(prism_family(PrismSpec(3))))
    assert math.isclose(spectral_kf(eigs, 6), 5.0, rel_tol=1e-12)


def test_spectral_kf_star_k6():
    eigs = eigenvalues_sym(normalized_laplacian(prism_family(PrismSpec(3))))
    assert math.isclose(spectral_kf_star(eigs, 15), 125.0, rel_tol=1e-12)


def test_spectral_tree_count_k6():
    eigs = eigenvalues_sym(laplacian(prism_family(PrismSpec(3))))
    tc = spectral_tree_count(eigs, 6)
    assert tc.value == 1296
    assert math.isclose(tc.log_value, math.log(1296), rel_tol=1e-9)


def test_spectral_tree_count_value_is_exact_whenever_it_fits():
    rng = random.Random(14)
    members = [prism_family(PrismSpec(n)) for n in range(3, 21)]
    seeded = [
        random_connected_graph(rng, rng.randint(1, 24), extra_edge_prob=rng.random() * 0.6)
        for _ in range(150)
    ]
    fitting = 0
    for g in members + seeded:
        tc = spectral_tree_count(eigenvalues_sym(laplacian(g)), g.vertex_count)
        if tc.value is not None:
            fitting += 1
            assert tc.value == spanning_trees(g), g.edges()
    assert fitting >= 100


def test_exact_kirchhoff_indices_match_their_spectral_identities_on_random_graphs():
    """Kf = n sum 1/mu (Gutman & Mohar 1996) and Kf* = 2m sum 1/lambda (Chen & Zhang 2007).

    mu runs over the nonzero Laplacian eigenvalues and lambda over the
    nonzero normalized-Laplacian ones; both matrices are built here from the
    edge list, apart from `spectral`.
    """
    rng = random.Random(1996)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 60), extra_edge_prob=rng.choice([0.0, 0.03, 0.1, 0.3]))
        n, m = g.vertex_count, g.edge_count
        lap = np.zeros((n, n))
        for u, v in g.edges():
            lap[u, v] = lap[v, u] = -1.0
            lap[u, u] += 1.0
            lap[v, v] += 1.0
        scale = 1.0 / np.sqrt(np.diag(lap))
        mu = np.linalg.eigvalsh(lap)[1:]
        lam = np.linalg.eigvalsh(lap * np.outer(scale, scale))[1:]
        rep = full_report(g)
        assert math.isclose(n * np.sum(1.0 / mu), rep.kf, rel_tol=1e-9), g.edges()
        assert math.isclose(2 * m * np.sum(1.0 / lam), rep.kf_star, rel_tol=1e-9), g.edges()


def test_spectral_tree_count_withholds_an_inexact_integer():
    # exp(sum of log eigenvalues) rounds to 4493714625921047 here; the true
    # count is 4493714625921024, still below 2**53
    g = prism_family(PrismSpec(14))
    tc = spectral_tree_count(eigenvalues_sym(laplacian(g)), g.vertex_count)
    assert spanning_trees(g) == 4493714625921024 < 2**53
    assert tc.value is None
    assert math.isclose(tc.log_value, math.log(4493714625921024), rel_tol=1e-12)


def test_spectral_tree_count_log_only_branch():
    eigs = np.array([0.0] + [10.0] * 60)
    tc = spectral_tree_count(eigs, 61)
    assert tc.value is None
    assert math.isclose(tc.log_value, 60 * math.log(10.0) - math.log(61.0), rel_tol=1e-12)


def test_spectral_formulas_reject_disconnected_spectrum():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    eigs = eigenvalues_sym(laplacian(g))
    with pytest.raises(DisconnectedGraphError):
        spectral_kf(eigs, 6)


def test_spectral_formulas_reject_zero_free_spectrum():
    with pytest.raises(ValueError):
        spectral_kf(np.ones(4), 4)


def test_spectral_is_the_only_module_that_imports_numpy():
    package = Path(__file__).parent.parent / "src" / "invkit"
    importers = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                importers.add(source.name)
    assert importers == {"spectral.py"}
