"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Runtime budgets are asserted inside the tests that carry one.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from invkit import (
    PrismSpec,
    cycle_spectrum,
    degrees,
    eigenvalues_sym,
    involution_split,
    kf_gn,
    kf_grn,
    kf_star_gn,
    kirchhoff_index,
    laplacian,
    normalized_laplacian,
    prism_family,
    resistance_matrix,
    rim_swap,
    spanning_trees,
    spectral_kf,
    spectral_kf_star,
    spectral_tree_count,
    tau_gn,
    tau_grn,
    wiener,
    wiener_gn,
    wiener_grn,
)
from invkit.cli import format_fraction
from invkit.cli import main as cli_main
from oracles import brute_force_spanning_trees, random_connected_graph, random_tree

GOLDEN = Path(__file__).parent / "golden"

# frozen 2-decimal renderings and exact tree counts for the n = 3..11 members
TABLE1 = {
    3: ("5.00", 1296),
    4: ("10.33", 20736),
    5: ("18.33", 311040),
    6: ("29.50", 4478976),
    7: ("44.33", 62705664),
    8: ("63.33", 859963392),
    9: ("87.00", 11609505792),
    10: ("115.83", 154793410560),
    11: ("150.33", 2043273019392),
}

# frozen 2-decimal renderings of the weighted index for n = 3..15; the n=10
# row must render 2895.83 (oracle-verified), not the often-misquoted 2895.33
TABLE2 = {
    3: "125.00",
    4: "258.33",
    5: "458.33",
    6: "737.50",
    7: "1108.33",
    8: "1583.33",
    9: "2175.00",
    10: "2895.83",
    11: "3758.33",
    12: "4775.00",
    13: "5958.33",
    14: "7320.83",
    15: "8875.00",
}


@pytest.fixture(scope="session")
def family_sweep():
    """Exact and spectral invariants over the whole (n, deleted-set) sweep.

    Exhaustive deletion subsets for n = 3..8, five seeded samples per r for
    n = 9..30. Rows carry both exact values and spectral estimates so the
    formula sweep and the cross-method criterion share one computation.
    """
    rng = random.Random(20260808)
    cases: list[tuple[int, frozenset[int]]] = []
    for n in range(3, 9):
        for mask in range(2**n):
            cases.append((n, frozenset(i + 1 for i in range(n) if mask >> i & 1)))
    for n in range(9, 31):
        for r in range(n + 1):
            seen = set()
            for _ in range(5):
                d = frozenset(rng.sample(range(1, n + 1), r))
                if d not in seen:
                    seen.add(d)
                    cases.append((n, d))

    rows = []
    exact_elapsed = 0.0
    for n, deleted in cases:
        g = prism_family(PrismSpec(n, deleted))
        t0 = time.perf_counter()
        rm = resistance_matrix(g)
        kf = rm.pairs_sum()
        kf_star = rm.weighted_pairs_sum(degrees(g))
        tau = rm.den
        w = wiener(g)
        exact_elapsed += time.perf_counter() - t0

        eigs = eigenvalues_sym(laplacian(g))
        neigs = eigenvalues_sym(normalized_laplacian(g))
        rows.append(
            {
                "n": n,
                "r": len(deleted),
                "deleted": deleted,
                "vertices": g.vertex_count,
                "kf": kf,
                "kf_star": kf_star,
                "tau": tau,
                "wiener": w,
                "spec_kf": spectral_kf(eigs, g.vertex_count),
                "spec_kf_star": spectral_kf_star(neigs, g.edge_count),
                "spec_tau": spectral_tree_count(eigs, g.vertex_count),
            }
        )
    return {"rows": rows, "exact_elapsed": exact_elapsed}


def test_criterion_1_table1_reproduction():
    t0 = time.perf_counter()
    for n, (kf_2dec, tau_expected) in TABLE1.items():
        kf_formula = kf_gn(n)
        g = prism_family(PrismSpec(n))
        kf_exact = kirchhoff_index(g)
        assert kf_exact == kf_formula, f"n={n}: exact {kf_exact} != formula {kf_formula}"
        assert format_fraction(kf_formula, 2) == kf_2dec
        assert format_fraction(kf_exact, 2) == kf_2dec
        tau_formula = tau_gn(n)
        tau_exact = spanning_trees(g)
        assert tau_formula == tau_exact == tau_expected, f"n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"table 1 reproduction took {elapsed:.1f}s"
    print(f"\ncriterion 1 (table 1, n=3..11, exact+closed-form): PASS in {elapsed:.2f}s")


def test_criterion_2_table2_reproduction():
    t0 = time.perf_counter()
    for n, expected in TABLE2.items():
        formula = kf_star_gn(n)
        assert format_fraction(formula, 2) == expected, f"n={n}"
        assert formula == 25 * kf_gn(n)
        g = prism_family(PrismSpec(n))
        rm = resistance_matrix(g)
        deg = degrees(g)
        oracle = rm.weighted_pairs_sum(deg)
        assert oracle == formula, f"n={n}: oracle {oracle} disagrees with formula {formula}"
        # weighted_pairs_sum reads the quotient on prism members; sum the matrix itself too
        triangle = sum(deg[i] * deg[j] * row[j] for i, row in enumerate(rm.num) for j in range(i + 1, rm.order))
        triangle = Fraction(triangle, rm.den)
        assert triangle == formula, f"n={n}: triangle sum {triangle} disagrees with formula {formula}"
    # exact ratio identity well beyond the table range
    assert all(kf_star_gn(n) == 25 * kf_gn(n) for n in range(3, 301))
    # the n=10 rendering hazard, pinned explicitly: formula and oracle say .83
    assert format_fraction(kf_star_gn(10), 2) == "2895.83" != "2895.33"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"table 2 reproduction took {elapsed:.1f}s"
    print(f"\ncriterion 2 (table 2, n=3..15, formula=oracle=25*kf): PASS in {elapsed:.2f}s")


def test_criterion_3_deletion_formula_sweep(family_sweep):
    rows = family_sweep["rows"]
    exhaustive = [row for row in rows if row["n"] <= 8]
    assert len(exhaustive) == sum(2**n for n in range(3, 9)), "exhaustive subset coverage"
    for row in rows:
        n, r = row["n"], row["r"]
        assert row["kf"] == kf_grn(n, r), f"kf mismatch at n={n} D={sorted(row['deleted'])}"
        assert row["tau"] == tau_grn(n, r), f"tau mismatch at n={n} D={sorted(row['deleted'])}"
        assert row["wiener"] == wiener_grn(n, r), f"wiener mismatch at n={n} D={sorted(row['deleted'])}"
    elapsed = family_sweep["exact_elapsed"]
    assert elapsed < 300.0, f"exact sweep took {elapsed:.1f}s"
    print(
        f"\ncriterion 3 (deletion sweep, {len(rows)} members, exhaustive n<=8,"
        f" sampled n<=30): PASS in {elapsed:.2f}s"
    )


def test_criterion_4_spectrum_split():
    t0 = time.perf_counter()
    rng = random.Random(4)
    members = 0
    for n in range(3, 31):
        for r in sorted({0, n // 2, n}):
            deleted = frozenset(rng.sample(range(1, n + 1), r))
            g = prism_family(PrismSpec(n, deleted))
            split = involution_split(g, rim_swap(n))
            full = eigenvalues_sym(laplacian(g))
            assert np.allclose(split.combined(), full, atol=1e-8, rtol=0), f"n={n} r={r}"
            rim_evals = [4 if i in deleted else 6 for i in range(1, n + 1)]
            predicted = np.sort(np.concatenate([[0.0], 2.0 * cycle_spectrum(n)[:-1], rim_evals]))
            assert np.allclose(predicted, full, atol=1e-8, rtol=0), f"n={n} r={r}"
            members += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"spectrum split checks took {elapsed:.1f}s"
    print(f"\ncriterion 4 (spectrum split, {members} members): PASS in {elapsed:.2f}s")


def test_criterion_5_cross_method_agreement(family_sweep):
    rows = family_sweep["rows"]
    for row in rows:
        assert row["vertices"] <= 60
        kf_rel = abs(row["spec_kf"] - float(row["kf"])) / float(row["kf"])
        assert kf_rel <= 1e-6, f"kf rel err {kf_rel:.2e} at n={row['n']} r={row['r']}"
        kfs_rel = abs(row["spec_kf_star"] - float(row["kf_star"])) / float(row["kf_star"])
        assert kfs_rel <= 1e-6, f"kf_star rel err {kfs_rel:.2e} at n={row['n']} r={row['r']}"
        log_diff = abs(row["spec_tau"].log_value - math.log(row["tau"]))
        assert log_diff <= 1e-6, f"tau log diff {log_diff:.2e} at n={row['n']} r={row['r']}"
        if row["spec_tau"].value is not None:
            assert abs(row["spec_tau"].value - row["tau"]) <= 1e-6 * row["tau"]
    print(f"\ncriterion 5 (spectral vs exact, {len(rows)} graphs <= 60 vertices): PASS")


def test_criterion_6_classical_identities():
    rng = random.Random(6)
    trees_seen = 0
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 12), extra_edge_prob=rng.random() * 0.5)
        rm = resistance_matrix(g)
        kf = rm.pairs_sum()
        w = wiener(g)
        is_tree = g.edge_count == g.vertex_count - 1
        if is_tree:
            trees_seen += 1
            assert kf == w, "tree must satisfy kf == wiener exactly"
        else:
            assert kf < w, "non-tree must satisfy kf < wiener strictly"
        n = g.vertex_count
        num, den = rm.num, rm.den
        assert den > 0
        for i in range(n):
            assert num[i][i] == 0
            for j in range(n):
                assert num[i][j] == num[j][i] >= 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert num[i][k] <= num[i][j] + num[j][k], "triangle inequality"
    assert trees_seen > 0, "seeded stream should include some trees"
    for _ in range(100):
        n = rng.randint(2, 12)
        t = random_tree(rng, n)
        from invkit import gutman

        assert gutman(t) == 4 * wiener(t) - (2 * n - 1) * (n - 1)
    print("\ncriterion 6 (kf<=W iff-tree x200, tree Gutman identity x100, resistance axioms): PASS")


def test_criterion_7_brute_force_tree_counts():
    t0 = time.perf_counter()
    rng = random.Random(7)
    samples = 0
    while samples < 500:
        g = random_connected_graph(rng, rng.randint(2, 6), extra_edge_prob=rng.random())
        assert spanning_trees(g) == brute_force_spanning_trees(g), g.edges()
        samples += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"brute-force comparison took {elapsed:.1f}s"
    print(f"\ncriterion 7 (matrix-tree vs enumeration, {samples} graphs): PASS in {elapsed:.2f}s")


def test_criterion_8_ratio_convergence():
    t0 = time.perf_counter()
    sixth = Fraction(1, 6)
    for r_of_n in (lambda n: 0, lambda n: n):
        prev = None
        for n in range(24, 10_001):
            r = r_of_n(n)
            dev = abs(Fraction(kf_grn(n, r), wiener_grn(n, r)) - sixth)
            assert dev < Fraction(1, n), f"deviation >= 1/n at n={n} r={r}"
            if prev is not None:
                assert dev < prev, f"deviation not strictly decreasing at n={n} r={r}"
            prev = dev
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 8 (|kf/W - 1/6| < 1/n, decreasing, n=24..10^4, r=0 and r=n): PASS in {elapsed:.2f}s")


def test_criterion_9_cli_contract(capsys, tmp_path, monkeypatch):
    # golden byte equality for both tables
    assert cli_main(["table", "--table", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "table1.csv").read_text()
    assert cli_main(["table", "--table", "2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "table2.csv").read_text()

    # documented exit codes: 0 / 1 / 2 / 3
    assert cli_main(["compute", "--family", "gn", "--n", "4", "--method", "all"]) == 0
    capsys.readouterr()
    assert cli_main(["compute", "--family", "gn", "--n", "2"]) == 1
    capsys.readouterr()
    bad = tmp_path / "disc.edges"
    bad.write_text("4 2\n0 1\n2 3\n")
    assert cli_main(["compute", "--input", str(bad)]) == 2
    capsys.readouterr()
    from invkit import closed_form

    real = closed_form.tau_grn
    monkeypatch.setattr(closed_form, "tau_grn", lambda n, r: real(n, r) + 1)
    assert cli_main(["verify", "--n-max", "4", "--exhaustive-d-max", "4"]) == 3
    monkeypatch.undo()
    capsys.readouterr()

    # deterministic bytes under a fixed seed
    argv = ["compute", "--family", "grn", "--n", "8", "--r", "3", "--seed", "5", "--format", "json"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == first
    print("\ncriterion 9 (golden tables, exit codes 0/1/2/3, seeded determinism): PASS")
