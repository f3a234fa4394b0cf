"""CLI contract: output formats, exit codes, golden tables, determinism."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from invkit import PrismSpec, prism_family, serialize_edge_list, tau_gn
from invkit.cli import format_fraction, main, render_exact

GOLDEN = Path(__file__).parent / "golden"
CLOSED_FORM_FAMILIES = "closed-form method needs --family gn, grn, or cycle"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# rendering helpers


def test_format_fraction_basic():
    assert format_fraction(Fraction(59, 2), 2) == "29.50"
    assert format_fraction(Fraction(31, 3), 2) == "10.33"
    assert format_fraction(5, 2) == "5.00"
    assert format_fraction(Fraction(1, 3), 6) == "0.333333"


def test_format_fraction_round_half_even():
    assert format_fraction(Fraction(1, 8), 2) == "0.12"
    assert format_fraction(Fraction(3, 8), 2) == "0.38"
    assert format_fraction(Fraction(-1, 8), 2) == "-0.12"


def test_render_exact():
    assert render_exact(Fraction(10, 2)) == "5"
    assert render_exact(Fraction(31, 3)) == "31/3"


# ---------------------------------------------------------------------------
# compute


def test_compute_gn3_all_methods_agree(capsys):
    code, out, err = run(capsys, ["compute", "--family", "gn", "--n", "3", "--method", "all"])
    assert code == 0, err
    header, row = out.strip().splitlines()
    assert header == "family,n,r,kf,kf_star,tau,wiener,gutman,method"
    assert row == "gn,3,0,5,125,1296,15,375,all"


def test_compute_grn_explicit_deletion(capsys):
    code, out, _ = run(
        capsys,
        ["compute", "--family", "grn", "--n", "5", "--deleted", "2,4", "--method", "exact"],
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0:3] == ["grn", "5", "2"]
    assert row[3] == "20"          # kf
    assert row[5] == "138240"      # tau
    assert row[6] == "67"          # wiener


def test_compute_from_file_matches_family(tmp_path, capsys):
    edge_file = tmp_path / "k6.edges"
    edge_file.write_text(serialize_edge_list(prism_family(PrismSpec(3))))
    code, out_file, _ = run(capsys, ["compute", "--input", str(edge_file), "--method", "exact"])
    assert code == 0
    code, out_fam, _ = run(capsys, ["compute", "--family", "gn", "--n", "3", "--method", "exact"])
    assert code == 0
    # same invariant cells; family/n/r columns differ by construction route
    assert out_file.splitlines()[1].split(",")[3:8] == out_fam.splitlines()[1].split(",")[3:8]


def test_compute_json_schema(capsys):
    code, out, _ = run(
        capsys, ["compute", "--family", "gn", "--n", "4", "--method", "exact", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == [
        "family", "n", "r", "kf_num", "kf_den", "kf_star_num", "kf_star_den",
        "tau", "wiener", "gutman", "method",
    ]
    assert (obj["kf_num"], obj["kf_den"]) == (31, 3)
    assert (obj["kf_star_num"], obj["kf_star_den"]) == (775, 3)
    assert obj["tau"] == 20736
    assert obj["wiener"] == 36
    assert obj["gutman"] == 900
    # a float field is the double's exact ratio, and a field with no value is null
    code, out, _ = run(
        capsys, ["compute", "--family", "gn", "--n", "4", "--method", "spectral", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    kf = Fraction(obj["kf_num"], obj["kf_den"])
    assert abs(kf - Fraction(31, 3)) < 1e-9
    assert obj["kf_den"] & (obj["kf_den"] - 1) == 0  # a power of two
    code, out, _ = run(
        capsys,
        ["compute", "--family", "grn", "--n", "5", "--deleted", "2,4", "--method", "closed-form", "--format", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert (obj["kf_num"], obj["kf_den"]) == (20, 1)
    assert (obj["kf_star_num"], obj["kf_star_den"], obj["gutman"]) == (None, None, None)


def test_compute_spectral_close_to_exact(capsys):
    code, out, _ = run(
        capsys, ["compute", "--family", "gn", "--n", "4", "--method", "spectral"]
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert abs(float(row[3]) - 31 / 3) < 1e-9
    assert abs(float(row[4]) - 775 / 3) < 1e-9
    assert row[5] == "20736"


def test_compute_spectral_leaves_uncertified_tree_count_blank(capsys):
    # the float product rounds to 4493714625921047; the true count is 4493714625921024
    code, out, _ = run(capsys, ["compute", "--family", "gn", "--n", "14", "--method", "spectral"])
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[5] == ""


def test_compute_markdown(capsys):
    code, out, _ = run(
        capsys, ["compute", "--family", "cycle", "--n", "5", "--format", "markdown"]
    )
    assert code == 0
    assert out.splitlines()[0].startswith("| family |")
    assert "| 10 |" in out.splitlines()[2]


def test_compute_closed_form_cycle(capsys):
    code, out, _ = run(
        capsys, ["compute", "--family", "cycle", "--n", "5", "--method", "closed-form"]
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[3] == "10"
    assert row[4] == ""  # no closed form for the weighted index of a cycle


def test_compute_usage_errors(capsys):
    assert run(capsys, ["compute"])[0] == 1
    assert run(capsys, ["compute", "--family", "gn"])[0] == 1
    assert run(capsys, ["compute", "--family", "gn", "--n", "2"])[0] == 1
    assert run(capsys, ["compute", "--family", "gn", "--n", "5", "--deleted", "1"])[0] == 1
    assert run(capsys, ["compute", "--family", "grn", "--n", "5", "--deleted", "9"])[0] == 1
    assert run(capsys, ["compute", "--family", "path", "--n", "4", "--method", "closed-form"])[0] == 1
    assert run(capsys, ["compute", "--family", "nosuch", "--n", "4"])[0] == 1


def test_compute_refuses_options_that_the_family_or_input_does_not_take(tmp_path, capsys):
    edge_file = tmp_path / "k6.edges"
    edge_file.write_text(serialize_edge_list(prism_family(PrismSpec(3))))
    grn_only = "--deleted/--r apply only to --family grn"
    family_only = "--n, --deleted and --r apply only to --family"
    seed_only = "--seed applies only with --r"
    for method in ("exact", "spectral", "closed-form", "all"):
        # closed-form refuses path and --input first, whatever else is given
        seed_or_no_closed_form = CLOSED_FORM_FAMILIES if method == "closed-form" else seed_only
        for argv, message in [
            (["--family", "cycle", "--n", "5", "--deleted", "2"], grn_only),
            (["--family", "cycle", "--n", "5", "--r", "1"], grn_only),
            (["--family", "path", "--n", "5", "--deleted", "2"], grn_only),
            (["--family", "path", "--n", "5", "--r", "0"], grn_only),
            (["--input", str(edge_file), "--n", "6"], family_only),
            (["--input", str(edge_file), "--deleted", "1"], family_only),
            (["--input", str(edge_file), "--r", "1"], family_only),
            (["--family", "cycle", "--n", "5", "--seed", "1"], seed_only),
            (["--family", "gn", "--n", "5", "--seed", "1"], seed_only),
            (["--family", "grn", "--n", "5", "--seed", "1"], seed_only),
            (["--family", "grn", "--n", "5", "--deleted", "2", "--seed", "9"], seed_only),
            (["--family", "path", "--n", "5", "--seed", "1"], seed_or_no_closed_form),
            (["--input", str(edge_file), "--seed", "1"], seed_or_no_closed_form),
        ]:
            code, out, err = run(capsys, ["compute", *argv, "--method", method])
            assert (code, out, err) == (1, "", f"error: {message}\n"), argv


def test_compute_closed_form_refuses_an_input_before_opening_it(tmp_path, capsys, monkeypatch):
    from invkit import cli

    def no_load(*args):
        raise AssertionError("opened the input")

    monkeypatch.setattr(cli, "_load_input_graph", no_load)
    disconnected = tmp_path / "disc.edges"
    disconnected.write_text("4 2\n0 1\n2 3\n")
    for path in (str(tmp_path / "missing.edges"), str(disconnected)):
        code, out, err = run(capsys, ["compute", "--input", path, "--method", "closed-form"])
        assert (code, out, err) == (1, "", f"error: {CLOSED_FORM_FAMILIES}\n"), path


@pytest.mark.parametrize("method", ["exact", "all"])
def test_compute_reports_a_library_value_error_as_a_usage_error(capsys, method):
    code, out, err = run(capsys, ["compute", "--family", "path", "--n", "1", "--method", method])
    assert (code, out, err) == (1, "", "error: resistance needs at least 2 vertices\n")


def test_compute_disconnected_input_exits_2(tmp_path, capsys):
    edge_file = tmp_path / "disc.edges"
    for text, message in [
        ("4 2\n0 1\n2 3\n", "disconnected"),
        ("5 4\n0 1\n1 2\n0 2\n3 4\n", "input graph is disconnected"),  # enough edges, found by the BFS
        ("1 0\n", "at least 2 vertices"),
    ]:
        edge_file.write_text(text)
        for method in ("exact", "spectral", "all"):
            code, out, err = run(capsys, ["compute", "--input", str(edge_file), "--method", method])
            assert code == 2
            assert out == ""
            assert message in err


def test_a_disconnected_graph_error_from_the_library_exits_2(capsys, monkeypatch):
    from invkit import exact
    from invkit.graphs import DisconnectedGraphError

    def disconnected(g):
        raise DisconnectedGraphError("graph is disconnected")

    monkeypatch.setattr(exact, "full_report", disconnected)
    code, out, err = run(capsys, ["compute", "--family", "gn", "--n", "4"])
    assert (code, out, err) == (2, "", "error: graph is disconnected\n")


def test_compute_refuses_too_few_edges_before_building_the_graph(tmp_path, capsys, monkeypatch):
    from invkit import graphs

    real = graphs.Graph.from_edges.__func__

    def small_only(cls, vertex_count, edges):
        assert vertex_count <= 100, f"asked to build a graph on {vertex_count} vertices"
        return real(cls, vertex_count, edges)

    monkeypatch.setattr(graphs.Graph, "from_edges", classmethod(small_only))
    edge_file = tmp_path / "sparse.edges"
    for text in ("1000000000 0\n", "1000000000 2\n0 1\n1 2\n", "5 3\n0 1\n1 2\n3 4\n"):
        edge_file.write_text(text)
        for method in ("exact", "spectral", "all"):
            code, out, err = run(capsys, ["compute", "--input", str(edge_file), "--method", method])
            assert (code, out, err) == (2, "", "error: input graph is disconnected\n")
    # every line is still validated first, so parse errors keep their messages
    edge_file.write_text("1000000000 1\n0 0\n")
    code, out, err = run(capsys, ["compute", "--input", str(edge_file)])
    assert (code, out) == (2, "")
    assert "line 2: self-loop" in err


def test_compute_refuses_dense_methods_above_the_vertex_cap_before_building(tmp_path, capsys, monkeypatch):
    from invkit import cli, graphs

    def no_build(*args):
        raise AssertionError("built a graph")

    for name in ("prism_family", "cycle", "path"):
        monkeypatch.setattr(graphs, name, no_build)
    monkeypatch.setattr(graphs.Graph, "from_edges", classmethod(no_build))
    cap = cli.DENSE_VERTEX_CAP
    edge_file = tmp_path / "long.edges"
    edge_file.write_text(f"{cap + 1} {cap}\n" + "".join(f"{i} {i + 1}\n" for i in range(cap)))
    for method in ("exact", "spectral", "all"):
        for argv, exit_code in [
            (["--family", "gn", "--n", str(cap // 2 + 1)], 1),
            (["--family", "grn", "--n", str(cap // 2 + 1), "--r", "3"], 1),
            (["--family", "cycle", "--n", str(cap + 1)], 1),
            (["--family", "path", "--n", str(cap + 1)], 1),
            (["--input", str(edge_file)], 2),
        ]:
            code, out, err = run(capsys, ["compute", *argv, "--method", method])
            assert (code, out) == (exit_code, "")
            assert f"{cap}-vertex limit" in err and "--method closed-form" in err
        with pytest.raises(AssertionError, match="built a graph"):  # the cap itself is allowed
            main(["compute", "--family", "gn", "--n", str(cap // 2), "--method", method])


def test_compute_closed_form_validates_without_building_the_graph(capsys, monkeypatch):
    from invkit import graphs

    def no_graph(*args):
        raise AssertionError("built or searched a graph")

    for name in ("prism_family", "cycle", "is_connected"):
        monkeypatch.setattr(graphs, name, no_graph)
    for argv, expected in [
        (["--family", "gn", "--n", "5"], "gn,5,0,55/3,1375/3,311040,65,1625,closed-form"),
        (["--family", "grn", "--n", "5", "--deleted", "2,4"], "grn,5,2,20,,138240,67,,closed-form"),
        (["--family", "cycle", "--n", "5"], "cycle,5,,10,,,,,closed-form"),
    ]:
        code, out, err = run(capsys, ["compute", *argv, "--method", "closed-form"])
        assert (code, err) == (0, ""), err
        assert out.splitlines()[1] == expected
    code, out, _ = run(capsys, ["compute", "--family", "grn", "--n", "40", "--r", "7", "--method", "closed-form"])
    assert (code, out.splitlines()[1].split(",")[2]) == (0, "7")
    for argv, message in [
        (["--family", "gn"], "--family requires --n"),
        (["--family", "gn", "--n", "2"], "rim length must be >= 3, got 2"),
        (["--family", "cycle", "--n", "2"], "cycle needs n >= 3, got 2"),
        (["--family", "path", "--n", "0"], "path needs n >= 1, got 0"),
        (["--family", "path", "--n", "4"], "closed-form method needs --family gn, grn, or cycle"),
        (["--family", "gn", "--n", "5", "--r", "1"], "--deleted/--r apply only to --family grn"),
        (["--family", "cycle", "--n", "5", "--deleted", "2"], "--deleted/--r apply only to --family grn"),
        (["--family", "path", "--n", "4", "--r", "1"], "--deleted/--r apply only to --family grn"),
        (["--family", "grn", "--n", "5", "--deleted", "9"], "deleted positions [9] outside 1..5"),
        (["--family", "grn", "--n", "5", "--deleted", "x"], "--deleted expects comma-separated integers, got 'x'"),
        (["--family", "grn", "--n", "5", "--r", "6"], "--r must lie in 0..5"),
        (["--family", "grn", "--n", "5", "--r", "1", "--deleted", "1"], "give either --deleted or --r, not both"),
    ]:
        code, out, err = run(capsys, ["compute", *argv, "--method", "closed-form"])
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_compute_closed_form_refuses_n_above_its_limit_before_any_arithmetic(capsys, monkeypatch):
    from invkit import cli, closed_form

    cap = cli.CLOSED_FORM_N_CAP
    assert cap == 100_000
    code, out, err = run(capsys, ["compute", "--family", "gn", "--n", str(cap), "--method", "closed-form"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith(f"gn,{cap},0,")

    def no_arithmetic(*args):
        raise AssertionError("evaluated a closed form")

    for name in ("family_report", "kf_cycle"):
        monkeypatch.setattr(closed_form, name, no_arithmetic)
    for family in ("gn", "grn", "cycle", "path"):
        code, out, err = run(capsys, ["compute", "--family", family, "--n", str(cap + 1), "--method", "closed-form"])
        assert (code, out) == (1, "")
        assert err == f"error: --n {cap + 1} is above the {cap} limit of --method closed-form\n"


def test_table_refuses_a_tau_column_above_the_closed_form_limit(capsys, monkeypatch):
    from invkit import cli, closed_form

    cap = cli.CLOSED_FORM_N_CAP
    above = f"{cap + 1}..{cap + 1}"
    real = closed_form.tau_gn

    def no_tau(n):
        raise AssertionError("evaluated tau")

    monkeypatch.setattr(closed_form, "tau_gn", no_tau)
    for columns in ("tau", "kf,tau"):
        code, out, err = run(capsys, ["table", "--family", "gn", "--range", above, "--columns", columns])
        assert (code, out) == (1, ""), columns
        assert err == f"error: --range {above} is above the {cap} limit of the tau column\n"
    code, out, err = run(capsys, ["table", "--family", "gn", "--range", above, "--columns", "kf"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith(f"G_{cap + 1},")
    monkeypatch.setattr(closed_form, "tau_gn", real)
    code, out, err = run(capsys, ["table", "--family", "gn", "--range", f"{cap}..{cap}", "--columns", "tau"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith(f"G_{cap},")


def test_compute_malformed_input_exits_2(tmp_path, capsys):
    edge_file = tmp_path / "bad.edges"
    edge_file.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, ["compute", "--input", str(edge_file)])
    assert code == 2
    assert "line 2" in err


def test_compute_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, ["compute", "--input", "/nonexistent/x.edges"])
    assert code == 2


def test_compute_closed_form_grn_fills_the_weighted_fields_of_an_intact_member(capsys):
    code, out, _ = run(capsys, ["compute", "--family", "grn", "--n", "5", "--method", "closed-form"])
    assert code == 0
    assert out.splitlines()[1] == "grn,5,0,55/3,1375/3,311040,65,1625,closed-form"


@pytest.mark.parametrize("formula, field", [("kf_star_gn", "kf_star"), ("gutman_gn", "gutman")])
def test_compute_all_checks_the_weighted_fields_of_an_intact_grn_member(capsys, monkeypatch, formula, field):
    from invkit import closed_form

    real = getattr(closed_form, formula)
    monkeypatch.setattr(closed_form, formula, lambda n: real(n) + 1)
    code, _, err = run(capsys, ["compute", "--family", "grn", "--n", "5", "--method", "all"])
    assert code == 3
    assert f"MISMATCH: closed-form {field}: " in err


def _digits(value: int) -> str:
    """Decimal digits of an int; Decimal renders them past the interpreter's int-to-str limit."""
    return str(Decimal(value))


@pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
def test_compute_prints_integers_past_the_digit_limit(capsys, fmt):
    n = 3990  # tau has 4305 digits
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(capsys, ["compute", "--family", "gn", "--n", str(n), "--method", "closed-form", "--format", fmt])
    assert code == 0, err
    if fmt == "json":
        tau = json.loads(out, parse_int=str)["tau"]
    elif fmt == "csv":
        tau = out.splitlines()[1].split(",")[5]
    else:
        tau = out.splitlines()[2].split(" | ")[5]
    assert tau == _digits(tau_gn(n))
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_table_prints_integers_past_the_digit_limit(capsys):
    code, out, err = run(capsys, ["table", "--family", "gn", "--range", "3990..3992", "--columns", "kf,tau"])
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(g, tau) for g, _, tau in rows] == [(f"G_{n}", _digits(tau_gn(n))) for n in range(3990, 3993)]


def test_compute_still_refuses_a_header_past_the_digit_limit(tmp_path, capsys):
    edge_file = tmp_path / "huge.edges"
    edge_file.write_text("1" + "0" * 4999 + " 0\n")
    code, out, err = run(capsys, ["compute", "--input", str(edge_file)])
    assert (code, out) == (2, "")
    assert "line 1: non-integer header" in err


# ---------------------------------------------------------------------------
# table


def test_table1_golden_bytes(capsys):
    code, out, _ = run(capsys, ["table", "--table", "1"])
    assert code == 0
    assert out == (GOLDEN / "table1.csv").read_text()


def test_table2_golden_bytes(capsys):
    code, out, _ = run(capsys, ["table", "--table", "2"])
    assert code == 0
    assert out == (GOLDEN / "table2.csv").read_text()


def test_table1_specific_row(capsys):
    _, out, _ = run(capsys, ["table", "--table", "1"])
    assert "G_7,44.33,62705664" in out.splitlines()


def test_table2_specific_row(capsys):
    _, out, _ = run(capsys, ["table", "--table", "2"])
    assert "G_14,7320.83" in out.splitlines()


def test_table_family_range_columns(capsys):
    code, out, _ = run(
        capsys, ["table", "--family", "gn", "--range", "3..3", "--columns", "kf"]
    )
    assert code == 0
    assert out.splitlines() == ["graph,kf", "G_3,5.00"]


def test_table_usage_errors(capsys):
    assert run(capsys, ["table"])[0] == 1
    assert run(capsys, ["table", "--family", "gn", "--range", "9..3"])[0] == 1
    assert run(capsys, ["table", "--family", "gn", "--range", "2..4"]) == (
        1, "", "error: --range needs 3 <= A <= B, got '2..4'\n"
    )
    assert run(capsys, ["table", "--family", "gn", "--range", "3..5", "--columns", "bogus"])[0] == 1
    assert run(capsys, ["table", "--family", "gn", "--range", "3-5"])[0] == 1
    assert run(capsys, ["table", "--family", "gn", "--range", "a..b"])[0] == 1
    assert run(capsys, ["table", "--family", "gn"])[0] == 1
    for argv, message in [
        (["--table", "1", "--family", "gn"], "--table takes no --family, --range or --columns"),
        (["--table", "2", "--range", "3..5"], "--table takes no --family, --range or --columns"),
        (["--table", "1", "--columns", "kf"], "--table takes no --family, --range or --columns"),
        (["--family", "gn", "--range", "3..5", "--columns", ","], "--columns names no column, got ','"),
        (["--family", "gn", "--range", "3..5", "--columns", ""], "--columns names no column, got ''"),
    ]:
        assert run(capsys, ["table", *argv]) == (1, "", f"error: {message}\n"), argv


# ---------------------------------------------------------------------------
# ratio


def test_ratio_single_n(capsys):
    code, out, _ = run(capsys, ["ratio", "--family", "gn", "--n", "3"])
    assert code == 0
    assert out.splitlines()[1] == "3,0,0.333333,0.166667"


def test_ratio_range_deviation_decreasing(capsys):
    code, out, _ = run(
        capsys, ["ratio", "--family", "gn", "--n-range", "10..100", "--step", "10"]
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == [str(n) for n in range(10, 101, 10)]
    devs = [float(r[3]) for r in rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_ratio_grn_all_deleted(capsys):
    from invkit import kf_grn, wiener_grn

    code, out, _ = run(capsys, ["ratio", "--family", "grn", "--n", "50", "--r", "50"])
    assert code == 0
    expected = format_fraction(Fraction(kf_grn(50, 50), wiener_grn(50, 50)), 6)
    assert out.splitlines()[1].split(",")[2] == expected


def test_ratio_usage_errors(capsys):
    assert run(capsys, ["ratio", "--family", "gn"])[0] == 1
    assert run(capsys, ["ratio", "--family", "gn", "--n", "3", "--n-list", "4,5"])[0] == 1
    assert run(capsys, ["ratio", "--family", "grn", "--n", "5", "--r", "9"])[0] == 1
    assert run(capsys, ["ratio", "--family", "gn", "--n-list", "a,b"])[0] == 1
    assert run(capsys, ["ratio", "--family", "cycle", "--n", "5"])[0] == 1
    assert run(capsys, ["ratio", "--n-range", "5..9", "--step", "0"])[0] == 1
    for argv, message in [
        (["--family", "gn", "--n", "5", "--r", "2"], "--r applies only to --family grn"),
        (["--n-range", "5..9", "--r", "1"], "--r applies only to --family grn"),
        (["--family", "gn", "--n-list", ""], "--n-list names no n, got ''"),
        (["--family", "grn", "--n-list", ","], "--n-list names no n, got ','"),
        (["--n", "5", "--step", "3"], "--step applies only with --n-range"),
        (["--family", "grn", "--n-list", "4,5", "--step", "1", "--r", "1"], "--step applies only with --n-range"),
        (["--n-range", "2..9"], "--n-range needs 3 <= A <= B, got '2..9'"),
        (["--n-range", "3-5"], "--n-range expects A..B, got '3-5'"),
        (["--n-range", "a..b"], "--n-range expects integers, got 'a..b'"),
    ]:
        assert run(capsys, ["ratio", *argv]) == (1, "", f"error: {message}\n"), argv
    code, out, _ = run(capsys, ["ratio", "--family", "gn", "--n", "5", "--r", "0"])
    assert (code, out.splitlines()[1].split(",")[:2]) == (0, ["5", "0"])


def test_ratio_range_is_sliced_without_listing_it(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, _ = run(capsys, ["ratio", "--n-range", "3..2000000", "--step", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["3", "1000003"]
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["ratio", "--n-list", "2"],
        ["ratio", "--family", "grn", "--n-list", "20,5", "--r", "10"],
    ],
)
def test_ratio_validates_every_row_before_printing(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# verify


def test_verify_small_sweep_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--n-max", "6", "--exhaustive-d-max", "5"])
    assert code == 0
    assert out.strip().endswith("PASS: all checks agree")


@pytest.mark.parametrize("n_max", ["2", "0", "-1"])
def test_verify_rejects_an_empty_sweep(capsys, n_max):
    code, out, err = run(capsys, ["verify", "--n-max", n_max])
    assert code == 1
    assert out == ""
    assert "--n-max" in err


@pytest.mark.parametrize("n_max, d_max", [("26", "26"), ("17", "17"), ("40", "20")])
def test_verify_rejects_an_oversized_exhaustive_sweep(capsys, monkeypatch, n_max, d_max):
    from invkit import cli

    def must_not_build(*args):
        raise AssertionError("cases were built before the sweep size was checked")

    monkeypatch.setattr(cli, "_verify_cases", must_not_build)
    code, out, err = run(capsys, ["verify", "--n-max", n_max, "--exhaustive-d-max", d_max])
    assert code == 1
    assert out == ""
    assert "--exhaustive-d-max" in err


@pytest.mark.parametrize("n_max", ["65", "300"])
def test_verify_rejects_an_oversized_sampled_sweep(capsys, monkeypatch, n_max):
    from invkit import cli

    def must_not_build(*args):
        raise AssertionError("cases were built before the sweep size was checked")

    monkeypatch.setattr(cli, "_verify_cases", must_not_build)
    code, out, err = run(capsys, ["verify", "--n-max", n_max])
    assert code == 1
    assert out == ""
    assert "--n-max" in err


def test_verify_accepts_the_largest_sampled_sweep(monkeypatch):
    from invkit import cli

    class Reached(Exception):
        pass

    def reached(n_max, exhaustive_max, rng):
        raise Reached(n_max, exhaustive_max)

    monkeypatch.setattr(cli, "_verify_cases", reached)
    with pytest.raises(Reached) as info:
        cli.main(["verify", "--n-max", "64"])
    assert info.value.args == (64, 8)


def test_verify_fully_exhaustive_to_eight(capsys):
    code, out, _ = run(capsys, ["verify", "--n-max", "8", "--exhaustive-d-max", "8"])
    assert code == 0
    assert "deleted-edge sweep: 504 members" in out


def test_compute_all_flags_disagreement(capsys, monkeypatch):
    """compute --method all exits nonzero when a route disagrees."""
    from invkit import closed_form

    real = closed_form.kf_grn
    monkeypatch.setattr(closed_form, "kf_grn", lambda n, r: real(n, r) + 1)
    code, _, err = run(capsys, ["compute", "--family", "gn", "--n", "4", "--method", "all"])
    assert code == 3
    assert "MISMATCH" in err


@pytest.mark.parametrize(
    "name, edit, line",
    [
        ("spectral_kf", lambda kf: 2 * kf, "MISMATCH: spectral kf "),
        ("spectral_kf_star", lambda kf: 2 * kf, "MISMATCH: spectral kf_star "),
        ("spectral_tree_count", lambda tc: type(tc)(tc.log_value + 1, None), "MISMATCH: spectral tau log "),
    ],
    ids=["kf", "kf_star", "tau"],
)
def test_compute_all_flags_a_spectral_disagreement(capsys, monkeypatch, name, edit, line):
    from invkit import spectral

    real = getattr(spectral, name)
    monkeypatch.setattr(spectral, name, lambda *args: edit(real(*args)))
    code, _, err = run(capsys, ["compute", "--family", "gn", "--n", "4", "--method", "all"])
    assert code == 3
    assert err.startswith(line) and err.count("\n") == 1, err


def test_compute_exits_3_when_the_resistances_fail_their_certificate(capsys, monkeypatch):
    from invkit import exact

    real = exact._inverse_from_u

    def corrupted(*args):
        y = real(*args)
        y[-1][-1] += 1
        return y

    monkeypatch.setattr(exact, "_inverse_from_u", corrupted)
    for method in ("exact", "all"):
        code, out, err = run(capsys, ["compute", "--family", "grn", "--n", "5", "--r", "2", "--method", method])
        assert code == 3
        assert out == ""
        assert "Foster" in err


def test_compute_exits_3_when_kf_and_wiener_fail_their_certificate(capsys, monkeypatch):
    from invkit import exact

    monkeypatch.setattr(exact, "wiener", lambda g: 0)
    code, out, err = run(capsys, ["compute", "--family", "gn", "--n", "4", "--method", "exact"])
    assert (code, out) == (3, "")
    assert "Kf <= W" in err


@pytest.mark.parametrize("formula, invariant", [("kf_grn", "kf"), ("tau_grn", "tau"), ("wiener_grn", "wiener")])
def test_verify_detects_sabotaged_formula(capsys, monkeypatch, formula, invariant):
    """A closed form off by one at (n, r) = (5, 1) surfaces as mismatches that name it."""
    from invkit import closed_form

    real = getattr(closed_form, formula)
    monkeypatch.setattr(closed_form, formula, lambda n, r: real(n, r) + (1 if (n, r) == (5, 1) else 0))
    code, out, _ = run(capsys, ["verify", "--n-max", "5", "--exhaustive-d-max", "5"])
    assert code == 3
    lines = [line for line in out.splitlines() if line.startswith("MISMATCH")]
    assert len(lines) == 5  # one for each single cut of the 5-rim
    assert all(line.startswith("MISMATCH: n=5 D=(") and f" invariant={invariant} " in line for line in lines)


@pytest.mark.parametrize("formula, invariant", [("gutman_gn", "gutman"), ("kf_star_gn", "kf_star")])
def test_verify_checks_weighted_indices_of_intact_members(capsys, monkeypatch, formula, invariant):
    from invkit import closed_form

    real = getattr(closed_form, formula)
    monkeypatch.setattr(closed_form, formula, lambda n: real(n) + 1)
    code, out, _ = run(capsys, ["verify", "--n-max", "5"])
    assert code == 3
    lines = [line for line in out.splitlines() if line.startswith("MISMATCH")]
    assert lines and all(f"D=() invariant={invariant} " in line for line in lines)
    assert len(lines) == 3  # one intact member for each n = 3, 4, 5


def _edit_n5_split(monkeypatch, edit):
    """Apply `edit` to the rim-swap split of every n = 5 prism member."""
    from invkit import spectral

    real = spectral.involution_split

    def split(g, sigma, normalized=False):
        result = real(g, sigma, normalized)
        if g.vertex_count == 10:
            edit(result)
        return result

    monkeypatch.setattr(spectral, "involution_split", split)


def _shift_split_spectrum(monkeypatch):
    _edit_n5_split(monkeypatch, lambda split: setattr(split, "eigs_a", split.eigs_a + 1e-3))


def _shift_cycle_spectrum(monkeypatch):
    from invkit import spectral

    real = spectral.cycle_spectrum
    monkeypatch.setattr(spectral, "cycle_spectrum", lambda n: real(n) + (1e-3 if n == 5 else 0.0))


def _bump_block_a(monkeypatch):
    _edit_n5_split(monkeypatch, lambda split: setattr(split, "block_a", split.block_a + 1))


def _reverse_block_s(monkeypatch):
    # the same number of 4s, at the wrong positions unless D is a palindrome
    _edit_n5_split(monkeypatch, lambda split: setattr(split, "block_s", split.block_s[::-1, ::-1]))


@pytest.mark.parametrize(
    "check, sabotage, located",
    [
        ("split-spectrum", _shift_split_spectrum, ["()", "(1, 2)", "(1, 2, 3, 4, 5)"]),
        ("predicted-spectrum", _shift_cycle_spectrum, ["()", "(1, 2)", "(1, 2, 3, 4, 5)"]),
        ("block-a", _bump_block_a, ["()", "(1, 2)", "(1, 2, 3, 4, 5)"]),
        ("block-s", _reverse_block_s, ["(1, 2)"]),
    ],
)
def test_verify_detects_a_broken_spectrum_split(capsys, monkeypatch, check, sabotage, located):
    """Each split check runs on the first member of every (n, r), r in {0, n // 2, n}."""
    sabotage(monkeypatch)
    code, out, _ = run(capsys, ["verify", "--n-max", "6"])
    assert code == 3
    lines = [line for line in out.splitlines() if line.startswith("MISMATCH")]
    assert [line.split(" invariant=")[0] for line in lines] == [f"MISMATCH: n=5 D={d}" for d in located]
    assert all(line.split(" invariant=")[1].startswith(f"{check} expected=") for line in lines)
    assert "spectrum split: 12 members" in out


def test_verify_predicts_the_spectrum_from_the_cut_set(capsys, monkeypatch):
    """A split graph that lost its cuts still matches its own block_s, but not D."""
    from invkit import graphs, spectral

    monkeypatch.setattr(spectral, "prism_family", lambda spec: graphs.prism_family(graphs.PrismSpec(spec.n)))
    code, out, _ = run(capsys, ["verify", "--n-max", "4"])
    assert code == 3
    located = {line.split(" expected=")[0] for line in out.splitlines() if line.startswith("MISMATCH")}
    assert located == {
        f"MISMATCH: n={n} D={d} invariant={check}"
        for n, cut in ((3, ["(1,)", "(1, 2, 3)"]), (4, ["(1, 2)", "(1, 2, 3, 4)"]))
        for d in cut
        for check in ("predicted-spectrum", "block-s")
    }


def test_verify_runs_in_one_process_whatever_the_environment(capsys, monkeypatch):
    """verify starts no worker processes, even where an old INVKIT_THREADS is still set."""
    import concurrent.futures

    monkeypatch.delenv("INVKIT_THREADS", raising=False)
    _, expected, _ = run(capsys, ["verify", "--n-max", "5", "--seed", "9"])

    def no_pool(*args, **kwargs):
        raise AssertionError("verify started a process pool")

    monkeypatch.setenv("INVKIT_THREADS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run(capsys, ["verify", "--n-max", "5", "--seed", "9"]) == (0, expected, "")


# ---------------------------------------------------------------------------
# determinism


def test_compute_random_deletion_deterministic(capsys):
    argv = ["compute", "--family", "grn", "--n", "9", "--r", "4", "--seed", "11"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    # without --seed, --r draws with seed 0
    assert run(capsys, argv[:-2]) == run(capsys, [*argv[:-2], "--seed", "0"])


def test_verify_deterministic_bytes(capsys):
    argv = ["verify", "--n-max", "5", "--seed", "3"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0


# ---------------------------------------------------------------------------
# import footprint

_FOOTPRINT = """
import contextlib, io, sys
from invkit import cli
for argv in COMMANDS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded = sorted(m for m in ("numpy", "concurrent.futures") if m in sys.modules)
assert not loaded, f"imported by table, ratio and compute without the spectral route: {loaded}"

import invkit
for name in invkit.__all__:
    getattr(invkit, name)
try:
    invkit.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("invkit.no_such_name resolved")
"""


def test_cli_without_the_spectral_route_imports_neither_numpy_nor_the_pool(tmp_path):
    edges = tmp_path / "k4.edges"
    edges.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
    commands = [
        ["table", "--table", "1"],
        ["ratio", "--family", "grn", "--n-range", "3..30", "--step", "3", "--r", "2"],
        ["compute", "--family", "grn", "--n", "40", "--r", "7", "--method", "closed-form", "--format", "json"],
        ["compute", "--family", "grn", "--n", "6", "--deleted", "2,5", "--method", "exact"],
        ["compute", "--input", str(edges), "--format", "json"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", f"COMMANDS = {commands!r}\n{_FOOTPRINT}"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
