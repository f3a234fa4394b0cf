"""Command-line front end: compute invariants, print reference tables, verify formulas.

Exit codes: 0 success, 1 usage or parameter error, 2 bad or disconnected
input graph, 3 verification mismatch (including cross-method disagreement
under `compute --method all`, and an exact result that fails its
certificate). A subcommand returns 0, or 3 for a mismatch it found; for an
error it raises, `main` picks the code from the error's type: `ValueError`
(the CLI's or the library's) 1, `_BadInputError` (its messages name the
input file) and `DisconnectedGraphError` 2, `ArithmeticError` 3.

`verify` walks one list of prism members; the first member of each (n, r)
with r in {0, n // 2, n} also runs `spectral.prism_split_disagreements`.
`spectral`, the one module that imports numpy, is imported only by the code
that uses it, so `table`, `ratio` and the exact and closed-form routes of
`compute` start without it.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import closed_form, exact, graphs

SPECTRAL_RTOL = 1e-6  # exact-vs-spectral agreement budget

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_MISMATCH = 3

EXHAUSTIVE_N_CAP = 16  # verify builds 2^n members for every exhaustive rim length n
N_MAX_CAP = 64  # and about 5(n + 1) sampled ones, each an exact V = 2n solve, for every larger n
# compute's exact and spectral methods hold V x V matrices (the resistances, the
# grounded inverse, numpy's Laplacian), and the exact solve grows as V^3. The
# worst case at the cap is a graph with no twin pairing, which the exact solve
# cannot halve: a random graph of average degree 4.5 at V = 1600 took 699 s and
# 1.1 GB under --method exact on a 2-vCPU host shared with another job. A prism
# member at V = 1600 splits into twins and took 2.4-2.7 s (11-21 s beside that job)
# and 300 MB under --method all
DENSE_VERTEX_CAP = 1600
# compute --method closed-form and table's tau column print tau, which has about 1.08 n digits,
# and int-to-str is quadratic in the digits: 0.21 s at n = 10^5 and 20 s at 10^6 on a 2-vCPU VM
CLOSED_FORM_N_CAP = 100_000


class _BadInputError(Exception):
    pass


@contextmanager
def _full_integers():
    """Print integers of any length: the interpreter's digit limit is for parsing input, not output."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7 there is no limit
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def format_fraction(q, places: int = 2) -> str:
    """Fixed-point decimal rendering of an exact rational, round-half-even."""
    scaled = Fraction(q) * 10**places
    units = round(scaled)
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def render_exact(q) -> str:
    """Integer or p/q string for an exact value."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# compute


def _parse_deleted(text: str) -> frozenset[int]:
    """The positions of --deleted; `graphs.PrismSpec` checks their range."""
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"--deleted expects comma-separated integers, got {text!r}") from None


def _check_dense_budget(vertex_count: int, method: str, error: type[Exception]) -> None:
    """Refuse a dense method on a graph above DENSE_VERTEX_CAP vertices, before it is built."""
    if method != "closed-form" and vertex_count > DENSE_VERTEX_CAP:
        raise error(
            f"{vertex_count} vertices is above the {DENSE_VERTEX_CAP}-vertex limit of --method {method}, "
            "which holds dense V x V matrices; use --method closed-form for the gn, grn and cycle families"
        )


def _family_member(args) -> tuple[str, int, graphs.PrismSpec | None]:
    """(family, n, spec) for a --family invocation, validated without building the graph.

    spec is the prism member for gn and grn, and None for cycle and path.
    """
    if args.n is None:
        raise ValueError("--family requires --n")
    n = args.n
    fam = args.family
    if args.method == "closed-form" and n > CLOSED_FORM_N_CAP:
        raise ValueError(f"--n {n} is above the {CLOSED_FORM_N_CAP} limit of --method closed-form")
    _check_dense_budget(2 * n if fam in ("gn", "grn") else n, args.method, ValueError)
    if fam != "grn" and (args.deleted is not None or args.r is not None):
        raise ValueError("--deleted/--r apply only to --family grn")
    if fam in ("cycle", "path"):
        least = {"cycle": 3, "path": 1}[fam]  # the smallest n that graphs.cycle and graphs.path accept
        if n < least:
            raise ValueError(f"{fam} needs n >= {least}, got {n}")
        return fam, n, None
    if args.deleted is not None and args.r is not None:
        raise ValueError("give either --deleted or --r, not both")
    deleted = frozenset() if args.deleted is None else _parse_deleted(args.deleted)
    if args.r is not None:
        if not 0 <= args.r <= n:
            raise ValueError(f"--r must lie in 0..{n}")
        seed = 0 if args.seed is None else args.seed
        deleted = frozenset(random.Random(seed).sample(range(1, n + 1), args.r))
    return fam, n, graphs.PrismSpec(n, deleted)


def _family_graph(fam: str, n: int, spec: graphs.PrismSpec | None) -> graphs.Graph:
    if spec is not None:
        return graphs.prism_family(spec)
    return graphs.cycle(n) if fam == "cycle" else graphs.path(n)


def _load_input_graph(path: str, method: str) -> graphs.Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _BadInputError(f"cannot read {path}: {exc}") from None
    try:
        n, edges = graphs._read_edge_list(text)
    except ValueError as exc:  # EdgeListParseError included
        raise _BadInputError(f"{path}: {exc}") from None
    if n < 2:
        raise _BadInputError(f"{path}: need at least 2 vertices, got {n}")
    if len(edges) < n - 1:  # refused before the graph allocates anything for its n vertices
        raise _BadInputError("input graph is disconnected")
    _check_dense_budget(n, method, _BadInputError)
    g = graphs.Graph.from_edges(n, edges)
    if not graphs.is_connected(g):
        raise _BadInputError("input graph is disconnected")
    return g


def _report_fields(rep: exact.InvariantReport | closed_form.FamilyFormulaResult) -> dict:
    """The five invariant fields of a record, from an exact or a closed-form report."""
    tau = rep.tree_count if isinstance(rep, exact.InvariantReport) else rep.tau
    return {"kf": rep.kf, "kf_star": rep.kf_star, "tau": tau, "wiener": rep.wiener, "gutman": rep.gutman}


def _disagreements(got: dict, expected: dict) -> list[tuple[str, object, object]]:
    """(field, expected, got) for every closed-form field that `got` contradicts; None fields are unknown."""
    return [
        (name, want, got[name]) for name, want in expected.items() if want is not None and got[name] != want
    ]


def _closed_form_fields(family: str, n: int, r: int | None) -> dict:
    if family == "cycle":
        return {"kf": closed_form.kf_cycle(n), "kf_star": None, "tau": None, "wiener": None, "gutman": None}
    return _report_fields(closed_form.family_report(n, r))


def _spectral_fields(g: graphs.Graph) -> tuple[float, float, spectral.TreeCount]:
    """Kf, Kf* and the spanning-tree count from the Laplacian and normalized-Laplacian spectra."""
    from . import spectral

    eigs_l = spectral.eigenvalues_sym(spectral.laplacian(g))
    eigs_nl = spectral.eigenvalues_sym(spectral.normalized_laplacian(g))
    return (
        spectral.spectral_kf(eigs_l, g.vertex_count),
        spectral.spectral_kf_star(eigs_nl, g.edge_count),
        spectral.spectral_tree_count(eigs_l, g.vertex_count),
    )


def _rel_err(approx: float, truth) -> float:
    t = float(truth)  # an exact Kf or Kf*, positive on every graph compute accepts
    return abs(approx - t) / t


@_full_integers()
def _emit_record(record: dict, fmt: str) -> None:
    keys = ("family", "n", "r", "kf", "kf_star", "tau", "wiener", "gutman", "method")
    if fmt == "json":
        obj = {"family": record["family"], "n": record["n"], "r": record["r"]}
        for name in ("kf", "kf_star"):
            val = record[name]
            num, den = (None, None) if val is None else val.as_integer_ratio()
            obj[f"{name}_num"] = num
            obj[f"{name}_den"] = den
        for name in ("tau", "wiener", "gutman"):
            obj[name] = record[name]
        obj["method"] = record["method"]
        print(json.dumps(obj))
        return

    def cell(val) -> str:
        if val is None:
            return ""
        if isinstance(val, float):
            return repr(val)
        if isinstance(val, Fraction):
            return render_exact(val)
        return str(val)

    cells = [cell(record[k]) for k in keys]
    if fmt == "csv":
        print(",".join(keys))
        print(",".join(cells))
    else:  # markdown
        print("| " + " | ".join(keys) + " |")
        print("|" + "---|" * len(keys))
        print("| " + " | ".join(c or "-" for c in cells) + " |")


def cmd_compute(args) -> int:
    if (args.input is None) == (args.family is None):
        raise ValueError("give exactly one of --family or --input")
    method = args.method
    if args.input is not None:
        if args.n is not None or args.deleted is not None or args.r is not None:
            raise ValueError("--n, --deleted and --r apply only to --family")
        family = "file"
    else:
        family, n, spec = _family_member(args)
    if method == "closed-form" and family in ("file", "path"):
        raise ValueError("closed-form method needs --family gn, grn, or cycle")
    if args.seed is not None and args.r is None:
        raise ValueError("--seed applies only with --r")
    if family == "file":
        g = _load_input_graph(args.input, method)
        n, r = g.vertex_count, None
    else:
        r = None if spec is None else spec.r
        # every family member is connected, and the closed forms need only (n, r)
        g = None if method == "closed-form" else _family_graph(family, n, spec)

    record = {"family": family, "n": n, "r": r, "method": method}
    mismatches: list[str] = []

    exact_rep = None
    if method in ("exact", "all"):
        exact_rep = exact.full_report(g)
        record.update(_report_fields(exact_rep))
    if method in ("closed-form", "all") and family not in ("file", "path"):
        cf = _closed_form_fields(family, n, r)
        if method == "closed-form":
            record.update(cf)
        else:
            for name, want, got in _disagreements(record, cf):
                mismatches.append(f"closed-form {name}: expected {want}, exact gave {got}")
    if method in ("spectral", "all"):
        kf, kf_star, tc = _spectral_fields(g)
        if method == "spectral":
            record.update(kf=kf, kf_star=kf_star, tau=tc.value, wiener=exact.wiener(g), gutman=exact.gutman(g))
        else:
            if _rel_err(kf, exact_rep.kf) > SPECTRAL_RTOL:
                mismatches.append(f"spectral kf {kf} vs exact {exact_rep.kf}")
            if _rel_err(kf_star, exact_rep.kf_star) > SPECTRAL_RTOL:
                mismatches.append(f"spectral kf_star {kf_star} vs exact {exact_rep.kf_star}")
            log_exact = math.log(exact_rep.tree_count)
            if abs(tc.log_value - log_exact) > SPECTRAL_RTOL:
                mismatches.append(f"spectral tau log {tc.log_value} vs exact log {log_exact}")

    _emit_record(record, args.format)
    if mismatches:
        for m in mismatches:
            print(f"MISMATCH: {m}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# table

_COLUMN_FUNCS = {
    "kf": lambda n: format_fraction(closed_form.kf_gn(n), 2),
    "tau": lambda n: str(closed_form.tau_gn(n)),
    "kfstar": lambda n: format_fraction(closed_form.kf_star_gn(n), 2),
}

# --table N: (rim lengths, column keys, header line)
_TABLES = {
    1: (range(3, 12), ("kf", "tau"), "graph,kf,tau"),
    2: (range(3, 16), ("kfstar",), "graph,kf_star"),
}


def _parse_range(text: str, flag: str) -> range:
    """The rim lengths A..B of `flag` (--range or --n-range), which its messages name."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects A..B, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{flag} expects integers, got {text!r}") from None
    if a < 3 or b < a:
        raise ValueError(f"{flag} needs 3 <= A <= B, got {text!r}")
    return range(a, b + 1)


def cmd_table(args) -> int:
    if args.table is not None:
        if args.family is not None or args.range is not None or args.columns is not None:
            raise ValueError("--table takes no --family, --range or --columns")
        ns, columns, header = _TABLES[args.table]
    else:
        if args.family != "gn":
            raise ValueError("table mode supports --family gn")
        if args.range is None:
            raise ValueError("give --table 1|2 or --family gn --range A..B")
        ns = _parse_range(args.range, "--range")
        text = "kf,tau" if args.columns is None else args.columns
        columns = [c.strip() for c in text.split(",") if c.strip()]
        if not columns:
            raise ValueError(f"--columns names no column, got {args.columns!r}")
        unknown = [c for c in columns if c not in _COLUMN_FUNCS]
        if unknown:
            raise ValueError(f"unknown columns {unknown}; choose from kf, tau, kfstar")
        if "tau" in columns and ns[-1] > CLOSED_FORM_N_CAP:
            raise ValueError(f"--range {args.range} is above the {CLOSED_FORM_N_CAP} limit of the tau column")
        header = "graph," + ",".join(columns)
    print(header)
    with _full_integers():
        for n in ns:
            print(f"G_{n}," + ",".join(_COLUMN_FUNCS[c](n) for c in columns))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_cases(n_max: int, exhaustive_max: int, rng: random.Random):
    cases: list[tuple[int, tuple[int, ...]]] = []
    for n in range(3, n_max + 1):
        if n <= exhaustive_max:
            for mask in range(2**n):
                dset = tuple(i + 1 for i in range(n) if mask >> i & 1)
                cases.append((n, dset))
        else:
            for r in range(n + 1):
                seen = set()
                for _ in range(5):
                    dset = tuple(sorted(rng.sample(range(1, n + 1), r)))
                    if dset not in seen:
                        seen.add(dset)
                        cases.append((n, dset))
    return cases


def cmd_verify(args) -> int:
    if args.n_max < 3:
        raise ValueError(f"--n-max must be >= 3, got {args.n_max}")
    if args.n_max > N_MAX_CAP:
        raise ValueError(
            f"sampled sweep up to n = {args.n_max} is too large; lower --n-max to {N_MAX_CAP} or less"
        )
    if min(args.n_max, args.exhaustive_d_max) > EXHAUSTIVE_N_CAP:
        raise ValueError(
            f"exhaustive sweep up to n = {min(args.n_max, args.exhaustive_d_max)} is too large; "
            f"lower --exhaustive-d-max or --n-max to {EXHAUSTIVE_N_CAP} or less"
        )
    from . import spectral

    # closed form vs exact oracle: every deletion subset up to the cutoff, sampled
    # above it; r = 0 members also check the weighted indices, and the first
    # member of each (n, r) with r in {0, n // 2, n} checks the spectrum split
    cases = _verify_cases(args.n_max, args.exhaustive_d_max, random.Random(args.seed))
    mismatches: list[str] = []
    split_keys: set[tuple[int, int]] = set()
    for n, dset in cases:
        spec = graphs.PrismSpec(n, frozenset(dset))
        rep = exact.full_report(graphs.prism_family(spec))
        found = _disagreements(_report_fields(rep), _report_fields(closed_form.family_report(n, spec.r)))
        if spec.r in (0, n // 2, n) and (n, spec.r) not in split_keys:
            split_keys.add((n, spec.r))
            found += spectral.prism_split_disagreements(spec)
        mismatches += [f"n={n} D={dset} invariant={name} expected={want} got={got}" for name, want, got in found]
    intact = sum(1 for _, dset in cases if not dset)
    print(f"intact family, closed form vs exact: {5 * intact} checks")  # all five fields
    print(f"deleted-edge sweep: {len(cases)} members, 3 invariants each")
    print(f"spectrum split: {len(split_keys)} members")

    if mismatches:
        for m in mismatches:
            print(f"MISMATCH: {m}")
        print(f"FAIL: {len(mismatches)} mismatches")
        return EXIT_MISMATCH
    print("PASS: all checks agree")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ratio


def cmd_ratio(args) -> int:
    given = [x for x in (args.n, args.n_list, args.n_range) if x is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --n, --n-list, --n-range")
    if args.n is not None:
        ns = [args.n]
    elif args.n_list is not None:
        try:
            ns = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"--n-list expects integers, got {args.n_list!r}") from None
        if not ns:
            raise ValueError(f"--n-list names no n, got {args.n_list!r}")
    else:
        step = 1 if args.step is None else args.step
        if step < 1:
            raise ValueError(f"--step must be >= 1, got {step}")
        ns = _parse_range(args.n_range, "--n-range")[::step]
    if args.family == "gn" and args.r != 0:
        raise ValueError("--r applies only to --family grn")
    if args.step is not None and args.n_range is None:
        raise ValueError("--step applies only with --n-range")
    rows = [(n, *closed_form.ratio_report(n, args.r)) for n in ns]
    print("n,r,ratio,deviation")
    for n, ratio, dev in rows:
        print(f"{n},{args.r},{format_fraction(ratio, 6)},{format_fraction(dev, 6)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invkit",
        description="Exact resistance-distance invariants for graphs and the doubled-cycle family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariants of one graph or family member")
    p.add_argument("--family", choices=("gn", "grn", "cycle", "path"))
    p.add_argument("--n", type=int)
    p.add_argument("--deleted", help="comma-separated vertical-edge positions, 1-based")
    p.add_argument("--r", type=int, help="delete this many random vertical edges")
    p.add_argument("--seed", type=int)
    p.add_argument("--input", help="edge-list file")
    p.add_argument("--method", choices=("exact", "spectral", "closed-form", "all"), default="exact")
    p.add_argument("--format", choices=("csv", "json", "markdown"), default="csv")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", help="reference tables of closed-form values")
    p.add_argument("--table", type=int, choices=(1, 2))
    p.add_argument("--family", choices=("gn",))
    p.add_argument("--range", help="A..B rim lengths")
    p.add_argument("--columns", help="comma list from kf, tau, kfstar")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="closed forms vs the exact oracle, plus spectrum checks")
    p.add_argument("--n-max", type=int, default=20, dest="n_max")
    p.add_argument("--exhaustive-d-max", type=int, default=8, dest="exhaustive_d_max")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ratio", help="Kf/Wiener ratio and its distance from 1/6")
    p.add_argument("--family", choices=("gn", "grn"), default="gn")
    p.add_argument("--n", type=int)
    p.add_argument("--n-list", dest="n_list")
    p.add_argument("--n-range", dest="n_range")
    p.add_argument("--step", type=int)
    p.add_argument("--r", type=int, default=0)
    p.set_defaults(func=cmd_ratio)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (_BadInputError, graphs.DisconnectedGraphError) as exc:  # the latter is a ValueError: catch it first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ArithmeticError as exc:  # an exact result failed its certificate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
