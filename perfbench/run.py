"""invkit benchmark: one closed-loop client, one op at a time, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload prism_exact --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):
    prism_exact   full_report on prism members, V = 120, 160, 200
    random_exact  full_report on random sparse connected graphs, V = 120, 160, 200
    small_sweep   verify's per-case work on prism members, n = 3..20
    cli_cold      one `python -m invkit.cli` process per op

Each op runs only after the previous one returned, and the loop stops on
the first cycle boundary after `--seconds` of op time. Every op's output is
checked against perfbench/reference.py outside the timed region.

--trace 0 prints the end-to-end metrics (ops_per_s, op_p50_ms, op_tail_ms,
setup_s, peak_rss_mb; error_rate is printed above the result line and is
failed/attempted in it). Their times are scaled to a reference machine speed
(see speed_probe); the measured values are printed beside them. --trace 1
spends half the run untraced and half with spans around invkit's public
functions plus per-op probes, then prints the per-layer metrics. The last stdout line is one JSON object; the full
record goes to .perfbench/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("prism_exact", "random_exact", "small_sweep", "cli_cold")
REPEATS = 5  # fresh interpreters per set-up or start-up measurement; the median is reported
DEADLINE_S = 140.0  # past this much wall time a loop stops without finishing its cycle
# On a shared VM, other tenants can slow everything by 30-60% for minutes at a
# time, and CPU time slows with wall time. So every end-to-end time is scaled
# by the speed of a fixed piece of pure-Python work of the same kind as the
# workload's, probed in the same run at most PROBE_EVERY_S before each op:
# value = measured * SPEED_REFERENCE_S[kind] / p, with p the median of the
# last PROBES_SMOOTHED probes. With no other load the probe takes about
# SPEED_REFERENCE_S[kind], and scaled equals measured.
SPEED_REFERENCE_S = {"loop": 0.006, "elimination": 0.0025, "bigint": 0.0075}
PROBE_EVERY_S = 0.5
PROBES_SMOOTHED = 5  # an op is scaled by the median of the last this many probes
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples above it,
TAIL_GRID = (50, 75, 90, 95, 99, 99.9)  # taken from this grid so that it stays put across seeds

# in-process CLI calls, after the traced loop, so that every layer has spans on every workload;
# a layer the workload's own ops and probes reach is measured from those alone
CLI_PROBE = (
    ("table", "--table", "1"),
    ("ratio", "--family", "gn", "--n-range", "10..40"),
    ("compute", "--family", "grn", "--n", "2000", "--r", "500", "--method", "closed-form"),
    ("compute", "--family", "grn", "--n", "7", "--deleted", "2,5", "--method", "all"),
    ("verify", "--n-max", "5", "--exhaustive-d-max", "3"),
)
IMPORT_TIMER = "import time; t = time.perf_counter(); import invkit.cli; print(time.perf_counter() - t)"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def child_seconds(cmd) -> float:
    """Run a helper interpreter that prints one duration in seconds."""
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def bare_start_seconds() -> float:
    """Wall time of an interpreter that does nothing: the floor under every CLI op."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=120)
    return perf_counter() - t0


@functools.cache
def _bigint_operands():
    rng = random.Random(0)
    rows = [[rng.getrandbits(300) for _ in range(8000)] for _ in range(2)]
    return rows, rng.getrandbits(300) | 1, rng.getrandbits(300), rng.getrandbits(300) | 1


@functools.cache
def _ring_laplacian(k: int = 40) -> tuple[tuple[int, ...], ...]:
    """Laplacian of a ring with chords, every vertex also tied to a ground: fixed and positive definite."""
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in ((i + 1) % k, (i + 7) % k):
            m[i][j] = m[j][i] = -1
    for i in range(k):
        m[i][i] = 1 - sum(m[i])
    return tuple(map(tuple, m))


def _probe_once(kind: str) -> float:
    if kind == "loop":  # small integers and bytecode dispatch
        t0 = perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        return perf_counter() - t0
    if kind == "elimination":  # fraction-free elimination on lists of small integers, like small solves
        a = [list(row) for row in _ring_laplacian()]
        t0 = perf_counter()
        prev = 1
        for col in range(len(a) - 1):
            pivot, arow = a[col][col], a[col]
            for ai in a[col + 1 :]:
                m = ai[col]
                for j in range(col + 1, len(a)):
                    ai[j] = (pivot * ai[j] - m * arow[j]) // prev
            prev = pivot
        return perf_counter() - t0
    # kind == "bigint": one fraction-free row update on 300-bit integers, like the exact solve
    (a, b), pivot, m, prev = _bigint_operands()
    t0 = perf_counter()
    [(pivot * x - m * y) // prev for x, y in zip(a, b)]
    return perf_counter() - t0


def speed_probe(kind: str) -> float:
    """Seconds a fixed piece of work of this kind takes now, median of 3: the machine's current speed."""
    return statistics.median(_probe_once(kind) for _ in range(3))


def setup_seconds(args, workdir: str) -> tuple[float, float]:
    """(scaled, measured) median over fresh interpreters of importing invkit and generating the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only", workdir]
    if args.tiny:
        cmd.append("--tiny")
    scaled, measured = [], []
    for _ in range(REPEATS):
        probe = speed_probe("loop")  # set-up is imports and small-integer work
        measured.append(child_seconds(cmd))
        scaled.append(measured[-1] * SPEED_REFERENCE_S["loop"] / probe)
    return statistics.median(scaled), statistics.median(measured)


class Loop:
    """Op times and failures of one closed-loop phase."""

    def __init__(self):
        self.times: list[float] = []  # op times, scaled to the reference speed
        self.measured: list[float] = []  # the same, as measured
        self.by_size: dict = {}  # scaled op times per size (or CLI command kind)
        self.probes: list[float] = []
        self.busy = 0.0  # total measured op time, seconds
        self.completed = 0
        self.failed = 0
        self.problems: list[str] = []
        self.size_counts: list[tuple[int, int, int]] = []  # (k, tau bits, largest numerator bits) per probed matrix

    def fail(self, what: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{what}: {message}")

    @property
    def ops_per_s(self) -> float:
        """Ops per second over one cycle of the workload's sizes, from per-size median op times.

        Medians keep a burst of load from other processes on the machine
        from moving the figure; every size weighs as much as in the cycle.
        """
        cycle = sum(statistics.median(t) for t in self.by_size.values())
        return len(self.by_size) * self.completed / len(self.times) / cycle


def run_loop(wl, cycles, seconds: float, deadline: float, tracer=None) -> Loop:
    """Issue ops one after another until `seconds` of op time, ending on a cycle boundary."""
    loop = Loop()
    probed_at = -PROBE_EVERY_S
    while loop.busy < seconds and perf_counter() < deadline:
        for case in next(cycles):
            if perf_counter() >= deadline:
                break
            if perf_counter() - probed_at >= PROBE_EVERY_S:
                loop.probes.append(speed_probe(wl.speed_probe))
                probed_at = perf_counter()
            raised = None
            with tracer.span("bench.op") if tracer else contextlib.nullcontext():
                t0 = perf_counter()
                try:
                    out = wl.op(case)
                except Exception as exc:  # a failed op is counted, and the loop goes on
                    raised = exc
                dt = perf_counter() - t0
            scaled = dt * SPEED_REFERENCE_S[wl.speed_probe] / statistics.median(loop.probes[-PROBES_SMOOTHED:])
            loop.measured.append(dt)
            loop.times.append(scaled)
            loop.by_size.setdefault(case.kind or case.v, []).append(scaled)
            loop.busy += dt
            if raised is not None:
                loop.fail(case.kind or f"V={case.v}", f"raised {raised!r}")
                continue
            loop.completed += 1
            problems = wl.check(case, out)
            if problems:
                loop.fail(case.kind or f"V={case.v}", "; ".join(problems[:3]))
            if tracer is not None and loop.completed % wl.probe_every == 0:
                with tracer.span("bench.probe"):
                    matrices = wl.probe(case, out)
                loop.size_counts += [
                    (rm.order - 1, rm.den.bit_length(), max(map(max, rm.num)).bit_length()) for rm in matrices
                ]
    return loop


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile in TAIL_GRID with TAIL_BEYOND samples above it.

    Nearest rank; falls back to the median when no percentile qualifies.
    """
    s = sorted(times)
    best = TAIL_GRID[0]
    for pct in TAIL_GRID:
        if len(s) - math.ceil(pct / 100 * len(s)) >= TAIL_BEYOND:
            best = pct
    return s[math.ceil(best / 100 * len(s)) - 1], best


def peak_rss_mb(workload: str) -> float:
    # cli_cold runs the program in child processes; its peak is the largest child's
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced run

WORKLOAD_PHASES = ("bench.setup", "bench.op", "bench.probe")
BUILD = ("graphs.prism_family", "graphs.Graph.from_edges", "graphs.parse_edge_list")
MODULES = ("graphs", "exact", "spectral", "closed_form", "cli")


def layer_metrics(tracer, loop: Loop, startup_ms: float, import_ms: float) -> dict:
    spans = tracer.spans
    roots = tracer.roots()
    durations: dict[str, list[float]] = {}
    in_workload: dict[str, list[float]] = {}
    for (name, start, end, parent), root in zip(spans, roots):
        if name in BUILD and parent >= 0 and spans[parent][0] in BUILD:
            continue  # a build inside a build is counted once, by the outer call
        durations.setdefault(name, []).append(end - start)
        if root in WORKLOAD_PHASES:
            in_workload.setdefault(name, []).append(end - start)

    def per_call_ms(*names) -> float:
        """Mean ms per call, summed over `names`, from the workload's own spans if it has any."""
        source = in_workload if any(n in in_workload for n in names) else durations
        found = [statistics.fmean(source[n]) for n in names if n in source]
        if not found:
            raise RuntimeError(f"no spans for {names}")
        return 1000.0 * sum(found)

    def per_build_ms() -> float:
        source = in_workload if any(n in in_workload for n in BUILD) else durations
        return 1000.0 * statistics.fmean(itertools.chain(*(source.get(n, []) for n in BUILD)))

    resistance = per_call_ms("exact.resistance_matrix")
    trees = per_call_ms("exact.spanning_trees")
    report = per_call_ms("exact.full_report")
    m = {
        "graphs.build_ms": per_build_ms(),
        "graphs.is_connected_ms": per_call_ms("graphs.is_connected"),
        "exact.resistance_matrix_ms": resistance,
        "exact.spanning_trees_ms": trees,
        "exact.backsolve_assembly_ms": resistance - trees,
        "exact.pair_sums_ms": per_call_ms(
            "exact.ResistanceMatrix.pairs_sum", "exact.ResistanceMatrix.weighted_pairs_sum"
        ),
        "exact.bfs_ms": per_call_ms("exact.wiener", "exact.gutman"),
        "exact.full_report_ms": report,
        "exact.solve_share": resistance / report,
        "exact.grounded_order": statistics.fmean(k for k, _, _ in loop.size_counts),
        "exact.tau_bits": statistics.fmean(bits for _, bits, _ in loop.size_counts),
        "exact.max_num_bits": statistics.fmean(bits for _, _, bits in loop.size_counts),
        "spectral.laplacian_ms": per_call_ms("spectral.laplacian"),
        "spectral.eigvalsh_ms": per_call_ms("spectral.eigenvalues_sym"),
        "spectral.split_ms": per_call_ms("spectral.involution_split"),
        "closed_form.eval_us": 1000.0 * per_call_ms("closed_form.family_report"),
        "cli.python_startup_ms": startup_ms,
        "cli.import_ms": import_ms,
        "cli.main_ms": per_call_ms("cli.main"),
    }
    own = tracer.self_times()
    traced_total = sum(end - start for _, start, end, parent in spans if parent < 0)
    for mod in MODULES:
        mine = sum(t for (name, *_), t in zip(spans, own) if name.startswith(mod + "."))
        m[f"self.{mod}_pct"] = 100.0 * mine / traced_total
    return m


UNITS = (("ops_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_pct", "%"), ("_s", "s"),
         ("_mb", "MB"), ("_share", "ratio"), ("_order", "count"), ("_bits", "bits"))


def unit(name: str) -> str:
    return next(u for suffix, u in UNITS if name.endswith(suffix))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "invkit", "__init__.py")):
        print(f"error: no invkit source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_only:
        t0 = perf_counter()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, args.tiny, ROOT, args.setup_only)
        print(perf_counter() - t0)
        return 0

    run_start = perf_counter()
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir, run_start + DEADLINE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str, deadline: float) -> int:
    # every child interpreter imports the checkout's invkit; verify stays single-process
    os.environ["PYTHONPATH"] = SRC
    os.environ.pop("INVKIT_THREADS", None)
    setup_s, setup_measured = setup_seconds(args, workdir) if not args.trace else (None, None)

    import numpy
    import tracing
    import workloads

    import invkit
    from invkit import cli, closed_form, exact, graphs, spectral

    tracer = tracing.Tracer() if args.trace else None
    instrumented = (invkit, graphs, exact, spectral, closed_form, cli)
    wl_class = workloads.WORKLOADS[args.workload]
    if tracer:
        with tracer.instrument(instrumented, "invkit"), tracer.span("bench.setup"):
            wl = wl_class(args.seed, args.tiny, ROOT, workdir)
    else:
        wl = wl_class(args.seed, args.tiny, ROOT, workdir)
    cycles = itertools.cycle(wl.cycles)

    with wl:
        if not args.trace:
            loops = [run_loop(wl, cycles, args.seconds, deadline)]
        else:
            plain = run_loop(wl, cycles, args.seconds / 2, deadline)
            with tracer.instrument(instrumented, "invkit"):
                traced = run_loop(wl, cycles, args.seconds / 2, deadline, tracer)
                with tracer.span("bench.cli_probe"):
                    for argv in CLI_PROBE:
                        code, _ = workloads.run_cli_in_process(argv)
                        if code != 0:
                            raise RuntimeError(f"in-process cli.main{argv} exited {code}")
            loops = [plain, traced]
    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(lp.failed for lp in loops)

    env_info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for lp in loops:
        for problem in lp.problems:
            print(f"# FAILED {problem}")

    if not args.trace:
        (loop,) = loops
        tail_s, tail_pct = tail(loop.times)
        metrics = {
            "ops_per_s": loop.ops_per_s,
            "op_p50_ms": 1000.0 * statistics.median(loop.times),
            "op_tail_ms": 1000.0 * tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(args.workload),
        }
        measured = {
            "op_p50_ms": 1000.0 * statistics.median(loop.measured),
            "op_tail_ms": 1000.0 * sorted(loop.measured)[math.ceil(tail_pct / 100 * len(loop.measured)) - 1],
            "setup_s": setup_measured,
        }
        speed = SPEED_REFERENCE_S[wl.speed_probe] / statistics.median(loop.probes)
        notes = {name: f"measured {value:.6g}" for name, value in measured.items()}
        notes["ops_per_s"] = f"machine speed {speed:.3f} of reference, from {len(loop.probes)} probes"
        notes["op_tail_ms"] += f", p{tail_pct:.1f} of {len(loop.times)} ops"
        notes["peak_rss_mb"] = "largest CLI child" if args.workload == "cli_cold" else "this process"
        extra = {"error_rate": failed / attempted, "ops": len(loop.times), "tail_percentile": tail_pct,
                 "measured": measured, "machine_speed": speed}
    else:
        plain, traced = loops
        startup_ms = 1000.0 * statistics.median(bare_start_seconds() for _ in range(REPEATS))
        import_ms = 1000.0 * statistics.median(
            child_seconds([sys.executable, "-c", IMPORT_TIMER]) for _ in range(REPEATS)
        )
        metrics = layer_metrics(tracer, traced, startup_ms, import_ms)
        metrics["trace.overhead_pct"] = 100.0 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s
        notes = {"trace.overhead_pct": f"untraced {plain.ops_per_s:.4g}/s, traced {traced.ops_per_s:.4g}/s"}
        extra = {"error_rate": failed / attempted}

    for name, value in metrics.items():
        print(f"# {name:28s} {value:14.6g} {unit(name):6s} {notes.get(name, '')}")
    print(f"# {'error_rate':28s} {failed / attempted:14.6g} {'ratio':6s} {failed} of {attempted} ops")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, **env_info, **extra, "notes": notes}, fh, indent=1)
    if tracer:
        tracer.dump(os.path.join(OUT, f"spans-{stem}.json"), env_info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
