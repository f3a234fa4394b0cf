"""Self-test of the benchmark, at the smallest input sizes.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks that every workload runs clean in both modes and prints exactly the
metrics BENCHMARK.json declares, that a corrupted result (Kf off by 1/tau)
is counted as a failure, and that the benchmark refuses to run without the
invkit source beside it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")  # for the CLI processes, as run.py sets it

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from invkit import exact  # noqa: E402

WORKDIR = os.path.join(ROOT, ".perfbench", "selftest")


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }, [w["name"] for w in spec["workloads"]]


def test_every_workload_prints_the_declared_metrics():
    metrics, names = declared()
    assert sorted(names) == sorted(run.WORKLOAD_NAMES)
    for name in names:
        for trace in (0, 1):
            proc = bench("--workload", name, "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == metrics[trace], (name, trace)
            assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_corrupted_kf_raises_error_rate():
    original = exact.ResistanceMatrix.pairs_sum

    def off_by_one_tree(self):
        return original(self) + Fraction(1, self.den)

    os.makedirs(WORKDIR, exist_ok=True)
    for name in ("prism_exact", "random_exact", "small_sweep"):
        wl = workloads.WORKLOADS[name](7, True, ROOT, WORKDIR)
        with wl:
            clean = run.run_loop(wl, iter(wl.cycles), 1e-9, perf_counter() + 60)
            exact.ResistanceMatrix.pairs_sum = off_by_one_tree
            try:
                bad = run.run_loop(wl, iter(wl.cycles), 1e-9, perf_counter() + 60)
            finally:
                exact.ResistanceMatrix.pairs_sum = original
        assert clean.failed == 0, clean.problems
        assert bad.failed == len(bad.times) > 0, name


def test_corrupted_cli_output_is_caught():
    os.makedirs(WORKDIR, exist_ok=True)
    wl = workloads.CliCold(7, True, ROOT, WORKDIR)
    case = next(c for cycle in wl.cycles for c in cycle if c.kind == "input")
    code, out = wl.op(case)
    assert wl.check(case, (code, out)) == []
    record = json.loads(out)
    record["kf_num"] += 1
    bad = json.dumps(record)
    assert reference.cli_problems(case, code, bad, wl.ref(case))


def test_refuses_to_run_without_the_source():
    bare = os.path.join(WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(WORKDIR, exist_ok=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "prism_exact", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        for name, fn in list(globals().items()):
            if name.startswith("test_"):
                fn()
                print(f"ok  {name}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
