"""The four benchmark workloads: seeded inputs, the timed op, its check and its probe.

A workload's inputs are a list of cycles. Every cycle holds one case of
each size (or command kind) the workload covers, in seeded order, and a run
always ends on a cycle boundary, so two seeds time the same mix of sizes and
differ only in the graphs themselves. The program receives only graphs
(or, for the CLI, argv and edge-list files); the seed stays here.

Importing this module imports invkit, which is part of the set-up time the
benchmark reports.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

from invkit import cli, closed_form, exact, graphs, spectral

import reference


@dataclass(eq=False)
class Case:
    v: int  # vertex count
    edges: list  # the benchmark's own edge list, which the references use
    graph: graphs.Graph | None = None  # what the program receives, built in set-up
    n: int = 0  # prism rim length; 0 for other graphs
    deleted: frozenset = frozenset()
    kind: str = ""  # cli_cold command kind
    argv: tuple = ()
    params: dict = field(default_factory=dict)


def prism_edges(n: int, deleted) -> list[tuple[int, int]]:
    """C_n strong K_2 minus the verticals at the 1-based positions in `deleted`."""
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges += [(i, j), (n + i, n + j), (i, n + j), (j, n + i)]
        if i + 1 not in deleted:
            edges.append((i, n + i))
    return [(min(e), max(e)) for e in edges]


def random_connected_edges(rng: random.Random, v: int, avg_degree: float) -> list[tuple[int, int]]:
    """A uniform random labelled tree (Pruefer decoding) plus uniform extra edges."""
    seq = [rng.randrange(v) for _ in range(v - 2)]
    degree = [1] * v
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(v) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = set()
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.add((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.add((min(a, b), max(a, b)))
    while len(edges) < round(avg_degree * v / 2):
        a, b = rng.sample(range(v), 2)
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


class Workload:
    name = ""
    pool_cycles = 12  # more than a run uses, so a run rarely sees the same input twice
    probe_every = 1  # traced runs probe every this many ops
    speed_probe = "loop"  # the kind of work run.speed_probe times to scale this workload's times

    def __init__(self, seed: int, tiny: bool, root: str, workdir: str):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.root = root
        self.workdir = workdir
        self.cycles = [self.cycle(tiny, c) for c in range(self.pool_cycles)]
        self._refs: dict[int, reference.GraphReference] = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def ref(self, case: Case) -> reference.GraphReference:
        """Reference values for a case, computed once, outside any timed region."""
        key = id(case)
        if key not in self._refs:
            self._refs[key] = reference.GraphReference(case.v, case.edges)
        return self._refs[key]

    def prism_case(self, n: int, r: int, build: bool) -> Case:
        deleted = frozenset(self.rng.sample(range(1, n + 1), r))
        g = graphs.prism_family(graphs.PrismSpec(n, deleted)) if build else None
        return Case(v=2 * n, edges=prism_edges(n, deleted), graph=g, n=n, deleted=deleted)

    def cycle(self, tiny: bool, index: int) -> list[Case]:
        raise NotImplementedError

    def op(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, out) -> list[str]:
        raise NotImplementedError

    def probe(self, case: Case, out) -> list:
        """Traced runs only: the extra calls that split the op into layers.

        Returns the resistance matrices seen, for the size counts.
        """
        raise NotImplementedError


class _FullReport(Workload):
    """full_report on large graphs, keeping the resistance matrix it computed.

    full_report drops its resistance matrix, so while the workload is entered
    exact.resistance_matrix is wrapped to keep the last result for the
    Foster check; the wrapper costs one Python call per op.
    """

    speed_probe = "bigint"

    def __enter__(self):
        self._original = original = exact.resistance_matrix
        self._kept = None

        @functools.wraps(original)
        def keep(g):
            self._kept = original(g)
            return self._kept

        exact.resistance_matrix = keep
        return self

    def __exit__(self, *exc):
        exact.resistance_matrix = self._original
        return False

    def op(self, case):
        rep = exact.full_report(case.graph)
        rm, self._kept = self._kept, None
        return rep, rm

    def probe(self, case, out):
        exact.spanning_trees(case.graph)
        spectral.eigenvalues_sym(spectral.laplacian(case.graph))
        return [out[1]]


class PrismExact(_FullReport):
    name = "prism_exact"

    def cycle(self, tiny, index):
        sizes = [4, 5, 6] if tiny else [60, 80, 100]
        self.rng.shuffle(sizes)
        return [self.prism_case(n, n // 2, build=True) for n in sizes]

    def check(self, case, out):
        rep, rm = out
        cf = reference.prism_closed_forms(case.n, len(case.deleted))
        return reference.report_problems(rep, rm, self.ref(case), cf)

    def probe(self, case, out):
        spectral.involution_split(case.graph, graphs.rim_swap(case.n))
        closed_form.family_report(case.n, len(case.deleted))
        return super().probe(case, out)


class RandomExact(_FullReport):
    name = "random_exact"
    avg_degree = 4.5

    def cycle(self, tiny, index):
        sizes = [8, 10, 12] if tiny else [120, 160, 200]
        self.rng.shuffle(sizes)
        cases = []
        for v in sizes:
            edges = random_connected_edges(self.rng, v, self.avg_degree)
            cases.append(Case(v=v, edges=edges, graph=graphs.Graph.from_edges(v, edges)))
        return cases

    def check(self, case, out):
        rep, rm = out
        return reference.report_problems(rep, rm, self.ref(case), None)


class SmallSweep(Workload):
    """The per-case work of `invkit verify` on small prism members, graph build included."""

    name = "small_sweep"
    pool_cycles = 40
    speed_probe = "elimination"
    probe_every = 8  # the probe costs more than the op; cycles are shuffled, so every size is sampled

    def cycle(self, tiny, index):
        sizes = list(range(3, 7 if tiny else 21))
        self.rng.shuffle(sizes)
        return [self.prism_case(n, self.rng.randint(0, n), build=False) for n in sizes]

    def op(self, case):
        g = graphs.prism_family(graphs.PrismSpec(case.n, case.deleted))
        rm = exact.resistance_matrix(g)
        return (
            g,
            rm,
            rm.pairs_sum(),
            rm.weighted_pairs_sum(graphs.degrees(g)),
            exact.wiener(g),
            spectral.involution_split(g, graphs.rim_swap(case.n)),
            spectral.eigenvalues_sym(spectral.laplacian(g)),
        )

    def check(self, case, out):
        return reference.sweep_problems(out[1:], case.n, len(case.deleted), self.ref(case))

    def probe(self, case, out):
        g = out[0]
        exact.spanning_trees(g)
        exact.full_report(g)
        closed_form.family_report(case.n, len(case.deleted))
        return [out[1]]


def run_cli_in_process(argv) -> tuple[int, str]:
    """cli.main(argv) with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class CliCold(Workload):
    """One `python -m invkit.cli` process per op, covering each subcommand kind.

    The processes find invkit through PYTHONPATH, which the caller points at
    the checkout's src.
    """

    name = "cli_cold"
    pool_cycles = 24
    kinds = ("table", "ratio", "closed_form", "all_small", "input")

    def cycle(self, tiny, index):
        kinds = list(self.kinds)
        self.rng.shuffle(kinds)
        return [self.command(kind, tiny, f"{index}-{k}") for k, kind in enumerate(kinds)]

    def command(self, kind: str, tiny: bool, tag: str) -> Case:
        rng = self.rng
        if kind == "table":
            t = rng.choice([1, 2])
            return Case(0, [], kind=kind, argv=("table", "--table", str(t)), params={"table": t})
        if kind == "ratio":
            family = rng.choice(["gn", "grn"])
            a = rng.randint(3, 20)
            b = a + rng.randint(5, 10) if tiny else a + rng.randint(20, 80)
            step = rng.randint(1, 5)
            r = rng.randint(0, a) if family == "grn" else 0
            argv = ("ratio", "--family", family, "--n-range", f"{a}..{b}", "--step", str(step), "--r", str(r))
            return Case(0, [], kind=kind, argv=argv, params={"a": a, "b": b, "step": step, "r": r})
        fmt = rng.choice(["csv", "json"])
        if kind == "closed_form":
            n = rng.randint(10, 50) if tiny else rng.randint(500, 3000)
            r = rng.randint(0, n)
            argv = ("compute", "--family", "grn", "--n", str(n), "--r", str(r),
                    "--seed", str(rng.randrange(10**6)), "--method", "closed-form", "--format", fmt)
            return Case(0, [], kind=kind, argv=argv, params={"n": n, "r": r, "format": fmt})
        n = rng.randint(3, 5) if tiny else rng.randint(3, 8)
        case = self.prism_case(n, rng.randint(0, n), build=False)
        case.kind = kind
        case.params = {"n": n, "r": len(case.deleted), "format": fmt}
        if kind == "all_small":
            family = ["--family", "gn"] if not case.deleted else [
                "--family", "grn", "--deleted", ",".join(map(str, sorted(case.deleted)))]
            case.argv = ("compute", *family, "--n", str(n), "--method", "all", "--format", fmt)
            return case
        # kind == "input": the member under a random relabelling, as an edge-list file
        perm = list(range(case.v))
        rng.shuffle(perm)
        case.edges = [(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in case.edges]
        rng.shuffle(case.edges)
        path = os.path.join(self.workdir, f"member-{tag}.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# prism member, relabelled\n{case.v} {len(case.edges)}\n")
            fh.writelines(f"{a} {b}\n" for a, b in case.edges)
        case.params["format"] = "json"
        case.argv = ("compute", "--input", path, "--format", "json")
        return case

    def op(self, case):
        proc = subprocess.run(
            [sys.executable, "-m", "invkit.cli", *case.argv],
            cwd=self.root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, case, out):
        ref = self.ref(case) if case.edges else None
        return reference.cli_problems(case, out[0], out[1], ref)

    def probe(self, case, out):
        code, _ = run_cli_in_process(case.argv)
        if code != 0:
            raise RuntimeError(f"in-process cli.main{case.argv} exited {code}")
        if not case.edges:
            return []
        g = graphs.Graph.from_edges(case.v, case.edges)
        exact.spanning_trees(g)
        return [exact.resistance_matrix(g)]


WORKLOADS = {w.name: w for w in (PrismExact, RandomExact, SmallSweep, CliCold)}
