"""Independent references that every benchmark op is checked against.

Nothing here imports invkit. Graphs reach this module as the benchmark's
own (vertex count, edge list) pairs, the prism-family closed forms are typed
in from the paper, spectra come straight from numpy's eigvalsh, distances
from a numpy Floyd-Warshall, and pair sums are taken over the full
resistance matrix (the library sums one triangle). Each check returns a list
of problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

SPECTRAL_RTOL = 1e-6  # the README's exact-vs-spectral budget
SPECTRUM_ATOL = 1e-8  # per-eigenvalue budget, scaled by max(1, largest eigenvalue)


# ---------------------------------------------------------------------------
# prism-family closed forms, from the paper


def prism_kf(n: int, r: int) -> Fraction:
    return Fraction(n**3 + 4 * n**2 + (2 * r - 1) * n, 12)


def prism_tau(n: int, r: int) -> int:
    return n * 2 ** (2 * n + r - 2) * 3 ** (n - r)


def prism_wiener(n: int, r: int) -> int:
    base = (n**3 + n) // 2 if n % 2 else (n**3 + 2 * n) // 2
    return base + r


def prism_closed_forms(n: int, r: int) -> dict:
    """kf, tau and wiener for every member; kf_star and gutman only when r = 0.

    The intact member is 5-regular, so its degree-weighted indices are 25
    times the plain ones.
    """
    cf = {"kf": prism_kf(n, r), "tau": prism_tau(n, r), "wiener": prism_wiener(n, r)}
    if r == 0:
        cf["kf_star"] = 25 * cf["kf"]
        cf["gutman"] = 25 * cf["wiener"]
    return cf


# ---------------------------------------------------------------------------
# numpy routes


class GraphReference:
    """Spectral and distance references for one (vertex count, edge list) graph."""

    def __init__(self, v: int, edges):
        self.v = v
        self.edges = list(edges)
        adj = np.zeros((v, v))
        for a, b in self.edges:
            adj[a, b] = adj[b, a] = 1.0
        self.deg = adj.sum(axis=1)
        lap = np.diag(self.deg) - adj
        self.mu = np.linalg.eigvalsh(lap)
        dinv = 1.0 / np.sqrt(self.deg)
        lam = np.linalg.eigvalsh(lap * np.outer(dinv, dinv))
        # a connected graph has exactly one zero eigenvalue: the smallest
        self.connected = self.mu[1] > SPECTRUM_ATOL * max(1.0, self.mu[-1])
        self.kf = v * float(np.sum(1.0 / self.mu[1:]))
        self.kf_star = 2 * len(self.edges) * float(np.sum(1.0 / lam[1:]))
        self.log_tau = float(np.sum(np.log(self.mu[1:]))) - math.log(v)
        dist = np.full((v, v), np.inf)
        np.fill_diagonal(dist, 0.0)
        dist[adj > 0] = 1.0
        for k in range(v):
            dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
        d = dist.astype(np.int64)
        deg = self.deg.astype(np.int64)
        self.wiener = int(d.sum()) // 2
        self.gutman = int(deg @ d @ deg) // 2


def _rel(approx: float, truth) -> float:
    t = float(truth)
    return abs(approx - t) / abs(t) if t else abs(approx)


def spectral_problems(ref: GraphReference, kf, kf_star, tau) -> list[str]:
    """The spectral route for Kf, Kf* and log tau, against exact values."""
    out = []
    if not ref.connected:
        out.append("reference graph is disconnected")
    if kf is not None and _rel(ref.kf, kf) > SPECTRAL_RTOL:
        out.append(f"spectral kf {ref.kf} vs {kf}")
    if kf_star is not None and _rel(ref.kf_star, kf_star) > SPECTRAL_RTOL:
        out.append(f"spectral kf_star {ref.kf_star} vs {kf_star}")
    if tau is not None and (tau <= 0 or abs(ref.log_tau - math.log(tau)) > SPECTRAL_RTOL):
        out.append(f"spectral log tau {ref.log_tau} vs tau {tau}")
    return out


def spectrum_problems(ref: GraphReference, eigs, what: str) -> list[str]:
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.shape != ref.mu.shape:
        return [f"{what}: {eigs.shape[0]} eigenvalues, expected {ref.v}"]
    gap = float(np.max(np.abs(np.sort(eigs) - ref.mu)))
    if gap > SPECTRUM_ATOL * max(1.0, float(ref.mu[-1])):
        return [f"{what}: eigenvalue gap {gap:.3e}"]
    return []


# ---------------------------------------------------------------------------
# exact identities on a resistance matrix


def foster_problems(rm, v: int, edges) -> list[str]:
    """Foster's theorem: resistances over the edges sum to v - 1, exactly."""
    if rm.order != v:
        return [f"resistance matrix has order {rm.order}, expected {v}"]
    total = sum(rm.num[a][b] for a, b in edges)
    if total != (v - 1) * rm.den:
        return [f"Foster: edge resistances sum to {Fraction(total, rm.den)}, expected {v - 1}"]
    return []


def full_matrix_sums(rm, deg) -> tuple[Fraction, Fraction]:
    """(Kf, Kf*) as halves of sums over the whole resistance matrix."""
    kf = 0
    kf_star = 0
    for di, row in zip(deg, rm.num):
        kf += sum(row)
        kf_star += di * sum(dj * x for dj, x in zip(deg, row))
    return Fraction(kf, 2 * rm.den), Fraction(kf_star, 2 * rm.den)


def report_problems(rep, rm, ref: GraphReference, cf: dict | None) -> list[str]:
    """Check a full_report (and the resistance matrix it used) on one graph."""
    got = {
        "kf": rep.kf,
        "kf_star": rep.kf_star,
        "tau": rep.tree_count,
        "wiener": rep.wiener,
        "gutman": rep.gutman,
    }
    out = [f"closed form {k}: expected {v}, got {got[k]}" for k, v in (cf or {}).items() if got[k] != v]
    out += foster_problems(rm, ref.v, ref.edges)
    kf, kf_star = full_matrix_sums(rm, [int(d) for d in ref.deg])
    if rm.den != rep.tree_count:
        out.append(f"tree count {rep.tree_count} differs from resistance denominator {rm.den}")
    if kf != rep.kf:
        out.append(f"kf {rep.kf} differs from the resistance matrix sum {kf}")
    if kf_star != rep.kf_star:
        out.append(f"kf_star {rep.kf_star} differs from the resistance matrix sum {kf_star}")
    if rep.wiener != ref.wiener:
        out.append(f"wiener {rep.wiener} vs Floyd-Warshall {ref.wiener}")
    if rep.gutman != ref.gutman:
        out.append(f"gutman {rep.gutman} vs Floyd-Warshall {ref.gutman}")
    return out + spectral_problems(ref, rep.kf, rep.kf_star, rep.tree_count)


def sweep_problems(out, n: int, r: int, ref: GraphReference) -> list[str]:
    """Check one small-sweep op: (rm, kf, kf_star, wiener, split, eigs)."""
    rm, kf, kf_star, wiener, split, eigs = out
    cf = prism_closed_forms(n, r)
    probs = [] if kf == cf["kf"] else [f"kf {kf} vs closed form {cf['kf']}"]
    if rm.den != cf["tau"]:
        probs.append(f"tau {rm.den} vs closed form {cf['tau']}")
    if wiener != cf["wiener"]:
        probs.append(f"wiener {wiener} vs closed form {cf['wiener']}")
    probs += foster_problems(rm, ref.v, ref.edges)
    _, own_kf_star = full_matrix_sums(rm, [int(d) for d in ref.deg])
    if kf_star != own_kf_star:
        probs.append(f"kf_star {kf_star} differs from the resistance matrix sum {own_kf_star}")
    probs += spectral_problems(ref, kf, kf_star, rm.den)
    probs += spectrum_problems(ref, eigs, "eigenvalues_sym")
    probs += spectrum_problems(ref, split.combined(), "involution_split")
    block_s = np.diag(split.block_s)
    if int(np.count_nonzero(block_s == 4)) != r or int(np.count_nonzero(block_s == 6)) != n - r:
        probs.append(f"block_s diagonal {block_s.tolist()} does not mark {r} cuts")
    # the spectral route taken from the library's own eigenvalues
    mu = np.sort(np.asarray(eigs, dtype=np.float64))[1:]
    lib_kf = ref.v * float(np.sum(1.0 / mu))
    lib_log_tau = float(np.sum(np.log(mu))) - math.log(ref.v)
    if _rel(lib_kf, kf) > SPECTRAL_RTOL:
        probs.append(f"kf from library eigenvalues {lib_kf} vs exact {kf}")
    if abs(lib_log_tau - math.log(rm.den)) > SPECTRAL_RTOL:
        probs.append(f"log tau from library eigenvalues {lib_log_tau} vs exact {rm.den}")
    return probs


# ---------------------------------------------------------------------------
# CLI outputs


def _near(text: str, exact, places: int) -> bool:
    """`text` is `exact` rounded to `places` decimals."""
    return abs(Fraction(text) - Fraction(exact)) <= Fraction(1, 2 * 10**places)


def _record(stdout: str, fmt: str) -> dict:
    """Parse one `invkit compute` record into exact values."""
    if fmt == "json":
        obj = json.loads(stdout.strip().splitlines()[-1])
        for name in ("kf", "kf_star"):
            num, den = obj.pop(f"{name}_num"), obj.pop(f"{name}_den")
            obj[name] = None if num is None else Fraction(num, den)
        return obj
    head, row = stdout.strip().splitlines()[-2:]
    rec = dict(zip(head.split(","), row.split(",")))
    for name in ("kf", "kf_star", "tau", "wiener", "gutman"):
        rec[name] = Fraction(rec[name]) if rec[name] else None
    return rec


def cli_problems(case, returncode: int, stdout: str, ref: GraphReference | None) -> list[str]:
    """Parse one CLI op's output and compare it with the references."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    p = case.params
    try:
        if case.kind == "table":
            lines = stdout.strip().splitlines()
            ns = range(3, 12) if p["table"] == 1 else range(3, 16)
            if len(lines) != len(ns) + 1:
                return [f"table has {len(lines) - 1} rows, expected {len(ns)}"]
            out = []
            for n, line in zip(ns, lines[1:]):
                cells = line.split(",")
                if cells[0] != f"G_{n}":
                    out.append(f"row {cells[0]}, expected G_{n}")
                elif p["table"] == 1 and not (
                    _near(cells[1], prism_kf(n, 0), 2) and int(cells[2]) == prism_tau(n, 0)
                ):
                    out.append(f"table 1 row {line!r}")
                elif p["table"] == 2 and not _near(cells[1], 25 * prism_kf(n, 0), 2):
                    out.append(f"table 2 row {line!r}")
            return out
        if case.kind == "ratio":
            lines = stdout.strip().splitlines()
            ns = range(p["a"], p["b"] + 1, p["step"])
            if len(lines) != len(ns) + 1:
                return [f"ratio has {len(lines) - 1} rows, expected {len(ns)}"]
            out = []
            for n, line in zip(ns, lines[1:]):
                cn, cr, ratio, dev = line.split(",")
                exact = prism_kf(n, p["r"]) / prism_wiener(n, p["r"])
                if (int(cn), int(cr)) != (n, p["r"]) or not (
                    _near(ratio, exact, 6) and _near(dev, abs(exact - Fraction(1, 6)), 6)
                ):
                    out.append(f"ratio row {line!r}")
            return out
        rec = _record(stdout, p["format"])
        cf = prism_closed_forms(p["n"], p["r"])
        if case.kind == "closed_form":  # the CLI prints no kf_star or gutman for grn
            cf = {k: cf[k] for k in ("kf", "tau", "wiener")}
        out = [
            f"{k}: expected {v}, got {rec.get(k)}"
            for k, v in cf.items()
            if rec.get(k) is None or Fraction(rec[k]) != v
        ]
        if ref is not None:
            out += spectral_problems(ref, rec["kf"], rec["kf_star"], int(rec["tau"]))
            if rec["gutman"] is None or int(rec["gutman"]) != ref.gutman:
                out.append(f"gutman {rec['gutman']} vs Floyd-Warshall {ref.gutman}")
        return out
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"unparseable output ({exc!r}): {stdout[:200]!r}"]
