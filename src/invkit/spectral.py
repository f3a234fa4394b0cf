"""Laplacian matrices, the two-block symmetry split, and spectral invariant formulas.

The split: given a fixed-point-free, order-2 automorphism sigma of a graph,
index the vertices as V1 = {i : i < sigma(i)} followed by V2 = sigma(V1).
The Laplacian then has equal diagonal blocks and equal off-diagonal blocks,
and its spectrum is the union of the spectra of block_a = L11 + L12 and
block_s = L11 - L12. The orthogonal change of basis behind this is never
materialized; the blocks are read straight off the vertex partition.

Spectral values computed here are floating-point cross-checks. Authoritative
results live in `invkit.exact`. This is the only module that imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DisconnectedGraphError, Graph, PrismSpec, cycle, degrees, prism_family, rim_swap

# an eigenvalue counts as "the" zero of a connected Laplacian below this,
# scaled by max(1, largest eigenvalue)
ZERO_EIGENVALUE_RTOL = 1e-8
SPECTRUM_ATOL = 1e-8  # per-entry eigenvalue multiset tolerance of the prism split checks


class DecompositionError(ValueError):
    """The supplied permutation does not induce a valid two-block split."""


def laplacian(g: Graph) -> np.ndarray:
    """Integer Laplacian: degree diagonal minus adjacency."""
    n = g.vertex_count
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, i] = len(g.adjacency[i])
        for j in g.adjacency[i]:
            m[i, j] = -1
    return m


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Degree-normalized Laplacian, float64.

    Diagonal 1, entry (i, j) = -1/sqrt(d_i d_j) on edges. Built so the
    result is exactly symmetric in floating point. Raises ValueError on an
    isolated vertex.
    """
    deg = degrees(g)
    if min(deg) == 0:
        raise ValueError("normalized Laplacian undefined with an isolated vertex")
    dinv = 1.0 / np.sqrt(np.asarray(deg, dtype=np.float64))
    scale = np.outer(dinv, dinv)
    return laplacian(g).astype(np.float64) * scale


@dataclass
class SpectrumSplit:
    """The two half-size blocks of a symmetry split plus their spectra."""

    block_a: np.ndarray
    block_s: np.ndarray
    eigs_a: np.ndarray
    eigs_s: np.ndarray

    def combined(self) -> np.ndarray:
        """Sorted union of the two eigenvalue multisets."""
        return np.sort(np.concatenate([self.eigs_a, self.eigs_s]))


def involution_split(g: Graph, sigma, normalized: bool = False) -> SpectrumSplit:
    """Split the (normalized) Laplacian along a rim-swapping symmetry.

    `sigma` must be an order-2, fixed-point-free automorphism of g, given as
    a sequence with sigma[i] = image of vertex i. The returned blocks are
    L11 + L12 and L11 - L12 for the vertex order V1 = {i : i < sigma(i)},
    V2 = sigma(V1); the union of their spectra is the full spectrum.
    Violated preconditions raise DecompositionError. The automorphism check
    is the only symmetry check: an automorphism keeps every degree, so it
    gives L22 = L11 and L21 = L12 entry for entry, in floating point too
    for the normalized Laplacian, and only L11 and L12 are read.
    """
    n = g.vertex_count
    sig = list(sigma)
    if len(sig) != n or sorted(sig) != list(range(n)):
        raise DecompositionError("sigma is not a permutation of the vertices")
    for i in range(n):
        if sig[i] == i:
            raise DecompositionError(f"sigma fixes vertex {i}")
        if sig[sig[i]] != i:
            raise DecompositionError("sigma is not an involution")
    for u in range(n):
        image = sorted(sig[v] for v in g.adjacency[u])
        if image != list(g.adjacency[sig[u]]):
            raise DecompositionError("sigma is not a graph automorphism")

    v1 = [i for i in range(n) if i < sig[i]]
    v2 = [sig[i] for i in v1]
    full = normalized_laplacian(g) if normalized else laplacian(g)
    l11 = full[np.ix_(v1, v1)]
    l12 = full[np.ix_(v1, v2)]
    block_a = l11 + l12
    block_s = l11 - l12
    return SpectrumSplit(
        block_a=block_a,
        block_s=block_s,
        eigs_a=eigenvalues_sym(block_a),
        eigs_s=eigenvalues_sym(block_s),
    )


def prism_split_disagreements(spec: PrismSpec) -> list[tuple[str, object, object]]:
    """(check, expected, got) for every rim-swap split check the prism member fails.

    The paper's split: block_a = 2 L(C_n), block_s = diag(4 at each cut
    vertical, 6 elsewhere), so the spectrum is twice that of C_n plus those
    n values. "block-a" and "block-s" compare the blocks entry by entry;
    "split-spectrum" and "predicted-spectrum" compare the full spectrum
    with the blocks' spectra and with that prediction.
    """
    n = spec.n
    g = prism_family(spec)
    split = involution_split(g, rim_swap(n))
    full = eigenvalues_sym(laplacian(g))
    rim = [4 if i in spec.deleted else 6 for i in range(1, n + 1)]
    found: list[tuple[str, object, object]] = []
    for check, values in (
        ("split-spectrum", split.combined()),
        ("predicted-spectrum", np.sort(np.concatenate([2.0 * cycle_spectrum(n), rim]))),
    ):
        gap = float(np.max(np.abs(values - full)))
        if gap > SPECTRUM_ATOL:
            found.append((check, f"gap<={SPECTRUM_ATOL}", f"{gap:.3e}"))
    if not np.array_equal(split.block_a, 2 * laplacian(cycle(n))):
        found.append(("block-a", "2*cycle-laplacian", split.block_a.tolist()))
    if not np.array_equal(split.block_s, np.diag(rim)):
        found.append(("block-s", f"diag{rim}", split.block_s.tolist()))
    return found


def cycle_spectrum(n: int) -> np.ndarray:
    """Laplacian eigenvalues of the n-cycle: 4 sin^2(pi i / n), i = 1..n.

    Returned in i-order, so the final entry is the zero eigenvalue.
    """
    if n < 3:
        raise ValueError(f"cycle spectrum needs n >= 3, got {n}")
    return np.array([4.0 * math.sin(math.pi * i / n) ** 2 for i in range(1, n + 1)])


def eigenvalues_sym(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, with multiplicity."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(m.astype(np.float64))


def _nonzero_eigenvalues(eigs: np.ndarray) -> np.ndarray:
    """Drop the single zero eigenvalue of a connected graph's spectrum."""
    eigs = np.asarray(eigs, dtype=np.float64)
    cutoff = ZERO_EIGENVALUE_RTOL * max(1.0, float(np.max(eigs, initial=0.0)))
    near_zero = np.abs(eigs) < cutoff
    count = int(np.count_nonzero(near_zero))
    if count > 1:
        raise DisconnectedGraphError(f"{count} near-zero eigenvalues: graph is disconnected")
    if count == 0:
        raise ValueError("no zero eigenvalue: input is not a connected Laplacian spectrum")
    return eigs[~near_zero]


def spectral_kf(eigs, n_vertices: int) -> float:
    """Kirchhoff index from Laplacian eigenvalues: n * sum of reciprocals."""
    return n_vertices * float(np.sum(1.0 / _nonzero_eigenvalues(eigs)))


def spectral_kf_star(eigs, m_edges: int) -> float:
    """Degree-weighted Kirchhoff index from normalized-Laplacian eigenvalues."""
    return 2 * m_edges * float(np.sum(1.0 / _nonzero_eigenvalues(eigs)))


@dataclass(frozen=True)
class TreeCount:
    """Spanning-tree count estimated from a spectrum.

    `log_value` is always valid; `value` is the rounded count when a
    propagated floating-point error bound on the product is below 0.5, so
    that rounding recovers the exact integer, else None.
    """

    log_value: float
    value: int | None


def spectral_tree_count(eigs, n_vertices: int) -> TreeCount:
    """Spanning-tree count from Laplacian eigenvalues, computed in log space.

    The product of nonzero eigenvalues over n is accumulated as a log-sum so
    large graphs cannot overflow. The error bound takes each eigenvalue to be
    within order * eps * (largest eigenvalue) of the true one, the backward
    error of a symmetric eigensolver, and adds the rounding of every log,
    the sum and the final exp.
    """
    eigs = np.asarray(eigs, dtype=np.float64)
    nz = _nonzero_eigenvalues(eigs)
    logs = np.log(nz)
    log_value = float(np.sum(logs)) - math.log(n_vertices)
    eps = float(np.finfo(np.float64).eps)
    rel = len(eigs) * eps * float(np.max(eigs)) / nz
    if np.max(rel, initial=0.0) >= 1.0:
        return TreeCount(log_value=log_value, value=None)
    log_err = float(np.sum(-np.log1p(-rel)))
    log_err += (len(eigs) + 2) * eps * (float(np.sum(np.abs(logs))) + math.log(n_vertices))
    if log_value + math.log(math.expm1(log_err) + eps) < math.log(0.5):
        return TreeCount(log_value=log_value, value=round(math.exp(log_value)))
    return TreeCount(log_value=log_value, value=None)
