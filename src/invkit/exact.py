"""Exact graph invariants over arbitrary-precision arithmetic.

Everything here is integer or `fractions.Fraction` work; no floating point.
Resistances come from a grounded-Laplacian solve: delete the row and column
of vertex 0, invert the remaining matrix exactly, and read effective
resistances off the inverse. The inversion runs entirely over integers:
one Bareiss fraction-free forward elimination core, `_eliminate`, followed
by an integer back substitution that produces Y = det(M) * M^{-1}, so the
lone rational division happens when an entry is finally read out. Y is
exactly symmetric, so each solved column is stored as a row. The same core,
run without a right-hand side, gives the spanning-tree count (matrix-tree
cofactor), which doubles as the common denominator of every resistance.

Distance-based indices (Wiener, Gutman) use per-vertex BFS and never touch
the linear algebra.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import DisconnectedGraphError, Graph, degrees, is_connected


def _grounded_laplacian(g: Graph) -> list[list[int]]:
    """Laplacian of g with row/column 0 deleted, as Python-int rows."""
    k = g.vertex_count - 1
    m = [[0] * k for _ in range(k)]
    for i in range(1, g.vertex_count):
        row = m[i - 1]
        row[i - 1] = len(g.adjacency[i])
        for j in g.adjacency[i]:
            if j >= 1:
                row[j - 1] = -1
    return m


def _eliminate(a: list[list[int]], b: list[list[int]] | None = None) -> int:
    """Bareiss fraction-free forward elimination of `a`, in place; returns det(a).

    `a` must be symmetric positive definite, as every grounded Laplacian of a
    connected graph is: then each leading pivot is positive and no row
    exchange is ever needed. A non-positive pivot means the precondition
    failed and raises ValueError. Afterwards the upper triangle of `a` holds
    the echelon form U, and everything below the diagonal is zero.

    If `b` (the identity) is given, every row operation is applied to it too.
    Row i of b stays zero right of column i, and b[i][col] is still 0 when
    step `col` reaches row i, so the step touches columns 0..col and b[i][i].
    A row whose multiplier is zero is only rescaled.
    """
    k = len(a)
    prev = 1
    for col in range(k):
        pivot = a[col][col]
        if pivot <= 0:
            raise ValueError("matrix is not positive definite")
        arow = a[col]
        brow = None if b is None else b[col]
        for i in range(col + 1, k):
            ai = a[i]
            m = ai[col]
            if m:
                for j in range(col + 1, k):
                    ai[j] = (pivot * ai[j] - m * arow[j]) // prev
                ai[col] = 0  # unread from here on; frees the big integer
            else:
                for j in range(col + 1, k):
                    ai[j] = (pivot * ai[j]) // prev
            if brow is not None:
                bi = b[i]
                if m:
                    for j in range(col + 1):
                        bi[j] = (pivot * bi[j] - m * brow[j]) // prev
                else:
                    for j in range(col):
                        bi[j] = (pivot * bi[j]) // prev
                bi[i] = (pivot * bi[i]) // prev
        prev = pivot
    return prev


def _solve_inverse_scaled(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Return (det, Y) with Y = det * inverse, for symmetric positive definite input.

    Eliminates [M | I] with `_eliminate`, then solves U y = det * b column by
    column in exact integers (every intermediate quotient is an integer by
    Cramer's rule). Y is exactly symmetric, so column c is stored as row c.
    Consumes `a`.
    """
    k = len(a)
    b = [[0] * k for _ in range(k)]
    for i in range(k):
        b[i][i] = 1
    det = _eliminate(a, b)
    y = []
    for c in range(k):
        col_y = [0] * k
        for i in range(k - 1, -1, -1):
            s = det * b[i][c]
            ai = a[i]
            for j in range(i + 1, k):
                s -= ai[j] * col_y[j]
            q, rem = divmod(s, ai[i])
            assert rem == 0, "back substitution lost exactness"
            col_y[i] = q
        y.append(col_y)
    return det, y


@dataclass
class ResistanceMatrix:
    """Exact pairwise effective resistances with a shared denominator.

    Entry (i, j) equals num[i][j] / den. `den` is the spanning-tree count of
    the graph, which is the natural common denominator of every resistance.
    """

    order: int
    num: list[list[int]]
    den: int

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def pairs_sum(self) -> Fraction:
        """Sum of resistances over unordered vertex pairs."""
        total = sum(self.num[i][j] for i in range(self.order) for j in range(i + 1, self.order))
        return Fraction(total, self.den)

    def weighted_pairs_sum(self, weights) -> Fraction:
        """Sum of weights[i] * weights[j] * r_ij over unordered pairs."""
        total = 0
        for i in range(self.order):
            wi = weights[i]
            row = self.num[i]
            for j in range(i + 1, self.order):
                total += wi * weights[j] * row[j]
        return Fraction(total, self.den)


@dataclass
class InvariantReport:
    """All five invariants of one graph, with a method tag per field."""

    kf: Fraction
    kf_star: Fraction
    wiener: int
    gutman: int
    tree_count: int
    methods: dict[str, str] = field(
        default_factory=lambda: {k: "exact" for k in ("kf", "kf_star", "wiener", "gutman", "tree_count")}
    )


def resistance_matrix(g: Graph) -> ResistanceMatrix:
    """Exact effective resistance between every vertex pair.

    Grounds vertex 0, inverts the reduced Laplacian exactly, and assembles
    r_ij = x_ii + x_jj - 2 x_ij where x is the grounded inverse extended by
    zeros at vertex 0. Raises DisconnectedGraphError on disconnected input.
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("resistance needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedGraphError("resistance distance requires a connected graph")
    det, x = _solve_inverse_scaled(_grounded_laplacian(g))
    # zero-extend at vertex 0 in place: x[0][*] = x[*][0] = 0
    for row in x:
        row.insert(0, 0)
    x.insert(0, [0] * n)
    diag = [x[i][i] for i in range(n)]
    num = [[0] * n for _ in range(n)]
    for i in range(n):
        di = diag[i]
        xi = x[i]
        row = num[i]
        for j in range(i + 1, n):
            val = di + diag[j] - 2 * xi[j]
            row[j] = val
            num[j][i] = val
    return ResistanceMatrix(order=n, num=num, den=det)


def kirchhoff_index(g: Graph) -> Fraction:
    """Sum of effective resistances over unordered vertex pairs, exact."""
    return resistance_matrix(g).pairs_sum()


def mult_deg_kirchhoff(g: Graph) -> Fraction:
    """Degree-weighted resistance sum: sum of d_i * d_j * r_ij over pairs, exact."""
    return resistance_matrix(g).weighted_pairs_sum(degrees(g))


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    if min(dist) < 0:
        raise DisconnectedGraphError("distance is undefined on a disconnected graph")
    return dist


def distance_matrix(g: Graph) -> list[list[int]]:
    """All-pairs shortest-path distances via BFS from every vertex."""
    return [_bfs_distances(g, s) for s in range(g.vertex_count)]


def vertex_distance_sum(g: Graph, i: int) -> int:
    """Sum of distances from vertex i to every vertex."""
    return sum(_bfs_distances(g, i))


def wiener(g: Graph) -> int:
    """Sum of shortest-path distances over unordered pairs."""
    return sum(sum(_bfs_distances(g, s)) for s in range(g.vertex_count)) // 2


def gutman(g: Graph) -> int:
    """Degree-weighted distance sum: sum of d_i * d_j * dist(i, j) over pairs."""
    deg = degrees(g)
    total = 0
    for s in range(g.vertex_count):
        dist = _bfs_distances(g, s)
        ds = deg[s]
        total += ds * sum(deg[t] * dist[t] for t in range(g.vertex_count))
    return total // 2


def spanning_trees(g: Graph) -> int:
    """Spanning-tree count via the matrix-tree cofactor, exact.

    Returns 0 for disconnected graphs (no error: the count is well defined).
    """
    if g.vertex_count == 1:
        return 1
    if not is_connected(g):
        return 0
    return _eliminate(_grounded_laplacian(g))


def full_report(g: Graph) -> InvariantReport:
    """Compute all five invariants exactly; DisconnectedGraphError if g is disconnected."""
    rm = resistance_matrix(g)
    deg = degrees(g)
    return InvariantReport(
        kf=rm.pairs_sum(),
        kf_star=rm.weighted_pairs_sum(deg),
        wiener=wiener(g),
        gutman=gutman(g),
        tree_count=rm.den,
    )
