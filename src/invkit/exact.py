"""Exact graph invariants over arbitrary-precision arithmetic.

Everything here is integer or `fractions.Fraction` work; no floating point.
Resistances come from a grounded-Laplacian solve in three steps, all over
the integers:

- Ordering. `graphs.rcm_order` (reverse Cuthill-McKee) lists the vertices so
  that the Laplacian's nonzeros sit near the diagonal; its last vertex is
  grounded and the rest give the row order of the grounded Laplacian M. A
  prism member's bandwidth drops from 2n - 1 to at most 7. The results do not
  depend on this choice. It is also the solve's connectivity check: it raises
  DisconnectedGraphError when its search misses a vertex.
- Elimination. `_eliminate` is the one Bareiss fraction-free core. It works
  only inside the envelope of M (`_envelope`), and a row whose multiplier
  is zero is not rescaled at that step but caught up in one exact division
  when it is next used. Its pivots are the leading principal minors of M;
  the last is det(M), the spanning-tree count (matrix-tree theorem), which
  doubles as the common denominator of every resistance.
- Inverse from U. `_inverse_from_u` reads Y = det(M) * M^{-1} off the
  echelon form U by an integer Takahashi recurrence, so no right-hand side
  is eliminated and no back substitution runs. Every division is checked
  exact, and the lone rational division happens when an entry is read out.

With beta the bandwidth after ordering, the tree count costs O(k beta^2)
big-integer operations and the dense inverse O(k^2 beta), for k = n - 1.
`resistance_matrix` certifies its result by Foster's theorem before
returning it.

Distance-based indices (Wiener, Gutman) run the package's one BFS,
`graphs._bfs`, from every vertex and never touch the linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .graphs import DisconnectedGraphError, Graph, _bfs, degrees, is_connected, rcm_order


def _rcm_positions(g: Graph) -> list[int]:
    """pos[v]: the index of vertex v in `rcm_order(g)`; index n - 1 is the grounded vertex."""
    pos = [0] * g.vertex_count
    for i, v in enumerate(rcm_order(g)):
        pos[v] = i
    return pos


def _grounded_laplacian(g: Graph, pos: list[int]) -> list[list[int]]:
    """Laplacian of g with vertex v at row and column pos[v], the vertex at n - 1 deleted."""
    k = g.vertex_count - 1
    m = [[0] * k for _ in range(k)]
    for v, i in enumerate(pos):
        if i < k:
            row = m[i]
            row[i] = len(g.adjacency[v])
            for w in g.adjacency[v]:
                if pos[w] < k:
                    row[pos[w]] = -1
    return m


def _envelope(a: list[list[int]]) -> list[int]:
    """hi[i]: the last column that row i of symmetric `a`, or of its echelon form, can fill.

    Column j > i of row i is structurally zero unless row j has a nonzero at
    or left of column i, so hi[i] = max{j : first nonzero of row j <= i}.
    Elimination never fills past it.
    """
    hi = list(range(len(a)))
    for j, row in enumerate(a):
        lead = next(filter(None, row[: j + 1]), 0)
        if lead:
            hi[row.index(lead)] = j  # at the column of row j's first nonzero
    return list(accumulate(hi, max))


def _eliminate(a: list[list[int]], hi: list[int]) -> list[int]:
    """Bareiss fraction-free elimination of `a`, in place; returns the pivots.

    `a` must be symmetric positive definite, as every grounded Laplacian of a
    connected graph is: then pivot s, the leading principal minor of order
    s + 1, is positive and no row exchange is ever needed; the last pivot is
    det(a). A non-positive pivot means the precondition failed and raises
    ValueError. Afterwards the upper triangle of `a` holds the echelon form U,
    zero right of column hi[i] in row i (`hi` is `_envelope(a)`), and everything
    below the diagonal is zero.

    Only the envelope is touched. Step s would merely rescale a row whose
    multiplier is zero by p_s / p_{s-1}; such a row is left as it is, and
    when it is next used it catches up from the step t it was last brought
    up to date at, in one rescale by p_{s-1} / p_{t-1}. The skipped factors
    telescope, and the caught-up entries are minors of `a`, so the floor
    division is exact.
    """
    k = len(a)
    pivots: list[int] = []
    done = [0] * k  # row i holds its entries as of step done[i]
    scale = 1  # p_{s-1}, with p_{-1} = 1

    def catch_up(i: int, s: int) -> None:
        row = a[i]
        t = done[i]
        old = pivots[t - 1] if t else 1
        for j in range(s, hi[i] + 1):
            row[j] = row[j] * scale // old
        done[i] = s

    for s in range(k):
        if done[s] < s:
            catch_up(s, s)
        arow = a[s]
        pivot = arow[s]
        if pivot <= 0:
            raise ValueError("matrix is not positive definite")
        end = hi[s] + 1
        for i in range(s + 1, end):
            ai = a[i]
            if not ai[s]:
                continue
            if done[i] < s:
                catch_up(i, s)
            m = ai[s]
            ai[s] = 0  # unread from here on; frees the big integer
            for j in range(s + 1, end):
                ai[j] = (pivot * ai[j] - m * arow[j]) // scale
            for j in range(end, hi[i] + 1):
                ai[j] = pivot * ai[j] // scale
            done[i] = s + 1
        pivots.append(pivot)
        scale = pivot
    return pivots


def _inverse_from_u(u: list[list[int]], pivots: list[int], hi: list[int]) -> list[list[int]]:
    """Y = det * M^{-1} from the echelon form U of M alone, as a full symmetric matrix.

    Integer form of the Takahashi, Fagan & Chin (1973) recurrence. With
    M = L D L^T (L unit lower triangular), U = diag(p) L^T, and
    L^T M^{-1} = D^{-1} L^{-1} is lower triangular, so for j >= i and
    p_{-1} = 1:

        p_i Y[i][j] = [i == j] det p_{i-1} - sum_{i < t <= hi[i]} U[i][t] Y[t][j]

    Rows run bottom-up. Each row's entries right of the diagonal come first,
    as combinations of the finished rows below, and are mirrored into its
    column; the diagonal then reads them. Y is the adjugate of M, so every
    division is exact, and one that is not raises ArithmeticError.
    """
    k = len(u)
    det = pivots[-1]
    y = [[0] * k for _ in range(k)]
    for i in range(k - 1, -1, -1):
        p = pivots[i]
        end = hi[i] + 1
        coeffs = u[i][i + 1 : end]
        acc = [0] * (k - i - 1)  # minus the sum, for every j > i
        for c, yt in zip(coeffs, y[i + 1 : end]):
            if c:
                acc = [s - c * x for s, x in zip(acc, yt[i + 1 :])]
        yi = y[i]
        for j, s in enumerate(acc, i + 1):
            q, r = divmod(s, p)
            if r:
                raise ArithmeticError("inverse from U lost exactness")
            yi[j] = y[j][i] = q
        s = det * (pivots[i - 1] if i else 1) - sum(map(mul, coeffs, yi[i + 1 : end]))
        q, r = divmod(s, p)
        if r:
            raise ArithmeticError("inverse from U lost exactness")
        yi[i] = q
    return y


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
    """All five invariants of one graph, exact."""

    kf: Fraction
    kf_star: Fraction
    wiener: int
    gutman: int
    tree_count: int


def resistance_matrix(g: Graph) -> ResistanceMatrix:
    """Exact effective resistance between every vertex pair.

    Grounds the last vertex of `rcm_order`, inverts the reduced Laplacian
    exactly, and assembles r_ij = x_ii + x_jj - 2 x_ij where x is the grounded
    inverse extended by zeros at the grounded vertex. Before returning it
    checks Foster's theorem, sum of r_uv over the edges = n - 1, and raises
    ArithmeticError if that fails. Raises DisconnectedGraphError on
    disconnected input.
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("resistance needs at least 2 vertices")
    pos = _rcm_positions(g)  # rcm_order is the connectivity check
    a = _grounded_laplacian(g, pos)
    hi = _envelope(a)
    pivots = _eliminate(a, hi)
    det = pivots[-1]
    x = _inverse_from_u(a, pivots, hi)
    # zero-extend at the grounded vertex, index n - 1
    for row in x:
        row.append(0)
    x.append([0] * n)
    diag = [x[p][p] for p in pos]
    num = [[0] * n for _ in range(n)]
    for i in range(n):
        di = diag[i]
        xi = x[pos[i]]
        row = num[i]
        for j in range(i + 1, n):
            val = di + diag[j] - 2 * xi[pos[j]]
            row[j] = val
            num[j][i] = val
    if sum(num[u][v] for u, v in g.edges()) != (n - 1) * det:
        raise ArithmeticError("resistances fail Foster's theorem: the edge sum is not n - 1")
    return ResistanceMatrix(order=n, num=num, den=det)


def kirchhoff_index(g: Graph) -> Fraction:
    """Sum of effective resistances over unordered vertex pairs, exact."""
    return resistance_matrix(g).pairs_sum()


def mult_deg_kirchhoff(g: Graph) -> Fraction:
    """Degree-weighted resistance sum: sum of d_i * d_j * r_ij over pairs, exact."""
    return resistance_matrix(g).weighted_pairs_sum(degrees(g))


def _bfs_distances(g: Graph, source: int) -> list[int]:
    order, dist = _bfs(g.adjacency, source)
    if len(order) < g.vertex_count:
        raise DisconnectedGraphError("distance is undefined on a disconnected graph")
    return dist


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
    a = _grounded_laplacian(g, _rcm_positions(g))
    return _eliminate(a, _envelope(a))[-1]


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
