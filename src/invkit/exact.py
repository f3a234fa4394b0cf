"""Exact graph invariants over arbitrary-precision arithmetic.

Everything here is integer or `fractions.Fraction` work; no floating point.
Resistances come from a grounded-Laplacian solve in three steps, all over
the integers:

- Ordering. `graphs.min_degree_order` grounds a vertex of maximum degree
  and lists the rest in minimum-degree order on the elimination graph; that
  is the row order of the grounded Laplacian M. The neighbors a vertex has
  when it is eliminated are its row pattern in the echelon form U, so the
  symbolic factor comes with the order. The results do not depend on the
  order.
- Elimination. `_eliminate` is the one Bareiss fraction-free core. It runs
  over the row patterns only, and an entry that a step would merely rescale
  is left as it is and caught up in one exact division when it is next
  read. Its pivots are the leading principal minors of M; the last is
  det(M), the spanning-tree count (matrix-tree theorem), which doubles as
  the common denominator of every resistance.
- Reads off U. Y = det(M) * M^{-1} comes off U by an integer Takahashi
  recurrence summed over each row's pattern, so no right-hand side is
  eliminated and no back substitution runs. `_selected_inverse` runs it on
  the pattern and the diagonal only, which is what the pair sums and
  Foster's theorem read; `_inverse_from_u` runs it over all of Y, for num.
  `_bordered_form` gets w^T Y w by one fraction-free forward solve over U,
  the elimination of M bordered by w. Every division is exact, and the lone
  rational division happens when a value is read out.

With c_s the pattern size of row s, the tree count and the selected inverse
each cost about sum c_s^2 big-integer products, a forward solve about
nnz(U), and the whole inverse k nnz(U), for k = n - 1. On a random graph
with V = 200 and average degree 4.5, U holds about 2,400 entries off the
diagonal (sum c_s^2 is about 60,000); on a prism member with V = 200, about
690. Kf and Kf* times tau are sum w * sum_v w_v Y_vv - w^T Y w for unit and
degree weights w, so `full_report` on the general route never builds the
whole inverse or num: `ResistanceMatrix.num` does on first read. The solve
checks connectivity first, by one BFS. On the general route
`resistance_matrix` certifies the selected entries by Foster's theorem
before returning; num is certified the same way when it is built, on
either route, and `full_report` also certifies Kf <= W, with equality
exactly on trees.

Strong doubles. When every vertex has a twin, a partner with the same
neighbors apart from each other, `_twin_split` pairs them off in O(m), in
one pass over one table keyed by open and closed neighborhoods, and g is
K_2 strong H, with the vertical edge of each pair in a set D cut. Swapping
the pairs splits the Laplacian into A + B = 2 L(H) and A - B = diag(2 s_i),
s_i = deg_H(i) + 1 - [i in D], so `resistance_matrix` runs the solve above
on the k = n/2 vertices of H and expands it: tau(g) = 2^(2k-2) tau(H) prod
s_i, two copies of distinct i, j are r^H_ij / 4 + 1/(4 s_i) + 1/(4 s_j)
apart, and the two copies of i are 1/s_i apart. Graphs with a vertex that
has no twin, an odd class of twins, or fewer than 4 vertices take the
general solve: the quotient of g by one-vertex classes, which is g. Both
routes fill one record, `_Quotient`, with H's factor and the diagonal of
its grounded inverse X. `pairs_sum` and `weighted_pairs_sum` read the
diagonal and one forward solve over H (for unit weights, Kf(g) = Kf(H) + k
sum 1/s_i), and `_expand` builds num from the whole X. The twin route
builds X and num at once and takes the diagonal off X; the general route
takes it off the selected inverse and builds num on first read.
`full_report` reads Wiener and Gutman off one distance pass on H. Both
routes return the same integers. On a prism member, H is a cycle, whose
grounded inverse holds numbers of a few bits where g's holds hundreds
(README timings).

Distance-based indices (Wiener, Gutman) never touch the linear algebra.
`_distance_sum` grows every vertex's ball one level at a time as a
big-integer bitset, so all sources advance together in one pass of
O(diameter * E) word-parallel ORs instead of one BFS per source.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from operator import itemgetter, mul
from typing import NamedTuple

from .graphs import DisconnectedGraphError, Graph, degrees, is_connected, min_degree_order


def _grounded_rows(g: Graph) -> tuple[list[int], list[dict[int, int]]]:
    """(pos, rows): the grounded Laplacian M in minimum-degree order, over its symbolic factor.

    pos[v] is the index of vertex v in `min_degree_order(g)`; the vertex at
    n - 1 is grounded. rows[i] maps column i and then, ascending, every
    column of row i's pattern in U to M[i][j], which is 0 at a fill position.
    """
    order, pattern = min_degree_order(g)
    pos = [0] * g.vertex_count
    for i, v in enumerate(order):
        pos[v] = i
    rows = []
    for i, cols in enumerate(pattern):
        v = order[i]
        row = {i: len(g.adjacency[v])}
        row.update(dict.fromkeys(cols, 0))
        for w in g.adjacency[v]:
            if pos[w] in row:  # every later neighbor but the grounded vertex
                row[pos[w]] = -1
        rows.append(row)
    return pos, rows


def _eliminate(rows: list[dict[int, int]]) -> list[int]:
    """Bareiss fraction-free elimination of a symmetric matrix, in place; returns the pivots.

    rows[i] holds the upper triangle of row i: column j >= i maps to the
    entry, the diagonal first and then ascending, and every position the
    elimination can fill is already a key (`min_degree_order` gives them).
    The matrix must be positive definite, as every grounded Laplacian of a
    connected graph is: then pivot s, the leading principal minor of order
    s + 1, is positive and no row exchange is ever needed; the last pivot is
    det. A non-positive pivot means the precondition failed and raises
    ValueError. Afterwards rows[i] is row i of the echelon form U.

    Step s updates only the entries (i, j) with i <= j both in row s's
    pattern; its multipliers are row s itself, by symmetry. Every other
    entry would merely be rescaled by p_s / p_{s-1}, so it is left as it is
    and, when it is next read, catches up from the step t it was last
    brought up to date at in one rescale by p_{s-1} / p_{t-1}. The skipped
    factors telescope, and the caught-up entries are minors of the matrix,
    so the floor division is exact.
    """
    p = [1]  # p[s] = p_{s-1}, with p_{-1} = 1
    done = [dict.fromkeys(row, 0) for row in rows]  # entry (i, j) is current as of step done[i][j]
    for s, row in enumerate(rows):
        scale = p[s]
        for j, t in done[s].items():
            if t < s:
                row[j] = row[j] * scale // p[t]
        done[s] = None
        pivot = row[s]
        if pivot <= 0:
            raise ValueError("matrix is not positive definite")
        off = list(row.items())[1:]
        for a, (i, m) in enumerate(off):
            if not m:
                continue
            ri, di = rows[i], done[i]
            for j, x in off[a:]:
                t = di[j]
                v = ri[j] if t == s else ri[j] * scale // p[t]
                ri[j] = (pivot * v - m * x) // scale
                di[j] = s + 1
        p.append(pivot)
    return p[1:]


def _inverse_from_u(u: list[dict[int, int]], pivots: list[int]) -> list[list[int]]:
    """Y = det * M^{-1} from the echelon form U of M alone, zero-extended at the grounded vertex.

    Integer form of the Takahashi, Fagan & Chin (1973) recurrence, summed
    over each row's pattern (Erisman & Tinney 1975). With M = L D L^T (L
    unit lower triangular), U = diag(p) L^T, and L^T M^{-1} = D^{-1} L^{-1}
    is lower triangular, so for j >= i and p_{-1} = 1:

        p_i Y[i][j] = [i == j] det p_{i-1} - sum_{t in pattern(i)} U[i][t] Y[t][j]

    Rows run bottom-up. Each row's entries right of the diagonal come first,
    as combinations of the finished rows below, and are mirrored into its
    column; the diagonal then reads them. Y is the adjugate of M, so every
    division is exact, and one that is not raises ArithmeticError. Row and
    column k = len(u), the grounded vertex, are zero.
    """
    k = len(u)
    det = pivots[-1]
    y = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        p = pivots[i]
        coeffs = list(u[i].items())[1:]
        acc = [0] * (k - i - 1)  # minus the sum, for every j > i
        for t, c in coeffs:
            if c:
                acc = [s - c * x for s, x in zip(acc, y[t][i + 1 :])]
        yi = y[i]
        for j, s in enumerate(acc, i + 1):
            q, r = divmod(s, p)
            if r:
                raise ArithmeticError("inverse from U lost exactness")
            yi[j] = y[j][i] = q
        s = det * (pivots[i - 1] if i else 1) - sum(c * yi[t] for t, c in coeffs)
        q, r = divmod(s, p)
        if r:
            raise ArithmeticError("inverse from U lost exactness")
        yi[i] = q
    return y


def _selected_inverse(u: list[dict[int, int]], pivots: list[int]) -> list[dict[int, int]]:
    """Y = det * M^{-1} on the pattern of U and the diagonal, from U alone.

    `_inverse_from_u`'s recurrence restricted to the row patterns (selected
    inversion): z[i][j] = Y[i][j] for j = i, for j in pattern(i) and, by
    symmetry, for i in pattern(j). Row i reads Y[t][j] for t, j in
    pattern(i) only, and a row pattern is a clique of the filled graph, so
    that entry is in z[t] by the time row i runs (bottom-up). The cost is
    about sum c_i^2 products for pattern sizes c_i, against k nnz(U) for the
    whole inverse. Every division is checked exact, as there.
    """
    det = pivots[-1]
    z: list[dict[int, int]] = [{} for _ in u]
    for i in range(len(u) - 1, -1, -1):
        p = pivots[i]
        coeffs = list(u[i].items())[1:]
        cols = [t for t, _ in coeffs]
        acc = [0] * len(cols)  # minus the sum, for every j in pattern(i)
        for t, c in coeffs:
            if c:
                acc = [s - c * x for s, x in zip(acc, map(z[t].__getitem__, cols))]
        zi = z[i]
        for j, s in zip(cols, acc):
            q, r = divmod(s, p)
            if r:
                raise ArithmeticError("selected inverse lost exactness")
            zi[j] = z[j][i] = q
        q, r = divmod(det * (pivots[i - 1] if i else 1) - sum(c * zi[t] for t, c in coeffs), p)
        if r:
            raise ArithmeticError("selected inverse lost exactness")
        zi[i] = q
    return z


def _bordered_form(u: list[dict[int, int]], pivots: list[int], b: list[int]) -> int:
    """b^T adj(M) b from the echelon form U of M, by one fraction-free forward solve.

    Border M with the column b, its transpose and a zero corner. Bareiss
    over M's k pivots leaves the corner at the bordered determinant,
    -b^T adj(M) b (the Schur complement). Row s of U holds step s's
    multipliers, so with p_{-1} = 1, step s does

        corner <- (p_s corner - b_s^2) / p_{s-1}
        b_i <- (p_s b_i - U[s][i] b_s) / p_{s-1}   for U[s][i] != 0

    and every other b_i, which would merely be rescaled, catches up when it
    is next read, as in `_eliminate`. About nnz(U) products.
    """
    p = [1, *pivots]  # p[s] = p_{s-1}
    b = list(b)
    done = [0] * len(b)  # b[i] is current as of step done[i]
    corner = 0
    for s, row in enumerate(u):
        scale, pivot = p[s], p[s + 1]
        bs = b[s] * scale // p[done[s]]
        corner = (pivot * corner - bs * bs) // scale
        if not bs:
            continue
        for i, m in list(row.items())[1:]:
            if m:
                t = done[i]
                bi = b[i] if t == s else b[i] * scale // p[t]
                b[i] = (pivot * bi - m * bs) // scale
                done[i] = s + 1
    return -corner


class _Factor(NamedTuple):
    """A connected graph's grounded Laplacian M, eliminated by `_eliminate`.

    pos[v] is the row of vertex v in `min_degree_order`, the grounded vertex
    at k = len(u); u is the echelon form and pivots its pivots, the last
    det(M), the spanning-tree count.
    """

    pos: list[int]
    u: list[dict[int, int]]
    pivots: list[int]


def _factor(g: Graph) -> _Factor:
    pos, rows = _grounded_rows(g)
    return _Factor(pos, rows, _eliminate(rows))


def _check_foster(edge_sum: int, n: int, den: int) -> None:
    """Foster's theorem on n vertices: the resistances over the edges, edge_sum / den, add up to n - 1."""
    if edge_sum != (n - 1) * den:
        raise ArithmeticError("resistances fail Foster's theorem: the edge sum is not n - 1")


def _certified_diagonal(g: Graph, f: _Factor) -> list[int]:
    """x_vv = det * (M^{-1})_vv by vertex of g, 0 at the grounded vertex, read off `_selected_inverse`.

    Certifies the selected entries by Foster's theorem over g's edges first,
    which on x reads sum_v deg(v) x_vv - 2 sum_{uv in E} x_uv = (n - 1) det.
    An edge's later endpoint is in its earlier endpoint's pattern, and an
    edge to the grounded vertex has x_uv = 0.
    """
    z = _selected_inverse(f.u, f.pivots)
    ground = len(z)
    z.append({ground: 0})
    diag = [z[p][p] for p in f.pos]
    cross = 0
    for a, b in g.edges():
        i, j = f.pos[a], f.pos[b]
        if ground not in (i, j):
            cross += z[i][j]
    _check_foster(sum(map(mul, map(len, g.adjacency), diag)) - 2 * cross, g.vertex_count, f.pivots[-1])
    return diag


class _Quotient(NamedTuple):
    """g's quotient h by twin classes, h's factor and grounded diagonal, and the split's terms.

    On the general route the classes are single vertices: h = g, no cuts,
    scale 1 and every a_i 0. `_pairs_total` reads the pair sums off it and
    `_expand` builds num from it, on both routes.
    """

    h: Graph
    cls: list[int]  # the class of each vertex of g, a vertex of h
    cut: list[int]  # 1 when the two vertices of class i are not adjacent
    factor: _Factor  # h's grounded Laplacian M_h
    diag: list[int]  # x_ii of x = tau(h) M_h^{-1} by vertex of h, 0 at the grounded vertex
    scale: int  # 2^(2k-4) S
    a: list[int]  # 2^(2k-4) tau(h) S/s_i


@dataclass(eq=False)
class ResistanceMatrix:
    """Exact pairwise effective resistances with a shared denominator.

    Entry (i, j) equals num[i][j] / den. `den` is the spanning-tree count of
    the graph, which is the natural common denominator of every resistance.
    The pair sums are read off the solve record (`_Quotient`, private) on
    either route, never off num. num itself is built from the record's
    factor, and certified by Foster's theorem over the graph's edges, on
    its first read (of `num` or `entry`): on the general route that read
    pays for the whole grounded inverse and n^2 big integers, which the
    sums never need; the twin route builds it in `resistance_matrix`. Two
    matrices are equal when their order, den and num are.
    """

    order: int
    den: int
    _g: Graph = field(repr=False)
    _quotient: _Quotient = field(repr=False)
    _num: list[list[int]] | None = field(default=None, repr=False)

    @property
    def num(self) -> list[list[int]]:
        if self._num is None:
            f = self._quotient.factor
            self._num = _certified_num(self._g, self._quotient, self.den, _inverse_from_u(f.u, f.pivots))
        return self._num

    def __eq__(self, other):
        if not isinstance(other, ResistanceMatrix):
            return NotImplemented
        return (self.order, self.den, self.num) == (other.order, other.den, other.num)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def pairs_sum(self) -> Fraction:
        """Sum of resistances over unordered vertex pairs, read off the quotient."""
        return Fraction(_pairs_total(self._quotient, [1] * self.order), self.den)

    def weighted_pairs_sum(self, weights) -> Fraction:
        """Sum of weights[i] * weights[j] * r_ij over unordered pairs, read off the quotient."""
        return Fraction(_pairs_total(self._quotient, weights), self.den)


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

    When every vertex of g has a twin (`_twin_split`), solves the half-size
    quotient H; otherwise solves g itself. Either way the result is
    num[i][j] / den with den the spanning-tree count, so the two routes
    return identical matrices. The general route stops at the factor and
    certifies the selected entries of its inverse by Foster's theorem over
    g's edges; num is built, and certified over g's edges, on first read.
    The twin route builds H's whole inverse and num here and certifies num.
    Raises ArithmeticError if a check fails and DisconnectedGraphError on
    disconnected input.
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("resistance needs at least 2 vertices")
    if not is_connected(g):
        raise DisconnectedGraphError("graph is disconnected")
    split = _twin_split(g)
    if split is None:
        f = _factor(g)
        q = _Quotient(g, list(range(n)), [0] * n, f, _certified_diagonal(g, f), 1, [0] * n)
        return ResistanceMatrix(n, f.pivots[-1], g, q)
    h, cls, cut = split
    f = _factor(h)
    y, tau = _inverse_from_u(f.u, f.pivots), f.pivots[-1]
    s = [len(nbrs) + 1 - c for nbrs, c in zip(h.adjacency, cut)]
    big_s, shift = prod(s), 2 * h.vertex_count - 4
    q = _Quotient(h, cls, cut, f, [y[p][p] for p in f.pos], big_s << shift, [tau * (big_s // si) << shift for si in s])
    den = (tau * big_s) << (shift + 2)
    return ResistanceMatrix(n, den, g, q, _certified_num(g, q, den, y))


def _twin_split(g: Graph) -> tuple[Graph, list[int], list[int]] | None:
    """(h, cls, cut) when every vertex of g pairs off with a twin, else None.

    Twins u, v have the same neighbors apart from each other: the same open
    neighborhood (false twins, not adjacent) or the same closed one (true
    twins, adjacent). One pass over one table finds them: each vertex looks
    up its open neighborhood (cut) and its closed one (not cut), pairs with
    the vertex waiting under that key, and otherwise waits there itself. One
    table serves both kinds because an open neighborhood never equals a
    closed one (N(v) = N[w] would put v in N(v)), and no vertex pairs twice
    because no vertex has twins of both kinds: a true twin w and a false
    twin v of u would make v adjacent to w and so to u. Any pairing inside a
    class will do, since between two pairs the four edges are then all
    present or all absent; a vertex left unpaired, without a twin or from an
    odd class, leaves fewer than n / 2 pairs. So g is K_2 strong H with the
    verticals of some pairs cut, where the quotient h has one vertex per
    pair, pairs in order of their later vertex. cls[v] is the pair of
    vertex v, and cut[i] is 1 when pair i is not adjacent. Graphs with fewer
    than 4 vertices get None: the quotient of K_2 has one vertex, which the
    split cannot ground.
    """
    n = g.vertex_count
    if n % 2 or n < 4:
        return None
    adj = g.adjacency
    waiting: dict[tuple[int, ...], int] = {}
    pairs = []
    for v, a in enumerate(adj):
        i = bisect_left(a, v)
        for key, c in ((a, 1), (a[:i] + (v,) + a[i:], 0)):
            u = waiting.pop(key, None)
            if u is None:
                waiting[key] = v
            else:
                pairs.append((u, v, c))
    if 2 * len(pairs) != n:  # some vertex has no twin, or some class is odd
        return None
    cls = [0] * n
    for i, (u, v, _) in enumerate(pairs):
        cls[u] = cls[v] = i
    quotient = []
    for i, (u, _, _) in enumerate(pairs):
        nbrs = {cls[x] for x in adj[u]}
        nbrs.discard(i)
        quotient.append(tuple(sorted(nbrs)))
    return Graph(len(pairs), tuple(quotient)), cls, [c for _, _, c in pairs]


def _expand(q: _Quotient, y: list[list[int]]) -> list[list[int]]:
    """num for g from the whole grounded inverse of its quotient h, on either route.

    y is `_inverse_from_u` on the record's factor, x = tau(h) M_h^{-1} in
    solve order, and is read in place. With d_i = scale x_ii + a_i, over
    den, vertices of distinct classes i, j are t_ij = d_i + d_j - 2 scale
    x_ij apart and the two vertices of class i are t_ii = 4 a_i apart. On
    the twin route that is r^h_ij / 4 + 1/(4 s_i) + 1/(4 s_j) and 1/s_i; on
    the general one (scale 1, every a_i 0) it is x_ii + x_jj - 2 x_ij. t is
    built over its upper triangle and mirrored. With one-vertex classes it
    is num; otherwise each row of num is picked from t by class.
    """
    pos, pick = q.factor.pos, itemgetter(*q.factor.pos)
    scale2, a = q.scale << 1, q.a
    d = [q.scale * y[p][p] + ai for p, ai in zip(pos, a)]
    t = []
    for i, (di, p) in enumerate(zip(d, pos)):
        xi = pick(y[p])
        upper = [di + dj - scale2 * xij for dj, xij in zip(d[i + 1 :], xi[i + 1 :])]
        t.append([row[i] for row in t] + [a[i] << 2] + upper)
    if len(q.cls) == len(t):
        return t
    pick = itemgetter(*q.cls)
    num = [list(pick(t[i])) for i in q.cls]
    for v, row in enumerate(num):
        row[v] = 0
    return num


def _certified_num(g: Graph, q: _Quotient, den: int, y: list[list[int]]) -> list[list[int]]:
    """`_expand(q, y)`, once Foster's theorem over g's edges holds on it."""
    num = _expand(q, y)
    _check_foster(sum(num[u][v] for u, v in g.edges()), g.vertex_count, den)
    return num


def _class_sums(q: _Quotient, weights) -> tuple[list[int], list[int]]:
    """(W, P): for each class i of q, the sum of its vertices' weights and of w_u * w_v over its pairs."""
    k = q.h.vertex_count
    w, p = [0] * k, [0] * k
    for x, i in zip(weights, q.cls):
        p[i] += w[i] * x
        w[i] += x
    return w, p


def _pairs_total(q: _Quotient, weights) -> int:
    """Sum of weights[u] * weights[v] * num[u][v] over the unordered pairs of g, off the record alone.

    `_expand`'s table summed by pair, with W_i, P_i from `_class_sums`:

        scale (sum W * sum_i W_i x_ii - W^T x W) + sum_i a_i (W_i (sum W - W_i) + 4 P_i)

    No weight is assumed equal inside a class. On the general route that is
    sum w * sum_u w_u x_uu - w^T x w. The diagonal is the record's, and
    W^T x W is one `_bordered_form` over h's factor: no entry of x off the
    diagonal is read.
    """
    w, p = _class_sums(q, weights)
    pos, u, pivots = q.factor
    b = [0] * len(pos)
    for r, wi in zip(pos, w):
        b[r] = wi
    b.pop()  # the grounded vertex: its row and column of x are zero
    total_w = sum(w)
    form = total_w * sum(map(mul, w, q.diag)) - _bordered_form(u, pivots, b)
    return q.scale * form + sum(ai * (wi * (total_w - wi) + 4 * pi) for ai, wi, pi in zip(q.a, w, p))


def kirchhoff_index(g: Graph) -> Fraction:
    """Sum of effective resistances over unordered vertex pairs, exact."""
    return resistance_matrix(g).pairs_sum()


def mult_deg_kirchhoff(g: Graph) -> Fraction:
    """Degree-weighted resistance sum: sum of d_i * d_j * r_ij over pairs, exact."""
    return resistance_matrix(g).weighted_pairs_sum(degrees(g))


def _distance_sum(g: Graph, weights) -> int:
    """Sum of weights[u] * weights[v] * dist(u, v) over unordered pairs, for all sources at once.

    Word-parallel ball growth over big-integer bitsets: vertex u owns
    weights[u] consecutive bits, and ball_d(v) is the set of bits owned by
    the vertices within distance d of v. ball_0(v) is v's own bits, and
    ball_{d+1}(v) is ball_d(v) OR the ball_d of each neighbor, computed for
    every vertex from the previous level's balls. Level d adds
    w_v * (W - popcount(ball_d(v))) for every v, W the total weight: the
    weight of the vertices farther than d from v. Summed over all levels
    that is w_v times the weighted distance sum from v, so the total counts
    every pair twice. A vertex drops out once its ball is full.

    Every vertex that has a neighbor must have a positive weight, as unit
    weights and degrees do. Then a level that adds what the level before it
    added has grown no ball, and since some ball is not full, the graph is
    disconnected. A vertex without neighbors is refused first: under degree
    weights it owns no bits, so no ball could miss it.
    """
    n = g.vertex_count
    adj = g.adjacency
    if n > 1 and not all(adj):
        raise DisconnectedGraphError("distance is undefined on a disconnected graph")
    ball, total_w = [], 0
    for w in weights:
        ball.append(((1 << w) - 1) << total_w)
        total_w += w
    live = range(n)
    level = sum(w * (total_w - w) for w in weights)
    total = 0
    while level:
        total += level
        grown = []
        for v in live:
            b = ball[v]
            for u in adj[v]:
                b |= ball[u]
            grown.append(b)
        still, new = [], 0
        for v, b in zip(live, grown):
            ball[v] = b
            short = total_w - b.bit_count()
            if short:
                still.append(v)
                new += weights[v] * short
        if new == level:
            raise DisconnectedGraphError("distance is undefined on a disconnected graph")
        live, level = still, new
    return total // 2


def wiener(g: Graph) -> int:
    """Sum of shortest-path distances over unordered pairs."""
    return _distance_sum(g, [1] * g.vertex_count)


def gutman(g: Graph) -> int:
    """Degree-weighted distance sum: sum of d_i * d_j * dist(i, j) over pairs."""
    return _distance_sum(g, degrees(g))


def spanning_trees(g: Graph) -> int:
    """Spanning-tree count via the matrix-tree cofactor, exact.

    Returns 0 for disconnected graphs (no error: the count is well defined).
    """
    if g.vertex_count == 1:
        return 1
    if not is_connected(g):
        return 0
    return _eliminate(_grounded_rows(g)[1])[-1]


def full_report(g: Graph) -> InvariantReport:
    """Compute all five invariants exactly; DisconnectedGraphError if g is disconnected.

    Every sum is read off `resistance_matrix`'s quotient h (on the general
    route, g by one-vertex classes). Distinct classes i, j are dist_h(i, j)
    apart and the two vertices of class i 1, or 2 when cut, so with
    `_class_sums`' W_i, P_i and the class size c = n / |V(h)|, W and Gutman
    are c^2 (the pass on h with weights W_i / c) + sum_i P_i (1 + cut_i). On
    the twin route W(g) = 4 W(h) + k + |D| and Gutman(g) = 4 sum_{i<j} e_i
    e_j dist_h(i, j) + sum_i e_i^2 (1 + cut_i), as twins share a degree e_i;
    dividing out c before the pass halves its bits.

    Certifies Kf <= W, with equality exactly on trees (m = n - 1): r_uv <=
    dist(u, v) for every pair, with equality for all pairs only when every
    edge is a bridge. Raises ArithmeticError if that fails.
    """
    rm = resistance_matrix(g)
    q, deg = rm._quotient, degrees(g)
    c = g.vertex_count // q.h.vertex_count
    (_, p1), (e, pe) = _class_sums(q, [1] * g.vertex_count), _class_sums(q, deg)
    rep = InvariantReport(
        kf=rm.pairs_sum(),
        kf_star=rm.weighted_pairs_sum(deg),
        wiener=c * c * wiener(q.h) + sum(x * (1 + t) for x, t in zip(p1, q.cut)),
        gutman=c * c * _distance_sum(q.h, [x // c for x in e]) + sum(x * (1 + t) for x, t in zip(pe, q.cut)),
        tree_count=rm.den,
    )
    if rep.kf > rep.wiener or (rep.kf == rep.wiener) != (g.edge_count == g.vertex_count - 1):
        raise ArithmeticError("Kf and W fail their certificate: Kf <= W, with equality exactly on trees")
    return rep
