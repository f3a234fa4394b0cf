"""Independent oracles for the test suite.

Everything here recomputes quantities by a different route than the library:
brute-force enumeration, Laplace cofactor expansion, Floyd-Warshall, one
BFS per source, or series-parallel reduction. Slow on purpose; only run on
small graphs.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from fractions import Fraction

from invkit import DisconnectedGraphError, Graph


def assert_simple_symmetric(g: Graph) -> None:
    """Exhaustive audit of the graph type invariants."""
    assert g.vertex_count >= 1
    for u, nbrs in enumerate(g.adjacency):
        assert list(nbrs) == sorted(set(nbrs)), f"unsorted/duplicated neighbors at {u}"
        assert u not in nbrs, f"self-loop at {u}"
        for v in nbrs:
            assert 0 <= v < g.vertex_count
            assert u in g.adjacency[v], f"asymmetry: {u}->{v} without {v}->{u}"
    assert sum(len(a) for a in g.adjacency) == 2 * g.edge_count


def brute_force_spanning_trees(g: Graph) -> int:
    """Count spanning trees by enumerating (n-1)-edge subsets with union-find."""
    n = g.vertex_count
    if n == 1:
        return 1
    count = 0
    for subset in itertools.combinations(g.edges(), n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


def floyd_warshall(g: Graph) -> list[list[float]]:
    """All-pairs distances by Floyd-Warshall (not BFS, on purpose)."""
    n = g.vertex_count
    dist = [[0.0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def brute_force_wiener(g: Graph) -> int:
    dist = floyd_warshall(g)
    total = sum(dist[i][j] for i in range(g.vertex_count) for j in range(i + 1, g.vertex_count))
    assert total < math.inf, "graph is disconnected"
    return int(total)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distance from `source` to every vertex; DisconnectedGraphError if one is unreached."""
    dist = [-1] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if -1 in dist:
        raise DisconnectedGraphError("distance is undefined on a disconnected graph")
    return dist


def bfs_distance_sum(g: Graph, weights) -> int:
    """Sum of weights[u] * weights[v] * dist(u, v) over unordered pairs, by one BFS per source."""
    total = 0
    for s in range(g.vertex_count):
        dist = bfs_distances(g, s)
        total += weights[s] * sum(w * d for w, d in zip(weights, dist))
    return total // 2


def laplace_det(m: list[list[Fraction]]) -> Fraction:
    """Determinant by cofactor expansion along the first row. O(n!) on purpose."""
    k = len(m)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(k):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = Fraction(m[0][j]) * laplace_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _laplacian_rows(g: Graph) -> list[list[int]]:
    n = g.vertex_count
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = len(g.adjacency[i])
        for j in g.adjacency[i]:
            rows[i][j] = -1
    return rows


def cofactor_resistance(g: Graph, i: int, j: int) -> Fraction:
    """Two-point resistance as a ratio of Laplacian cofactors.

    r_ij = det(L with rows/cols {i, j} removed) / det(L with row/col i removed).
    Completely independent of the grounded-solve path.
    """
    rows = _laplacian_rows(g)

    def deleted(keep_out: set[int]) -> list[list[Fraction]]:
        keep = [v for v in range(g.vertex_count) if v not in keep_out]
        return [[Fraction(rows[a][b]) for b in keep] for a in keep]

    two_forests = laplace_det(deleted({i, j}))
    trees = laplace_det(deleted({i}))
    return two_forests / trees


def cycle_pair_resistance(n: int, i: int, j: int) -> Fraction:
    """Series-parallel reduction on a cycle: the two arcs in parallel."""
    d = abs(i - j) % n
    d = min(d, n - d)
    if d == 0:
        return Fraction(0)
    return Fraction(d * (n - d), n)


def random_tree(rng, n: int) -> Graph:
    """Uniform random labeled tree via Pruefer decoding."""
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


def random_connected_graph(rng, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Random spanning tree plus a sprinkling of extra edges; always connected."""
    tree = random_tree(rng, n)
    present = set(tree.edges())
    edges = list(present)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < extra_edge_prob:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_sparse_graph(rng, v: int) -> Graph:
    """Random connected graph of average degree 4.5 on v >= 6 vertices.

    A random spanning tree, edge (rng.randrange(i), i) for i = 1..v-1, then
    uniform random edges until there are round(4.5 v / 2). Seeded CI steps
    rebuild their inputs from this, so keep its use of rng unchanged. Below
    6 vertices that many edges do not fit, and it raises ValueError before
    drawing anything.
    """
    if v < 6:
        raise ValueError(f"random_sparse_graph needs v >= 6, got {v}")
    edges = {(rng.randrange(i), i) for i in range(1, v)}
    while len(edges) < round(4.5 * v / 2):
        edges.add(tuple(sorted(rng.sample(range(v), 2))))
    return Graph.from_edges(v, edges)


def _dense_grounded_laplacian(g: Graph) -> list[list[int]]:
    """Laplacian with vertex 0's row and column deleted, natural vertex order."""
    k = g.vertex_count - 1
    rows = [[0] * k for _ in range(k)]
    for i in range(1, g.vertex_count):
        rows[i - 1][i - 1] = len(g.adjacency[i])
        for j in g.adjacency[i]:
            if j >= 1:
                rows[i - 1][j - 1] = -1
    return rows


def _dense_bareiss(a: list[list[int]], b: list[list[int]] | None = None) -> int:
    """Textbook Bareiss elimination over the whole matrix, every row rescaled at every step.

    Applies each row operation to `b` as well when given; returns det(a).
    """
    k = len(a)
    prev = 1
    for col in range(k):
        pivot = a[col][col]
        assert pivot > 0, "grounded Laplacian of a connected graph is positive definite"
        for i in range(col + 1, k):
            m = a[i][col]
            for j in range(col + 1, k):
                a[i][j] = (pivot * a[i][j] - m * a[col][j]) // prev
            a[i][col] = 0
            if b is not None:
                for j in range(k):
                    b[i][j] = (pivot * b[i][j] - m * b[col][j]) // prev
        prev = pivot
    return prev


def bareiss_tree_count(g: Graph) -> int:
    """Matrix-tree cofactor by dense Bareiss elimination, grounding vertex 0."""
    if g.vertex_count == 1:
        return 1
    return _dense_bareiss(_dense_grounded_laplacian(g))


def bareiss_resistance(g: Graph) -> tuple[list[list[int]], int]:
    """(num, den) of every effective resistance by eliminating [M | I] and back-substituting.

    M is the Laplacian grounded at vertex 0 in the natural order; den is
    det(M), and num[i][j] = den * r_ij, from Y = den * M^{-1}.
    """
    n = g.vertex_count
    k = n - 1
    a = _dense_grounded_laplacian(g)
    b = [[int(i == j) for j in range(k)] for i in range(k)]
    det = _dense_bareiss(a, b)
    x = [[0] * n for _ in range(n)]
    for c in range(k):
        col = [0] * k
        for i in range(k - 1, -1, -1):
            s = det * b[i][c] - sum(a[i][j] * col[j] for j in range(i + 1, k))
            q, rem = divmod(s, a[i][i])
            assert rem == 0, "back substitution lost exactness"
            col[i] = q
        for i in range(k):
            x[i + 1][c + 1] = col[i]
    num = [[x[i][i] + x[j][j] - 2 * x[i][j] for j in range(n)] for i in range(n)]
    return num, det


def reference_min_degree_order(g: Graph) -> tuple[list[int], list[list[int]]]:
    """Minimum-degree order and row patterns by a plain scan over the live vertices.

    The same grounding and tie-breaking as `graphs.min_degree_order` (ground
    the first vertex of maximum degree, then eliminate by (degree, label)),
    which keeps a heap instead.
    """
    adj = g.adjacency
    ground = max(range(g.vertex_count), key=lambda v: (len(adj[v]), -v))
    alive = {v: set(adj[v]) - {ground} for v in range(g.vertex_count) if v != ground}
    order, cliques = [], []
    while alive:
        v = min(alive, key=lambda u: (len(alive[u]), u))
        clique = alive.pop(v)
        for u in clique:
            alive[u] = (alive[u] | clique) - {u, v}
        order.append(v)
        cliques.append(clique)
    order.append(ground)
    pos = {v: i for i, v in enumerate(order)}
    return order, [sorted(pos[u] for u in c) for c in cliques]
