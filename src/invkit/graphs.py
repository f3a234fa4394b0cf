"""Simple undirected graphs: the core type, family generators, and edge-list I/O.

Vertices are 0-based integers. Adjacency is stored as a tuple of sorted
neighbor tuples, so `Graph` values are immutable and hashable. Dense
matrices are never stored here; the spectral and exact modules build them
on demand.

`prism_family` is `strong_double` of C_n, so vertex n+i sits above vertex i
on the other rim. `PrismSpec.deleted` uses 1-based rim positions, so
deleting position i removes the vertical edge {i-1, n+i-1}.

`is_connected` is the package's one graph search; the distance indices of
`exact` grow bitset balls instead. `min_degree_order` gives the exact solve
its elimination order and fill.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field


class EdgeListParseError(ValueError):
    """Malformed edge-list text; `line_no` is the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DisconnectedGraphError(ValueError):
    """An operation that requires a connected graph received a disconnected one."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    Attributes
    ----------
    vertex_count : int
        Number of vertices, labeled 0..vertex_count-1.
    adjacency : tuple of tuples
        adjacency[v] lists the neighbors of v in ascending order.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs, validating simplicity.

        Self-loops, duplicate edges (in either orientation), and out-of-range
        endpoints raise ValueError.
        """
        if vertex_count < 1:
            raise ValueError(f"vertex_count must be >= 1, got {vertex_count}")
        nbrs: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(vertex_count, tuple(tuple(sorted(s)) for s in nbrs))

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.vertex_count) for v in self.adjacency[u] if u < v]


@dataclass(frozen=True)
class PrismSpec:
    """Parameters of one member of the vertical-edge-deleted doubled-cycle family.

    `n` is the rim length (>= 3). `deleted` holds 1-based rim positions whose
    vertical edge is removed; r = len(deleted) may run from 0 to n.
    """

    n: int
    deleted: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"rim length must be >= 3, got {self.n}")
        deleted = frozenset(self.deleted)
        object.__setattr__(self, "deleted", deleted)
        bad = [i for i in deleted if not 1 <= i <= self.n]
        if bad:
            raise ValueError(f"deleted positions {sorted(bad)} outside 1..{self.n}")

    @property
    def r(self) -> int:
        return len(self.deleted)


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices, edges {i, (i+1) mod n}."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """Path on n >= 1 vertices (n-1 edges; a single vertex for n = 1)."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def strong_double(h: Graph, cut=frozenset()) -> Graph:
    """The strong product P_2 ⊠ h without the vertical edge {i, k+i} of each vertex i of h in `cut`.

    Copy a of vertex i is vertex a*k + i, k = |V(h)|. Two distinct vertices
    are adjacent iff their vertices of h are equal or adjacent in h.
    Rows are spliced from h's sorted rows. A cut vertex outside 0..k-1 raises ValueError.
    """
    k = h.vertex_count
    if not all(0 <= i < k for i in cut):
        raise ValueError(f"cut vertices {sorted(cut)} not all in 0..{k - 1}")
    lower, upper = [], []
    for i, nb in enumerate(h.adjacency):
        up = tuple(k + j for j in nb)
        p = bisect_left(nb, i)
        joined = i not in cut
        lower.append(nb + up[:p] + (k + i,) + up[p:] if joined else nb + up)
        upper.append(nb[:p] + (i,) + nb[p:] + up if joined else nb + up)
    return Graph(2 * k, tuple(lower + upper))


def prism_family(spec: PrismSpec) -> Graph:
    """Doubled cycle with crossed diagonals, minus the spec's vertical edges: a strong double of C_n."""
    return strong_double(cycle(spec.n), {i - 1 for i in spec.deleted})


def rim_swap(n: int) -> tuple[int, ...]:
    """Permutation swapping copies i and n+i of each vertex of any 2n-vertex `strong_double`, e.g. a prism's rims."""
    return tuple(range(n, 2 * n)) + tuple(range(n))


def is_connected(g: Graph) -> bool:
    """BFS reachability of every vertex from vertex 0."""
    seen = [False] * g.vertex_count
    seen[0] = True
    order = [0]
    for u in order:  # order grows while it is read: a queue that keeps its history
        for v in g.adjacency[u]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    return len(order) == g.vertex_count


def degrees(g: Graph) -> list[int]:
    """Degree of every vertex, indexed by vertex."""
    return [len(a) for a in g.adjacency]


def min_degree_order(g: Graph) -> tuple[list[int], list[list[int]]]:
    """Minimum-degree elimination order of the grounded Laplacian, with its symbolic factor.

    One vertex of maximum degree (ties by label) is grounded and listed last.
    The rest are eliminated one at a time from the graph without it, always a
    vertex of minimum current degree (ties by label), and each elimination
    joins the eliminated vertex's neighbors into a clique. Those neighbors
    are the row pattern of the eliminated vertex in the echelon form U of the
    Laplacian listed in this order, so the order comes with its fill. The
    degrees are exact, where approximate minimum degree (Amestoy, Davis &
    Duff 1996) bounds them; a heap keyed by (degree, label) finds the next
    vertex.

    Returns (order, pattern): pattern[i] lists, ascending, the positions in
    `order` of the neighbors order[i] has when it is eliminated, i < n - 1.
    A disconnected graph gets an order too; its grounded Laplacian is
    singular, and the elimination says so.
    """
    n = g.vertex_count
    ground = max(range(n), key=lambda v: len(g.adjacency[v]))
    nbrs = [set(a) for a in g.adjacency]
    for u in g.adjacency[ground]:
        nbrs[u].discard(ground)
    heap = [(len(s), v) for v, s in enumerate(nbrs) if v != ground]
    heapq.heapify(heap)
    order: list[int] = []
    cliques: list[set[int]] = []
    for _ in range(n - 1):
        while True:  # an entry is live while its degree is the vertex's current one
            d, v = heapq.heappop(heap)
            s = nbrs[v]
            if s is not None and len(s) == d:
                break
        nbrs[v] = None
        for u in s:
            su = nbrs[u]
            su.discard(v)
            su |= s
            su.discard(u)
            heapq.heappush(heap, (len(su), u))
        order.append(v)
        cliques.append(s)
    order.append(ground)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    return order, [sorted(map(pos.__getitem__, s)) for s in cliques]


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list interchange format.

    First non-comment line is "n m"; each of the following m non-comment
    lines is "u v" with 0 <= u, v < n and u != v. '#' starts a comment line.
    Raises EdgeListParseError with the offending line number on any defect.
    The graph allocates one set per declared vertex, so a caller reading an
    untrusted header checks m >= n - 1 first, as the CLI does: fewer edges
    cannot connect n vertices.
    """
    return Graph.from_edges(*_read_edge_list(text))


def _read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Validate edge-list text line by line; (n, edges), with nothing yet allocated per vertex.

    Each edge appears once, as (min, max), in file order. One dict keyed by
    those pairs holds the edges and finds duplicates in either orientation.
    """
    n = m = None
    edges: dict[tuple[int, int], None] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2:
                raise EdgeListParseError(line_no, f"expected header 'n m', got {line!r}")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise EdgeListParseError(line_no, f"non-integer header {line!r}") from None
            if n < 1 or m < 0:
                raise EdgeListParseError(line_no, f"invalid header counts n={n} m={m}")
            continue
        if len(fields) != 2:
            raise EdgeListParseError(line_no, f"expected 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer endpoints {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(line_no, f"vertex out of range in ({u}, {v}), n={n}")
        if u == v:
            raise EdgeListParseError(line_no, f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise EdgeListParseError(line_no, f"duplicate edge ({u}, {v})")
        edges[key] = None
    if n is None:
        raise EdgeListParseError(1, "empty input, expected header 'n m'")
    if len(edges) != m:
        raise EdgeListParseError(
            len(text.splitlines()) or 1,
            f"header declared {m} edges, found {len(edges)}",
        )
    return n, list(edges)


def serialize_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list format accepted by `parse_edge_list`."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
