"""Undirected simple graphs with exact clique and coclique counting.

Vertices are integers ``0..vertex_count-1``.  Cliques here always include
the empty set and all singletons; a coclique is a clique of the complement
graph.  Counts are plain Python ints, so they stay exact at any size, and
every bound below is checked on squared integers rather than floats.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph given by per-vertex neighbor sets.

    ``adjacency[v]`` is the neighbor set of ``v``; it must be symmetric and
    self-loop free.  Instances are immutable and hashable.
    """

    vertex_count: int
    adjacency: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "adjacency", tuple(frozenset(s) for s in self.adjacency)
        )
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if len(self.adjacency) != self.vertex_count:
            raise ValueError("adjacency must list one neighbor set per vertex")
        for u, neighbors in enumerate(self.adjacency):
            for v in neighbors:
                if not isinstance(v, int) or v < 0 or v >= self.vertex_count:
                    raise ValueError(f"neighbor {v!r} of {u} out of range")
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if u not in self.adjacency[v]:
                    raise ValueError(f"edge {u}-{v} is not symmetric")

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs; duplicates merge."""
        neighbors = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            for w in (u, v):
                if not isinstance(w, int) or w < 0 or w >= vertex_count:
                    raise ValueError(f"vertex {w!r} out of range")
            neighbors[u].add(v)
            neighbors[v].add(u)
        return cls(vertex_count, tuple(frozenset(s) for s in neighbors))

    def edges(self) -> list:
        """Edge list as (u, v) pairs with u < v, in lexicographic order."""
        return [
            (u, v)
            for u in range(self.vertex_count)
            for v in sorted(self.adjacency[u])
            if u < v
        ]

    @cached_property
    def _adj_masks(self) -> tuple:
        """Neighbor sets as bitmasks, for the subset-heavy routines."""
        return tuple(
            sum(1 << v for v in neighbors) for neighbors in self.adjacency
        )


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_clique_mask(adj_masks, mask: int) -> bool:
    for v in _bits(mask):
        if (mask & ~(1 << v)) & ~adj_masks[v]:
            return False
    return True


def _is_coclique_mask(adj_masks, mask: int) -> bool:
    for v in _bits(mask):
        if mask & adj_masks[v]:
            return False
    return True


def _submasks(mask: int):
    """Every submask of ``mask``, descending, from ``mask`` itself down to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _count_cliques_within(adj_masks, candidates: int) -> int:
    """Cliques, the empty one included, among the vertices of the mask
    ``candidates`` in the graph with neighbor masks ``adj_masks``.

    Every clique is one node of a tree rooted at the empty clique: a node
    with candidate mask c has one child per vertex v of c, which adds v
    and keeps as candidates the neighbors of v in c above v.  So the count
    is 1 plus the candidate counts of all nodes, and the cost follows the
    count itself, not 2**n.  Nodes wait on an explicit stack, so the
    recursion limit does not cap the vertex count, and nodes without
    candidates are counted without a visit.
    """
    count = 1
    stack = [candidates]
    while stack:
        candidates = stack.pop()
        count += candidates.bit_count()
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            inner = candidates & adj_masks[low.bit_length() - 1]
            if inner:
                stack.append(inner)
    return count


def count_cliques(g: Graph) -> int:
    """Exact number of cliques, the empty one included."""
    return _count_cliques_within(g._adj_masks, (1 << g.vertex_count) - 1)


def _non_neighbor_masks(g: Graph) -> list:
    """The complement graph's neighbor masks: each vertex's non-neighbors,
    itself excluded.  Its cliques are the cocliques of ``g``."""
    full = (1 << g.vertex_count) - 1
    return [full & ~adj & ~(1 << v) for v, adj in enumerate(g._adj_masks)]


def count_cocliques(g: Graph) -> int:
    """Exact number of cocliques: the clique count of the complement,
    counted on complemented neighbor masks without building that graph."""
    return _count_cliques_within(_non_neighbor_masks(g), (1 << g.vertex_count) - 1)


def _cliques(adj_masks) -> list:
    """Every clique of the graph with neighbor masks ``adj_masks``, as
    ascending member tuples sorted by size, then members.

    The same tree of cliques as _count_cliques_within, with each node's
    members kept, so the cost is proportional to the number of cliques;
    nodes wait on an explicit stack.
    """
    found = []
    stack = [((), (1 << len(adj_masks)) - 1)]
    while stack:
        members, candidates = stack.pop()
        found.append(members)
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            stack.append((members + (v,), candidates & adj_masks[v]))
    found.sort(key=lambda members: (len(members), members))
    return found


@dataclass(frozen=True)
class ProductBoundReport:
    """Clique and coclique counts of one graph against the product bound."""

    n: int
    cliques: int
    cocliques: int

    @property
    def product(self) -> int:
        return self.cliques * self.cocliques

    @property
    def bound(self) -> int:
        """(n + 1) * 2**n, the exact ceiling for the product."""
        return (self.n + 1) * (1 << self.n)

    @property
    def holds(self) -> bool:
        return self.product <= self.bound

    @property
    def min_count(self) -> int:
        return min(self.cliques, self.cocliques)

    @property
    def min_holds(self) -> bool:
        """min(cliques, cocliques) <= sqrt(bound), squared to stay exact."""
        return self.min_count**2 <= self.bound


def verify_product_bound(g: Graph) -> ProductBoundReport:
    """Count cliques and cocliques and report them against (n + 1) * 2**n."""
    return ProductBoundReport(g.vertex_count, count_cliques(g), count_cocliques(g))


def _subset_counts(g: Graph):
    """For every vertex mask S, ascending, yield (S, partitions, covers).

    ``partitions`` counts the cliques X within S whose rest S - X is a
    coclique; ``covers`` counts the pairs (X, Y), X a clique and Y a
    coclique, with X | Y = S.  A clique and a coclique share at most one
    vertex, so Y is the rest of a partition, alone or plus one vertex of X
    with no neighbor in the rest: each partition gives 1 plus that many
    covers.  Both counts come from one walk over the submasks X of S, and
    nothing is listed.
    """
    adj = g._adj_masks
    for smask in range(1 << g.vertex_count):
        partitions = covers = 0
        for x in _submasks(smask):
            rest = smask & ~x
            if _is_clique_mask(adj, x) and _is_coclique_mask(adj, rest):
                partitions += 1
                covers += 1 + sum(1 for v in _bits(x) if not adj[v] & rest)
        yield smask, partitions, covers


def check_graph_bounds(g: Graph) -> list:
    """Exhaustively check the counting laws on one graph.

    Checks, over every vertex subset S: at most |S| + 1 clique/coclique
    partitions, at most 2|S| + 1 covering pairs, and that the covering
    pairs over all S add up to cliques * cocliques; plus the two global
    bounds (product and squared minimum against (n + 1) * 2**n).  Returns
    a list of violation descriptions, empty when every law holds.  Cost is
    exponential in the vertex count; meant for small graphs.
    """
    violations = []
    report = verify_product_bound(g)
    if not report.holds:
        violations.append(
            f"clique count * coclique count = {report.product} exceeds {report.bound}"
        )
    if not report.min_holds:
        violations.append(
            f"min(cliques, cocliques) = {report.min_count} squared exceeds {report.bound}"
        )
    cover_total = 0
    for smask, partitions, covers in _subset_counts(g):
        size = smask.bit_count()
        if partitions > size + 1:
            violations.append(
                f"{partitions} partitions of {sorted(_bits(smask))} exceed {size + 1}"
            )
        if covers > 2 * size + 1:
            violations.append(
                f"{covers} covering pairs of {sorted(_bits(smask))} exceed {2 * size + 1}"
            )
        cover_total += covers
    if cover_total != report.product:
        violations.append(
            f"covering pairs total {cover_total}, expected {report.product}"
        )
    return violations


def all_graphs(vertex_count: int):
    """Every labeled simple graph on the given vertices, in edge-mask order."""
    pairs = list(combinations(range(vertex_count), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            vertex_count, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        )


def nearest_k(n: int) -> int:
    """Integer nearest to n/2 + log2((n + 1) / 2) / 2, ties rounded up.

    This is the clique size that balances the two construction sizes for
    extremal_split_graph.  Rounded half up, the target is
    floor((n + log2(n + 1)) / 2).  With e = floor(log2(n + 1)), the
    fractional part of log2(n + 1) is below 1 and so never carries the
    halved sum past (n + e) // 2; the result is computed in integers only.
    It lies in 0..n, since n + 1 <= 2**n.  Requires n >= 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    e = (n + 1).bit_length() - 1
    return (n + e) // 2


def extremal_split_graph(n: int) -> Graph:
    """A clique on nearest_k(n) vertices plus isolated vertices, n in total.

    Splitting the vertices this way pushes both the clique count (at least
    2**k) and the coclique count (exactly (k + 1) * 2**(n - k)) to within a
    factor 2 of sqrt((n + 1) * 2**n), which makes the product bound tight
    up to that factor.  n = 0 gives the empty graph.
    """
    if n == 0:
        return Graph(0, ())
    k = nearest_k(n)
    return Graph.from_edges(n, combinations(range(k), 2))
