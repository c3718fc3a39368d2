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

    @classmethod
    def complete(cls, vertex_count: int) -> "Graph":
        """The complete graph: every pair of distinct vertices adjacent."""
        everyone = frozenset(range(vertex_count))
        return cls(vertex_count, tuple(everyone - {v} for v in range(vertex_count)))

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


def _vertex_mask(g: Graph, vertices) -> int:
    mask = 0
    for v in vertices:
        if not isinstance(v, int) or v < 0 or v >= g.vertex_count:
            raise ValueError(f"vertex {v!r} out of range")
        mask |= 1 << v
    return mask


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


def is_clique(g: Graph, vertices) -> bool:
    """Whether every two distinct members are adjacent.

    The empty set and singletons are cliques.
    """
    return _is_clique_mask(g._adj_masks, _vertex_mask(g, vertices))


def is_coclique(g: Graph, vertices) -> bool:
    """Whether no two members are adjacent (a clique of the complement)."""
    return _is_coclique_mask(g._adj_masks, _vertex_mask(g, vertices))


def complement_graph(g: Graph) -> Graph:
    """The graph with exactly the missing edges; an involution."""
    n = g.vertex_count
    return Graph(
        n,
        tuple(
            frozenset(v for v in range(n) if v != u and v not in g.adjacency[u])
            for u in range(n)
        ),
    )


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


def count_cocliques(g: Graph) -> int:
    """Exact number of cocliques: the clique count of the complement,
    counted on complemented neighbor masks without building that graph."""
    full = (1 << g.vertex_count) - 1
    non_neighbors = [full & ~adj & ~(1 << v) for v, adj in enumerate(g._adj_masks)]
    return _count_cliques_within(non_neighbors, full)


def enumerate_cliques(g: Graph) -> list:
    """All cliques as frozensets, sorted by size then by sorted member list.

    The same tree of cliques as count_cliques, walked recursively, so the
    cost is proportional to the number of cliques.
    """
    masks = g._adj_masks
    found = []

    def extend(members: tuple, candidates: int):
        found.append(members)
        rest = candidates
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            extend(members + (v,), rest & masks[v])

    extend((), (1 << g.vertex_count) - 1)
    found.sort(key=lambda members: (len(members), members))
    return [frozenset(members) for members in found]


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


def clique_coclique_partitions(g: Graph, vertices) -> list:
    """All cliques X within ``vertices`` whose complement inside it is a coclique.

    Each such X splits the set into a clique and a coclique; the result
    lists the clique halves, sorted by size then members.  For any set of
    size s there are at most s + 1 of them.
    """
    smask = _vertex_mask(g, vertices)
    adj = g._adj_masks
    halves = [
        tuple(_bits(x))
        for x in _submasks(smask)
        if _is_clique_mask(adj, x) and _is_coclique_mask(adj, smask & ~x)
    ]
    halves.sort(key=lambda members: (len(members), members))
    return [frozenset(members) for members in halves]


def clique_coclique_covers(g: Graph, vertices) -> list:
    """All pairs (X, Y) with X a clique, Y a coclique, X | Y = ``vertices``.

    X and Y may overlap.  Sorted by the clique half then the coclique half
    (size, then members).  For any set of size s there are at most 2s + 1
    such pairs.
    """
    smask = _vertex_mask(g, vertices)
    adj = g._adj_masks
    pairs = []
    for x in _submasks(smask):
        if not _is_clique_mask(adj, x):
            continue
        rest = smask & ~x
        for overlap in _submasks(x):
            y = rest | overlap
            if _is_coclique_mask(adj, y):
                pairs.append((tuple(_bits(x)), tuple(_bits(y))))
    pairs.sort(key=lambda xy: (len(xy[0]), xy[0], len(xy[1]), xy[1]))
    return [(frozenset(x), frozenset(y)) for x, y in pairs]


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
    for smask in range(1 << g.vertex_count):
        subset = frozenset(_bits(smask))
        size = len(subset)
        partitions = clique_coclique_partitions(g, subset)
        if len(partitions) > size + 1:
            violations.append(
                f"{len(partitions)} partitions of {sorted(subset)} exceed {size + 1}"
            )
        covers = clique_coclique_covers(g, subset)
        if len(covers) > 2 * size + 1:
            violations.append(
                f"{len(covers)} covering pairs of {sorted(subset)} exceed {2 * size + 1}"
            )
        cover_total += len(covers)
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
