"""Undirected simple graphs with exact clique and coclique counting.

Vertices are integers ``0..vertex_count-1``.  Cliques here always include
the empty set and all singletons; a coclique is a clique of the complement
graph.  Counts are plain Python ints, so they stay exact at any size, and
every bound below is checked on squared integers rather than floats.
Cliques and cocliques are counted by branch and reduce (Dahllöf, Jonsson
& Wahlström, TCS 2005), not one by one, so the cost follows the branch
nodes, not the count.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph stored as neighbor bitmasks.

    ``neighbor_masks`` holds one ``(vertex, mask)`` pair per vertex that has
    an edge, by ascending vertex; bit u of the mask is set iff u is a
    neighbor.  Isolated vertices are left out, but each mask is as wide as
    its highest neighbor.  Vertices and masks are ints; masks are nonzero,
    in range, self-loop free and symmetric.  Instances are immutable and
    hashable, and equal when their vertex counts and edges are.
    """

    vertex_count: int
    neighbor_masks: tuple

    def __post_init__(self):
        object.__setattr__(self, "neighbor_masks", tuple(map(tuple, self.neighbor_masks)))
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        previous = -1
        for v, mask in self.neighbor_masks:
            if not (isinstance(v, int) and previous < v < self.vertex_count):
                raise ValueError(f"vertices must be ascending, distinct and in range, got {v!r}")
            previous = v
            if not isinstance(mask, int) or mask <= 0 or mask >> self.vertex_count:
                raise ValueError(f"neighbor mask of {v} is empty or out of range, got {mask!r}")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        masks = dict(self.neighbor_masks)
        for v, mask in self.neighbor_masks:
            for u in _bits(mask):
                if not masks.get(u, 0) >> v & 1:
                    raise ValueError(f"edge {v}-{u} is not symmetric")

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs; duplicates merge."""
        masks = {}
        for u, v in edges:
            if not (isinstance(u, int) and isinstance(v, int)
                    and 0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge {u}-{v} out of range")
            masks[u] = masks.get(u, 0) | 1 << v
            masks[v] = masks.get(v, 0) | 1 << u
        return cls(vertex_count, tuple(sorted(masks.items())))

    def edges(self) -> list:
        """Edge list as (u, v) pairs with u < v, in lexicographic order."""
        return [
            (u, v)
            for u, mask in self.neighbor_masks
            for v in _bits(mask >> (u + 1) << (u + 1))
        ]

    @cached_property
    def _adj_masks(self) -> tuple:
        """Every vertex's neighbor mask, 0 for an isolated one: the dense
        view that the routines exponential in the vertex count read."""
        masks = dict(self.neighbor_masks)
        return tuple(masks.get(v, 0) for v in range(self.vertex_count))


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


def _count_cliques(adj: dict) -> int:
    """Cliques, the empty one included, of the graph on the vertices keyed
    in ``adj`` with the neighbor masks it maps them to.

    Branch and reduce, the independent-set counting scheme of Dahllöf,
    Jonsson & Wahlström ("Counting models for 2SAT and 3SAT formulae",
    TCS 2005) on the complement.  A node is a candidate mask c and a
    multiplier m, worth m times the cliques within c; an empty c is worth
    m, its empty clique.  One pass over c drops each candidate joined to
    all the others, doubling m, and each with no neighbor among them,
    adding m for its singleton.  Then take v, a remaining candidate with
    the fewest neighbors among them, and its co-component p: v, its
    non-neighbors and, sweep by sweep, every candidate with a non-neighbor
    in p.  If p is not all of c, the rest is joined to all of p, so the
    count is a product: p is counted in a frame of its own, whose count
    multiplies the rest's m.  Otherwise the node branches on v: "take v"
    keeps the neighbors of v in c, "leave v out" drops v.

    The cost follows the branch nodes, each a few passes over its
    candidates, not the count: the 29,716,592 cocliques of a seeded
    G(40, 0.1) take 1,753 nodes.  There is no memo, and nodes and frames
    wait on explicit stacks, so the recursion limit does not cap the
    vertex count.
    """
    count, stack, frames = 0, [(sum(1 << v for v in adj), 1)], []
    while True:
        if not stack:
            if not frames:
                return count
            part_count = count
            count, stack, joined, multiplier = frames.pop()
            stack.append((joined, multiplier * part_count))
            continue
        candidates, multiplier = stack.pop()
        while candidates:
            fewest = len(adj)
            rest = candidates
            while rest:
                low = rest & -rest
                rest ^= low
                inner = adj[low.bit_length() - 1] & candidates
                if inner == candidates ^ low:
                    candidates ^= low
                    multiplier <<= 1
                elif not inner:
                    candidates ^= low
                    count += multiplier
                elif inner.bit_count() < fewest:
                    fewest = inner.bit_count()
                    pick, pick_inner = low, inner
            if not candidates:
                break
            # Candidates dropped after pick was seen leave its neighbors.
            pick_inner &= candidates
            joined = pick_inner
            part = candidates ^ joined
            moved = True
            while moved and joined:
                moved = False
                rest = joined
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if adj[low.bit_length() - 1] & part != part:
                        part |= low
                        joined ^= low
                        moved = True
            if joined:
                frames.append((count, stack, joined, multiplier))
                count, stack, candidates, multiplier = 0, [], part, 1
            else:
                stack.append((pick_inner, multiplier))
                candidates ^= pick
        count += multiplier


def count_cliques(g: Graph) -> int:
    """Exact number of cliques, the empty one included.  Only the vertices
    with edges are walked; an isolated vertex adds its singleton alone."""
    adj = dict(g.neighbor_masks)
    return _count_cliques(adj) + g.vertex_count - len(adj)


def _non_neighbor_masks(adj: dict) -> dict:
    """The complement graph's neighbor masks on the vertices keyed in
    ``adj``: each one's non-neighbors among them, itself excluded.  Its
    cliques are the cocliques of the graph ``adj`` describes."""
    vertices = sum(1 << v for v in adj)
    return {v: vertices & ~mask & ~(1 << v) for v, mask in adj.items()}


def count_cocliques(g: Graph) -> int:
    """Exact number of cocliques: the clique count of the complement on the
    vertices with edges, on complemented masks without building that
    graph, doubled per isolated vertex, which a coclique may take or not."""
    adj = dict(g.neighbor_masks)
    return _count_cliques(_non_neighbor_masks(adj)) << g.vertex_count - len(adj)


def _cliques(adj_masks) -> list:
    """Every clique of the graph with neighbor masks ``adj_masks``, as
    ascending member tuples sorted by size, then members.

    Every clique is one node of a tree rooted at the empty clique: a node
    with candidate mask c has one child per vertex v of c, which adds v
    and keeps as candidates the neighbors of v in c above v.  So the cost
    is proportional to the number of cliques; nodes wait on an explicit
    stack.
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
    # The cliques of g are the cocliques of its complement.
    non = _non_neighbor_masks(dict(enumerate(adj)))
    for smask in range(1 << g.vertex_count):
        partitions = covers = 0
        for x in _submasks(smask):
            rest = smask & ~x
            if _is_coclique_mask(non, x) and _is_coclique_mask(adj, rest):
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
    k = nearest_k(n) if n else 0
    return Graph.from_edges(n, combinations(range(k), 2))
