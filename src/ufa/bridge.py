"""Translations between unambiguous automata and graphs.

One direction reads a graph off an automaton: join two states when some
word reaches both from the initial states.  Forward-construction subsets
are then cliques of that graph and backward subsets are cocliques, so the
construction sizes are bounded by the graph's clique and coclique counts.

The other direction builds a two-letter-per-set automaton from a graph,
one letter per clique and one per coclique, all routed through vertex 0;
its construction sizes are at least those counts.  Applied to
extremal_split_graph this yields witness automata whose smaller
construction is within a factor 2 of sqrt(n + 1) * 2**(n / 2).
"""

from .automata import (
    BACKWARD,
    DEFAULT_CAP,
    FORWARD,
    AmbiguousAutomatonError,
    BoundReport,
    CapExceededError,
    Nfa,
    _unambiguity,
    measure_constructions,
)
from .graphs import (
    Graph,
    _cliques,
    _non_neighbor_masks,
    extremal_split_graph,
    nearest_k,
)


def _label(kind: str, members) -> str:
    """The letter naming a vertex set: ``kind`` is ``c`` for a clique and
    ``i`` for a coclique, followed by the members sorted and
    comma-separated in braces, e.g. ``c{0,2}`` or ``i{}``."""
    return kind + "{" + ",".join(str(v) for v in sorted(members)) + "}"


def extract_graph(nfa: Nfa) -> Graph:
    """The graph joining distinct states that some common word reaches.

    Requires an unambiguous automaton (checked; AmbiguousAutomatonError
    carries a witness otherwise).  Every forward-construction subset of the
    automaton is a clique of this graph, and every backward subset is a
    coclique, which is what ties construction sizes to clique counts.
    """
    pairs, witness = _unambiguity(nfa)
    if witness is not None:
        raise AmbiguousAutomatonError(witness)
    # The reachable pairs are symmetric, so the pairs with p < q are the edges.
    return Graph.from_edges(nfa.state_count, [(p, q) for p, q in pairs if p < q])


def graph_to_ufa(g: Graph) -> Nfa:
    """An unambiguous automaton whose construction sizes dominate the
    graph's clique and coclique counts.

    States are the vertices.  The alphabet has one letter per clique X
    (edges from vertex 0 to each member of X) and one per coclique Y
    (edges from each member of Y back to vertex 0); vertex 0 is the single
    initial and final state.  Words alternate strictly between entering a
    named set and leaving one, and unambiguity follows from the sets being
    cliques and cocliques.  Clique letters come first, each group sorted
    by size, then members.
    """
    cliques = _cliques(g._adj_masks)
    cocliques = _cliques(_non_neighbor_masks(dict(enumerate(g._adj_masks))))
    clique_letters = [_label("c", members) for members in cliques]
    coclique_letters = [_label("i", members) for members in cocliques]
    alphabet = tuple(clique_letters + coclique_letters)
    transitions = {(0, a, v) for a, members in zip(clique_letters, cliques) for v in members}
    transitions |= {(v, a, 0) for a, members in zip(coclique_letters, cocliques) for v in members}
    # Nothing to re-check: the letters name distinct vertex sets and hold
    # no whitespace, and every state in a triple is a vertex.
    ends = frozenset({0} if g.vertex_count else ())
    return Nfa._trusted(g.vertex_count, alphabet, frozenset(transitions), ends, ends)


def witness_ufa(n: int) -> Nfa:
    """The n-state automaton built from extremal_split_graph(n)."""
    return graph_to_ufa(extremal_split_graph(n))


def _witness_sizes(n: int) -> tuple:
    """The forward and backward construction sizes of witness_ufa(n), in
    closed form: k = 2**c + (n - c) and l = (c + 1) * 2**(n - c) with
    c = nearest_k(n), and k = l = 1 at n = 0."""
    if n == 0:
        return 1, 1
    c = nearest_k(n)
    return (1 << c) + n - c, (c + 1) << (n - c)


def _measure_witness(n: int, cap: int) -> tuple:
    """witness_ufa(n) and its BoundReport (see
    automata.measure_constructions).

    The closed-form sizes are checked against ``cap`` before any letter is
    built: a side that would exceed it raises the CapExceededError its
    construction would raise, with partial count ``cap``, forward first.
    """
    for side, size in zip((FORWARD, BACKWARD), _witness_sizes(n)):
        if size > cap:
            raise CapExceededError(side, cap, cap)
    automaton = witness_ufa(n)
    return automaton, measure_constructions(automaton, cap)


def verify_tightness(n: int, cap: int = DEFAULT_CAP) -> BoundReport:
    """Both construction sizes of witness_ufa(n) against both bounds (see
    automata.measure_constructions)."""
    return _measure_witness(n, cap)[1]
