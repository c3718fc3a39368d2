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

from dataclasses import dataclass

from .automata import (
    DEFAULT_CAP,
    AmbiguousAutomatonError,
    CapExceededError,
    Nfa,
    _both_constructions,
    is_unambiguous,
    reachable_state_pairs,
)
from .graphs import (
    Graph,
    complement_graph,
    enumerate_cliques,
    extremal_split_graph,
)


@dataclass(frozen=True)
class CompositeSymbol:
    """An alphabet letter naming a vertex set: tag 1 for a clique letter,
    tag 2 for a coclique letter.

    The printed label is ``c{...}`` or ``i{...}`` with the members sorted
    and comma-separated, e.g. ``c{0,2}`` or ``i{}``.
    """

    tag: int
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if self.tag not in (1, 2):
            raise ValueError("tag must be 1 (clique) or 2 (coclique)")
        for v in self.members:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"member {v!r} must be a nonnegative integer")

    @property
    def label(self) -> str:
        kind = "c" if self.tag == 1 else "i"
        return kind + "{" + ",".join(str(v) for v in sorted(self.members)) + "}"


def extract_graph(nfa: Nfa) -> Graph:
    """The graph joining distinct states that some common word reaches.

    Requires an unambiguous automaton (checked; AmbiguousAutomatonError
    carries a witness otherwise).  Every forward-construction subset of the
    automaton is a clique of this graph, and every backward subset is a
    coclique, which is what ties construction sizes to clique counts.
    """
    ok, witness = is_unambiguous(nfa)
    if not ok:
        raise AmbiguousAutomatonError(witness)
    edges = {
        (min(p, q), max(p, q))
        for p, q in reachable_state_pairs(nfa)
        if p != q
    }
    return Graph.from_edges(nfa.state_count, edges)


def graph_to_ufa(g: Graph) -> Nfa:
    """An unambiguous automaton whose construction sizes dominate the
    graph's clique and coclique counts.

    States are the vertices.  The alphabet has one letter per clique X
    (edges from vertex 0 to each member of X) and one per coclique Y
    (edges from each member of Y back to vertex 0); vertex 0 is the single
    initial and final state.  Words alternate strictly between entering a
    named set and leaving one, and unambiguity follows from the sets being
    cliques and cocliques.  Clique letters come first, each group in the
    canonical enumeration order.
    """
    cliques = enumerate_cliques(g)
    cocliques = enumerate_cliques(complement_graph(g))
    letters = [CompositeSymbol(1, members) for members in cliques]
    letters += [CompositeSymbol(2, members) for members in cocliques]
    alphabet = tuple(symbol.label for symbol in letters)
    if g.vertex_count == 0:
        return Nfa(0, alphabet, frozenset(), frozenset(), frozenset())
    transitions = set()
    for symbol in letters:
        for v in symbol.members:
            if symbol.tag == 1:
                transitions.add((0, symbol.label, v))
            else:
                transitions.add((v, symbol.label, 0))
    return Nfa(g.vertex_count, alphabet, transitions, frozenset({0}), frozenset({0}))


def witness_ufa(n: int) -> Nfa:
    """The n-state automaton built from extremal_split_graph(n)."""
    return graph_to_ufa(extremal_split_graph(n))


@dataclass(frozen=True)
class TightnessReport:
    """Construction sizes of one witness automaton against both bounds:
    the upper bound sqrt(n + 1) * 2**(n / 2) on min(k, l) and the lower
    bound at half of it, both compared on exact squares."""

    n: int
    k: int
    l: int

    @classmethod
    def measure(cls, automaton: Nfa, cap: int = DEFAULT_CAP) -> "TightnessReport":
        """Run both constructions on ``automaton`` and report their sizes.

        A side that exceeds ``cap`` raises its CapExceededError, with its
        partial count; the forward side's error is raised first.
        """
        forward, backward = _both_constructions(automaton, cap)
        for side in (forward, backward):
            if isinstance(side, CapExceededError):
                raise side
        return cls(automaton.state_count, forward.state_count, backward.state_count)

    @property
    def upper_sq(self) -> int:
        """(n + 1) * 2**n, the exact square of the upper bound."""
        return (self.n + 1) * (1 << self.n)

    @property
    def holds_upper(self) -> bool:
        """min(k, l)**2 <= (n + 1) * 2**n, exactly."""
        return min(self.k, self.l) ** 2 <= self.upper_sq

    @property
    def holds_lower(self) -> bool:
        """Both sizes clear the halved bound: 4k**2 and 4l**2 >= (n + 1) * 2**n."""
        return 4 * self.k**2 >= self.upper_sq and 4 * self.l**2 >= self.upper_sq

    @property
    def holds(self) -> bool:
        return self.holds_upper and self.holds_lower


def verify_tightness(n: int, cap: int = DEFAULT_CAP) -> TightnessReport:
    """Measure witness_ufa(n) against both bounds (see TightnessReport.measure)."""
    return TightnessReport.measure(witness_ufa(n), cap)
