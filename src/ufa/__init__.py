"""Complementation of unambiguous finite automata.

An automaton is unambiguous when no word has two accepting runs.  Such an
automaton can be complemented by running the subset construction both
forward (from the initial states) and backward (from the final states,
along reversed edges), keeping whichever is smaller, and swapping its
marked states.  The smaller side never exceeds sqrt(n + 1) * 2**(n / 2)
states, because the two constructions land in the cliques and cocliques of
a graph read off the automaton, and a graph's clique count times its
coclique count is at most (n + 1) * 2**n.  The bound is tight within a
factor 2: see ufa.bridge.witness_ufa.
"""

from .automata import (
    BACKWARD,
    DEFAULT_CAP,
    FORWARD,
    AmbiguousAutomatonError,
    BoundReport,
    CapExceededError,
    Nfa,
    SubsetAutomaton,
    Word,
    backward_determinize,
    complement_construction,
    complement_ufa,
    count_accepting_runs,
    equivalent,
    forward_determinize,
    is_unambiguous,
    reachable_state_pairs,
    word_text,
)
from .bridge import (
    CompositeSymbol,
    TightnessReport,
    extract_graph,
    graph_to_ufa,
    verify_tightness,
    witness_ufa,
)
from .formats import (
    ParseError,
    parse_automaton,
    parse_graph,
    serialize_automaton,
    serialize_graph,
    serialize_subset_automaton,
)
from .graphs import (
    Graph,
    ProductBoundReport,
    all_graphs,
    check_graph_bounds,
    clique_coclique_covers,
    clique_coclique_partitions,
    complement_graph,
    count_cliques,
    count_cocliques,
    enumerate_cliques,
    extremal_split_graph,
    is_clique,
    is_coclique,
    nearest_k,
    verify_product_bound,
)

__version__ = "0.1.0"
