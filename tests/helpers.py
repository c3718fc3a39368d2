"""Shared fixtures-by-hand, random generators, and brute-force oracles.

The oracles deliberately avoid the library's own transition maps and
recursions: runs are enumerated by explicit depth-first search over the
raw transition triples, and cliques by testing every vertex subset, so
agreement with the fast implementations is meaningful.
"""

from collections import deque
from functools import lru_cache
from itertools import combinations

from hypothesis import strategies as st

from ufa import DEFAULT_CAP, FORWARD, CapExceededError, Graph, Nfa


def reference_body_lines(text: str) -> list:
    """(line number, tokens) for each line a file reader acts on: each line
    of ``str.splitlines``, numbered from 1, is stripped, skipped when empty
    or a ``#`` comment, and split on whitespace."""
    lines = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((line_no, stripped.split()))
    return lines


def a_plus() -> Nfa:
    """Accepts one or more a's; both constructions have two states."""
    return Nfa(2, ("a",), {(0, "a", 1), (1, "a", 1)}, {0}, {1})


def a_star() -> Nfa:
    """Single-state loop accepting every word over {a}."""
    return Nfa(1, ("a",), {(0, "a", 0)}, {0}, {0})


def two_loop() -> Nfa:
    """Two disjoint loops, everything initial and final: ambiguous at once."""
    return Nfa(2, ("a",), {(0, "a", 0), (1, "a", 1)}, {0, 1}, {0, 1})


def path3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@lru_cache(maxsize=16)
def adjacency(g: Graph) -> tuple:
    """Per-vertex neighbor frozensets, read off ``g.edges()`` alone; the
    frozenset view the graph oracles test membership on.  The last 16 are
    kept: the oracles ask for the same graph's once per vertex set."""
    neighbors = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges():
        neighbors[u].add(v)
        neighbors[v].add(u)
    return tuple(map(frozenset, neighbors))


def complete_graph(vertex_count: int) -> Graph:
    """Every pair of distinct vertices adjacent."""
    return Graph.from_edges(vertex_count, combinations(range(vertex_count), 2))


def complement_graph(g: Graph) -> Graph:
    """The graph with exactly the missing edges, built from the neighbor
    sets; an involution.  Its cliques are the cocliques of ``g``."""
    neighbors = adjacency(g)
    return Graph.from_edges(
        g.vertex_count,
        [(u, v) for u, v in combinations(range(g.vertex_count), 2) if v not in neighbors[u]],
    )


def nth_letter_dfa(n: int) -> Nfa:
    """The n-state DFA over {a, b} for "letter n-1 is a", n >= 2.

    States 0..n-2 count the letters read and n-1 is an accepting sink;
    state n-2 has no b edge.  Forward it has n + 1 subsets (the empty one
    included), backward 2**(n-1).
    """
    transitions = {(q, a, q + 1) for q in range(n - 2) for a in "ab"}
    transitions |= {(n - 2, "a", n - 1), (n - 1, "a", n - 1), (n - 1, "b", n - 1)}
    return Nfa(n, ("a", "b"), transitions, {0}, {n - 1})


def random_nfa(rng, max_states=6, max_symbols=3, density=0.3) -> Nfa:
    """A random automaton in the small regime the end-to-end checks use."""
    n = rng.randint(1, max_states)
    alphabet = tuple("abc"[: rng.randint(1, max_symbols)])
    transitions = {
        (q, a, r)
        for q in range(n)
        for a in alphabet
        for r in range(n)
        if rng.random() < density
    }
    initial = {rng.randrange(n) for _ in range(rng.randint(1, 2))}
    final = {q for q in range(n) if rng.random() < 0.4}
    return Nfa(n, alphabet, transitions, initial, final)


def random_nfa_any(rng) -> Nfa:
    """A random automaton with odd but legal symbol labels, for format tests."""
    n = rng.randint(0, 5)
    pool = ["a", "b", "ab", "#", "x_1", "c{0}", "!?", "0"]
    alphabet = tuple(rng.sample(pool, rng.randint(0, 4)))
    transitions = {
        (rng.randrange(n), rng.choice(alphabet), rng.randrange(n))
        for _ in range(rng.randint(0, 12))
        if n and alphabet
    }
    initial = {q for q in range(n) if rng.random() < 0.5}
    final = {q for q in range(n) if rng.random() < 0.5}
    return Nfa(n, alphabet, transitions, initial, final)


@st.composite
def graphs(draw, max_vertices=7):
    """A hypothesis strategy: a graph on up to ``max_vertices`` vertices."""
    n = draw(st.integers(0, max_vertices))
    pairs = list(combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, chosen)


@st.composite
def graphs_with_isolated_vertices(draw, max_vertices=9):
    """A hypothesis strategy: a graph on up to ``max_vertices`` vertices
    whose edges join only a drawn subset of them, so most draws leave some
    vertices, low and high, isolated; returned with its drawn edge set."""
    n = draw(st.integers(0, max_vertices))
    joined = sorted(draw(st.sets(st.integers(0, n - 1)))) if n else []
    pairs = list(combinations(joined, 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, edges), edges


def random_graph(rng, vertex_count: int, p: float = 0.5) -> Graph:
    return Graph.from_edges(
        vertex_count,
        [
            (u, v)
            for u, v in combinations(range(vertex_count), 2)
            if rng.random() < p
        ],
    )


def brute_force_cliques(g: Graph) -> list:
    """Every vertex subset all of whose pairs are adjacent, found naively."""
    neighbors = adjacency(g)
    cliques = []
    for size in range(g.vertex_count + 1):
        for members in combinations(range(g.vertex_count), size):
            if all(v in neighbors[u] for u, v in combinations(members, 2)):
                cliques.append(frozenset(members))
    return cliques


def count_clique_tree(adj_masks, ceiling: int) -> int:
    """The number of cliques (the empty one included) of the graph with
    neighbor masks ``adj_masks``, counted one at a time, or ``ceiling + 1``
    once there are more.

    Each clique is one node of a tree rooted at the empty clique: a node
    with candidate mask c has one child per vertex v of c, whose
    candidates are the neighbors of v in c above v.  Only candidate masks
    wait on the stack, so no member tuples are built."""
    counted, stack = 0, [(1 << len(adj_masks)) - 1]
    while stack and counted <= ceiling:
        candidates = stack.pop()
        counted += 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            stack.append(candidates & adj_masks[low.bit_length() - 1])
    return counted


def is_clique(g: Graph, vertices) -> bool:
    """Whether every two distinct members are adjacent, checked pair by pair."""
    neighbors = adjacency(g)
    return all(v in neighbors[u] for u, v in combinations(sorted(vertices), 2))


def is_coclique(g: Graph, vertices) -> bool:
    """Whether no two members are adjacent, checked pair by pair."""
    neighbors = adjacency(g)
    return not any(v in neighbors[u] for u, v in combinations(sorted(vertices), 2))


def _subsets_by_size(vertices) -> list:
    """Every subset of ``vertices`` as a sorted tuple, by size then members."""
    members = sorted(vertices)
    return [x for size in range(len(members) + 1) for x in combinations(members, size)]


def reference_partitions(g: Graph, vertices) -> list:
    """Every clique X within ``vertices`` whose rest is a coclique, sorted
    by size then members, found by testing every subset pair by pair."""
    everything = set(vertices)
    return [
        frozenset(x)
        for x in _subsets_by_size(everything)
        if is_clique(g, x) and is_coclique(g, everything - set(x))
    ]


def reference_covers(g: Graph, vertices) -> list:
    """Every pair (X, Y), X a clique and Y a coclique, with X | Y equal to
    ``vertices``, sorted by X then Y (size, then members).  Y is the set
    minus X plus any subset of X, each tested pair by pair."""
    everything = set(vertices)
    pairs = []
    for x in _subsets_by_size(everything):
        if not is_clique(g, x):
            continue
        rest = everything - set(x)
        for overlap in _subsets_by_size(x):
            y = tuple(sorted(rest | set(overlap)))
            if is_coclique(g, y):
                pairs.append((x, y))
    pairs.sort(key=lambda xy: (len(xy[0]), xy[0], len(xy[1]), xy[1]))
    return [(frozenset(x), frozenset(y)) for x, y in pairs]


def enumerate_accepting_runs(nfa: Nfa, word) -> list:
    """All accepting runs as state sequences, by explicit search."""
    successors = {}
    for src, sym, dst in nfa.transitions:
        successors.setdefault((src, sym), []).append(dst)
    runs = []

    def extend(state, position, path):
        if position == len(word):
            if state in nfa.final:
                runs.append(path)
            return
        for nxt in sorted(successors.get((state, word[position]), [])):
            extend(nxt, position + 1, path + (nxt,))

    for start in sorted(nfa.initial):
        extend(start, 0, (start,))
    return runs


def word_run_counts(nfa: Nfa, max_len: int) -> dict:
    """Accepting-run count for every word up to max_len, sharing prefixes.

    Walks the word trie once, pushing a per-state run-count vector, so the
    cost is the number of words times the transition count rather than a
    fresh pass per word.
    """
    successors = {}
    for src, sym, dst in nfa.transitions:
        successors.setdefault(sym, {}).setdefault(src, []).append(dst)
    counts = {}

    def walk(word, vector):
        counts[word] = sum(vector[q] for q in nfa.final)
        if len(word) == max_len:
            return
        for a in nfa.alphabet:
            by_source = successors.get(a, {})
            nxt = [0] * nfa.state_count
            for q, c in enumerate(vector):
                if c:
                    for r in by_source.get(q, ()):
                        nxt[r] += c
            walk(word + (a,), nxt)

    start = [1 if q in nfa.initial else 0 for q in range(nfa.state_count)]
    walk((), start)
    return counts


def language(nfa: Nfa, max_len: int) -> set:
    """All accepted words up to max_len, per the run-count oracle."""
    return {word for word, count in word_run_counts(nfa, max_len).items() if count}


def reference_rows(nfa: Nfa, backward: bool) -> dict:
    """Per symbol, state -> sorted tuple of one-letter successors (or
    predecessors, backward), read off the raw transition triples."""
    rows = {a: {} for a in nfa.alphabet}
    for src, sym, dst in nfa.transitions:
        if backward:
            src, dst = dst, src
        rows[sym].setdefault(src, []).append(dst)
    return {a: {q: tuple(sorted(t)) for q, t in per_state.items()} for a, per_state in rows.items()}


def reference_pair_search(seeds, alphabet, rows_by_symbol):
    """Breadth-first search over (p, q) tuples stepped in lockstep, with
    an explicit queue and no pruning.

    Returns the discovery order and a parent map ``pair -> (parent,
    symbol)`` (seeds map to None).  Seeds, alphabet and successor tuples
    are explicitly ordered, so the order is the one the library's coded
    search must reproduce.
    """
    parent = {}
    order = []
    queue = deque()
    for pair in seeds:
        if pair not in parent:
            parent[pair] = None
            order.append(pair)
            queue.append(pair)
    while queue:
        pair = queue.popleft()
        p, q = pair
        for a in alphabet:
            rows = rows_by_symbol[a]
            for p2 in rows.get(p, ()):
                for q2 in rows.get(q, ()):
                    child = (p2, q2)
                    if child not in parent:
                        parent[child] = (pair, a)
                        order.append(child)
                        queue.append(child)
    return order, parent


def _reference_trace(parent, pair, reverse: bool) -> tuple:
    """Word along the parent chain from ``pair`` back to a seed."""
    symbols = []
    link = parent[pair]
    while link is not None:
        pair, a = link
        symbols.append(a)
        link = parent[pair]
    if reverse:
        symbols.reverse()
    return tuple(symbols)


def seed_pairs(states) -> list:
    """Every ordered pair of ``states``, in sorted order."""
    return [(p, q) for p in sorted(states) for q in sorted(states)]


def reference_reachable_state_pairs(nfa: Nfa) -> list:
    """The pairs some common word reaches from the initial states, in
    breadth-first discovery order."""
    order, _ = reference_pair_search(seed_pairs(nfa.initial), nfa.alphabet, reference_rows(nfa, False))
    return order


def reference_is_unambiguous(nfa: Nfa):
    """(True, None) or (False, witness), by two full pair searches: the
    first pair of distinct states in forward order that the backward
    search also reaches gives the witness."""
    fwd_order, fwd_parent = reference_pair_search(
        seed_pairs(nfa.initial), nfa.alphabet, reference_rows(nfa, False)
    )
    _, bwd_parent = reference_pair_search(
        seed_pairs(nfa.final), nfa.alphabet, reference_rows(nfa, True)
    )
    for pair in fwd_order:
        if pair[0] != pair[1] and pair in bwd_parent:
            witness = _reference_trace(fwd_parent, pair, True) + _reference_trace(bwd_parent, pair, False)
            return False, witness
    return True, None


def reference_determinize(nfa: Nfa, direction: str, cap: int):
    """The subset construction on frozensets, from the raw transition triples.

    Returns (states, transition_table, entry, marked) with the library's
    discovery order: breadth first, seed first, columns in alphabet order.
    Raises CapExceededError when a new subset would exceed ``cap``.
    """
    images = {}
    for src, sym, dst in nfa.transitions:
        if direction != FORWARD:
            src, dst = dst, src
        images.setdefault((src, sym), set()).add(dst)
    if direction == FORWARD:
        seed, mark_against = nfa.initial, nfa.final
    else:
        seed, mark_against = nfa.final, nfa.initial
    states = [frozenset(seed)]
    index = {states[0]: 0}
    table = []
    pos = 0
    while pos < len(states):
        row = []
        for a in nfa.alphabet:
            image = set()
            for q in states[pos]:
                image |= images.get((q, a), set())
            subset = frozenset(image)
            j = index.get(subset)
            if j is None:
                if len(states) >= cap:
                    raise CapExceededError(direction, cap, len(states))
                j = len(states)
                index[subset] = j
                states.append(subset)
            row.append(j)
        table.append(tuple(row))
        pos += 1
    marked = frozenset(i for i, subset in enumerate(states) if subset & mark_against)
    return tuple(states), tuple(table), 0, marked


def subsets(construction) -> tuple:
    """A subset construction's states as frozensets of base states, read
    off its masks."""
    n = construction.base.state_count
    return tuple(frozenset(q for q in range(n) if mask >> q & 1) for mask in construction.masks)


def table_rows(construction) -> tuple:
    """A subset construction's table as a tuple of row tuples, read off its
    row-major ``cells``: ``table_rows(c)[i][j]`` is ``c.cells[i * w + j]``
    with ``w`` its base's letter count."""
    w = len(construction.base.alphabet)
    return tuple(tuple(construction.cells[i * w:(i + 1) * w]) for i in range(construction.state_count))


def equivalent(a: Nfa, b: Nfa, cap: int = DEFAULT_CAP):
    """Whether two automata over the same alphabet accept the same language.

    Both are determinized by reference_determinize, then the product is
    searched breadth first for a state pair where exactly one side accepts.
    Returns (True, None) or (False, word) with a shortest distinguishing
    word.  The alphabets must be equal as sets; columns are matched by
    symbol.
    """
    if frozenset(a.alphabet) != frozenset(b.alphabet):
        raise ValueError("automata must share one alphabet")
    _, table_a, entry_a, marked_a = reference_determinize(a, FORWARD, cap)
    _, table_b, entry_b, marked_b = reference_determinize(b, FORWARD, cap)
    columns = [b.alphabet.index(sym) for sym in a.alphabet]
    start = (entry_a, entry_b)
    words = {start: ()}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        i, j = pair
        if (i in marked_a) != (j in marked_b):
            return False, words[pair]
        for col, sym in enumerate(a.alphabet):
            child = (table_a[i][col], table_b[j][columns[col]])
            if child not in words:
                words[child] = words[pair] + (sym,)
                queue.append(child)
    return True, None


def run_cli(argv, capsys):
    """Run the command line in-process; returns (exit code, stdout, stderr)."""
    from ufa.cli import main

    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err
