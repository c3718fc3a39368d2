"""Reference answers that do not come from the code under test.

Every check the benchmark makes rests on this file, on the generators in
gen.py, or on closed forms from the paper: the benchmark's own file
parser, run counting by dynamic programming over raw ``trans`` triples,
state-pair reachability, clique counting, and the witness family's sizes.
"""

import math
from itertools import combinations

from gen import Automaton


def parse_automaton_text(text: str) -> Automaton:
    """Read an automaton file; transitions keep their file order."""
    states, alphabet, initial, final, trans = None, None, None, None, []
    for line in text.split("\n"):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        head = tokens[0]
        if head == "trans":
            trans.append((int(tokens[1]), tokens[2], int(tokens[3])))
        elif head == "nfa":
            states = int(tokens[1])
        elif head == "alphabet":
            alphabet = tuple(tokens[1:])
        elif head == "initial":
            initial = frozenset(map(int, tokens[1:]))
        elif head == "final":
            final = frozenset(map(int, tokens[1:]))
        else:
            raise ValueError(f"unknown line {line!r}")
    if None in (states, alphabet, initial, final):
        raise ValueError("automaton file lacks a header line")
    return Automaton(states, alphabet, tuple(trans), initial, final)


class RunCounter:
    """Exact accepting-run counts of words, by DP over word positions."""

    def __init__(self, aut: Automaton):
        self.aut = aut
        self.edges = {a: [] for a in aut.alphabet}
        for s, a, d in aut.trans:
            self.edges[a].append((s, d))

    def runs(self, word) -> int:
        counts = dict.fromkeys(self.aut.initial, 1)
        for a in word:
            nxt = {}
            for s, d in self.edges[a]:
                c = counts.get(s)
                if c:
                    nxt[d] = nxt.get(d, 0) + c
            counts = nxt
            if not counts:
                return 0
        return sum(c for q, c in counts.items() if q in self.aut.final)


def sample_words(aut: Automaton, rng, count: int, max_len: int) -> list:
    """Seeded words: half random walks from an initial state that stop in a
    final state (accepted when the walk finds one), half uniform words."""
    succ = {}
    for s, a, d in aut.trans:
        succ.setdefault(s, []).append((a, d))
    starts = sorted(aut.initial)
    words = []
    for i in range(count):
        length = rng.randrange(max_len + 1)
        if i % 2 or not starts:
            words.append(tuple(rng.choice(aut.alphabet) for _ in range(length)))
            continue
        q, word, accepted = rng.choice(starts), [], ()
        for _ in range(length):
            if q not in succ:
                break
            a, q = rng.choice(succ[q])
            word.append(a)
            if q in aut.final:
                accepted = tuple(word)
        words.append(accepted if accepted or not word else tuple(word))
    return words


def split_problems(base: Automaton, complement: Automaton, words, member=None) -> list:
    """Each word must have exactly one accepting run in total, in one of the
    two automata; ``member`` optionally gives the base language directly."""
    base_runs, comp_runs = RunCounter(base), RunCounter(complement)
    problems = []
    for word in words:
        b, c = base_runs.runs(word), comp_runs.runs(word)
        if (b, c) not in ((1, 0), (0, 1)) or (member is not None and b != member(word)):
            problems.append(f"word {' '.join(word) or '(empty)'}: {b} runs in input, {c} in complement")
    return problems[:5]


def reachable_pairs(aut: Automaton) -> int:
    """State pairs reached by one word from the initial states, plus those
    reached backward from the final states on a reversed copy: the pairs an
    ambiguity check by pair search visits on its two sides."""
    n = aut.states

    def count(trans, seeds):
        rows = {a: [[] for _ in range(n)] for a in aut.alphabet}
        for s, a, d in trans:
            rows[a][s].append(d)
        rows = list(rows.values())
        seen = bytearray(n * n)
        stack = [(p, q) for p in seeds for q in seeds]
        for p, q in stack:
            seen[p * n + q] = 1
        total = len(stack)
        while stack:
            p, q = stack.pop()
            for row in rows:
                ps, qs = row[p], row[q]
                if ps and qs:
                    for p2 in ps:
                        for q2 in qs:
                            if not seen[p2 * n + q2]:
                                seen[p2 * n + q2] = 1
                                total += 1
                                stack.append((p2, q2))
        return total

    reversed_trans = [(d, a, s) for s, a, d in aut.trans]
    return count(aut.trans, aut.initial) + count(reversed_trans, aut.final)


def count_cliques(n: int, edges) -> int:
    """Cliques (empty one included): each clique is counted once, from its
    lowest vertex, by extending with higher common neighbours."""
    higher = [0] * n
    for u, v in edges:
        higher[min(u, v)] |= 1 << max(u, v)

    def extend(candidates: int) -> int:
        total = 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            total += extend(candidates & higher[low.bit_length() - 1])
        return total

    return extend((1 << n) - 1)


def complement_edges(n: int, edges) -> list:
    present = set(edges)
    return [pair for pair in combinations(range(n), 2) if pair not in present]


def split_clique_size(n: int) -> int:
    """Clique size of the paper's extremal split graph: the integer nearest
    n/2 + log2((n+1)/2)/2.  Exact halves need n + 1 to be a power of two."""
    if (n + 1) & n == 0:
        raise ValueError("tie case not used by the benchmark")
    return math.floor(n / 2 + math.log2((n + 1) / 2) / 2 + 0.5)


def witness_sizes(n: int):
    """(k, l) for the witness on K_c plus n - c isolated vertices: forward
    subsets are its cliques, 2**c + (n - c); backward subsets its
    cocliques, (c + 1) * 2**(n - c)."""
    c = split_clique_size(n)
    return (1 << c) + (n - c), (c + 1) << (n - c)


def witness_automaton(n: int) -> Automaton:
    """The witness built from its definition: vertex 0 is the only initial
    and final state, letter c{X} goes from 0 to each member of clique X and
    letter i{Y} from each member of coclique Y back to 0."""
    c = split_clique_size(n)
    clique_part, isolated = range(c), range(c, n)
    cliques = [set(x) for size in range(c + 1) for x in combinations(clique_part, size)]
    cliques += [{v} for v in isolated]
    cocliques = []
    for size in range(n - c + 1):
        for rest in combinations(isolated, size):
            cocliques.append(set(rest))
            cocliques += [set(rest) | {u} for u in clique_part]

    def label(kind, members):
        return kind + "{" + ",".join(map(str, sorted(members))) + "}"

    alphabet, trans = [], set()
    for x in cliques:
        alphabet.append(label("c", x))
        trans |= {(0, alphabet[-1], v) for v in x}
    for y in cocliques:
        alphabet.append(label("i", y))
        trans |= {(v, alphabet[-1], 0) for v in y}
    return Automaton(n, tuple(alphabet), tuple(sorted(trans)), frozenset({0}), frozenset({0}))
