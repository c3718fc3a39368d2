"""Seeded input generators and the text files they write.

Nothing here imports ufa: the inputs come from the seed alone, so a change
to the program (or to its tests) cannot change what the benchmark feeds it.
"""

from itertools import combinations
from typing import NamedTuple


class Automaton(NamedTuple):
    states: int
    alphabet: tuple
    trans: tuple  # (src, symbol, dst) triples, in a fixed order
    initial: frozenset
    final: frozenset


def automaton_text(aut: Automaton) -> str:
    lines = [
        f"nfa {aut.states}",
        " ".join(("alphabet",) + aut.alphabet),
        " ".join(["initial"] + [str(q) for q in sorted(aut.initial)]),
        " ".join(["final"] + [str(q) for q in sorted(aut.final)]),
    ]
    lines += [f"trans {s} {a} {d}" for s, a, d in aut.trans]
    return "\n".join(lines) + "\n"


def graph_text(n: int, edges) -> str:
    return f"graph {n}\n" + "".join(f"edge {u} {v}\n" for u, v in sorted(edges))


def nth_letter_dfa(n: int, rng) -> Automaton:
    """The n-state DFA over {a, b} for "letter n-1 is a".

    States 0..n-2 count the letters read and state n-1 is an accepting
    sink; position n-2 has no b edge.  Its forward construction has n + 1
    subsets (the empty one included) and its backward one 2**(n-1).  State
    numbers are shuffled by ``rng`` so the seed changes the file, not the
    sizes.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    trans = {(perm[i], a, perm[i + 1]) for i in range(n - 2) for a in "ab"}
    trans.add((perm[n - 2], "a", perm[n - 1]))
    trans |= {(perm[n - 1], a, perm[n - 1]) for a in "ab"}
    return Automaton(n, ("a", "b"), tuple(sorted(trans)), frozenset({perm[0]}), frozenset({perm[n - 1]}))


def random_dfa(n: int, letters: int, rng) -> Automaton:
    """A complete random DFA: every (state, letter) gets a uniform target."""
    alphabet = tuple("abc"[:letters])
    trans = tuple((q, a, rng.randrange(n)) for q in range(n) for a in alphabet)
    final = rng.sample(range(n), 1 + n // 20)
    return Automaton(n, alphabet, trans, frozenset({rng.randrange(n)}), frozenset(final))


def _closure(start, edges) -> set:
    seen = set(start)
    stack = list(start)
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def random_ambiguous_nfa(n: int, letters: int, rng) -> Automaton:
    """A random DFA plus n // 20 random extra edges and one planted twin.

    The twin is a new state c copying the out-edges and finality of a
    co-reachable state s = delta(r, x) with r reachable; adding r -x-> c
    gives every word u x v (u reaching r, v accepted from s) two runs, so
    the automaton is ambiguous by construction, not by chance.
    """
    while True:
        base = random_dfa(n, letters, rng)
        trans = set(base.trans)
        for _ in range(n // 20):
            trans.add((rng.randrange(n), rng.choice(base.alphabet), rng.randrange(n)))
        succ, pred = {}, {}
        for s, _, d in trans:
            succ.setdefault(s, []).append(d)
            pred.setdefault(d, []).append(s)
        reachable = _closure(base.initial, succ)
        coreachable = _closure(base.final, pred)
        candidates = sorted(
            (r, a, d) for r, a, d in base.trans if r in reachable and d in coreachable
        )
        if candidates:
            break
    r, x, s = rng.choice(candidates)
    twin = n
    trans |= {(twin, a, d) for src, a, d in trans if src == s}
    trans.add((r, x, twin))
    final = base.final | ({twin} if s in base.final else set())
    return Automaton(n + 1, base.alphabet, tuple(sorted(trans)), base.initial, frozenset(final))


def random_graph_edges(n: int, density: float, rng) -> list:
    """G(n, M) with M = round(density * n(n-1)/2): fixed edge count, uniform
    placement.  Fixing M keeps clique counts, and so run times, from
    swinging as widely between seeds as G(n, p) does."""
    pairs = list(combinations(range(n), 2))
    return sorted(rng.sample(pairs, round(density * len(pairs))))


def random_small_graph_edges(n: int, rng) -> list:
    """A uniform labeled graph on n vertices (each edge with probability 1/2)."""
    pairs = list(combinations(range(n), 2))
    mask = rng.getrandbits(len(pairs))
    return [pair for i, pair in enumerate(pairs) if mask >> i & 1]
