"""Unit tests for the automata operations."""

import random
from array import array
from functools import cache
from operator import attrgetter

import pytest

from ufa import (
    BACKWARD,
    DEFAULT_CAP,
    FORWARD,
    AmbiguousAutomatonError,
    BoundReport,
    CapExceededError,
    Nfa,
    backward_determinize,
    complement_construction,
    complement_ufa,
    count_accepting_runs,
    extract_graph,
    forward_determinize,
    is_unambiguous,
    measure_constructions,
)
from ufa import automata
from ufa.automata import _index, _pair_search, _unambiguity
from ufa.bridge import _witness_sizes, graph_to_ufa, witness_ufa
from helpers import (
    a_plus,
    a_star,
    enumerate_accepting_runs,
    equivalent,
    language,
    nth_letter_dfa,
    random_graph,
    random_nfa,
    random_nfa_any,
    reference_determinize,
    reference_is_unambiguous,
    reference_pair_search,
    reference_reachable_state_pairs,
    reference_rows,
    seed_pairs,
    subsets,
    table_rows,
    two_loop,
    word_run_counts,
)


class TestNfaValidation:
    def test_rejects_whitespace_symbol(self):
        with pytest.raises(ValueError, match="whitespace"):
            Nfa(1, ("a b",), set(), {0}, {0})

    def test_rejects_empty_symbol(self):
        with pytest.raises(ValueError):
            Nfa(1, ("",), set(), {0}, {0})

    def test_rejects_duplicate_symbol(self):
        with pytest.raises(ValueError, match="duplicate"):
            Nfa(1, ("a", "a"), set(), {0}, {0})

    def test_rejects_out_of_range_state(self):
        with pytest.raises(ValueError, match="out of range"):
            Nfa(2, ("a",), {(0, "a", 2)}, {0}, {1})
        with pytest.raises(ValueError, match="out of range"):
            Nfa(2, ("a",), set(), {-1}, {1})

    def test_rejects_unknown_transition_symbol(self):
        with pytest.raises(ValueError, match="not in alphabet"):
            Nfa(1, ("a",), {(0, "b", 0)}, {0}, {0})

    def test_zero_state_automaton_is_legal(self):
        empty = Nfa(0, ("a",), set(), set(), set())
        assert forward_determinize(empty).state_count == 1
        assert backward_determinize(empty).state_count == 1
        assert subsets(forward_determinize(empty)) == (frozenset(),)

    def test_coercion_makes_instances_hashable_and_equal(self):
        by_set = Nfa(2, ["a"], {(0, "a", 1)}, {0}, [1])
        by_frozen = Nfa(2, ("a",), frozenset({(0, "a", 1)}), frozenset({0}), frozenset({1}))
        assert by_set == by_frozen
        assert hash(by_set) == hash(by_frozen)


class TestCountAcceptingRuns:
    def test_two_parallel_loops(self):
        assert count_accepting_runs(two_loop(), ("a",)) == 2

    def test_empty_word_counts_initial_final_overlap(self):
        assert count_accepting_runs(two_loop(), ()) == 2

    def test_deterministic_automaton_counts_one(self):
        assert count_accepting_runs(a_plus(), ("a", "a")) == 1

    def test_unknown_symbol(self):
        with pytest.raises(ValueError, match="not in alphabet"):
            count_accepting_runs(a_plus(), ("b",))

    def test_matches_explicit_run_enumeration(self):
        rng = random.Random(7)
        for _ in range(50):
            nfa = random_nfa(rng, max_states=5)
            word = tuple(rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 5)))
            assert count_accepting_runs(nfa, word) == len(
                enumerate_accepting_runs(nfa, word)
            )


class TestIsUnambiguous:
    def test_two_loop_is_ambiguous_with_checked_witness(self):
        ok, witness = is_unambiguous(two_loop())
        assert not ok
        assert count_accepting_runs(two_loop(), witness) >= 2

    def test_deterministic_is_unambiguous(self):
        assert is_unambiguous(a_plus()) == (True, None)

    def test_zero_states_is_unambiguous(self):
        assert is_unambiguous(Nfa(0, ("a",), set(), set(), set())) == (True, None)

    def test_witness_always_has_two_runs(self):
        rng = random.Random(11)
        for _ in range(200):
            nfa = random_nfa(rng)
            ok, witness = is_unambiguous(nfa)
            if ok:
                assert witness is None
            else:
                assert count_accepting_runs(nfa, witness) >= 2


@pytest.fixture
def pair_searches(monkeypatch):
    """The automata passed to automata._unambiguity from now on."""
    calls = []
    engine = automata._unambiguity

    def spy(nfa, *args):
        calls.append(nfa)
        return engine(nfa, *args)

    monkeypatch.setattr(automata, "_unambiguity", spy)
    return calls


class TestDeterministicFastPath:
    def test_dfas_are_answered_without_a_pair_search(self, pair_searches):
        rng = random.Random(61)
        for _ in range(100):
            n, letters = rng.randint(1, 40), rng.randint(1, 3)
            targets, start, final = _random_dfa(rng, n, letters)
            alphabet = tuple("abc"[:letters])
            # Some cells dropped: a partial DFA is deterministic too.
            transitions = {
                (q, a, targets[q][j]) for q in range(n) for j, a in enumerate(alphabet) if rng.random() < 0.9
            }
            initial = {start} if rng.random() < 0.9 else set()
            nfa = Nfa(n, alphabet, transitions, initial, final)
            assert reference_is_unambiguous(nfa) == (True, None)
            assert is_unambiguous(nfa) == (True, None)
        assert pair_searches == []

    def test_two_initial_states_still_search(self, pair_searches):
        # No transitions, but the empty word has a run from each initial
        # state, both accepting.
        nfa = Nfa(2, ("a",), set(), {0, 1}, {0, 1})
        assert is_unambiguous(nfa) == (False, ())
        assert pair_searches == [nfa]

    def test_two_successors_still_search(self, pair_searches):
        # One initial state, but state 0 has two a-successors.  Its
        # (letter, target) pairs are distinct, but it has two final states.
        nfa = Nfa(3, ("a",), {(0, "a", 1), (0, "a", 2)}, {0}, {1, 2})
        assert is_unambiguous(nfa) == reference_is_unambiguous(nfa) == (False, ("a",))
        assert pair_searches == [nfa]

    def test_co_deterministic_automata_are_answered_without_a_pair_search(self, pair_searches):
        # The mirror of the DFA rule: at most one final state and at most
        # one predecessor per (state, letter).
        rng = random.Random(62)
        for _ in range(100):
            n, letters = rng.randint(1, 40), rng.randint(1, 3)
            targets, start, _ = _random_dfa(rng, n, letters)
            alphabet = tuple("abc"[:letters])
            transitions = {
                (q, a, targets[q][j]) for q in range(n) for j, a in enumerate(alphabet) if rng.random() < 0.9
            }
            starts = {q for q in range(n) if rng.random() < 0.4}
            # Reversed: several initial states and at most one final one.
            nfa = _mirror(Nfa(n, alphabet, transitions, {start} if rng.random() < 0.9 else set(), starts))
            assert reference_is_unambiguous(nfa) == (True, None)
            assert is_unambiguous(nfa) == (True, None)
        assert pair_searches == []

    def test_every_complement_is_answered_without_a_pair_search(self, pair_searches):
        # A forward-chosen complement is a complete DFA; a backward-chosen
        # one has one final state and one move into each (state, letter).
        rng = random.Random(63)
        pool = [witness_ufa(n) for n in range(9)]
        pool += [nfa for nfa in (random_nfa(rng) for _ in range(80)) if reference_is_unambiguous(nfa)[0]]
        results = [complement_ufa(nfa) for nfa in pool]
        assert {report.chosen for _, report in results} == {FORWARD, BACKWARD}
        pair_searches.clear()
        for complement, _ in results:
            assert is_unambiguous(complement) == (True, None)
        assert pair_searches == []


def _random_automaton(rng) -> Nfa:
    """0-8 states, 0-3 letters, any number of initial and final states,
    and some states without outgoing transitions."""
    n = rng.randint(0, 8)
    alphabet = tuple("abc"[: rng.randint(0, 3)])
    density = rng.choice((0.1, 0.25, 0.5))
    silent = {q for q in range(n) if rng.random() < 0.2}
    transitions = {
        (q, a, r)
        for q in range(n)
        if q not in silent
        for a in alphabet
        for r in range(n)
        if rng.random() < density
    }
    initial = {q for q in range(n) if rng.random() < 0.35}
    final = {q for q in range(n) if rng.random() < 0.35}
    return Nfa(n, alphabet, transitions, initial, final)


def _random_dfa(rng, n: int, letters: int):
    """A complete DFA on n states with one initial state; returns (targets,
    initial, final) with targets[q][j] the image of q under letter j."""
    targets = [[rng.randrange(n) for _ in range(letters)] for _ in range(n)]
    final = {q for q in range(n) if rng.random() < 0.2}
    return targets, rng.randrange(n), final


def _dfa_with_twin(rng) -> Nfa:
    """A random DFA plus a twin state: a new state copying the out-edges
    and finality of the target of one edge, which also gets a copy
    pointing at the twin.  Ambiguous exactly when that edge is used on
    some accepted word."""
    n = rng.randint(1, 7)
    alphabet = tuple("abc"[: rng.randint(1, 3)])
    targets, start, final = _random_dfa(rng, n, len(alphabet))
    transitions = {(q, a, targets[q][j]) for q in range(n) for j, a in enumerate(alphabet)}
    source, j = rng.randrange(n), rng.randrange(len(alphabet))
    copied = targets[source][j]
    twin = n
    transitions |= {(twin, a, targets[copied][i]) for i, a in enumerate(alphabet)}
    transitions.add((source, alphabet[j], twin))
    if copied in final:
        final = final | {twin}
    return Nfa(n + 1, alphabet, transitions, {start}, final)


def _recording(calls: list, name: str, engine):
    """``engine``, appending ``name`` to ``calls`` on each call."""

    def spy(*args, **kwargs):
        calls.append(name)
        return engine(*args, **kwargs)

    return spy


# Values of automata._PAIR_BITS that force each path of the pair test.
PAIR_PATHS = {"rows": 1 << 62, "pairs": -1}


def _planted_twin(rng, n: int, letters: int) -> Nfa:
    """A random complete DFA on n states, n // 20 extra random edges and
    one planted twin: a new state copying the out-edges and finality of
    the target s of an edge r -x-> s with r reachable and s co-reachable,
    plus the edge r -x-> twin.  Ambiguous by construction."""
    alphabet = tuple("abc"[:letters])
    while True:
        targets, start, final = _random_dfa(rng, n, letters)
        edges = {(q, a, targets[q][j]) for q in range(n) for j, a in enumerate(alphabet)}
        edges |= {(rng.randrange(n), rng.choice(alphabet), rng.randrange(n)) for _ in range(n // 20)}
        reachable, co_reachable = {start}, set(final)
        for seen, step in ((reachable, lambda e: (e[0], e[2])), (co_reachable, lambda e: (e[2], e[0]))):
            grown = True
            while grown:
                grown = False
                for edge in edges:
                    here, there = step(edge)
                    if here in seen and there not in seen:
                        seen.add(there)
                        grown = True
        candidates = sorted(
            (q, a, targets[q][j])
            for q in range(n)
            for j, a in enumerate(alphabet)
            if q in reachable and targets[q][j] in co_reachable
        )
        if candidates:
            break
    r, x, copied = rng.choice(candidates)
    twin = n
    edges |= {(twin, a, d) for src, a, d in edges if src == copied}
    edges.add((r, x, twin))
    return Nfa(n + 1, alphabet, edges, {start}, final | ({twin} if copied in final else set()))


def _field_boundary_twins(n: int):
    """Two ambiguous n-state automata over (a, b) whose every pair of
    distinct states that some word reaches and leaves accepted holds
    state n - 1, the top bit of a field when n fills its bytes, reached
    on the last letter b.  Forward, an a-cycle over 0..n-2 branches from
    n - 2 on b to 0 and to n - 1, both final, and n - 1 loops on a;
    backward, its reversal, where the runs from the initial states 0 and
    n - 1 meet in n - 2 on b."""
    cycle = {(q, "a", (q + 1) % (n - 1)) for q in range(n - 1)}
    edges = cycle | {(n - 2, "b", 0), (n - 2, "b", n - 1), (n - 1, "a", n - 1)}
    forward = Nfa(n, ("a", "b"), edges, {0}, {0, n - 1})
    backward = Nfa(n, ("a", "b"), {(d, a, s) for s, a, d in edges}, {0, n - 1}, {0})
    return forward, backward


def _probe(nfa: Nfa, fwd_parent: dict, tables=None):
    """automata._witness_pair on ``nfa``, with its tables and kernel."""
    tables = tables or automata._tables_of(nfa)
    kernel = automata._pair_kernel(tables(FORWARD), tables(FORWARD, True), nfa.state_count)
    return automata._witness_pair(nfa, fwd_parent, tables, kernel)


def _with_dead_sink(rng, nfa: Nfa) -> Nfa:
    """``nfa`` plus a dead sink: a new state, not final and with no moves,
    and one move into it on a random letter from a random state."""
    n = nfa.state_count
    move = (rng.randrange(n), rng.choice(nfa.alphabet), n)
    return Nfa(n + 1, nfa.alphabet, nfa.transitions | {move}, nfa.initial, nfa.final)


def _mirror(nfa: Nfa) -> Nfa:
    """``nfa`` read backward: moves reversed, initial and final swapped."""
    return Nfa(nfa.state_count, nfa.alphabet, {(d, a, s) for s, a, d in nfa.transitions}, nfa.final, nfa.initial)


def _probe_families(rng):
    """Random DFAs with a dead sink and co-deterministic automata (mirror
    images of DFAs), each also with a planted twin, 2-30 states: inputs
    whose probes mostly close."""
    pool = []
    for _ in range(150):
        n, letters = rng.randint(2, 30), rng.randint(1, 3)
        targets, start, final = _random_dfa(rng, n, letters)
        alphabet = tuple("abc"[:letters])
        dfa = Nfa(n, alphabet, {(q, a, targets[q][j]) for q in range(n) for j, a in enumerate(alphabet)}, {start}, final)
        twin = _dfa_with_twin(rng)
        pool += [_with_dead_sink(rng, dfa), _with_dead_sink(rng, twin), _mirror(dfa), _mirror(twin)]
    return pool


def _pair_distances(nfa: Nfa, start, rows, within) -> dict:
    """Breadth-first distance from the pairs ``start`` of each pair of
    ``within`` stepped along ``rows`` (reference_rows) through ``within``."""
    found, layer, j = {}, set(start) & within, 0
    while layer:
        found.update(dict.fromkeys(layer, j))
        steps = {(p2, q2) for p, q in layer for a in nfa.alphabet for p2 in rows[a].get(p, ()) for q2 in rows[a].get(q, ())}
        layer, j = (steps & within) - found.keys(), j + 1
    return found


def _oracle_cone(nfa: Nfa, target: int) -> set:
    """The codes of the pairs on the shortest paths from the pair coded
    ``target`` to a pair of final states: the forward-reachable pairs Y
    with dist(X, Y) + dist(Y, final) = dist(X, final)."""
    n = nfa.state_count
    reach = set(reference_reachable_state_pairs(nfa))
    dist = _pair_distances(nfa, [divmod(target, n)], reference_rows(nfa, backward=False), reach)
    depth = _pair_distances(nfa, seed_pairs(nfa.final), reference_rows(nfa, backward=True), reach)
    d = depth[divmod(target, n)]
    return {p * n + q for (p, q), j in dist.items() if j + depth.get((p, q), d + 1) == d}


def _assert_oracle_layers(nfa: Nfa, target: int, layers: list, live: list) -> int:
    """Check _witness_pair's forward ``layers`` for the witness pair X
    (code ``target``) against the oracle, and return how many pairs they
    hold.

    Layer 0 is {X}, the last layer d is the first that holds a pair of
    final states, and d is X's oracle distance to one.  The layers hold
    exactly the pairs within distance d of X through the ``live`` pairs,
    each at that distance, all forward-reachable; those that reach a
    final pair (as every pair on a path from X to one does) sit at their
    oracle distance from X within all the forward-reachable pairs."""
    n = nfa.state_count
    reach = set(reference_reachable_state_pairs(nfa))
    x = divmod(target, n)
    forward = reference_rows(nfa, backward=False)
    dist = _pair_distances(nfa, [x], forward, reach)
    through_live = _pair_distances(nfa, [x], forward, {(p, q) for p, q in reach if live[p] >> q & 1})
    depth = _pair_distances(nfa, seed_pairs(nfa.final), reference_rows(nfa, backward=True), reach)
    d = depth[x]
    got = [((p, q), j) for j, layer in enumerate(layers) for p, row in layer.items() for q in automata._bits(row)]
    assert len(got) == len(dict(got))
    got = dict(got)
    assert len(layers) == d + 1 and layers[0] == {x[0]: 1 << x[1]}
    assert [any(p in nfa.final and q in nfa.final for p, q in got if got[p, q] == j) for j in range(d + 1)] == [False] * d + [True]
    assert got == {pair: j for pair, j in through_live.items() if j <= d}
    for pair, j in got.items():
        assert pair in reach and dist[pair] <= j, pair
        if pair in depth:
            assert dist[pair] == j, pair
    return len(got)


class TestPairSearchAgainstTheOracle:
    """Both paths of the pair test, packed rows and the coded, pruned
    per-pair search, give the verdicts, witnesses and reachable pairs of
    two full searches over (p, q) tuples; the per-pair path also keeps
    their pair order."""

    @staticmethod
    def _instances():
        rng = random.Random(2024)
        pool = [_random_automaton(rng) for _ in range(1500)]
        pool += [_dfa_with_twin(rng) for _ in range(500)]
        pool += [
            Nfa(0, (), set(), set(), set()),
            Nfa(0, ("a", "b"), set(), set(), set()),
            Nfa(3, (), set(), {0, 1, 2}, {1, 2}),
            Nfa(3, ("a",), set(), {0, 1}, {0, 1}),
            # The witness pair is a seed of the forward search: (0, 1)
            # after the empty word, and the backward chain is a b.
            Nfa(4, ("a", "b"), {(0, "a", 2), (1, "a", 2), (2, "b", 3), (0, "b", 0)}, {0, 1}, {3}),
            # Self-loops, several initial and final states, and a seed
            # pair that is also final.
            Nfa(3, ("a", "b"), {(0, "a", 0), (1, "a", 1), (2, "b", 2), (0, "b", 2)}, {0, 1, 2}, {0, 2}),
        ]
        return pool

    def test_verdict_witness_and_pair_order(self, monkeypatch):
        for path, bits in PAIR_PATHS.items():
            monkeypatch.setattr(automata, "_PAIR_BITS", bits)
            ambiguous = 0
            for nfa in self._instances():
                expected = reference_is_unambiguous(nfa)
                assert is_unambiguous(nfa) == expected, path
                pairs, _ = _unambiguity(nfa)
                reachable = reference_reachable_state_pairs(nfa)
                if not expected[0]:
                    # A no answer keeps no pairs.
                    assert pairs is None
                elif path == "pairs":
                    assert list(pairs) == reachable
                else:
                    assert sorted(pairs) == sorted(reachable)
                ambiguous += not expected[0]
            assert 300 <= ambiguous <= 1700

    def test_both_paths_on_planted_twins(self, monkeypatch):
        # The benchmark's shape of input, at 100-200 states.
        rng = random.Random(13)
        for i in range(6):
            nfa = _planted_twin(rng, rng.randint(100, 200), 2 + i % 2)
            expected = reference_is_unambiguous(nfa)
            assert not expected[0]
            for bits in PAIR_PATHS.values():
                monkeypatch.setattr(automata, "_PAIR_BITS", bits)
                assert is_unambiguous(nfa) == expected

    def test_witness_layers_are_the_forward_layers_from_the_witness(self):
        rng = random.Random(77)
        checked = ambiguous = 0
        for _ in range(400):
            nfa = rng.choice((_random_automaton, _dfa_with_twin))(rng)
            target, layers, live = _probe(nfa, {})
            if target is None:
                assert layers == []
            else:
                checked += _assert_oracle_layers(nfa, target, layers, live)
                ambiguous += 1
        for nfa in _probe_families(random.Random(78)):
            target, layers, live = _probe(nfa, {})
            if target is not None:
                checked += _assert_oracle_layers(nfa, target, layers, live)
                ambiguous += 1
        assert ambiguous >= 200
        assert checked >= 1000

    def test_the_size_rule_picks_the_path(self, monkeypatch):
        # At n * n * (|alphabet| + 1) bits the pairs are packed rows, one bit
        # fewer and they are searched one by one.  Both inputs are answered
        # yes, so on the rows path every pair of distinct states is probed
        # dead and the per-pair search expands only pairs (q, q): it keeps
        # no other parent.
        rng = random.Random(150)
        n = 150
        targets, start, final = _random_dfa(rng, n, 2)
        transitions = {(q, a, targets[q][j]) for q in range(n) for j, a in enumerate("ab")}
        for nfa in (Nfa(n, ("a", "b"), transitions, {start}, final), witness_ufa(6)):
            size = nfa.state_count ** 2 * (len(nfa.alphabet) + 1)
            for bits, per_pair in ((size, False), (size - 1, True)):
                monkeypatch.setattr(automata, "_PAIR_BITS", bits)
                calls, parents = [], []
                search = automata._pair_search

                def spy(nfa, parent, *args, **kwargs):
                    calls.append("_pair_search")
                    parents.append(parent)
                    return search(nfa, parent, *args, **kwargs)

                monkeypatch.setattr(automata, "_pair_search", spy)
                monkeypatch.setattr(automata, "_witness_pair", _recording(calls, "_witness_pair", automata._witness_pair))
                # _unambiguity itself: is_unambiguous answers the DFA before
                # either path runs.
                assert _unambiguity(nfa)[1] is None
                if per_pair:
                    assert calls == ["_pair_search"] * 2
                else:
                    assert calls == ["_witness_pair", "_pair_search"]
                    assert parents[0] and all(code % (nfa.state_count + 1) == 0 for code in parents[0])
                monkeypatch.undo()

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 64, 65, 72])
    def test_field_boundaries(self, monkeypatch, n):
        # At n = 8, 16, 64 and 72 state n - 1 is a field's top bit; at 9,
        # 17 and 65 it is the one bit of the last byte in use.
        for nfa in _field_boundary_twins(n):
            expected = reference_is_unambiguous(nfa)
            assert not expected[0]
            for path, bits in PAIR_PATHS.items():
                monkeypatch.setattr(automata, "_PAIR_BITS", bits)
                assert is_unambiguous(nfa) == expected, path
            # The witness pair's layers are the oracle's forward layers
            # from it.
            target, layers, live = _probe(nfa, {})
            _assert_oracle_layers(nfa, target, layers, live)

    def test_dead_sinks_and_co_deterministic_automata(self, monkeypatch):
        pool = _probe_families(random.Random(808))
        for path, bits in PAIR_PATHS.items():
            monkeypatch.setattr(automata, "_PAIR_BITS", bits)
            ambiguous = 0
            for nfa in pool:
                expected = reference_is_unambiguous(nfa)
                assert is_unambiguous(nfa) == expected, path
                ambiguous += not expected[0]
            assert 80 <= ambiguous <= 300, path

    def test_dead_pairs_are_not_co_reachable(self):
        # A probe marks dead only what it saw and closed on, so no dead
        # pair reaches a final pair; the forward parents it leaves on
        # pairs that do are the oracle's.
        pool = self._instances() + _probe_families(random.Random(909))
        dead_total = ambiguous = 0
        for nfa in pool:
            n = nfa.state_count
            fwd_parent = {}
            target, _, live = _probe(nfa, fwd_parent)
            _, co_reachable = reference_pair_search(seed_pairs(nfa.final), nfa.alphabet, reference_rows(nfa, True))
            _, oracle_parent = reference_pair_search(seed_pairs(nfa.initial), nfa.alphabet, reference_rows(nfa, False))
            dead = {(p, q) for p in range(n) for q in range(n) if not live[p] >> q & 1}
            assert not dead & co_reachable.keys()
            for code, link in fwd_parent.items():
                pair = divmod(code, n)
                if pair in co_reachable:
                    assert (None if link is None else (divmod(link[0], n), link[1])) == oracle_parent[pair]
            dead_total += len(dead)
            ambiguous += target is not None
        assert dead_total >= 10_000
        assert ambiguous >= 500

    def test_planted_twins_are_found(self):
        rng = random.Random(5)
        found = 0
        for _ in range(300):
            nfa = _dfa_with_twin(rng)
            ok, witness = is_unambiguous(nfa)
            if not ok:
                assert count_accepting_runs(nfa, witness) >= 2
                found += 1
        assert found >= 50

    def test_pruned_backward_search_keeps_order_and_parents(self):
        # Restricted to forward-reachable pairs, the full backward search
        # of the oracle has the same discovery order and parent links.
        rng = random.Random(99)
        for _ in range(400):
            nfa = rng.choice((_random_automaton, _dfa_with_twin))(rng)
            n = nfa.state_count
            forward, parent = {}, {}
            list(_pair_search(nfa, forward, _index(nfa, FORWARD), nfa.initial))
            order = list(_pair_search(nfa, parent, _index(nfa, BACKWARD), nfa.final, allowed=forward))
            full_order, full_parent = reference_pair_search(
                seed_pairs(nfa.final), nfa.alphabet, reference_rows(nfa, backward=True)
            )
            kept = {divmod(code, n) for code in forward} if n else set()
            assert [divmod(code, n) for code in order] == [pair for pair in full_order if pair in kept]
            for code, link in parent.items():
                want = full_parent[divmod(code, n)]
                got = None if link is None else (divmod(link[0], n), link[1])
                assert got == want

    def test_the_cone_search_gives_the_full_backward_parents(self, monkeypatch):
        # On the rows path only the witness pair's backward cone is searched
        # pair by pair.  The cone, oracle-built from the layers of the full
        # backward search within the forward pairs, is what it visits, and
        # each of its pairs gets that full search's parent.
        monkeypatch.setattr(automata, "_PAIR_BITS", PAIR_PATHS["rows"])
        rng = random.Random(31)
        pool = [_random_automaton(rng) for _ in range(800)]
        pool += [_dfa_with_twin(rng) for _ in range(300)]
        pool += [_planted_twin(rng, rng.randint(100, 200), 2 + i % 2) for i in range(8)]
        pool += [nfa for n in (8, 9, 16, 17, 64, 65) for nfa in _field_boundary_twins(n)]
        ambiguous = wide = 0
        for nfa in pool:
            n = nfa.state_count
            tables = automata._tables_of(nfa)
            target, layers, _ = _probe(nfa, {}, tables)
            if target is None:
                continue
            forward, full = {}, {}
            list(_pair_search(nfa, forward, _index(nfa, FORWARD), nfa.initial))
            depth = {}
            for code in _pair_search(nfa, full, _index(nfa, BACKWARD), nfa.final, forward):
                depth[code] = 0 if full[code] is None else depth[full[code][0]] + 1
            rows = reference_rows(nfa, backward=True)

            def steps_to(code, layer):
                p, q = divmod(code, n)
                return any(
                    p2 * n + q2 in layer
                    for a in nfa.alphabet
                    for p2 in rows[a].get(p, ())
                    for q2 in rows[a].get(q, ())
                )

            cone, layer = {target}, {target}
            for d in range(depth[target] - 1, -1, -1):
                layer = {code for code, at in depth.items() if at == d and steps_to(code, layer)}
                cone |= layer
                wide += len(layer) >= 2
            parent = automata._cone_parents(nfa, tables, layers, target)
            assert set(parent) == cone
            assert {code: full[code] for code in cone} == parent
            ambiguous += 1
        assert ambiguous >= 300
        assert wide >= 50

    def test_the_cone_is_the_shortest_paths_to_a_final_pair(self, monkeypatch):
        # The pairs _cone_parents replays the backward search on are those
        # of the oracle's cone.
        search, cones = automata._pair_search, []

        def spy(nfa, parent, index, seeds, allowed=None, live=None):
            if allowed is not None:
                cones.append(allowed)
            return search(nfa, parent, index, seeds, allowed, live)

        monkeypatch.setattr(automata, "_pair_search", spy)
        rng = random.Random(32)
        pool = [_random_automaton(rng) for _ in range(800)] + [_dfa_with_twin(rng) for _ in range(300)]
        pool += [_planted_twin(rng, rng.randint(100, 200), 2 + i % 2) for i in range(8)]
        pool += _probe_families(rng)
        ambiguous = branching = 0
        for nfa in pool:
            tables = automata._tables_of(nfa)
            target, layers, _ = _probe(nfa, {}, tables)
            if target is None:
                continue
            cones.clear()
            automata._cone_parents(nfa, tables, layers, target)
            assert cones == [_oracle_cone(nfa, target)]
            ambiguous += 1
            branching += len(cones[0]) > len(layers)
        assert ambiguous >= 400
        assert branching >= 50

    def test_a_no_answer_packs_and_steps_the_forward_index_only(self, monkeypatch):
        pack, kernel = automata._pack, automata._pair_kernel
        packed, kernels = [], []

        def pack_spy(index, n):
            packed.append(index)
            return pack(index, n)

        def kernel_spy(index, rows, n):
            kernels.append(index)
            return kernel(index, rows, n)

        monkeypatch.setattr(automata, "_pack", pack_spy)
        monkeypatch.setattr(automata, "_pair_kernel", kernel_spy)
        rng = random.Random(14)
        for i in range(6):
            nfa = _planted_twin(rng, rng.randint(100, 200), 2 + i % 2)
            packed.clear()
            kernels.clear()
            assert not is_unambiguous(nfa)[0]
            assert packed == kernels == [_index(nfa, FORWARD)] != [_index(nfa, BACKWARD)]

    def test_dfa_backward_search_stays_on_the_diagonal(self):
        # A DFA reaches only pairs (q, q), so the pruned backward search
        # visits at most n pairs instead of up to n**2.
        rng = random.Random(150)
        n = 150
        targets, start, final = _random_dfa(rng, n, 2)
        final |= {rng.randrange(n) for _ in range(20)}
        nfa = Nfa(
            n, ("a", "b"),
            {(q, a, targets[q][j]) for q in range(n) for j, a in enumerate("ab")},
            {start}, final,
        )
        forward, backward = {}, {}
        list(_pair_search(nfa, forward, _index(nfa, FORWARD), nfa.initial))
        list(_pair_search(nfa, backward, _index(nfa, BACKWARD), nfa.final, allowed=forward))
        assert all(code % (n + 1) == 0 for code in forward)
        assert 1 <= len(backward) <= n
        assert is_unambiguous(nfa) == (True, None)


def _one_index_calls():
    """(name, automaton, call) for each public entry point that reads the
    index: yes and no answers of the pair test, the deterministic fast
    path, run counting, both determinizations, both counts, the complement
    with and without a side over the cap, and the graph."""
    rng = random.Random(22)
    ufa = witness_ufa(6)
    twin = _planted_twin(rng, 120, 2)
    targets, start, final = _random_dfa(rng, 30, 2)
    dfa = Nfa(30, ("a", "b"), {(q, a, targets[q][j]) for q in range(30) for j, a in enumerate("ab")}, {start}, final)
    return [
        ("yes", ufa, is_unambiguous),
        ("no", twin, is_unambiguous),
        ("dfa", dfa, is_unambiguous),
        ("runs", twin, lambda nfa: count_accepting_runs(nfa, ("a", "b") * 3)),
        ("forward", ufa, forward_determinize),
        ("backward", ufa, backward_determinize),
        ("measure", ufa, measure_constructions),
        ("complement", ufa, complement_construction),
        # k = 18 and l = 20: the backward count hits the cap.
        ("complement capped", ufa, lambda nfa: complement_construction(nfa, cap=19)),
        ("graph", ufa, extract_graph),
    ]


class TestOneIndexPerCall:
    """Each public call builds each direction's index, and its packed
    rows, at most once, and leaves nothing cached on the automaton."""

    @pytest.mark.parametrize("path", PAIR_PATHS)
    def test_each_direction_is_built_at_most_once(self, monkeypatch, path):
        monkeypatch.setattr(automata, "_PAIR_BITS", PAIR_PATHS[path])
        index, pack = automata._index, automata._pack
        built, packs = [], []

        def index_spy(nfa, direction):
            built.append(direction)
            return index(nfa, direction)

        def pack_spy(table, n):
            # The table itself, so that no id is reused while it is listed.
            packs.append(table)
            return pack(table, n)

        monkeypatch.setattr(automata, "_index", index_spy)
        monkeypatch.setattr(automata, "_pack", pack_spy)
        for name, source, call in _one_index_calls():
            # A fresh copy: nothing another call left behind is read.
            nfa = Nfa(source.state_count, source.alphabet, source.transitions, source.initial, source.final)
            built.clear()
            packs.clear()
            call(nfa)
            assert set(vars(nfa)) == set(Nfa.__dataclass_fields__), name
            assert len(built) == len(set(built)), name
            assert len(packs) == len(set(map(id, packs))) <= len(built), name
            assert (name != "dfa") == bool(built), name

    def test_the_index_is_the_reference_rows(self):
        rng = random.Random(41)
        cases = [_random_automaton(rng) for _ in range(150)] + [random_nfa_any(rng) for _ in range(50)]
        cases += [Nfa(4, (), set(), {0}, {3}), _padded(_random_automaton(rng), 64), witness_ufa(5)]
        for nfa in cases:
            n = nfa.state_count
            for direction in (FORWARD, BACKWARD):
                index = automata._index(nfa, direction)
                assert index == reference_rows(nfa, backward=direction == BACKWARD)
                assert list(index) == list(nfa.alphabet)
                # Bit f * j + r of q's packed row for r in its j-th tuple.
                f = 8 * automata._byte_width(n)
                expected = {}
                for j, column in enumerate(index.values()):
                    for q, targets in column.items():
                        expected[q] = expected.get(q, 0) | sum(1 << f * j + r for r in targets)
                assert automata._pack(index, n) == expected


class TestDeterminize:
    def test_forward_a_plus(self):
        result = forward_determinize(a_plus())
        assert subsets(result) == (frozenset({0}), frozenset({1}))
        # State 0 is the initial subset: the only initial state of the view.
        assert result.as_nfa().initial == {0}
        assert result.marked == {1}

    def test_forward_empty_initial_set(self):
        nfa = Nfa(2, ("a",), {(0, "a", 1)}, set(), {1})
        result = forward_determinize(nfa)
        assert subsets(result) == (frozenset(),)
        assert result.marked == frozenset()

    def test_backward_a_plus(self):
        result = backward_determinize(a_plus())
        assert subsets(result) == (frozenset({1}), frozenset({0, 1}))
        # Only the second subset meets the initial set {0}.
        assert result.marked == {1}

    def test_backward_empty_final_set(self):
        nfa = Nfa(2, ("a",), {(0, "a", 1)}, {0}, set())
        result = backward_determinize(nfa)
        assert subsets(result) == (frozenset(),)

    def test_cap_exceeded_carries_partial_count(self):
        with pytest.raises(CapExceededError) as info:
            forward_determinize(a_plus(), cap=1)
        assert info.value.direction == "forward"
        assert info.value.cap == 1
        assert info.value.partial_count == 1

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            forward_determinize(a_plus(), cap=0)

    def test_languages_agree_with_run_counts(self):
        # One random suite covers the full chain: w accepted by the forward
        # construction iff the run count is positive iff the backward
        # construction (as an automaton) accepts.
        rng = random.Random(23)
        for _ in range(25):
            nfa = random_nfa(rng, max_states=5)
            counts = word_run_counts(nfa, 5)
            fwd = forward_determinize(nfa).as_nfa()
            bwd = backward_determinize(nfa).as_nfa()
            for word, count in counts.items():
                accepted = count >= 1
                assert (count_accepting_runs(fwd, word) >= 1) == accepted
                assert (count_accepting_runs(bwd, word) >= 1) == accepted

    def test_backward_as_nfa_is_backward_deterministic(self):
        rng = random.Random(29)
        for _ in range(25):
            nfa = random_nfa(rng)
            result = backward_determinize(nfa).as_nfa()
            assert len(result.final) == 1
            incoming = {}
            for src, sym, dst in result.transitions:
                incoming[dst, sym] = incoming.get((dst, sym), 0) + 1
            assert all(
                incoming.get((q, sym), 0) == 1
                for q in range(result.state_count)
                for sym in result.alphabet
            )


def _engine_determinize(nfa, direction, cap):
    construct = forward_determinize if direction == FORWARD else backward_determinize
    result = construct(nfa, cap)
    # The seed is always state 0, so the oracle's entry must be 0 too.
    return subsets(result), table_rows(result), 0, result.marked


def _outcome(build, nfa, direction, cap):
    try:
        return build(nfa, direction, cap)
    except CapExceededError as exc:
        return "cap", exc.direction, exc.cap, exc.partial_count


@cache
def _reference_outcome(nfa, direction, cap):
    """The oracle's outcome, kept for the image_path settings after the first."""
    return _outcome(reference_determinize, nfa, direction, cap)


def _assert_engine_matches_reference(nfa, cap=3000):
    for direction in (FORWARD, BACKWARD):
        assert _outcome(_engine_determinize, nfa, direction, cap) == _reference_outcome(
            nfa, direction, cap
        )


def _sparse_nfa(rng, n, letters) -> Nfa:
    """About one edge per state and letter, so subset counts stay modest
    while masks span every field width of the packed images."""
    alphabet = tuple("abc"[:letters])
    transitions = {
        (q, a, rng.randrange(n))
        for q in range(n)
        for a in alphabet
        for _ in range(rng.choice((0, 1, 1, 2)))
    }
    initial = {rng.randrange(n) for _ in range(rng.randint(1, 3))}
    final = {rng.randrange(n) for _ in range(rng.randint(1, 3))}
    return Nfa(n, alphabet, transitions, initial, final)


class TestEngineMatchesReference:
    """The int-mask engine against the frozenset construction in helpers:
    identical states, tables, entry and marked sets in both directions."""

    def test_small_random_automata(self):
        rng = random.Random(31)
        for _ in range(150):
            _assert_engine_matches_reference(random_nfa(rng))
        # random_nfa_any also draws 0 states and the empty alphabet.
        for _ in range(150):
            _assert_engine_matches_reference(random_nfa_any(rng))

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64, 65, 90, 300])
    def test_every_field_width(self, n):
        rng = random.Random(n)
        for _ in range(6):
            _assert_engine_matches_reference(_sparse_nfa(rng, n, rng.randint(1, 3)))

    def test_witness_10(self):
        _assert_engine_matches_reference(witness_ufa(10))

    def test_nth_letter_12(self):
        # 13 forward and 2048 backward subsets.
        _assert_engine_matches_reference(nth_letter_dfa(12))

    def test_chain_over_64_states(self):
        n = 70
        transitions = {(q, "a", q + 1) for q in range(n - 1)}
        transitions |= {(q, "b", q) for q in range(n)}
        transitions |= {(q, "b", q + 1) for q in range(n - 1)}
        chain = Nfa(n, ("a", "b"), transitions, {0}, {n - 1})
        assert forward_determinize(chain).state_count > 1000
        assert max(backward_determinize(chain).masks).bit_length() == n
        _assert_engine_matches_reference(chain)

    def test_cap_stops_at_the_same_partial_count(self):
        rng = random.Random(37)
        for _ in range(20):
            nfa = random_nfa(rng, max_states=5)
            for direction in (FORWARD, BACKWARD):
                full = len(reference_determinize(nfa, direction, 1 << 20)[0])
                for cap in range(1, full + 1):
                    engine = _outcome(_engine_determinize, nfa, direction, cap)
                    assert engine == _outcome(reference_determinize, nfa, direction, cap)
                    assert (engine[0] == "cap") == (cap < full)


def _rows_free(nfa, direction, cap):
    return automata._determinize(nfa, direction, cap, rows=False)


def _reference_size(nfa, direction, cap):
    return len(reference_determinize(nfa, direction, cap)[0])


def _size_outcome(build, *args):
    """``build(*args)``, or its cap error's fields and message."""
    try:
        return build(*args)
    except CapExceededError as exc:
        return "cap", exc.direction, exc.cap, exc.partial_count, str(exc)


def _size_cases(max_witness=10, max_nth=10):
    rng = random.Random(59)
    cases = [random_nfa(rng, max_states=5) for _ in range(60)]
    cases += [witness_ufa(n) for n in range(max_witness + 1)]
    return cases + [nth_letter_dfa(n) for n in range(2, max_nth + 1)]


class TestRowsFreeConstruction:
    """_determinize without rows keeps no table and returns just the
    number of subsets, with the full construction's cap outcomes."""

    def test_sizes_match_the_reference(self):
        for nfa in _size_cases(max_nth=12):
            for direction in (FORWARD, BACKWARD):
                assert _rows_free(nfa, direction, DEFAULT_CAP) == _reference_size(
                    nfa, direction, DEFAULT_CAP
                )

    def test_nth_letter_sizes(self):
        for n in range(2, 11):
            report = measure_constructions(nth_letter_dfa(n))
            assert (report.k, report.l) == (n + 1, 1 << (n - 1))

    def test_every_cap_gives_the_reference_outcome(self):
        for nfa in _size_cases(max_witness=7, max_nth=8):
            for direction in (FORWARD, BACKWARD):
                full = _reference_size(nfa, direction, DEFAULT_CAP)
                for cap in range(1, full + 2):
                    outcome = _size_outcome(_rows_free, nfa, direction, cap)
                    assert outcome == _size_outcome(_reference_size, nfa, direction, cap)
                    assert (outcome == full) == (cap >= full)

    def test_measure_constructions_fails_as_the_full_constructions_do(self):
        def full_report(nfa, cap):
            k = forward_determinize(nfa, cap).state_count
            return BoundReport(nfa.state_count, k, backward_determinize(nfa, cap).state_count)

        for nfa in _size_cases(max_witness=6, max_nth=7):
            report = measure_constructions(nfa)
            for cap in range(1, max(report.k, report.l) + 2):
                assert _size_outcome(measure_constructions, nfa, cap) == _size_outcome(
                    full_report, nfa, cap
                )

    def test_rows_give_the_construction_and_no_rows_its_size(self):
        for nfa in _size_cases(max_witness=5, max_nth=6):
            for direction in (FORWARD, BACKWARD):
                states, table, _, marked = reference_determinize(nfa, direction, DEFAULT_CAP)
                assert automata._determinize(nfa, direction, DEFAULT_CAP, rows=False) == len(states)
                result = automata._determinize(nfa, direction, DEFAULT_CAP, rows=True)
                assert subsets(result) == states
                assert (table_rows(result), result.marked) == (table, marked)


def _padded(nfa, states) -> Nfa:
    """``nfa`` with ``states`` more states that have no transitions: the
    same subsets and tables, in wider fields."""
    return Nfa(nfa.state_count + states, nfa.alphabet, nfa.transitions, nfa.initial, nfa.final)


# A narrow batch's two orientations, by the name of their kernel.
ORIENTATIONS = {"rows": "_row_images", "columns": "_column_images"}


def _one_orientation(monkeypatch, orientation: str):
    """Send every narrow batch through one of ORIENTATIONS, whichever the
    rule would pick."""
    kernel = getattr(automata, ORIENTATIONS[orientation])
    for name in ORIENTATIONS.values():
        monkeypatch.setattr(automata, name, kernel)


def _image_calls(monkeypatch) -> list:
    """A list that gets, for each narrow batch, (name of the kernel that
    steps it, subsets in the batch, lanes)."""
    calls = []
    for name in ORIENTATIONS.values():

        def spy(stripes, parts, tables, lanes, kernel=getattr(automata, name)):
            calls.append((kernel.__name__, len(stripes[0]), lanes))
            return kernel(stripes, parts, tables, lanes)

        monkeypatch.setattr(automata, name, spy)
    return calls


@pytest.fixture(params=[
    (0, 1), (0, 6), (0, automata._BATCH_CELLS),
    (64, 1), (64, 6), (64, automata._BATCH_CELLS),
    (0, 1, "columns"), (0, 6, "columns"), (0, automata._BATCH_CELLS, "columns"),
    (0, automata._BATCH_CELLS, "rows"),
], ids=lambda p: "-".join((f"pad{p[0]}", f"cells{p[1]}", *p[2:])))
def image_path(request, monkeypatch):
    """The ways _determinize takes images: on inputs as given (byte
    columns up to 8 bytes, the per-subset loop above) or padded with 64
    states without transitions, which sends every input with states down
    the per-subset loop; in batches of one subset, of 6 // |alphabet|
    narrow subsets (2 to 6 of them), or the default.  A narrow batch is
    stepped in one of two orientations: by byte lane (_column_images)
    when it has more subsets than its images have bytes (lanes), else by
    subset (_row_images); the last four settings send every narrow batch
    through one of them."""
    pad, cells, *orientation = request.param
    monkeypatch.setattr(automata, "_BATCH_CELLS", cells)
    if orientation:
        _one_orientation(monkeypatch, *orientation)
    if pad:
        engine = automata._determinize

        def padded(nfa, direction, cap, packed=None, *args, **kwargs):
            # Rows passed down are the unpadded input's: the padded one
            # builds its own.
            return engine(_padded(nfa, pad), direction, cap, None, *args, **kwargs)

        monkeypatch.setattr(automata, "_determinize", padded)


def _flat_cell_cases():
    rng = random.Random(23)
    return (
        [random_nfa(rng) for _ in range(40)]
        + [_random_automaton(rng) for _ in range(40)]
        + [witness_ufa(n) for n in range(7)]
        + [nth_letter_dfa(n) for n in range(2, 9)]
    )


class TestFlatCells:
    def test_cells_are_the_reference_table_row_major(self):
        for nfa in _flat_cell_cases():
            width = len(nfa.alphabet)
            for direction in (FORWARD, BACKWARD):
                _, table, _, _ = reference_determinize(nfa, direction, DEFAULT_CAP)
                construct = forward_determinize if direction == FORWARD else backward_determinize
                result = construct(nfa)
                cells = result.cells
                assert isinstance(cells, array) and cells.typecode == "I"
                assert len(cells) == result.state_count * width
                assert table_rows(result) == table


@pytest.mark.usefixtures("image_path")
class TestEngineOnEveryImagePath(TestEngineMatchesReference):
    pass


@pytest.mark.usefixtures("image_path")
class TestFlatCellsOnEveryImagePath(TestFlatCells):
    pass


@pytest.mark.usefixtures("image_path")
class TestRowsFreeOnEveryImagePath(TestRowsFreeConstruction):
    pass


def _batch_numbering_nfa() -> Nfa:
    """Forward, the seed's row finds {2} then {1}, two new subsets against
    their mask order; the next batch, rows {2} then {1}, finds {1, 3} and
    {4}, then {3} and {4} again, so {4} is new in two rows of one batch,
    and its rows are (({1, 3}, {4}), ({3}, {4})): column by column the
    batch would read {1, 3}, {3}, {4}, {4}."""
    transitions = {
        (0, "a", 2), (0, "b", 1),
        (2, "a", 1), (2, "a", 3), (2, "b", 4),
        (1, "a", 3), (1, "b", 4),
        (4, "a", 4), (4, "b", 0),
    }
    return Nfa(5, ("a", "b"), transitions, {0}, {3})


class TestBatchNumbering:
    """Rows mode numbers a whole batch of images at once: each new subset
    at its first row-major occurrence, once, after the cap check."""

    def test_masks_cells_and_marked_are_the_reference(self):
        nfa = _batch_numbering_nfa()
        _, table, _, _ = reference_determinize(nfa, FORWARD, DEFAULT_CAP)
        assert table[:3] == ((1, 2), (3, 4), (5, 4))
        for direction in (FORWARD, BACKWARD):
            states, table, _, marked = reference_determinize(nfa, direction, DEFAULT_CAP)
            result = automata._determinize(nfa, direction, DEFAULT_CAP)
            assert result.masks == tuple(sum(1 << q for q in state) for state in states)
            assert result.cells == array("I", [j for row in table for j in row])
            assert result.marked == marked

    def test_a_cap_inside_the_batch(self):
        nfa = _batch_numbering_nfa()
        with pytest.raises(CapExceededError) as info:
            forward_determinize(nfa, 4)
        assert info.value.partial_count == 4
        assert str(info.value) == (
            "state limit exceeded: forward determinization stopped after "
            "discovering 4 subsets (cap 4)"
        )
        for direction in (FORWARD, BACKWARD):
            for cap in range(1, 9):
                assert _size_outcome(_engine_determinize, nfa, direction, cap) == _size_outcome(
                    reference_determinize, nfa, direction, cap
                )


@pytest.mark.usefixtures("image_path")
class TestBatchNumberingOnEveryImagePath(TestBatchNumbering):
    pass


def _cell_width_cases():
    rng = random.Random(67)
    ufas = [nfa for nfa in (random_nfa(rng) for _ in range(80)) if is_unambiguous(nfa)[0]]
    return (
        ufas
        + [witness_ufa(n) for n in range(11)]
        + [nth_letter_dfa(n) for n in range(2, 13)]
    )


class TestCellWidth:
    """A cap of at most 2**16 gives 2-byte cells, a larger one 4-byte
    cells, and both give the reference construction."""

    def test_the_cap_sets_the_cell_type(self):
        for nfa in _cell_width_cases():
            for direction in (FORWARD, BACKWARD):
                states, table, _, marked = _reference_outcome(nfa, direction, DEFAULT_CAP)
                for cap, typecode in ((1 << 16, "H"), ((1 << 16) + 1, "I")):
                    result = automata._determinize(nfa, direction, cap)
                    assert result.cells.typecode == typecode
                    assert result.masks == tuple(sum(1 << q for q in state) for state in states)
                    assert result.cells.tolist() == [j for row in table for j in row]
                    assert result.marked == marked

    def test_the_complement_table_has_two_byte_cells(self):
        for nfa in _cell_width_cases():
            construction, report = complement_construction(nfa)
            assert construction.cells.typecode == "H"
            construct = forward_determinize if report.chosen == FORWARD else backward_determinize
            full = construct(nfa)
            assert full.cells.typecode == "I"
            fields = attrgetter("direction", "masks", "marked")
            assert fields(construction) == fields(full)
            assert construction.cells.tolist() == full.cells.tolist()


@pytest.mark.usefixtures("image_path")
class TestCellWidthOnEveryImagePath(TestCellWidth):
    pass


def test_a_table_of_2_to_the_16_states_fits_two_bytes():
    # Backward, "letter 16 is a" has 65,536 subsets: the last state
    # number, 65535, is the largest 2-byte cell.
    nfa = nth_letter_dfa(17)
    narrow = backward_determinize(nfa, 1 << 16)
    wide = backward_determinize(nfa)
    assert (narrow.cells.typecode, wide.cells.typecode) == ("H", "I")
    assert narrow.state_count == 1 << 16 and max(narrow.cells) == (1 << 16) - 1
    assert narrow.cells.tolist() == wide.cells.tolist()
    assert (narrow.masks, narrow.marked) == (wide.masks, wide.marked)


def _assert_both_modes_match_reference(nfa, cap=3000):
    """Rows and count mode give the oracle's construction or its size, or
    its cap error with the same fields and message, both ways."""
    for direction in (FORWARD, BACKWARD):
        expected = _size_outcome(reference_determinize, nfa, direction, cap)
        assert _size_outcome(_engine_determinize, nfa, direction, cap) == expected
        size = expected if expected[0] == "cap" else len(expected[0])
        assert _size_outcome(_rows_free, nfa, direction, cap) == size


def _checked_orientations(setting: str, calls: list) -> int:
    """Assert that each batch of ``calls`` (see _image_calls) took the
    orientation of ``setting``, "columns" or the "rule"; return how many
    were stepped by byte lane."""
    for name, subsets, lanes in calls:
        by_lanes = setting == "columns" or lanes < subsets
        assert name == ORIENTATIONS["columns" if by_lanes else "rows"]
    return sum(name == "_column_images" for name, _, _ in calls)


class TestByteLanes:
    """Narrow batches stepped by byte lane (_column_images), where the
    rule picks it or on every batch, against the frozenset oracle in rows
    and count mode."""

    @pytest.fixture(params=["rule", "columns"])
    def setting(self, request, monkeypatch):
        """(setting, _image_calls list)."""
        if request.param == "columns":
            _one_orientation(monkeypatch, "columns")
        return request.param, _image_calls(monkeypatch)

    @pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 64])
    def test_field_boundaries(self, setting, n):
        setting, calls = setting
        rng = random.Random(n)
        base = nth_letter_dfa(min(n, 10)) if n > 1 else Nfa(1, ("a", "b"), {(0, "a", 0)}, {0}, {0})
        cases = [_padded(base, n - base.state_count), Nfa(n, (), set(), {0}, {n - 1})]
        cases += [_sparse_nfa(rng, n, letters) for letters in (1, 2, 3)]
        for nfa in cases:
            _assert_both_modes_match_reference(nfa)
        _checked_orientations(setting, calls)
        # One state has at most two subsets, too few for the rule to step
        # a batch of them by lane.
        by_lanes = any(name == "_column_images" and lanes for name, _, lanes in calls)
        assert by_lanes == ((setting, n) != ("rule", 1))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_lanes_next_to_the_batch_size(self, monkeypatch, setting, offset):
        # Full batches of lanes + offset subsets: by the rule only those of
        # lanes + 1 are stepped by byte lane.
        setting, calls = setting
        for nfa in (nth_letter_dfa(8), nth_letter_dfa(10), _sparse_nfa(random.Random(1), 12, 3)):
            letters = len(nfa.alphabet)
            lanes = letters * automata._byte_width(nfa.state_count)
            monkeypatch.setattr(automata, "_BATCH_CELLS", letters * (lanes + offset))
            calls.clear()
            _assert_both_modes_match_reference(nfa)
            _checked_orientations(setting, calls)
            assert any(subsets == lanes + offset for _, subsets, _ in calls)

    def test_no_letters_no_states_no_seed(self, setting):
        setting, calls = setting
        transitions = {(0, "a", 1), (1, "b", 2), (2, "a", 0)}
        for nfa in (
            Nfa(3, (), set(), {0}, {1}),
            Nfa(0, (), set(), set(), set()),
            Nfa(0, ("a", "b"), set(), set(), set()),
            Nfa(4, ("a", "b"), transitions, set(), {2}),
            Nfa(4, ("a", "b"), transitions, {0}, set()),
            Nfa(4, (), set(), set(), set()),
        ):
            _assert_both_modes_match_reference(nfa)
        assert _checked_orientations(setting, calls) > 0

    def test_a_cap_inside_a_batch_stepped_by_lanes(self, setting):
        # Backward, nth-letter n = 12 goes from 64 to 128 known subsets in
        # a batch of 32, from 512 to 1024 in one of 256, in both modes.
        setting, calls = setting
        nfa = nth_letter_dfa(12)
        for cap in (100, 1000):
            expected = _size_outcome(reference_determinize, nfa, BACKWARD, cap)
            assert expected == (
                "cap", BACKWARD, cap, cap,
                f"state limit exceeded: backward determinization stopped after "
                f"discovering {cap} subsets (cap {cap})",
            )
            for build in (_engine_determinize, _rows_free):
                calls.clear()
                assert _size_outcome(build, nfa, BACKWARD, cap) == expected
                _checked_orientations(setting, calls)
                assert calls[-1] == ("_column_images", 32 if cap == 100 else 256, 4)

    def test_the_rule_picks_the_orientation(self):
        # Backward, nth-letter n = 12 has 4 lanes: by default its batches
        # of 8 to 1024 subsets are stepped by byte lane, and so are its
        # full batches of 32 at 64 cells.  Witness n = 10 has 360 lanes,
        # against full batches of 22 subsets: never.  Its count stops
        # after one batch, so counting takes it with its first letter,
        # c{}, moving out of two states into two: still 180 letters on
        # 16 states or fewer, 360 lanes.
        def batches(nfa, cells, rows):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(automata, "_BATCH_CELLS", cells)
                calls = _image_calls(patch)
                automata._determinize(nfa, BACKWARD, DEFAULT_CAP, rows=rows)
            _checked_orientations("rule", calls)
            return calls

        for rows in (True, False):
            calls = batches(nth_letter_dfa(12), automata._BATCH_CELLS, rows)
            assert [name for name, _, _ in calls] == ["_row_images"] * 4 + ["_column_images"] * 8
            full = [name for name, subsets, _ in batches(nth_letter_dfa(12), 64, rows) if subsets == 32]
            assert full and set(full) == {"_column_images"}
            witness = witness_ufa(10) if rows else _forked(witness_ufa(10), "c{}")
            calls = batches(witness, automata._BATCH_CELLS, rows)
            assert {name for name, _, _ in calls} == {"_row_images"}
            assert ("_row_images", 22, 360) in calls


def _stepped(nfa, direction):
    """The count of ``nfa``'s ``direction`` side, and how many subsets it
    stepped (took the images of) before it stopped."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _image_calls(patch)
        size = _rows_free(nfa, direction, DEFAULT_CAP)
    return size, sum(subsets for _, subsets, _ in calls)


def _graph_automata():
    """graph_to_ufa of random graphs on up to 7 vertices, and witness_ufa(n)
    for n <= 12: each letter moves out of vertex 0 or into it."""
    rng = random.Random(71)
    graphs = [random_graph(rng, rng.randint(0, 7), rng.random()) for _ in range(40)]
    return [graph_to_ufa(g) for g in graphs] + [witness_ufa(n) for n in range(13)]


def _forked(nfa, letter="x"):
    """``nfa`` with two more states, n and n + 1, and ``letter`` (added last
    unless it is there) moving 0 to n and 1 to n + 1: two sources with two
    targets, so the letter has four images, not two."""
    n = nfa.state_count
    alphabet = nfa.alphabet + (letter,) * (letter not in nfa.alphabet)
    transitions = nfa.transitions | {(0, letter, n), (1, letter, n + 1)}
    return Nfa(n + 2, alphabet, transitions, nfa.initial, nfa.final)


def _two_image_nfa(rng) -> Nfa:
    """A random automaton whose letters each move out of one state or into
    one, from several initial states, so that the empty image is often
    found after the others."""
    n = rng.randint(1, 6)
    alphabet = tuple("abcd"[: rng.randint(1, 4)])
    transitions = set()
    for a in alphabet:
        q, others = rng.randrange(n), [r for r in range(n) if rng.random() < 0.4]
        transitions |= {(q, a, r) if rng.random() < 0.5 else (r, a, q) for r in others}
    initial = {q for q in range(n) if rng.random() < 0.6}
    final = {q for q in range(n) if rng.random() < 0.6}
    return Nfa(n, alphabet, transitions, initial, final)


def _kept_source_nfa(rng) -> Nfa:
    """A random automaton whose letters each move from state 0, the only
    initial state, to 0 and some other states: forward 0 is in every
    subset, backward the single target 0 is, so no image is empty."""
    n = rng.randint(1, 7)
    alphabet = tuple("abcd"[: rng.randint(1, 4)])
    transitions = {(0, a, 0) for a in alphabet}
    transitions |= {(0, a, r) for a in alphabet for r in range(1, n) if rng.random() < 0.4}
    final = {0} | {q for q in range(n) if rng.random() < 0.4}
    return Nfa(n, alphabet, transitions, {0}, final)


class TestCountStopsAtTheKnownImages:
    """A count whose letters each move out of one state or into one stops
    once every image they can give is known, with the oracle's size and
    the rows-mode cap outcomes.  Stopped early, it never steps the subsets
    its last batch found; otherwise it steps every subset."""

    def _check(self, nfa, fires=None):
        caps = set()
        for direction in (FORWARD, BACKWARD):
            size, stepped = _stepped(nfa, direction)
            assert size == _reference_size(nfa, direction, DEFAULT_CAP)
            if fires is not None:
                assert (stepped < size) == fires
            caps |= {size - 1, size, size + 1} - {0}
        for cap in caps:
            _assert_both_modes_match_reference(nfa, cap)

    def test_graph_automata_stop_early(self):
        for nfa in _graph_automata():
            self._check(nfa, fires=True)

    def test_a_letter_with_two_sources_and_two_targets_turns_the_stop_off(self):
        for nfa in _graph_automata():
            self._check(_forked(nfa), fires=False)

    def test_an_empty_image_never_found_keeps_the_count_going(self):
        rng = random.Random(73)
        for _ in range(40):
            self._check(_kept_source_nfa(rng), fires=False)

    def test_random_letters_out_of_one_state_or_into_one(self):
        rng = random.Random(79)
        for _ in range(300):
            self._check(_two_image_nfa(rng))

    def test_witness_16_counts_in_one_batch_each_way(self):
        nfa = witness_ufa(16)
        for direction, size in zip((FORWARD, BACKWARD), _witness_sizes(16)):
            assert _stepped(nfa, direction) == (size, 1)

    def test_witness_sizes_are_the_closed_form(self):
        for n in range(23):
            report = measure_constructions(witness_ufa(n))
            assert (report.k, report.l) == _witness_sizes(n)


def _recording_determinize(calls: list):
    """automata._determinize, appending each call's (direction, cap, rows)
    to ``calls``."""
    engine = automata._determinize

    def spy(nfa, direction, cap, packed=None, rows=True):
        calls.append((direction, cap, rows))
        return engine(nfa, direction, cap, packed, rows)

    return spy


def _assert_chosen_side_is_the_full_construction(nfa, cap=DEFAULT_CAP):
    """complement_construction's pick equals the full construction of its
    side, and it asks _determinize for rows once, after counting both
    sides with the same cap: for that side, capped at its counted size."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "_determinize", _recording_determinize(calls))
        construction, report = complement_construction(nfa, cap)
    assert calls == [
        (FORWARD, cap, False),
        (BACKWARD, cap, False),
        (report.chosen, report.result_states, True),
    ]
    construct = forward_determinize if report.chosen == FORWARD else backward_determinize
    fields = attrgetter("direction", "masks", "cells", "marked")
    assert fields(construction) == fields(construct(nfa, cap))
    return report


class TestComplementKeepsOneTable:
    def test_backward_one_smaller_is_chosen_with_its_table(self):
        report = _assert_chosen_side_is_the_full_construction(witness_ufa(4))
        assert (report.k, report.l, report.chosen) == (9, 8, BACKWARD)

    def test_a_tie_keeps_forward_and_builds_no_backward_table(self):
        for n in (0, 1):
            report = _assert_chosen_side_is_the_full_construction(witness_ufa(n))
            assert report.k == report.l
            assert report.chosen == FORWARD

    def test_backward_one_larger_keeps_no_table(self):
        report = _assert_chosen_side_is_the_full_construction(witness_ufa(2))
        assert (report.k, report.l, report.chosen) == (3, 4, FORWARD)

    def test_forward_over_the_cap_builds_backward(self):
        # witness_ufa(4) has k=9 and l=8.
        report = _assert_chosen_side_is_the_full_construction(witness_ufa(4), cap=8)
        assert (report.k, report.l, report.chosen) == (None, 8, BACKWARD)

    def test_backward_over_the_cap_builds_forward(self):
        # witness_ufa(2) has k=3 and l=4.
        report = _assert_chosen_side_is_the_full_construction(witness_ufa(2), cap=3)
        assert (report.k, report.l, report.chosen) == (3, None, FORWARD)

    def test_random_unambiguous_automata(self):
        rng = random.Random(61)
        differences = set()
        for _ in range(300):
            nfa = random_nfa(rng, max_states=5)
            if is_unambiguous(nfa)[0]:
                report = _assert_chosen_side_is_the_full_construction(nfa)
                differences.add(report.l - report.k)
        assert {-1, 0, 1} <= differences


def _validated_view(construction, accepting) -> Nfa:
    """The construction as a checked Nfa, its triples read off
    ``table_rows``."""
    alphabet = construction.base.alphabet
    forward = construction.direction == FORWARD
    triples = {
        (i, a, j) if forward else (j, a, i)
        for i, row in enumerate(table_rows(construction))
        for a, j in zip(alphabet, row)
    }
    initial, final = ({0}, accepting) if forward else (accepting, {0})
    return Nfa(construction.state_count, alphabet, triples, initial, final)


class TestTrustedNfaView:
    """as_nfa and as_complement_nfa skip Nfa's checks; they must give the
    automaton that the checked constructor gives."""

    def _assert_views_are_validated(self, nfa, words=()):
        for construct in (forward_determinize, backward_determinize):
            construction = construct(nfa)
            views = (
                (construction.as_nfa(), construction.marked),
                (construction.as_complement_nfa(), construction.unmarked),
            )
            for view, accepting in views:
                expected = _validated_view(construction, accepting)
                assert view == expected and hash(view) == hash(expected)
                assert type(view.alphabet) is tuple
                assert {type(view.transitions), type(view.initial), type(view.final)} == {frozenset}
                for word in words:
                    assert count_accepting_runs(view, word) == count_accepting_runs(expected, word)

    def test_random_ufas(self):
        rng = random.Random(43)
        checked = 0
        while checked < 60:
            nfa = random_nfa(rng)
            if is_unambiguous(nfa)[0]:
                words = [tuple(rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 4))) for _ in range(5)]
                self._assert_views_are_validated(nfa, words)
                checked += 1

    def test_witness_up_to_10(self):
        for n in range(11):
            self._assert_views_are_validated(witness_ufa(n))

    def test_nth_letter_up_to_12(self):
        for n in range(2, 13):
            self._assert_views_are_validated(nth_letter_dfa(n), [("a",) * n, ("b",) * n])


class TestComplement:
    def test_a_plus_complement_accepts_exactly_the_empty_word(self):
        complement, report = complement_ufa(a_plus())
        assert language(complement, 8) == {()}
        assert (report.k, report.l, report.chosen) == (2, 2, "forward")
        assert report.result_states == 2
        assert report.bound_sq == 12
        assert report.within_bound

    def test_universal_language_complements_to_empty(self):
        complement, report = complement_ufa(a_star())
        assert language(complement, 6) == set()
        assert report.k == report.l == 1

    def test_witness_4_sizes_are_between_the_bounds(self):
        from ufa import witness_ufa

        _, report = complement_ufa(witness_ufa(4))
        assert report.result_states == min(report.k, report.l)
        assert 4 * report.result_states**2 >= report.bound_sq
        assert report.within_bound

    def test_ambiguous_input_is_rejected_with_witness(self):
        with pytest.raises(AmbiguousAutomatonError) as info:
            complement_ufa(two_loop())
        assert count_accepting_runs(two_loop(), info.value.witness) >= 2

    def test_both_sides_over_cap(self):
        with pytest.raises(CapExceededError) as info:
            complement_ufa(a_plus(), cap=1)
        assert info.value.direction == "both"

    def test_one_side_over_cap_uses_the_other(self):
        from ufa import witness_ufa

        # witness_ufa(2) has k=3 and l=4, so cap 3 kills only the backward side.
        complement, report = complement_ufa(witness_ufa(2), cap=3)
        assert report.k == 3
        assert report.l is None
        assert report.chosen == "forward"
        assert complement.state_count == 3

    def test_complement_ufa_swaps_the_marking_of_the_chosen_construction(self):
        for nfa, side in ((witness_ufa(4), BACKWARD), (witness_ufa(3), FORWARD)):
            construction, report = complement_construction(nfa)
            assert construction.direction == report.chosen == side
            assert construction.state_count == report.result_states
            assert complement_ufa(nfa) == (construction.as_complement_nfa(), report)

    def test_unmarked_is_the_complement_of_marked(self):
        rng = random.Random(43)
        for _ in range(30):
            nfa = random_nfa(rng, max_states=5)
            for construct in (forward_determinize, backward_determinize):
                construction = construct(nfa)
                everything = frozenset(range(construction.state_count))
                assert construction.unmarked == everything - construction.marked
                complement = construction.as_complement_nfa()
                forward = construct is forward_determinize
                accepting = complement.final if forward else complement.initial
                assert accepting == construction.unmarked

    def test_complement_of_complement_restores_the_language(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(60):
            nfa = random_nfa(rng, max_states=4)
            ok, _ = is_unambiguous(nfa)
            if not ok:
                continue
            complement, _ = complement_ufa(nfa)
            double, _ = complement_ufa(complement)
            assert equivalent(nfa, double)[0]
            checked += 1
        assert checked >= 10


class TestBoundReport:
    def test_tie_keeps_forward(self):
        report = BoundReport(2, 2, 2)
        assert report.chosen == "forward"
        assert report.result_states == 2

    def test_chosen_is_the_smaller_known_side(self):
        assert BoundReport(4, 3, 5).chosen == "forward"
        assert BoundReport(4, 5, 3).chosen == "backward"
        assert (BoundReport(4, None, 7).chosen, BoundReport(4, None, 7).result_states) == (
            "backward",
            7,
        )
        assert (BoundReport(4, 7, None).chosen, BoundReport(4, 7, None).result_states) == (
            "forward",
            7,
        )

    def test_both_sizes_unknown_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            BoundReport(4, None, None)

    def test_bound_is_the_root_of_bound_sq(self):
        report = BoundReport(4, 3, 5)
        assert report.bound_sq == 80

    def test_within_bound_is_exact_at_the_boundary(self):
        # bound_sq is 80 at n = 4: 8**2 = 64 fits and 9**2 = 81 does not.
        assert BoundReport(4, 8, 8).within_bound
        assert not BoundReport(4, 9, 9).within_bound
        assert BoundReport(4, 9, 8).within_bound

    def test_holds_lower_is_exact_at_the_boundary(self):
        # 4 * 5**2 = 100 clears 80; 4 * 4**2 = 64 and 4 * 1**2 = 4 do not.
        assert BoundReport(4, 5, 5).holds_lower
        assert not BoundReport(4, 4, 5).holds_lower
        assert not BoundReport(4, 5, 4).holds_lower
        report = BoundReport(4, 1, 100)
        assert not report.holds_lower
        assert not report.holds

    def test_an_unknown_size_fails_the_lower_bound(self):
        for report in (BoundReport(4, 8, None), BoundReport(4, None, 8)):
            assert report.within_bound
            assert not report.holds_lower
            assert not report.holds

    def test_holds_needs_both_bounds(self):
        assert BoundReport(4, 9, 8).holds
        assert not BoundReport(4, 9, 9).holds

    def test_measure_constructions_reports_both_sizes(self):
        rng = random.Random(47)
        for _ in range(30):
            nfa = random_nfa(rng, max_states=5)
            report = measure_constructions(nfa)
            assert report == BoundReport(
                nfa.state_count,
                forward_determinize(nfa).state_count,
                backward_determinize(nfa).state_count,
            )

    def test_a_forward_cap_hit_starts_no_backward_construction(self, monkeypatch):
        started = []
        monkeypatch.setattr(automata, "_determinize", _recording_determinize(started))
        # witness_ufa(2) has k=3 forward subsets.
        with pytest.raises(CapExceededError) as info:
            measure_constructions(witness_ufa(2), cap=2)
        assert started == [(FORWARD, 2, False)]
        assert (info.value.direction, info.value.cap, info.value.partial_count) == (FORWARD, 2, 2)
        assert str(info.value) == (
            "state limit exceeded: forward determinization stopped after "
            "discovering 2 subsets (cap 2)"
        )


class TestEquivalent:
    def test_reflexive(self):
        assert equivalent(a_plus(), a_plus()) == (True, None)

    def test_empty_word_separates_a_plus_from_a_star(self):
        ok, witness = equivalent(a_plus(), a_star())
        assert not ok
        assert witness == ()

    def test_complement_matches_hand_built_dfa(self):
        complement, _ = complement_ufa(a_plus())
        only_empty = Nfa(2, ("a",), {(0, "a", 1), (1, "a", 1)}, {0}, {0})
        assert equivalent(complement, only_empty) == (True, None)

    def test_alphabets_must_agree_as_sets(self):
        other = Nfa(1, ("b",), set(), {0}, {0})
        with pytest.raises(ValueError, match="alphabet"):
            equivalent(a_plus(), other)

    def test_alphabet_order_does_not_matter(self):
        ab = Nfa(1, ("a", "b"), {(0, "a", 0), (0, "b", 0)}, {0}, {0})
        ba = Nfa(1, ("b", "a"), {(0, "a", 0), (0, "b", 0)}, {0}, {0})
        assert equivalent(ab, ba) == (True, None)

    def test_witness_is_distinguishing(self):
        rng = random.Random(41)
        for _ in range(40):
            left = random_nfa(rng, max_states=4)
            right = Nfa(
                left.state_count,
                left.alphabet,
                {t for t in left.transitions if rng.random() < 0.9},
                left.initial,
                left.final,
            )
            ok, witness = equivalent(left, right)
            if ok:
                assert language(left, 5) == language(right, 5)
            else:
                assert (count_accepting_runs(left, witness) >= 1) != (
                    count_accepting_runs(right, witness) >= 1
                )
