"""Unit tests for the automata operations."""

import random

import pytest

from ufa import (
    BACKWARD,
    FORWARD,
    AmbiguousAutomatonError,
    BoundReport,
    CapExceededError,
    Nfa,
    backward_determinize,
    complement_construction,
    complement_ufa,
    count_accepting_runs,
    forward_determinize,
    is_unambiguous,
    measure_constructions,
)
from ufa.automata import _both_constructions, _pair_search, _unambiguity
from ufa.bridge import witness_ufa
from helpers import (
    a_plus,
    a_star,
    enumerate_accepting_runs,
    equivalent,
    language,
    random_nfa,
    random_nfa_any,
    reference_determinize,
    reference_is_unambiguous,
    reference_pair_search,
    reference_reachable_state_pairs,
    reference_rows,
    seed_pairs,
    subsets,
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


class TestPairSearchAgainstTheOracle:
    """The coded, pruned pair search gives the verdicts, witnesses and
    pair orders of two full searches over (p, q) tuples."""

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
        ]
        return pool

    def test_verdict_witness_and_pair_order(self):
        ambiguous = 0
        for nfa in self._instances():
            expected = reference_is_unambiguous(nfa)
            assert is_unambiguous(nfa) == expected
            pairs, _ = _unambiguity(nfa)
            assert list(pairs) == reference_reachable_state_pairs(nfa)
            ambiguous += not expected[0]
        assert 300 <= ambiguous <= 1700

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
            _, forward = _pair_search(nfa)
            order, parent = _pair_search(nfa, backward=True, allowed=forward)
            full_order, full_parent = reference_pair_search(
                seed_pairs(nfa.final), nfa.alphabet, reference_rows(nfa, backward=True)
            )
            kept = {divmod(code, n) for code in forward} if n else set()
            assert [divmod(code, n) for code in order] == [pair for pair in full_order if pair in kept]
            for code, link in parent.items():
                want = full_parent[divmod(code, n)]
                got = None if link is None else (divmod(link[0], n), link[1])
                assert got == want

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
        _, forward = _pair_search(nfa)
        _, backward = _pair_search(nfa, backward=True, allowed=forward)
        assert all(code % (n + 1) == 0 for code in forward)
        assert 1 <= len(backward) <= n
        assert is_unambiguous(nfa) == (True, None)


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
    return subsets(result), result.transition_table, 0, result.marked


def _outcome(build, nfa, direction, cap):
    try:
        return build(nfa, direction, cap)
    except CapExceededError as exc:
        return "cap", exc.direction, exc.cap, exc.partial_count


def _assert_engine_matches_reference(nfa, cap=3000):
    for direction in (FORWARD, BACKWARD):
        assert _outcome(_engine_determinize, nfa, direction, cap) == _outcome(
            reference_determinize, nfa, direction, cap
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

    def test_stored_cap_errors_drop_their_tracebacks(self):
        # A kept traceback would hold the abandoned construction's subsets
        # in memory while the other side runs.
        for side in _both_constructions(a_plus(), cap=1):
            assert isinstance(side, CapExceededError)
            assert side.__traceback__ is None

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
        def backward_not_expected(nfa, cap):
            raise AssertionError("the backward construction was started")

        monkeypatch.setattr("ufa.automata.backward_determinize", backward_not_expected)
        # witness_ufa(2) has k=3 forward subsets.
        with pytest.raises(CapExceededError) as info:
            measure_constructions(witness_ufa(2), cap=2)
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
