"""Unit tests for the automaton/graph translations and the witness family."""

import random

import pytest
from hypothesis import given, settings

from ufa import (
    AmbiguousAutomatonError,
    BoundReport,
    CapExceededError,
    Graph,
    Nfa,
    all_graphs,
    backward_determinize,
    count_accepting_runs,
    count_cliques,
    count_cocliques,
    extract_graph,
    forward_determinize,
    is_unambiguous,
    measure_constructions,
    verify_tightness,
    witness_ufa,
)
from ufa.bridge import _label, _measure_witness, _witness_sizes, graph_to_ufa
from helpers import (
    a_plus,
    brute_force_cliques,
    complement_graph,
    complete_graph,
    graphs,
    is_clique,
    is_coclique,
    random_nfa,
    reference_is_unambiguous,
    reference_reachable_state_pairs,
    subsets,
    two_loop,
)


class TestCompositeSymbol:
    """The letter labels graph_to_ufa gives its clique and coclique sets."""

    def test_clique_label(self):
        assert _label("c", {2, 0}) == "c{0,2}"
        # A set of these two iterates 8 first; the label sorts its members.
        assert _label("c", frozenset({8, 1})) == "c{1,8}"

    def test_coclique_label(self):
        assert _label("i", {1}) == "i{1}"

    def test_empty_labels(self):
        assert _label("c", set()) == "c{}"
        assert _label("i", set()) == "i{}"


class TestExtractGraph:
    def test_deterministic_automaton_yields_no_edges(self):
        g = extract_graph(a_plus())
        assert g.vertex_count == 2
        assert g.edges() == []

    def test_recovers_the_edge_of_k2(self):
        g = extract_graph(graph_to_ufa(complete_graph(2)))
        assert g.edges() == [(0, 1)]

    def test_zero_state_automaton(self):
        g = extract_graph(Nfa(0, ("a",), set(), set(), set()))
        assert g.vertex_count == 0

    def test_ambiguous_input_is_rejected(self):
        with pytest.raises(AmbiguousAutomatonError):
            extract_graph(two_loop())

    def test_matches_the_pair_search_oracle(self):
        rng = random.Random(31)
        for _ in range(300):
            nfa = random_nfa(rng, max_states=7, density=rng.choice((0.15, 0.3)))
            ok, witness = reference_is_unambiguous(nfa)
            if not ok:
                with pytest.raises(AmbiguousAutomatonError) as caught:
                    extract_graph(nfa)
                assert caught.value.witness == witness
                continue
            edges = sorted({
                (min(p, q), max(p, q)) for p, q in reference_reachable_state_pairs(nfa) if p != q
            })
            assert extract_graph(nfa).edges() == edges


class TestGraphToUfa:
    def test_k2_shape_and_construction_sizes(self):
        automaton = graph_to_ufa(complete_graph(2))
        assert automaton.state_count == 2
        assert len(automaton.alphabet) == 7
        assert automaton.initial == automaton.final == {0}
        fwd = forward_determinize(automaton)
        assert set(subsets(fwd)) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
            frozenset(),
        }
        assert backward_determinize(automaton).state_count == 3

    def test_single_vertex(self):
        automaton = graph_to_ufa(Graph(1, (frozenset(),)))
        assert automaton.state_count == 1
        for construct in (forward_determinize, backward_determinize):
            result = construct(automaton)
            assert set(subsets(result)) == {frozenset({0}), frozenset()}

    def test_zero_vertices_keeps_the_empty_letters(self):
        automaton = graph_to_ufa(Graph(0, ()))
        assert automaton.state_count == 0
        assert automaton.alphabet == ("c{}", "i{}")
        assert forward_determinize(automaton).state_count == 1
        assert backward_determinize(automaton).state_count == 1

    def test_alphabet_lists_clique_letters_first_in_canonical_order(self):
        from helpers import path3

        automaton = graph_to_ufa(path3())
        assert automaton.alphabet == (
            "c{}",
            "c{0}",
            "c{1}",
            "c{2}",
            "c{0,1}",
            "c{1,2}",
            "i{}",
            "i{0}",
            "i{1}",
            "i{2}",
            "i{0,2}",
        )

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_alphabet_is_both_enumerations_in_order(self, g):
        def letters(kind, sets):
            return [_label(kind, members) for members in sets]

        assert graph_to_ufa(g).alphabet == tuple(
            letters("c", brute_force_cliques(g))
            + letters("i", brute_force_cliques(complement_graph(g)))
        )

    def test_exhaustive_small_graphs_satisfy_the_size_guarantees(self):
        for n in range(6):
            for g in all_graphs(n):
                automaton = graph_to_ufa(g)
                assert is_unambiguous(automaton)[0]
                assert forward_determinize(automaton).state_count >= count_cliques(g)
                assert backward_determinize(automaton).state_count >= count_cocliques(g)

    def test_transitions_route_through_vertex_zero(self):
        automaton = graph_to_ufa(complete_graph(3))
        for src, label, dst in automaton.transitions:
            if label.startswith("c"):
                assert src == 0
            else:
                assert dst == 0


class TestRoundTripContainment:
    def test_construction_states_land_in_the_extracted_graph(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(80):
            nfa = random_nfa(rng)
            if not is_unambiguous(nfa)[0]:
                continue
            g = extract_graph(nfa)
            fwd = forward_determinize(nfa)
            bwd = backward_determinize(nfa)
            assert count_cliques(g) >= fwd.state_count
            assert count_cocliques(g) >= bwd.state_count
            assert all(is_clique(g, subset) for subset in subsets(fwd))
            assert all(is_coclique(g, subset) for subset in subsets(bwd))
            checked += 1
        assert checked >= 20


class TestWitness:
    def test_witness_4_has_17_letters(self):
        automaton = witness_ufa(4)
        assert automaton.state_count == 4
        assert len(automaton.alphabet) == 17

    def test_witness_0_is_the_zero_state_automaton(self):
        assert witness_ufa(0).state_count == 0

    def test_witness_2_has_7_letters(self):
        automaton = witness_ufa(2)
        assert automaton.state_count == 2
        assert len(automaton.alphabet) == 7

    def test_witness_is_unambiguous(self):
        for n in range(7):
            assert is_unambiguous(witness_ufa(n))[0]

    def test_witness_words_never_have_two_runs(self):
        automaton = witness_ufa(3)
        rng = random.Random(17)
        for _ in range(200):
            word = tuple(
                rng.choice(automaton.alphabet) for _ in range(rng.randint(0, 4))
            )
            assert count_accepting_runs(automaton, word) <= 1


class TestVerifyTightness:
    def test_n0(self):
        report = verify_tightness(0)
        assert (report.k, report.l) == (1, 1)
        assert report.bound_sq == 1
        assert report.holds

    def test_n1(self):
        report = verify_tightness(1)
        assert (report.k, report.l) == (2, 2)
        assert report.holds

    def test_n4(self):
        report = verify_tightness(4)
        assert (report.k, report.l) == (9, 8)
        assert report.bound_sq == 80
        assert report.holds_lower and report.within_bound

    def test_holds_through_n12(self):
        for n in range(13):
            assert verify_tightness(n).holds

    def test_cap_error_propagates(self):
        with pytest.raises(CapExceededError) as caught:
            verify_tightness(6, cap=4)
        assert caught.value.direction == "forward"
        assert caught.value.partial_count == 4

    def test_backward_cap_error_propagates(self):
        # witness_ufa(2) has k=3 and l=4, so cap 3 stops only the backward side.
        with pytest.raises(CapExceededError) as caught:
            measure_constructions(witness_ufa(2), cap=3)
        assert caught.value.direction == "backward"
        assert caught.value.partial_count == 3

    @staticmethod
    def _outcome(measure, n, cap):
        try:
            return measure(n, cap)[1]
        except CapExceededError as exc:
            return (exc.direction, exc.cap, exc.partial_count, str(exc))

    def test_cap_check_before_the_work_raises_what_the_constructions_raise(self):
        # Every cap up to both sizes at small n, and every cap next to
        # either size above; a wrong closed form fails one of them.
        def built(n, cap):
            automaton = witness_ufa(n)
            return automaton, measure_constructions(automaton, cap)

        for n in range(10):
            k, l = _witness_sizes(n)
            caps = range(1, max(k, l) + 2) if n <= 6 else {k - 1, k, k + 1, l - 1, l, l + 1}
            for cap in caps:
                assert self._outcome(_measure_witness, n, cap) == self._outcome(built, n, cap)

    def test_report_flags_are_exact(self):
        # k = 1 against n = 4 fails the lower bound: 4 * 1 < 80.
        report = BoundReport(4, 1, 100)
        assert not report.holds_lower
        assert report.within_bound
        assert not report.holds
