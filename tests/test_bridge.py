"""Unit tests for the automaton/graph translations and the witness family."""

import random

import pytest

from ufa import (
    AmbiguousAutomatonError,
    CapExceededError,
    CompositeSymbol,
    Graph,
    Nfa,
    TightnessReport,
    all_graphs,
    backward_determinize,
    count_accepting_runs,
    count_cliques,
    count_cocliques,
    extract_graph,
    forward_determinize,
    is_clique,
    is_coclique,
    is_unambiguous,
    verify_tightness,
    witness_ufa,
)
from ufa.bridge import graph_to_ufa
from helpers import a_plus, random_nfa, two_loop


class TestCompositeSymbol:
    def test_clique_label(self):
        assert CompositeSymbol(1, {2, 0}).label == "c{0,2}"

    def test_coclique_label(self):
        assert CompositeSymbol(2, {1}).label == "i{1}"

    def test_empty_labels(self):
        assert CompositeSymbol(1, set()).label == "c{}"
        assert CompositeSymbol(2, set()).label == "i{}"

    def test_rejects_bad_tag(self):
        with pytest.raises(ValueError, match="tag"):
            CompositeSymbol(3, set())


class TestExtractGraph:
    def test_deterministic_automaton_yields_no_edges(self):
        g = extract_graph(a_plus())
        assert g.vertex_count == 2
        assert g.edges() == []

    def test_recovers_the_edge_of_k2(self):
        g = extract_graph(graph_to_ufa(Graph.complete(2)))
        assert g.edges() == [(0, 1)]

    def test_zero_state_automaton(self):
        g = extract_graph(Nfa(0, ("a",), set(), set(), set()))
        assert g.vertex_count == 0

    def test_ambiguous_input_is_rejected(self):
        with pytest.raises(AmbiguousAutomatonError):
            extract_graph(two_loop())


class TestGraphToUfa:
    def test_k2_shape_and_construction_sizes(self):
        automaton = graph_to_ufa(Graph.complete(2))
        assert automaton.state_count == 2
        assert len(automaton.alphabet) == 7
        assert automaton.initial == automaton.final == {0}
        fwd = forward_determinize(automaton)
        assert set(fwd.states) == {
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
            assert set(result.states) == {frozenset({0}), frozenset()}

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

    def test_exhaustive_small_graphs_satisfy_the_size_guarantees(self):
        for n in range(6):
            for g in all_graphs(n):
                automaton = graph_to_ufa(g)
                assert is_unambiguous(automaton)[0]
                assert forward_determinize(automaton).state_count >= count_cliques(g)
                assert backward_determinize(automaton).state_count >= count_cocliques(g)

    def test_transitions_route_through_vertex_zero(self):
        automaton = graph_to_ufa(Graph.complete(3))
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
            assert all(is_clique(g, subset) for subset in fwd.states)
            assert all(is_coclique(g, subset) for subset in bwd.states)
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
        assert report.upper_sq == 1
        assert report.holds

    def test_n1(self):
        report = verify_tightness(1)
        assert (report.k, report.l) == (2, 2)
        assert report.holds

    def test_n4(self):
        report = verify_tightness(4)
        assert (report.k, report.l) == (9, 8)
        assert report.upper_sq == 80
        assert report.holds_lower and report.holds_upper

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
            TightnessReport.measure(witness_ufa(2), cap=3)
        assert caught.value.direction == "backward"
        assert caught.value.partial_count == 3

    def test_report_flags_are_exact(self):
        # k = 1 against n = 4 fails the lower bound: 4 * 1 < 80.
        report = TightnessReport(4, 1, 100)
        assert not report.holds_lower
        assert report.holds_upper
        assert not report.holds
