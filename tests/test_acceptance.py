"""End-to-end acceptance suite.

One test per numbered criterion, each printing a single
``criterion N (<name>): PASS`` line (visible with -s; pass/fail status per
criterion shows in plain ``pytest -v`` output).  Random suites use fixed
seeds, so every run checks the same instances.
"""

import random
import time

import pytest

from ufa import (
    all_graphs,
    backward_determinize,
    check_graph_bounds,
    complement_ufa,
    count_accepting_runs,
    count_cliques,
    count_cocliques,
    extract_graph,
    forward_determinize,
    graph_to_ufa,
    is_unambiguous,
    parse_automaton,
    parse_graph,
    serialize_automaton,
    serialize_graph,
    verify_product_bound,
    verify_tightness,
)
from helpers import (
    brute_force_cliques,
    complete_graph,
    enumerate_accepting_runs,
    is_clique,
    is_coclique,
    random_graph,
    random_nfa,
    random_nfa_any,
    run_cli,
    subsets,
    word_run_counts,
)

A_PLUS_TEXT = "nfa 2\nalphabet a\ninitial 0\nfinal 1\ntrans 0 a 1\ntrans 1 a 1\n"


@pytest.fixture
def pass_line(capsys):
    """One visible pass line per criterion, bypassing output capture."""

    def emit(number: int, name: str, started: float, detail: str = "") -> float:
        elapsed = time.monotonic() - started
        suffix = f": {detail}" if detail else ""
        with capsys.disabled():
            print(f"criterion {number} ({name}): PASS{suffix} in {elapsed:.1f}s")
        return elapsed

    return emit


@pytest.fixture(scope="module")
def unambiguous_instances():
    """The shared random suite: 200 automata, filtered to unambiguous ones."""
    rng = random.Random(20240817)
    pool = [random_nfa(rng, max_states=6, max_symbols=3, density=0.3) for _ in range(200)]
    instances = [nfa for nfa in pool if is_unambiguous(nfa)[0]]
    assert len(instances) >= 20
    return instances


def test_criterion_1_exhaustive_graph_bounds(pass_line):
    started = time.monotonic()
    sizes = []
    for n in range(6):
        count = 0
        for g in all_graphs(n):
            count += 1
            assert check_graph_bounds(g) == [], (n, g.edges())
        sizes.append(count)
    assert sizes == [1, 1, 2, 8, 64, 1024]
    elapsed = pass_line(1, "exhaustive graph bounds", started, "1100 graphs, 0 violations")
    assert elapsed < 30.0


def test_criterion_2_complete_graph_counts_are_exact(pass_line):
    started = time.monotonic()
    for n in range(1, 17):
        report = verify_product_bound(complete_graph(n))
        assert report.cliques == 2**n
        assert report.cocliques == n + 1
        assert report.product == (n + 1) * 2**n == report.bound
    pass_line(2, "complete-graph counts", started, "n=1..16 exact")


def test_criterion_3_witness_tightness(pass_line):
    started = time.monotonic()
    for n in range(13):
        report = verify_tightness(n)
        assert report.holds_lower, (n, report.k, report.l)
        assert report.within_bound, (n, report.k, report.l)
    elapsed = pass_line(3, "witness tightness", started, "n=0..12 within both bounds")
    assert elapsed < 60.0


def test_criterion_4_complement_correctness(unambiguous_instances, pass_line):
    started = time.monotonic()
    spot_rng = random.Random(99)
    for nfa in unambiguous_instances:
        complement, report = complement_ufa(nfa)
        assert is_unambiguous(complement)[0]
        input_counts = word_run_counts(nfa, 8)
        output_counts = word_run_counts(complement, 8)
        assert input_counts.keys() == output_counts.keys()
        for word, count in input_counts.items():
            assert (output_counts[word] >= 1) == (count == 0), (nfa, word)
        spot_words = sorted(input_counts)
        for word in spot_rng.sample(spot_words, min(20, len(spot_words))):
            assert count_accepting_runs(nfa, word) == input_counts[word]
            assert count_accepting_runs(complement, word) == output_counts[word]
        assert complement.state_count == report.result_states
        assert complement.state_count**2 <= (nfa.state_count + 1) * 2**nfa.state_count
    elapsed = pass_line(
        4,
        "complement correctness",
        started,
        f"{len(unambiguous_instances)} unambiguous of 200, words to length 8",
    )
    assert elapsed < 60.0


def test_criterion_5_extracted_graph_dominates_sizes(unambiguous_instances, pass_line):
    started = time.monotonic()
    for nfa in unambiguous_instances:
        g = extract_graph(nfa)
        fwd = forward_determinize(nfa)
        bwd = backward_determinize(nfa)
        assert count_cliques(g) >= fwd.state_count
        assert count_cocliques(g) >= bwd.state_count
        for subset in subsets(fwd):
            assert is_clique(g, subset)
        for subset in subsets(bwd):
            assert is_coclique(g, subset)
    pass_line(
        5,
        "extracted-graph domination",
        started,
        f"{len(unambiguous_instances)} instances",
    )


def test_criterion_6_graph_to_ufa_guarantees(pass_line):
    started = time.monotonic()
    count = 0
    for n in range(5):
        for g in all_graphs(n):
            count += 1
            automaton = graph_to_ufa(g)
            assert is_unambiguous(automaton)[0]
            assert forward_determinize(automaton).state_count >= count_cliques(g)
            assert backward_determinize(automaton).state_count >= count_cocliques(g)
    pass_line(6, "graph-to-automaton guarantees", started, f"{count} graphs to n=4")


def test_criterion_7_counting_oracles_agree(pass_line):
    started = time.monotonic()
    rng = random.Random(20240818)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 12))
        assert count_cliques(g) == len(brute_force_cliques(g))
    for _ in range(100):
        nfa = random_nfa(rng, max_states=5)
        word = tuple(rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 5)))
        assert count_accepting_runs(nfa, word) == len(
            enumerate_accepting_runs(nfa, word)
        )
    pass_line(7, "counting oracles", started, "100 graphs + 100 automaton/word pairs")


def test_criterion_8_round_trip_and_determinism(tmp_path, capsys, pass_line):
    started = time.monotonic()
    rng = random.Random(424242)
    for _ in range(100):
        nfa = random_nfa_any(rng)
        assert parse_automaton(serialize_automaton(nfa)) == nfa
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 8))
        assert parse_graph(serialize_graph(g)) == g

    automaton_path = tmp_path / "aplus.nfa"
    automaton_path.write_text(A_PLUS_TEXT)
    graph_path = tmp_path / "k2.graph"
    graph_path.write_text("graph 2\nedge 0 1\n")
    commands = [
        ["complement", str(automaton_path)],
        ["determinize", str(automaton_path), "--direction", "fwd"],
        ["determinize", str(automaton_path), "--direction", "bwd"],
        ["check-unambiguous", str(automaton_path)],
        ["extract-graph", str(automaton_path)],
        ["graph-to-ufa", str(graph_path)],
        ["count-cliques", str(graph_path)],
        ["witness", "--n", "5"],
        ["verify-graphs", "--max-n", "3"],
        ["verify-tightness", "--max-n", "6"],
    ]
    for argv in commands:
        assert run_cli(argv, capsys) == run_cli(argv, capsys), argv
    out = f"200 round trips, {len(commands)} commands run twice"
    pass_line(8, "round trip and determinism", started, out)
