"""Unit tests for the plain-text automaton and graph formats."""

import io
import random
import tempfile
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufa import (
    Graph,
    Nfa,
    ParseError,
    backward_determinize,
    forward_determinize,
    is_unambiguous,
    parse_automaton,
    parse_graph,
    serialize_automaton,
    serialize_graph,
    witness_ufa,
    write_subset_automaton,
)
from ufa import formats
from helpers import a_plus, a_star, random_nfa, random_nfa_any

A_PLUS_TEXT = """nfa 2
alphabet a
initial 0
final 1
trans 0 a 1
trans 1 a 1
"""


@st.composite
def nfas(draw):
    n = draw(st.integers(0, 4))
    labels = st.text(alphabet="abz01#{},!", min_size=1, max_size=3)
    alphabet = tuple(draw(st.lists(labels, max_size=3, unique=True)))
    states = st.integers(0, n - 1) if n else st.nothing()
    transitions = (
        draw(
            st.sets(
                st.tuples(states, st.sampled_from(alphabet), states), max_size=10
            )
        )
        if n and alphabet
        else set()
    )
    initial = draw(st.sets(states)) if n else set()
    final = draw(st.sets(states)) if n else set()
    return Nfa(n, alphabet, transitions, initial, final)


@st.composite
def graphs(draw):
    from itertools import combinations

    n = draw(st.integers(0, 6))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, edges)


class TestParseAutomaton:
    def test_parses_the_a_plus_file(self):
        assert parse_automaton(A_PLUS_TEXT) == a_plus()

    def test_parses_zero_states_with_bare_state_lines(self):
        text = "nfa 0\nalphabet a\ninitial\nfinal\n"
        assert parse_automaton(text) == Nfa(0, ("a",), set(), set(), set())

    def test_unknown_symbol_reports_its_line(self):
        text = "nfa 1\nalphabet a\ninitial 0\nfinal 0\ntrans 0 b 0\n"
        with pytest.raises(ParseError, match="unknown symbol 'b'") as info:
            parse_automaton(text)
        assert info.value.line == 5

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# header comment\n\nnfa 2\nalphabet a\n# sets\ninitial 0\nfinal 1\ntrans 0 a 1\ntrans 1 a 1\n"
        assert parse_automaton(text) == a_plus()

    def test_header_must_come_first(self):
        with pytest.raises(ParseError, match="must start"):
            parse_automaton("alphabet a\nnfa 1\ninitial 0\nfinal 0\n")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("nfa 1\nnfa 1\nalphabet\ninitial\nfinal\n", "duplicate 'nfa'"),
            ("nfa 1\nalphabet a\nalphabet b\ninitial\nfinal\n", "duplicate 'alphabet'"),
            ("nfa 1\nalphabet a\ninitial\ninitial\nfinal\n", "duplicate 'initial'"),
            ("nfa 1\nalphabet a a\ninitial\nfinal\n", "duplicate symbol"),
            ("nfa 1\nalphabet a\ninitial\n", "missing 'final'"),
            ("nfa 1\ninitial\nfinal\n", "missing 'alphabet'"),
            ("", "missing 'nfa"),
            ("nfa x\n", "must be an integer"),
            ("nfa -1\n", "nonnegative"),
            ("nfa 1\nalphabet a\ninitial 1\nfinal\n", "out of range"),
            ("nfa 1\nalphabet a\ninitial\nfinal\ntrans 0 a\n", "expected 'trans"),
            ("nfa 1\nalphabet a\ninitial\nfinal\nbogus 1\n", "unknown directive"),
        ],
    )
    def test_malformed_files(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_automaton(text)


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_automaton, "# only a comment\n", "missing 'nfa <state_count>' header"),
        (parse_automaton, "\nalphabet a\n", "line 2: file must start with 'nfa <state_count>'"),
        (parse_automaton, "nfa 1 2\n", "line 1: expected 'nfa <state_count>'"),
        (parse_automaton, "nfa x\n", "line 1: state count must be an integer, got 'x'"),
        (parse_automaton, "nfa -1\n", "line 1: state count must be nonnegative"),
        (parse_automaton, "nfa 1\nalphabet a\nnfa 1\n", "line 3: duplicate 'nfa' header"),
        (parse_graph, "", "missing 'graph <vertex_count>' header"),
        (parse_graph, "# c\nedge 0 1\n", "line 2: file must start with 'graph <vertex_count>'"),
        (parse_graph, "graph\n", "line 1: expected 'graph <vertex_count>'"),
        (parse_graph, "graph two\n", "line 1: vertex count must be an integer, got 'two'"),
        (parse_graph, "graph -3\n", "line 1: vertex count must be nonnegative"),
        (parse_graph, "graph 2\nedge 0 1\ngraph 2\n", "line 3: duplicate 'graph' header"),
    ],
)
def test_header_errors(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


class TestSerializeAutomaton:
    def test_a_plus_golden_text(self):
        assert serialize_automaton(a_plus()) == A_PLUS_TEXT

    def test_transitions_sort_by_source_then_alphabet_position(self):
        nfa = Nfa(
            2,
            ("b", "a"),
            {(1, "a", 0), (0, "a", 1), (0, "b", 0)},
            {0},
            {1},
        )
        assert serialize_automaton(nfa).splitlines()[4:] == [
            "trans 0 b 0",
            "trans 0 a 1",
            "trans 1 a 0",
        ]

    @given(nfas())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_identity(self, nfa):
        assert parse_automaton(serialize_automaton(nfa)) == nfa

    def test_round_trip_on_seeded_random_instances(self):
        rng = random.Random(19)
        for _ in range(100):
            nfa = random_nfa_any(rng)
            assert parse_automaton(serialize_automaton(nfa)) == nfa


class _Pieces(io.StringIO):
    """A text stream that also keeps each piece written to it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


def _assert_written_from_the_table(nfa):
    """Both constructions of ``nfa``, with either marking, stream (to a
    StringIO and to a file) exactly as their Nfa views serialize, and
    parse back to them."""
    for construct in (forward_determinize, backward_determinize):
        construction = construct(nfa)
        for complement, view in (
            (False, construction.as_nfa()),
            (True, construction.as_complement_nfa()),
        ):
            expected = serialize_automaton(view)
            buffer = io.StringIO()
            write_subset_automaton(construction, buffer, complement=complement)
            text = buffer.getvalue()
            assert text == expected
            with tempfile.TemporaryFile("w+", encoding="utf-8") as stream:
                write_subset_automaton(construction, stream, complement=complement)
                stream.seek(0)
                assert stream.read() == expected
            assert parse_automaton(text) == view


def _wide_automaton(letters: int) -> Nfa:
    """Three states over ``letters`` symbols.  Its backward construction
    has eight states, and one of them is the source of more than half of
    the table's cells."""
    alphabet = tuple(f"s{i}" for i in range(letters))
    transitions = {(0, a, 1) for a in alphabet[::2]} | {(1, a, 2) for a in alphabet[1::3]}
    transitions |= {(2, a, 2) for a in alphabet[::5]}
    return Nfa(3, alphabet, transitions, {0}, {2})


def _busiest_source_cells(construction) -> int:
    return max(Counter(chain.from_iterable(construction.transition_table)).values())


class TestSerializeSubsetAutomaton:
    def test_seeded_random_unambiguous_automata(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(80):
            nfa = random_nfa(rng)
            if is_unambiguous(nfa)[0]:
                _assert_written_from_the_table(nfa)
                checked += 1
        assert checked >= 20

    def test_seeded_random_automata_with_odd_labels(self):
        # Zero states, the empty alphabet and labels such as "c{0}" included.
        rng = random.Random(31)
        for _ in range(100):
            _assert_written_from_the_table(random_nfa_any(rng))

    def test_empty_alphabet(self):
        _assert_written_from_the_table(Nfa(3, (), set(), {0, 2}, {1}))

    def test_one_state_universal_automaton_marks_every_state(self):
        for construct in (forward_determinize, backward_determinize):
            construction = construct(a_star())
            assert construction.marked == frozenset({0})
            assert construction.unmarked == frozenset()
        _assert_written_from_the_table(a_star())

    def test_no_final_state_marks_no_state(self):
        nfa = Nfa(3, ("a", "b"), {(0, "a", 1), (1, "b", 2), (2, "a", 0)}, {0}, set())
        for construct in (forward_determinize, backward_determinize):
            construction = construct(nfa)
            assert construction.marked == frozenset()
            assert construction.unmarked == frozenset(range(construction.state_count))
        _assert_written_from_the_table(nfa)

    def test_witness_10(self):
        _assert_written_from_the_table(witness_ufa(10))

    def test_busiest_backward_source_spans_several_slices(self):
        nfa = _wide_automaton(formats._SLICE // 4)
        assert _busiest_source_cells(backward_determinize(nfa)) > formats._SLICE
        _assert_written_from_the_table(nfa)

    @pytest.mark.parametrize("slice_lines", [1, 2, 3, 7])
    def test_every_slice_boundary(self, monkeypatch, slice_lines):
        monkeypatch.setattr(formats, "_SLICE", slice_lines)
        rng = random.Random(37)
        for _ in range(40):
            _assert_written_from_the_table(random_nfa_any(rng))
        _assert_written_from_the_table(witness_ufa(5))
        _assert_written_from_the_table(_wide_automaton(40))

    def test_forward_pieces_are_the_rows(self):
        construction = forward_determinize(witness_ufa(6))
        stream = _Pieces()
        write_subset_automaton(construction, stream)
        rows = stream.pieces[1:]
        assert len(rows) == construction.state_count
        width = len(construction.base.alphabet)
        for source, row in enumerate(rows):
            lines = row.splitlines()
            assert len(lines) == width
            assert all(line.startswith(f"trans {source} ") for line in lines)

    def test_backward_pieces_are_bounded_slices_of_one_source(self):
        construction = backward_determinize(_wide_automaton(formats._SLICE // 2))
        busiest = _busiest_source_cells(construction)
        assert busiest > 2 * formats._SLICE
        stream = _Pieces()
        write_subset_automaton(construction, stream, complement=True)
        per_source = Counter()
        for piece in stream.pieces[1:]:
            lines = piece.splitlines()
            assert 1 <= len(lines) <= formats._SLICE
            sources = {line.split()[1] for line in lines}
            assert len(sources) == 1
            per_source[sources.pop()] += 1
        # ceil(busiest / _SLICE) pieces for the busiest source.
        assert max(per_source.values()) == -(-busiest // formats._SLICE)


class TestGraphFiles:
    def test_parse_simple_graph(self):
        assert parse_graph("graph 3\nedge 0 1\nedge 1 2\n") == Graph.from_edges(
            3, [(0, 1), (1, 2)]
        )

    def test_serialize_golden_text(self):
        g = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert serialize_graph(g) == "graph 3\nedge 0 1\nedge 1 2\n"

    def test_zero_vertices(self):
        assert parse_graph("graph 0\n") == Graph(0, ())
        assert serialize_graph(Graph(0, ())) == "graph 0\n"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "missing 'graph"),
            ("graph 2\nedge 1 0\n", "u < v"),
            ("graph 2\nedge 0 0\n", "u < v"),
            ("graph 2\nedge 0 2\n", "out of range"),
            ("graph 2\nedge 0\n", "expected 'edge"),
            ("graph 2\ngraph 2\n", "duplicate"),
            ("edge 0 1\n", "must start"),
            ("graph 2\nloop 0 1\n", "unknown directive"),
        ],
    )
    def test_malformed_files(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_graph(text)

    def test_error_carries_the_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_graph("graph 2\n# fine\nedge 9 1\n")
        assert info.value.line == 3

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_identity(self, g):
        assert parse_graph(serialize_graph(g)) == g
