"""Unit tests for the plain-text automaton and graph formats."""

import io
import random
import sys
import tempfile
from array import array
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufa import (
    BACKWARD,
    DEFAULT_CAP,
    Graph,
    Nfa,
    ParseError,
    SubsetAutomaton,
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
from helpers import a_plus, a_star, random_nfa, random_nfa_any, reference_body_lines, table_rows

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

    def test_parsed_automaton_is_the_checked_one(self):
        # parse_automaton skips Nfa.__post_init__, so its result must be
        # what the checked constructor makes of the same fields.
        def assert_checked(text, fields):
            parsed, checked = parse_automaton(text), Nfa(*fields)
            assert parsed == checked and hash(parsed) == hash(checked)
            assert type(parsed.alphabet) is tuple
            assert all(
                type(value) is frozenset
                for value in (parsed.transitions, parsed.initial, parsed.final)
            )

        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(0, 6)
            alphabet = rng.sample(["a", "b", "z9", "#x", "{,}", "\u00e9"], rng.randint(0, 4))
            triples = [
                (rng.randrange(n), rng.choice(alphabet), rng.randrange(n))
                for _ in range(rng.randint(0, 12) if n and alphabet else 0)
            ]
            initial = {rng.randrange(n) for _ in range(rng.randint(0, 3))} if n else set()
            final = {rng.randrange(n) for _ in range(rng.randint(0, 3))} if n else set()
            # Header lines in any order, repeated triples, comments,
            # blank lines and uneven whitespace.
            lines = [
                " ".join(["alphabet", *alphabet]),
                "initial\t" + " ".join(map(str, initial)),
                "final  " + "  ".join(map(str, final)),
            ]
            lines += [f"trans {p} {a}\t{q}" for p, a, q in triples + triples[:2]]
            lines += ["# comment", "", "   "]
            rng.shuffle(lines)
            text = f"nfa {n}\n" + "\n".join(lines) + "\n"
            assert_checked(text, (n, alphabet, triples, initial, final))
            nfa = Nfa(n, alphabet, triples, initial, final)
            assert_checked(serialize_automaton(nfa), (n, alphabet, triples, initial, final))
        for n in range(9):
            nfa = witness_ufa(n)
            fields = (nfa.state_count, nfa.alphabet, nfa.transitions, nfa.initial, nfa.final)
            assert_checked(serialize_automaton(nfa), fields)


# str.split and str.strip skip the same whitespace, and str.splitlines
# ends a line at more than "\n": \x0b, \x0c, \x1c-\x1e, \x85 and \u2028
# are both whitespace and line ends.
_SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
_BREAKS = ["\n", "\r\n", "\r"]
_TOKENS = ["trans", "0", "a", "#", "#b", "b#", "a#b", "\u00e9"]


def test_body_lines_match_the_strip_then_split_reader():
    rng = random.Random(32)
    for _ in range(2000):
        pieces = rng.choices([_SPACES, _BREAKS, _TOKENS, ["# note", "#"]], k=rng.randint(0, 24))
        text = "".join(rng.choice(kind) for kind in pieces)
        assert list(formats._body_lines(text)) == reference_body_lines(text), repr(text)


_HEADER = "nfa 2\nalphabet a\ninitial 0\nfinal 1\n"
# An unknown symbol after blank, comment and indented comment lines.
_PADDED = "nfa 2\n\nalphabet a\n# sets\ninitial 0\n\u3000# indented\n\n  \nfinal 1\ntrans 0 a 1\ntrans 0 b 1\n"
_LONG = "9" * 5000


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
        # parse_automaton checks a trans line's states in its line loop and
        # the symbols after the missing-line checks; the first error must
        # be the one a line-by-line reader gives.
        pytest.param(
            parse_automaton,
            _HEADER + "trans 0 a 2\nalphabet b\n",
            "line 5: state 2 out of range for 2 states",
            id="bad-trans-state-then-duplicate-alphabet",
        ),
        pytest.param(
            parse_automaton,
            "nfa 2\nalphabet a\nalphabet b\ninitial 0\nfinal 1\ntrans 0 a 2\n",
            "line 3: duplicate 'alphabet' line",
            id="duplicate-alphabet-then-bad-trans-state",
        ),
        pytest.param(
            parse_automaton,
            "nfa 2\nalphabet a\ninitial x\nfinal 1\ntrans 0 a 5\n",
            "line 3: state must be an integer, got 'x'",
            id="bad-initial-token-then-bad-trans-target",
        ),
        pytest.param(
            parse_automaton,
            _HEADER + "trans 0 b 1\ntrans 0 a 1\ntrans 1 a 1\ntrans 1 a 0\ntrans 1 a 2\n",
            "line 9: state 2 out of range for 2 states",
            id="unknown-symbol-then-bad-target",
        ),
        pytest.param(
            parse_automaton,
            "nfa 2\nalphabet a\ninitial 0\ntrans 0 b 1\n",
            "missing 'final' line",
            id="unknown-symbol-and-missing-final",
        ),
        pytest.param(
            parse_automaton,
            _HEADER + "trans 3 a x\n",
            "line 5: state 3 out of range for 2 states",
            id="bad-source-and-bad-target",
        ),
        pytest.param(
            parse_automaton,
            _HEADER + "trans 0 a -1\ntrans 0 a\n",
            "line 5: state -1 out of range for 2 states",
            id="bad-state-then-wrong-token-count",
        ),
        pytest.param(
            parse_automaton,
            _HEADER + f"trans 0 a 1\ntrans 0 a {_LONG}\n",
            f"line 6: state must be an integer, got {_LONG!r}",
            id="token-past-the-digit-limit",
            marks=pytest.mark.skipif(
                not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(_LONG),
                reason="needs an int digit limit below 5000",
            ),
        ),
        pytest.param(
            parse_automaton,
            "nfa 2\ninitial 0\nfinal 1\nalphabet a b\ninitial 1\n",
            "line 5: duplicate 'initial' line",
            id="no-trans-lines-duplicate-initial",
        ),
        pytest.param(
            parse_automaton,
            "nfa 2\ninitial 0\nfinal 1\n",
            "missing 'alphabet' line",
            id="no-trans-lines-missing-alphabet",
        ),
        # The unknown symbol's line comes from a second walk of the text.
        pytest.param(
            parse_automaton,
            "nfa 2\ninitial 0\nfinal 1\ntrans 0 a 1\ntrans 0 c 1\ntrans 1 b 0\ntrans 1 d 1\nalphabet a b\n",
            "line 5: unknown symbol 'c'",
            id="alphabet-last-two-unknown-symbols",
        ),
        pytest.param(parse_automaton, _PADDED, "line 11: unknown symbol 'b'", id="unknown-symbol-after-comments"),
        pytest.param(
            parse_automaton,
            _PADDED.replace("\n", "\r\n"),
            "line 11: unknown symbol 'b'",
            id="unknown-symbol-after-comments-crlf",
        ),
        pytest.param(
            parse_automaton,
            "nfa 2\nalphabet a\x0cinitial 0\nfinal 1\ntrans 0 b 1\n",
            "line 5: unknown symbol 'b'",
            id="unknown-symbol-after-form-feed",
        ),
        pytest.param(
            parse_automaton,
            "nfa 2\nalphabet a\ninitial 0\u2028final 1\ntrans 0 a 1\ntrans 1 b 1\n",
            "line 6: unknown symbol 'b'",
            id="unknown-symbol-after-line-separator",
        ),
        pytest.param(
            parse_automaton,
            "nfa 1\nalphabet a\ninitial 0\nfinal 0\ntrans 0 #b 0\n",
            "line 5: unknown symbol '#b'",
            id="unknown-symbol-starting-with-hash",
        ),
        pytest.param(
            parse_automaton,
            "nfa 1\nalphabet a #b\ninitial 0\nfinal 0\ntrans 0 #b 0\ntrans 0 z 0\n",
            "line 6: unknown symbol 'z'",
            id="known-symbol-starting-with-hash",
        ),
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


def _assert_written_from_the_table(nfa, cap=DEFAULT_CAP):
    """Both constructions of ``nfa`` under ``cap``, with either marking,
    stream (to a StringIO and to a file) exactly as their Nfa views
    serialize, and parse back to them."""
    for construct in (forward_determinize, backward_determinize):
        construction = construct(nfa, cap)
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
    return max(Counter(chain.from_iterable(table_rows(construction))).values())


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

    @pytest.mark.parametrize("cap,typecode", [(1 << 16, "H"), ((1 << 16) + 1, "I")])
    def test_either_cell_width(self, cap, typecode):
        # The serialized view does not depend on the cap, so 2-byte and
        # 4-byte tables must write the same text.
        rng = random.Random(47)
        cases = [_wide_automaton(40)] + [witness_ufa(n) for n in range(11)]
        for nfa in cases + [random_nfa_any(rng) for _ in range(20)]:
            assert backward_determinize(nfa, cap).cells.typecode == typecode
            _assert_written_from_the_table(nfa, cap)

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

    @pytest.mark.parametrize("bucket_cells", [1, 2, 5, 64])
    @pytest.mark.parametrize("slice_lines", [1, 3, 7])
    def test_every_bucket_chunk_boundary(self, monkeypatch, bucket_cells, slice_lines):
        # One state looping on bucket_cells letters: the backward
        # construction's one source owns all bucket_cells lines, one
        # one-cell stretch in each column, so its end falls on, before and
        # after the end of a slice.  Each slice is one piece, the last one
        # holding what is left.
        monkeypatch.setattr(formats, "_SLICE", slice_lines)
        alphabet = tuple(f"s{i}" for i in range(bucket_cells))
        nfa = Nfa(1, alphabet, {(0, a, 0) for a in alphabet}, {0}, {0})
        stream = _Pieces()
        write_subset_automaton(backward_determinize(nfa), stream)
        full, rest = divmod(bucket_cells, slice_lines)
        assert [len(piece.splitlines()) for piece in stream.pieces[1:]] == (
            [slice_lines] * full + [rest] * (rest > 0)
        )
        _assert_written_from_the_table(nfa)
        rng = random.Random(41)
        for _ in range(20):
            _assert_written_from_the_table(random_nfa_any(rng))
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


def _backward_table(size, columns, typecode) -> SubsetAutomaton:
    """A backward construction built by hand: ``columns[j][i]`` is the
    source of the edge into target i on letter j.  Its base is a one-state
    automaton with one letter per column; masks and marking do not reach
    the table."""
    alphabet = tuple(f"s{j}" for j in range(len(columns)))
    cells = array(typecode, chain.from_iterable(zip(*columns)))
    assert len(cells) == size * len(columns)
    base = Nfa(1, alphabet, set(), {0}, {0})
    return SubsetAutomaton(base, BACKWARD, tuple(range(size)), cells, frozenset({0, size - 1}))


def _assert_backward_pieces(construction):
    """Both markings write exactly as their Nfa views serialize, in pieces
    of at most _SLICE lines of one source, each source's pieces full but
    its last."""
    for complement, view in (
        (False, construction.as_nfa()),
        (True, construction.as_complement_nfa()),
    ):
        stream = _Pieces()
        write_subset_automaton(construction, stream, complement=complement)
        assert stream.getvalue() == serialize_automaton(view)
        sizes = {}
        for piece in stream.pieces[1:]:
            lines = piece.splitlines()
            sources = {line.split()[1] for line in lines}
            assert len(sources) == 1
            sizes.setdefault(sources.pop(), []).append(len(lines))
        for counts in sizes.values():
            assert all(count == formats._SLICE for count in counts[:-1])
            assert 1 <= counts[-1] <= formats._SLICE


def _stretches(rng, size, sources) -> list:
    """A column of ``size`` cells in stretches of random length, each
    from a random one of ``sources``."""
    column = []
    while len(column) < size:
        column += [rng.choice(sources)] * rng.randint(1, 9)
    return column[:size]


@pytest.fixture(params=[1, 3, 7, None], ids=["slice1", "slice3", "slice7", "default"])
def slice_lines(request, monkeypatch):
    """_SLICE at 1, 3, 7 and its default."""
    if request.param is not None:
        monkeypatch.setattr(formats, "_SLICE", request.param)
    return formats._SLICE


class TestBackwardStretches:
    """Backward tables built by hand around the writer's stretches:
    maximal runs of one source's targets in a column."""

    @pytest.mark.parametrize("typecode", ["H", "I"])
    def test_one_state_has_no_cut(self, slice_lines, typecode):
        _assert_backward_pieces(_backward_table(1, [[0], [0], [0]], typecode))

    def test_empty_alphabet(self, slice_lines):
        _assert_backward_pieces(_backward_table(3, [], "H"))

    @pytest.mark.parametrize("typecode", ["H", "I"])
    def test_sources_differing_only_in_the_high_byte(self, slice_lines, typecode):
        # 1 and 257 share their low byte, so only the second byte lane
        # tells their stretches apart.
        size = 258
        pattern = [1, 1, 257, 1, 257, 257, 257, 1]
        columns = [
            (pattern * size)[:size],
            [257] * (size // 2) + [1] * (size - size // 2),
            [1, 257] * (size // 2),
        ]
        _assert_backward_pieces(_backward_table(size, columns, typecode))

    def test_four_byte_sources_differing_only_in_the_third_byte(self):
        # 1 and 65537 share their two low bytes.
        size = (1 << 16) + 2
        column = [0] * size
        column[5:9] = [1, 65537, 65537, 1]
        column[-3:] = [65537, 1, 65537]
        _assert_backward_pieces(_backward_table(size, [column], "I"))

    def test_every_target_its_own_stretch(self, slice_lines):
        columns = [[0, 1, 2, 3, 4, 5], [5, 0, 5, 0, 5, 0], [3, 3, 4, 4, 1, 2]]
        _assert_backward_pieces(_backward_table(6, columns, "H"))

    def test_stretches_that_end_a_column(self, slice_lines):
        # A long and a one-cell last stretch, and a column of one stretch.
        columns = [[0, 0, 1, 1, 1], [2, 2, 2, 2, 3], [4, 4, 4, 4, 4], [1, 0, 0, 0, 0]]
        _assert_backward_pieces(_backward_table(5, columns, "H"))

    @pytest.mark.parametrize("typecode", ["H", "I"])
    def test_runs_longer_than_a_slice(self, slice_lines, typecode):
        # Source 0 owns one stretch longer than two slices, a run of many
        # stretches, and stretches that cross a piece's end.
        size = 2 * slice_lines + 3
        columns = [
            [0] * size,
            [0, 0, 1] * (size // 3) + [0] * (size % 3),
            [1] * (slice_lines - 1) + [0] * (size - slice_lines + 1),
        ]
        _assert_backward_pieces(_backward_table(size, columns, typecode))

    @pytest.mark.parametrize("typecode", ["H", "I"])
    def test_seeded_random_stretches(self, slice_lines, typecode):
        rng = random.Random(53)
        for _ in range(30):
            size, width = rng.randint(1, 40), rng.randint(0, 4)
            sources = rng.sample(range(size), min(size, rng.randint(1, 4)))
            columns = [_stretches(rng, size, sources) for _ in range(width)]
            _assert_backward_pieces(_backward_table(size, columns, typecode))


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
