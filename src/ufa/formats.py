"""Plain-text files for automata and graphs.

Automaton files:

    nfa <state_count>
    alphabet <symbol> ...
    initial <state> ...
    final <state> ...
    trans <src> <symbol> <dst>

Graph files:

    graph <vertex_count>
    edge <u> <v>

Tokens are whitespace-separated; blank lines and lines starting with ``#``
are skipped.  The ``nfa``/``graph`` header must come first; the other
header lines may appear in any order but only once.  Serialization is
canonical (sorted state sets, transitions by source then alphabet position
then target, edges lexicographic with u < v), so parse and serialize are
mutually inverse and repeated runs are byte-identical.

write_subset_automaton writes a subset construction, or its complement, to
a text stream straight from its transition table, in time linear in the
table's cells and without building an Nfa; its text is what
serialize_automaton gives for the construction's Nfa view.  It writes in
bounded pieces (one per forward row, and backward at most _SLICE lines
of one source), so the memory it needs follows the table, not the text.
"""

import sys
from array import array
from itertools import chain, repeat
from operator import floordiv, mod

from .automata import FORWARD, Nfa, SubsetAutomaton
from .graphs import Graph


class ParseError(ValueError):
    """A malformed input file; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _int_token(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line) from None


def _body_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, stripped.split()


def _header_count(lines, keyword: str, noun: str) -> int:
    """Read the ``<keyword> <count>`` header from the first body line.

    ``noun`` names the count in messages, e.g. "state count" for the
    ``nfa <state_count>`` header.
    """
    usage = f"{keyword} <{noun.replace(' ', '_')}>"
    first = next(lines, None)
    if first is None:
        raise ParseError(f"missing '{usage}' header")
    line_no, tokens = first
    if tokens[0] != keyword:
        raise ParseError(f"file must start with '{usage}'", line_no)
    if len(tokens) != 2:
        raise ParseError(f"expected '{usage}'", line_no)
    count = _int_token(tokens[1], noun, line_no)
    if count < 0:
        raise ParseError(f"{noun} must be nonnegative", line_no)
    # Past sys.maxsize no list can be that long: allocating one per state
    # or vertex fails with OverflowError, or never ends.
    if count > sys.maxsize:
        raise ParseError(f"{noun} must be at most {sys.maxsize}", line_no)
    return count


def _state_token(token: str, state_count: int, line: int) -> int:
    value = _int_token(token, "state", line)
    if not 0 <= value < state_count:
        raise ParseError(f"state {value} out of range for {state_count} states", line)
    return value


def parse_automaton(text: str) -> Nfa:
    """Parse an automaton file; raise ParseError with a line number on any
    malformed, duplicated, missing, or out-of-range content."""
    lines = _body_lines(text)
    state_count = _header_count(lines, "nfa", "state count")
    alphabet = None
    state_sets = {"initial": None, "final": None}
    pending = []
    for line_no, tokens in lines:
        keyword = tokens[0]
        if keyword == "alphabet":
            if alphabet is not None:
                raise ParseError("duplicate 'alphabet' line", line_no)
            alphabet = tokens[1:]
            if len(set(alphabet)) != len(alphabet):
                raise ParseError("duplicate symbol in alphabet", line_no)
        elif keyword in state_sets:
            if state_sets[keyword] is not None:
                raise ParseError(f"duplicate '{keyword}' line", line_no)
            state_sets[keyword] = frozenset(
                _state_token(token, state_count, line_no) for token in tokens[1:]
            )
        elif keyword == "trans":
            if len(tokens) != 4:
                raise ParseError("expected 'trans <src> <symbol> <dst>'", line_no)
            src = _state_token(tokens[1], state_count, line_no)
            dst = _state_token(tokens[3], state_count, line_no)
            pending.append((line_no, src, tokens[2], dst))
        elif keyword == "nfa":
            raise ParseError("duplicate 'nfa' header", line_no)
        else:
            raise ParseError(f"unknown directive {keyword!r}", line_no)
    if alphabet is None:
        raise ParseError("missing 'alphabet' line")
    for name, value in state_sets.items():
        if value is None:
            raise ParseError(f"missing '{name}' line")
    known = set(alphabet)
    transitions = set()
    for line_no, src, symbol, dst in pending:
        if symbol not in known:
            raise ParseError(f"unknown symbol {symbol!r}", line_no)
        transitions.add((src, symbol, dst))
    return Nfa(
        state_count,
        tuple(alphabet),
        transitions,
        state_sets["initial"],
        state_sets["final"],
    )


def _automaton_header(state_count: int, alphabet, initial, final) -> str:
    """The ``nfa``, ``alphabet``, ``initial`` and ``final`` lines, each
    ending in a newline, with the state sets sorted."""
    lines = [
        f"nfa {state_count}",
        " ".join(("alphabet",) + alphabet),
        " ".join(["initial"] + [str(q) for q in sorted(initial)]),
        " ".join(["final"] + [str(q) for q in sorted(final)]),
    ]
    return "".join(line + "\n" for line in lines)


def serialize_automaton(nfa: Nfa) -> str:
    """Canonical text for an automaton; parse_automaton inverts it exactly."""
    position = {symbol: i for i, symbol in enumerate(nfa.alphabet)}
    ordered = sorted(nfa.transitions, key=lambda t: (t[0], position[t[1]], t[2]))
    header = _automaton_header(nfa.state_count, nfa.alphabet, nfa.initial, nfa.final)
    return header + "".join(f"trans {src} {symbol} {dst}\n" for src, symbol, dst in ordered)


# The most lines in one backward piece: one source can own most of the
# table's cells (845,952 of 1,220,736 in the backward construction of
# witness_ufa(16)), so a piece per source would not be bounded.
_SLICE = 1 << 15


def _subset_automaton_pieces(construction: SubsetAutomaton, complement: bool):
    """The canonical text of ``construction.as_nfa()``, or of
    ``construction.as_complement_nfa()`` when ``complement`` is true, in
    pieces written straight from the transition table.

    Each table cell is one transition.  Forward, cell (i, j) is the edge
    from i to ``transition_table[i][j]``, so each row is one piece, already
    in canonical order.  Backward, it is the edge from
    ``transition_table[i][j]`` to i; one bucket pass over the cells, column
    by column, puts them in order of source, then column, then target, and
    each source's cells are written in slices of at most _SLICE.  Every
    line is joined from shared per-state and per-symbol strings, so the
    time is linear in the cells.  State 0, the seed subset, is the initial
    state forward and the final state backward.
    """
    table = construction.transition_table
    alphabet = construction.base.alphabet
    size, width = construction.state_count, len(alphabet)
    seed = (0,)
    accepting = construction.unmarked if complement else construction.marked
    symbols = [f"{symbol} " for symbol in alphabet]
    targets = [f"{q}\n" for q in range(size)]
    if construction.direction == FORWARD:
        yield _automaton_header(size, alphabet, seed, accepting)
        parts = [None] * (3 * width)
        parts[1::3] = symbols
        for source, row in enumerate(table):
            parts[0::3] = repeat(f"trans {source} ", width)
            parts[2::3] = map(targets.__getitem__, row)
            yield "".join(parts)
        return
    yield _automaton_header(size, alphabet, accepting, seed)
    # Cells numbered column-major, j * size + i, 4 bytes each, in one
    # bucket per source.
    buckets = [array("I") for _ in range(size)]
    appends = [bucket.append for bucket in buckets]
    for cell, source in enumerate(chain.from_iterable(zip(*table))):
        appends[source](cell)
    for source, cells in enumerate(buckets):
        prefix = f"trans {source} "
        for start in range(0, len(cells), _SLICE):
            piece = cells[start:start + _SLICE]
            parts = [prefix] * (3 * len(piece))
            parts[1::3] = map(symbols.__getitem__, map(floordiv, piece, repeat(size)))
            parts[2::3] = map(targets.__getitem__, map(mod, piece, repeat(size)))
            yield "".join(parts)


def write_subset_automaton(construction: SubsetAutomaton, stream, complement: bool = False) -> None:
    """Write the canonical text of ``construction.as_nfa()``, or of
    ``construction.as_complement_nfa()`` when ``complement`` is true, to
    the text stream ``stream`` in bounded pieces."""
    stream.writelines(_subset_automaton_pieces(construction, complement))


def parse_graph(text: str) -> Graph:
    """Parse a graph file; raise ParseError with a line number on any
    malformed, duplicated, missing, or out-of-range content."""
    lines = _body_lines(text)
    vertex_count = _header_count(lines, "graph", "vertex count")
    edges = []
    for line_no, tokens in lines:
        keyword = tokens[0]
        if keyword != "edge":
            if keyword == "graph":
                raise ParseError("duplicate 'graph' header", line_no)
            raise ParseError(f"unknown directive {keyword!r}", line_no)
        if len(tokens) != 3:
            raise ParseError("expected 'edge <u> <v>'", line_no)
        u = _int_token(tokens[1], "vertex", line_no)
        v = _int_token(tokens[2], "vertex", line_no)
        if not 0 <= u < vertex_count or not 0 <= v < vertex_count:
            raise ParseError(
                f"edge {u}-{v} out of range for {vertex_count} vertices", line_no
            )
        if u >= v:
            raise ParseError(f"edge endpoints must satisfy u < v, got {u} {v}", line_no)
        edges.append((u, v))
    return Graph.from_edges(vertex_count, edges)


def serialize_graph(g: Graph) -> str:
    """Canonical text for a graph; parse_graph inverts it exactly."""
    lines = [f"graph {g.vertex_count}"]
    lines += [f"edge {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
