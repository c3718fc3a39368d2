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
mutually inverse and repeated runs are byte-identical.  The ``trans``
lines' symbols are checked in bulk, by one set test after the line loop;
a failure walks the text again to name the first unknown one.

write_subset_automaton writes a subset construction, or its complement, to
a text stream straight from its row-major array of cells, in time linear
in the cells and without building an Nfa or a tuple of rows; its text is
what serialize_automaton gives for the construction's Nfa view.  It
writes in bounded pieces (one per forward row, and backward at most
4,096 lines of one source) from a few numbers per backward stretch of
one source's targets, so its memory follows the stretches, not the text.
"""

import sys
from array import array
from itertools import accumulate, chain, repeat
from operator import add

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
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield line_no, tokens


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
    src, symbols, dst = [], [], []
    for line_no, tokens in lines:
        keyword = tokens[0]
        if keyword == "trans":
            if len(tokens) != 4:
                raise ParseError("expected 'trans <src> <symbol> <dst>'", line_no)
            _, p, symbol, q = tokens
            try:
                source, target = int(p), int(q)
            except ValueError:
                source = target = -1
            if not (0 <= source < state_count and 0 <= target < state_count):
                # Some state is bad: these calls raise, the source's first.
                _state_token(p, state_count, line_no)
                _state_token(q, state_count, line_no)
            src.append(source)
            symbols.append(symbol)
            dst.append(target)
        elif keyword == "alphabet":
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
    if not known.issuperset(symbols):
        # Every trans line has four tokens by now: walk the text again.
        for line_no, tokens in _body_lines(text):
            if tokens[0] == "trans" and tokens[2] not in known:
                raise ParseError(f"unknown symbol {tokens[2]!r}", line_no)
    # Every rule Nfa.__post_init__ checks is checked above, and tokens are
    # nonempty and whitespace-free.
    return Nfa._trusted(
        state_count,
        tuple(alphabet),
        frozenset(zip(src, symbols, dst)),
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


# The most lines in one backward piece, which may cut a run or a stretch:
# one source can own most of the table's cells (845,952 of 1,220,736 in
# the backward construction of witness_ufa(16)).  A piece lives three
# times while written: its runs, their join, the encoded copy.
_SLICE = 1 << 12
_NONZERO = bytes(1) + b"\1" * 255


def write_subset_automaton(construction: SubsetAutomaton, stream, complement: bool = False) -> None:
    """Write the canonical text of ``construction.as_nfa()``, or of
    ``construction.as_complement_nfa()`` when ``complement`` is true, to
    the text stream ``stream`` in pieces written straight from
    ``construction.cells``.

    Each cell is one transition.  Forward, cell (i, j) is the edge from i
    to ``cells[i * w + j]`` (``w`` letters), so each row, the slice
    ``cells[i * w:(i + 1) * w]``, is one piece, already in canonical
    order.  Backward, it is the edge from ``cells[i * w + j]`` to i, and
    the lines go by source, then column, then target.  Each column, the
    strided slice ``cells[j::w]``, is cut in C into stretches of targets
    with one source; a stable counting sort of the stretches by source
    makes each source's stretches in one column adjacent, and they are one
    join of their targets' strings on the ``trans <source> <symbol> ``
    prefix.  Each source is written in pieces of at most _SLICE lines.
    Python loops once per stretch, not per cell.  State 0, the seed
    subset, is the initial state forward and the final state backward.
    """
    table = construction.cells
    alphabet = construction.base.alphabet
    size, width = construction.state_count, len(alphabet)
    seed = (0,)
    accepting = construction.unmarked if complement else construction.marked
    targets = [f"{q}\n" for q in range(size)]
    if construction.direction == FORWARD:
        stream.write(_automaton_header(size, alphabet, seed, accepting))
        parts = [None] * (3 * width)
        parts[1::3] = [f"{symbol} " for symbol in alphabet]
        for source in range(size):
            parts[0::3] = repeat(f"trans {source} ", width)
            parts[2::3] = map(targets.__getitem__, table[source * width:(source + 1) * width])
            stream.write("".join(parts))
        return
    stream.write(_automaton_header(size, alphabet, accepting, seed))
    # A stretch is a maximal run of one source's targets in a column; a
    # cell starts one where a byte lane of it differs from the cell before.
    # As a 0 byte a cell, with a 1 byte before each later stretch, a column
    # splits on the 1 bytes into its stretches' lengths.  Stretch r covers
    # cells bounds[r]:bounds[r + 1], numbered column-major, j * size + i.
    lanes = table.itemsize
    bounds, sources = array("I", [0]), array(table.typecode)
    for column in range(width):
        cells = table[column::width]
        data = cells.tobytes()
        changed = 0
        for lane in range(lanes):
            value = int.from_bytes(data[lane::lanes], "little")
            changed |= value ^ (value >> 8)
        marks = changed.to_bytes(size, "little")[:-1].translate(_NONZERO)
        lengths = map(len, (b"\0" + marks.replace(b"\1", b"\1\0")).split(b"\1"))
        cuts = array("I", accumulate(lengths, initial=0))
        sources.extend(map(cells.__getitem__, cuts[:-1]))
        bounds.extend(map(add, cuts[1:], repeat(column * size)))
    # One stable counting sort puts them in order of source, then column.
    counts = [0] * size
    for source in sources:
        counts[source] += 1
    slots = list(accumulate(counts, initial=0))
    order = array("I", bytes(4 * len(sources)))
    for stretch, source in enumerate(sources):
        slot = slots[source]
        order[slot] = stretch
        slots[source] = slot + 1
    # A source's stretches in one column make one run and one join; a run
    # ends at a new source or at the first stretch past its column.
    piece, run, room, current, limit = [], [], _SLICE, -1, 0
    for source, lo, hi in zip(
        chain.from_iterable(map(repeat, range(size), counts)),
        map(bounds.__getitem__, order),
        map(memoryview(bounds)[1:].__getitem__, order),
    ):
        if source != current or lo >= limit:
            if run:
                piece.append(prefix + prefix.join(run))
            if source != current:
                if piece:
                    stream.write("".join(piece))
                piece, room, current = [], _SLICE, source
            column = lo // size
            base, limit = column * size, (column + 1) * size
            prefix, run = f"trans {source} {alphabet[column]} ", []
        lo, hi = lo - base, hi - base
        while hi - lo >= room:
            run += targets[lo:lo + room]
            lo += room
            piece.append(prefix + prefix.join(run))
            stream.write("".join(piece))
            piece, run, room = [], [], _SLICE
        run += targets[lo:hi]
        room -= hi - lo
    if run:
        piece.append(prefix + prefix.join(run))
    if piece:
        stream.write("".join(piece))


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
