"""Nondeterministic finite automata with exact run counting, ambiguity
checking, and subset determinization in both directions.

States are plain integers ``0..state_count-1``; words are tuples of symbol
labels.  Everything here is pure: automata are frozen dataclasses and every
operation returns new values.  Every operation reads one transition index
per direction (_index) or its packed rows, built at most once per public
call (_tables_of) and never cached on the Nfa, which a construction keeps.

The subset constructions represent a subset of base states as an int mask
(bit q set iff state q is a member) at every width, and step one
breadth-first worklist in both modes and both directions.  When each
letter moves every state that has moves on it to one set T, as in
bridge.graph_to_ufa's automata, a subset's image is T if a member has
moves on that letter and the empty set if none has: the worklist is then
walked a row at a time, one OR of per-state letter sets per row, and a
built row is written by one int expression (_rectangle_rows).  Otherwise
each base state's one-letter images for all letters are packed into one
int, and a subset's images are the OR of memoized chunk images, one per
byte of its mask, taken in batches (_packed_rows): masks of up to 8
bytes one byte column of the whole batch at a time, wider ones one mask
at a time over its nonzero bytes.  A narrow batch is ORed by subset, or
by byte lane, one ``bytes.translate`` per column, when its images have
fewer bytes (lanes) than it has subsets.  A batch's images split into
one flat tuple of per-letter int fields (by ``struct`` when narrow),
which one set difference counts or one lookup pass numbers.

is_unambiguous answers a deterministic input, or its mirror image (as
every complement is), from one set of its transitions, and otherwise
works on pairs of states.  Small inputs keep them as packed rows (bit q
of row p for the pair (p, q)), stepped forward only: each forward
candidate is probed until it meets a pair of final states or closes,
which marks all it saw dead, and the backward search runs pair by pair
only over the pairs the witness's probe saw.  Larger ones search pairs
one by one, backward only over the pairs the forward search reached.

complement_construction counts both sides without rows, then builds only
the chosen one, capped at its counted size, with its transition table:
one flat array, 2 bytes a cell up to 2**16 states; measure_constructions
only counts.  A count walked a row at a time stops once the empty set and
every T are known, as no later image can be new; any other count runs to
the end of its worklist.  So a counted side's size and its cap outcome
are those of the full construction.  complement_ufa turns the chosen side
into an Nfa without re-validating its triples; the ``complement`` and
``determinize`` commands instead write the construction with
formats.write_subset_automaton, straight from its cells in time linear
in their number.
"""

import struct
from array import array
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter, or_

from .graphs import _bits

Word = tuple[str, ...]

FORWARD = "forward"
BACKWARD = "backward"

# Default limit on subsets a single determinization may discover.
DEFAULT_CAP = 1 << 20


def word_text(word) -> str:
    """Render a word as space-separated symbols, the empty word as ``(empty)``."""
    return " ".join(word) if word else "(empty)"


class CapExceededError(RuntimeError):
    """A subset construction discovered more subsets than its cap allows."""

    def __init__(self, direction: str, cap: int, partial_count: int):
        if direction == "both":
            message = f"state limit exceeded: both determinizations hit the cap ({cap})"
        else:
            message = (
                f"state limit exceeded: {direction} determinization stopped after "
                f"discovering {partial_count} subsets (cap {cap})"
            )
        super().__init__(message)
        self.direction = direction
        self.cap = cap
        self.partial_count = partial_count


class AmbiguousAutomatonError(ValueError):
    """An operation that needs an unambiguous automaton got an ambiguous one."""

    def __init__(self, witness: Word):
        super().__init__(f"automaton is ambiguous; witness word: {word_text(witness)}")
        self.witness = witness


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton over an ordered alphabet.

    ``transitions`` holds (source, symbol, target) triples; ``initial`` and
    ``final`` are state sets.  The alphabet order is significant: it fixes
    the column order of determinizations and the canonical serialization.
    Field values are coerced to immutable containers, so instances hash and
    compare by structure.
    """

    state_count: int
    alphabet: tuple[str, ...]
    transitions: frozenset[tuple[int, str, int]]
    initial: frozenset[int]
    final: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        if self.state_count < 0:
            raise ValueError("state_count must be nonnegative")
        seen = set()
        for label in self.alphabet:
            if not label or any(ch.isspace() for ch in label):
                raise ValueError(
                    f"symbol labels must be nonempty and whitespace-free: {label!r}"
                )
            if label in seen:
                raise ValueError(f"duplicate symbol in alphabet: {label!r}")
            seen.add(label)
        for role, states in (("initial", self.initial), ("final", self.final)):
            for q in states:
                self._check_state(q, role)
        for src, sym, dst in self.transitions:
            self._check_state(src, "transition source")
            self._check_state(dst, "transition target")
            if sym not in seen:
                raise ValueError(f"transition symbol not in alphabet: {sym!r}")

    @classmethod
    def _trusted(cls, *values):
        """An instance of field ``values`` that are valid and of the stored
        types (a tuple, frozensets): __post_init__'s pass over every triple
        is skipped.  Its callers: formats.parse_automaton, which checks
        every rule as it reads; SubsetAutomaton._to_nfa, from a
        construction's own cells; and bridge.graph_to_ufa, whose letters
        and states are valid by construction."""
        nfa = object.__new__(cls)
        vars(nfa).update(zip(cls.__dataclass_fields__, values))
        return nfa

    def _check_state(self, q, role: str):
        if not isinstance(q, int) or q < 0 or q >= self.state_count:
            raise ValueError(
                f"{role} state {q!r} out of range for {self.state_count} states"
            )


def _byte_width(state_count: int) -> int:
    """Bytes in one letter's field of a packed row: at least one, and a
    power of two up to 8, so that struct reads a narrow field as an int."""
    width = (state_count + 7) // 8
    return width if width > 8 else 1 << max(width - 1, 0).bit_length()


def _index(nfa: Nfa, direction: str) -> dict:
    """Per letter, in alphabet order, a dict from each state with moves on it
    to the sorted tuple of its successors (BACKWARD: predecessors)."""
    here, there = (0, 2) if direction == FORWARD else (2, 0)
    index = {a: {} for a in nfa.alphabet}
    for triple in nfa.transitions:
        index[triple[1]].setdefault(triple[here], []).append(triple[there])
    # In place: no second dict is built while the lists are alive.
    for column in index.values():
        for q, states in column.items():
            states.sort()
            column[q] = tuple(states)
    return index


def _pack(index: dict, n: int) -> dict:
    """Per state q of ``index`` (an _index table on n states), an int with
    bit ``8 * _byte_width(n) * j + r`` set iff r is in q's letter j tuple."""
    width = _byte_width(n)
    rows = {q: bytearray(len(index) * width) for q in set().union(*index.values())}
    for offset, column in zip(count(0, width), index.values()):
        for q, targets in column.items():
            row = rows[q]
            for r in targets:
                row[offset + (r >> 3)] |= 1 << (r & 7)
    return {q: int.from_bytes(row, "little") for q, row in rows.items()}


def _tables_of(nfa: Nfa):
    """Call-scoped tables of ``nfa``: ``tables(d)`` is its _index in
    direction d and ``tables(d, True)`` the _pack rows of that, built once.
    No reference cycle: dropping ``tables`` frees them at once."""
    index = cache(partial(_index, nfa))
    return cache(lambda d, packed=False: _pack(index(d), nfa.state_count) if packed else index(d))


def count_accepting_runs(nfa: Nfa, word) -> int:
    """Exact number of accepting runs of ``word``.

    A run is a path through the transition relation that starts in an
    initial state and consumes the whole word; it is accepting when it ends
    in a final state.  Counted by dynamic programming over word positions on
    a forward index built per call: transitions + len(word) * transitions,
    not the number of runs.  The word is accepted iff the result is positive.
    """
    index = _index(nfa, FORWARD)
    counts = dict.fromkeys(nfa.initial, 1)
    for a in word:
        rows = index.get(a)
        if rows is None:
            raise ValueError(f"symbol not in alphabet: {a!r}")
        nxt = {}
        for q, c in counts.items():
            for r in rows.get(q, ()):
                nxt[r] = nxt.get(r, 0) + c
        counts = nxt
    return sum(c for q, c in counts.items() if q in nfa.final)


def _pair_search(nfa: Nfa, parent: dict, index: dict, seeds, allowed=None, live=None):
    """Breadth-first search over pairs of states stepped in lockstep along
    ``index``, an _index table, from the pairs of ``seeds`` (the initial
    states forward, the final ones backward), generating the pairs in
    discovery order, each as it is discovered.

    A pair (p, q) is coded as the int ``p * n + q``.  When ``allowed`` is
    given, only pairs in it are visited and the seed pairs are read off
    it, sorted, which is the nested loop's order.  The empty dict
    ``parent`` gets ``code -> (parent code, symbol)`` (seeds map to None)
    as the search goes, which stops where its caller does.  With ``live``,
    rows by state (bit q of live[p] for the pair (p, q)) that the caller
    clears as it finds pairs dead, only live pairs are discovered; one
    dead when the search resumes after it leaves ``parent`` and the queue,
    and one that dies while queued is not expanded.  Seeds are enumerated,
    never stored ahead.  Deterministic: seeds, alphabet and successor
    tuples are all ordered.
    """
    n = nfa.state_count
    columns = list(index.items())
    if allowed is None:
        ordered = sorted(seeds)
        mask = _mask(ordered)
        codes = (p * n + q for p in ordered for q in _bits(mask if live is None else mask & live[p]))
    else:
        codes = sorted(code for code in allowed if code // n in seeds and code % n in seeds)
    # Iterating a list visits what is appended during the loop, which makes
    # the discovery order the breadth-first queue.
    order = []

    def discoveries():
        yield from zip(codes, repeat(None))
        for code in order:
            p, q = divmod(code, n)
            if live is not None and not live[p] >> q & 1:
                continue
            for a, rows in columns:
                targets = rows.get(q)
                if not targets:
                    continue
                link = (code, a)
                for p2 in rows.get(p, ()):
                    base = p2 * n
                    for q2 in targets:
                        child = base + q2
                        if child not in parent and (allowed is None or child in allowed) and (
                            live is None or live[p2] >> q2 & 1
                        ):
                            yield child, link

    for code, link in discoveries():
        parent[code] = link
        yield code
        if live is None or live[code // n] >> code % n & 1:
            order.append(code)
        else:
            del parent[code]


def _trace_word(parent, code, reverse: bool) -> Word:
    """Word along the parent chain from ``code`` back to a seed."""
    symbols = []
    link = parent[code]
    while link is not None:
        code, a = link
        symbols.append(a)
        link = parent[code]
    return tuple(reversed(symbols) if reverse else symbols)


# Pairs are packed rows while n * n * (|alphabet| + 1) is at most this many
# bits: the live rows alone take n * n bits whatever the input holds.
# Above it pairs are searched one by one, in full (DFAs never get here:
# is_unambiguous answers them first).
_PAIR_BITS = 1 << 24


def _pair_kernel(index: dict, packed: dict, n: int):
    """(rows, moves, fields, full) for pair rows (bit q of row p for the
    pair (p, q)) stepped along ``index`` and ``packed``, an _index table
    and its _pack rows.  Indexed by state: rows[q] is packed[q] (0 without
    transitions), letter j in the field from bit j * f, f = 8 *
    _byte_width(n), moves[p] is p's (j * f, targets) in letter order and
    fields[p] has the bits of those letters' fields.  Row p's bits q step
    on letter j to the bits of ``image >> j * f & full``, image the OR of
    their rows[q]; none do when ``image & fields[p]`` is 0."""
    width = _byte_width(n)
    rows = [packed.get(q, 0) for q in range(n)]
    moves = [[] for _ in range(n)]
    for shift, column in zip(count(0, 8 * width), index.values()):
        for p, targets in column.items():
            moves[p].append((shift, targets))

    @cache
    def fields(shifts):
        ones = bytearray(len(index) * width)
        for shift in shifts:
            ones[shift >> 3:(shift >> 3) + width] = b"\xff" * width
        return int.from_bytes(ones, "little")

    # One per set of letters: a DFA's states share a few.
    return rows, moves, [fields(tuple(shift for shift, _ in row)) for row in moves], (1 << 8 * width) - 1


def _pair_layers(kernel, seeds: dict, within: list, left: dict):
    """Generate, seeds first, the breadth-first layers of the pairs
    reachable from the rows ``seeds`` along ``kernel`` through pairs of
    ``within`` (rows by state), all as rows.  The empty dict ``left`` gets,
    for each state a layer holds, the bits of its within row in no layer
    yet.  The cost follows the layers."""
    rows, moves, fields, full = kernel
    left.update((p, within[p] & ~row) for p, row in seeds.items())
    layer = seeds
    while layer:
        yield layer
        reached = {}
        for p, mask in layer.items():
            image = 0
            while mask:
                low = mask & -mask
                image |= rows[low.bit_length() - 1]
                mask ^= low
            if not image & fields[p]:
                continue
            for shift, targets in moves[p]:
                found = image >> shift & full
                if found:
                    for p2 in targets:
                        reached[p2] = reached.get(p2, 0) | found
        layer = {}
        for p, mask in reached.items():
            unseen = left.get(p, within[p])
            new = mask & unseen
            if new:
                layer[p] = new
                left[p] = unseen ^ new


def _cone_parents(nfa: Nfa, tables, seen: dict, target: int) -> dict:
    """The backward pair search's parent links from ``target``, the
    witness pair X, to a seed: _pair_search replayed on ``seen``, the rows
    of the pairs X's probe saw (_witness_pair), read off ``tables`` (see
    _tables_of), and stopped at X.

    Those pairs hold X's cone, the pairs on its shortest paths to a final
    pair, and are all forward pairs, so the replay gives each cone pair
    the parent of the full search over the forward pairs.  Let cone pair
    Y be k steps from a final pair.  A pair Z that Y steps to and that
    either search queues at depth k - 1 is at most k - 1 steps from a
    final pair and at most one step farther from X than Y, so it is on a
    shortest path from X: in the cone.  So Y's candidate parents are the
    same cone pairs in both searches, and by induction on k the cone
    pairs keep their queue order, parents and letters: the witness word
    is the full search's.
    """
    n = nfa.state_count
    allowed = {s * n + q for s, row in seen.items() for q in _bits(row)}
    parent = {}
    next(code for code in _pair_search(nfa, parent, tables(BACKWARD), nfa.final, allowed) if code == target)
    return parent


def _witness_pair(nfa: Nfa, fwd_parent: dict, tables, forward):
    """(witness pair code or None, the rows its probe saw, live rows) on
    ``tables`` (see _tables_of) and ``forward``, their forward _pair_kernel.

    Each pair of distinct states that the forward search (filling
    ``fwd_parent``) discovers live starts a probe: breadth-first layers
    forward from it through live pairs.  A probe that closes without a
    pair of final states clears all it saw from the live rows, so each
    pair is seen by at most one such probe.  The first probe to meet a
    final pair, at layer d, gives the witness pair X and, as rows by
    state, the pairs of its layers 0..d less those of layer d that are
    not pairs of final states: the pairs within distance d - 1 of X
    through live pairs and the final pairs at distance d.
    """
    n = nfa.state_count
    final = _mask(nfa.final)
    live = [(1 << n) - 1] * n
    for code in _pair_search(nfa, fwd_parent, tables(FORWARD), nfa.initial, live=live):
        p, q = divmod(code, n)
        if p == q or not live[p] >> q & 1:
            continue
        left = {}
        for layer in _pair_layers(forward, {p: 1 << q}, live, left):
            if any(final >> s & 1 and row & final for s, row in layer.items()):
                seen = {s: live[s] ^ unseen for s, unseen in left.items()}
                for s, row in layer.items():
                    seen[s] ^= row & ~final if final >> s & 1 else row
                return code, seen, live
        for s, unseen in left.items():
            live[s] = unseen
    return None, {}, live


def _unambiguity(nfa: Nfa, tables=None):
    """(the forward-reachable pairs as (p, q) tuples in no set order,
    produced lazily, and None) when no word has two accepting runs, else
    (None, a witness word), read off ``tables`` (see _tables_of) or its own.

    The witness pair X is the first pair of distinct states in forward
    discovery order from which a common word leads to a pair of final
    states.  Up to _PAIR_BITS the pairs are packed rows and each candidate
    is probed (_witness_pair).  A pair that steps to one leading to a
    final pair leads to one too, so pruning dead pairs keeps the order and
    parents of those that do, X's among them.  X's backward per-pair
    search is replayed on the pairs X's probe saw (_cone_parents), which
    keeps the full search's parents on X's cone.  A yes answer costs one
    pass over the forward pairs.  Above _PAIR_BITS both per-pair searches
    run in full, the backward one only over the forward pairs, which keeps
    their order, parents and layers: a pair Y discovers X only when X
    steps to Y.
    """
    n = nfa.state_count
    tables = tables or _tables_of(nfa)
    fwd_parent, bwd_parent = {}, {}
    if n * n * (len(nfa.alphabet) + 1) > _PAIR_BITS:
        # No live rows, so no parent entry is deleted: fwd_parent keeps discovery order.
        fwd_search = _pair_search(nfa, fwd_parent, tables(FORWARD), nfa.initial)
        for _ in chain(fwd_search, _pair_search(nfa, bwd_parent, tables(BACKWARD), nfa.final, fwd_parent)):
            pass
        pairs = (divmod(code, n) for code in fwd_parent)
        target = next((code for code in fwd_parent if code in bwd_parent and code // n != code % n), None)
    else:
        forward = _pair_kernel(tables(FORWARD), tables(FORWARD, True), n)
        target, seen, live = _witness_pair(nfa, fwd_parent, tables, forward)
        full = (1 << n) - 1
        if target is None:
            # Each forward pair is dead, seen by a probe that closed, or a
            # pair (q, q) that the search kept live: no second pass.
            dead = ((p, q) for p, row in enumerate(live) for q in _bits(full ^ row))
            pairs = chain(dead, (divmod(code, n) for code in fwd_parent if live[code // n] >> code % n & 1))
        else:
            bwd_parent = _cone_parents(nfa, tables, seen, target)
    if target is None:
        return pairs, None
    return None, _trace_word(fwd_parent, target, True) + _trace_word(bwd_parent, target, False)


def is_unambiguous(nfa: Nfa, *, _tables=None):
    """Whether no word has two accepting runs.

    Ambiguity holds iff some pair of distinct states is both reachable from
    the initial states and co-reachable to the final states along common
    words (Weber & Seidl, TCS 1991).  Both are searched over state pairs,
    so no words are enumerated: each forward candidate is probed forward,
    and the search stops at the first one that meets a pair of final
    states (see _unambiguity).  Returns (True, None) or (False, witness)
    where the witness word has at least two accepting runs.  An input with
    at most one initial state and one successor per (state, letter), or
    its mirror image, has at most one run per word: one set of its (source,
    letter), or (letter, target), pairs answers it yes with no index.
    """
    for ends, key in ((nfa.initial, slice(2)), (nfa.final, slice(1, 3))):
        if len(ends) <= 1 and len({t[key] for t in nfa.transitions}) == len(nfa.transitions):
            return True, None
    _, witness = _unambiguity(nfa, _tables)
    return witness is None, witness


@dataclass(frozen=True)
class SubsetAutomaton:
    """Result of a forward or backward subset construction.

    ``masks`` lists the discovered subsets of base states in breadth-first
    order, each as an int with bit q set iff base state q is a member; only
    subsets actually reached appear (the empty subset, mask 0, included
    exactly when it is reached).  State 0 is the seed subset: the initial
    set forward, the final set backward.  ``cells`` is the transition
    table, row-major in one array, ``array("H")`` of 2 bytes a cell when
    the construction's cap is at most 2**16, else ``array("I")``:
    ``cells[i * w + j]``, with ``w = len(base.alphabet)``, is the image of
    state ``i`` under ``base.alphabet[j]``; in the backward direction the
    image is the one-letter preimage, so viewed as an automaton the edge
    runs from the image back to ``i``.  ``marked`` holds the states whose
    subset meets base.final (forward) or base.initial (backward).  Only
    _determinize builds instances, so the fields are not re-validated; a
    side that is only counted gets none.
    """

    base: Nfa
    direction: str
    masks: tuple
    cells: array
    marked: frozenset

    @property
    def state_count(self) -> int:
        return len(self.masks)

    def _to_nfa(self, marked) -> Nfa:
        alphabet = self.base.alphabet
        # Each cell's row number and letter, in the cells' order.
        rows = chain.from_iterable(map(repeat, range(self.state_count), repeat(len(alphabet))))
        letters = chain.from_iterable(repeat(alphabet, self.state_count))
        seed = frozenset({0})
        if self.direction == FORWARD:
            triples, initial, final = zip(rows, letters, self.cells), seed, marked
        else:
            triples, initial, final = zip(self.cells, letters, rows), marked, seed
        return Nfa._trusted(self.state_count, alphabet, frozenset(triples), initial, final)

    def as_nfa(self) -> Nfa:
        """The construction as a plain automaton for the base language.

        Forward: a complete deterministic automaton.  Backward: a complete
        backward-deterministic automaton, i.e. one final state and exactly
        one incoming edge per (state, symbol); such an automaton has at
        most one accepting run per word, so it is unambiguous.
        """
        return self._to_nfa(self.marked)

    @property
    def unmarked(self) -> frozenset:
        """The states not in ``marked``: the complement's marking."""
        return frozenset(range(self.state_count)) - self.marked

    def as_complement_nfa(self) -> Nfa:
        """Same structure with marked and unmarked states swapped.

        Swapping the accepting side of a complete forward- or
        backward-deterministic automaton complements its language, so the
        result recognizes exactly the words the base automaton rejects.
        """
        return self._to_nfa(self.unmarked)


def _mask(states) -> int:
    return sum(map((1).__lshift__, states))


# A batch's images fill about this many table cells, a cell wider than 8
# bytes counting once per 8 bytes.
_BATCH_CELLS = 1 << 12


def _part(packed: dict, base: int, byte: int) -> int:
    """The OR of ``packed[base + i]`` over the set bits i of the nonzero
    ``byte``; a one-bit byte gives its packed row itself, not a copy."""
    return reduce(or_, [packed.get(base + i, 0) for i in range(8) if byte >> i & 1])


def _row_images(stripes, parts, tables, lanes: int):
    """A narrow batch's images, ``lanes`` bytes a subset, joined row-major:
    each is the OR of its bytes' parts, ``stripes[i]`` holding byte i of
    each subset and ``parts[i]`` that column's _part memo, filled for it."""
    found = reduce(partial(map, or_), map(map, (part.__getitem__ for part in parts), stripes))
    return b"".join(map(int.to_bytes, found, repeat(lanes), repeat("little")))


def _column_images(stripes, parts, tables: list, lanes: int):
    """_row_images's result, one byte lane at a time: lane b ORs, over the
    columns i, ``stripes[i]`` translated by a table of byte b of each
    parts[i] entry, and one strided slice writes it.  ``tables`` keeps per
    column its tables (b's from 256 * b) and how many entries they hold."""
    if not tables:
        tables += ([bytearray(256 * lanes), 0] for _ in parts)
    for entry, part in zip(tables, parts):
        for byte, image in islice(part.items(), entry[1], None):
            entry[0][byte::256] = image.to_bytes(lanes, "little")
        entry[1] = len(part)
    size = len(stripes[0])
    joined = bytearray(size * lanes)
    for b in range(lanes):
        lane = 0
        for stripe, (table, _) in zip(stripes, tables):
            lane |= int.from_bytes(stripe.translate(table[256 * b:256 * b + 256]), "little")
        joined[b::lanes] = lane.to_bytes(size, "little")
    return joined


class _Numbering(dict):
    """The state numbers of a construction's ``subsets``, a list it
    extends: a subset looked up for the first time is numbered next,
    after the cap check."""

    def __init__(self, subsets: list, direction: str, cap: int):
        super().__init__(zip(subsets, count()))
        self.subsets, self.direction, self.cap = subsets, direction, cap

    def __missing__(self, subset):
        number = len(self.subsets)
        if number >= self.cap:
            raise CapExceededError(self.direction, self.cap, number)
        self[subset] = number
        self.subsets.append(subset)
        return number


def _rectangles(index: dict):
    """(moves, targets) when each letter of ``index`` (an _index table) is
    a rectangle, moving every state that has moves on it to one set T,
    else None: ``targets[j]`` is letter j's T as a mask (0 for a letter
    with no moves), and ``moves`` maps each state with moves to an int with
    bit j set iff it has moves on letter j."""
    targets = []
    for column in index.values():
        values = iter(column.values())
        first = next(values, ())
        if any(map(first.__ne__, values)):
            return None
        targets.append(_mask(first))
    rows = {q: bytearray(len(targets) + 7 >> 3) for q in set().union(*index.values())}
    for j, column in enumerate(index.values()):
        for q in column:
            rows[q][j >> 3] |= 1 << (j & 7)
    return {q: int.from_bytes(row, "little") for q, row in rows.items()}, targets


def _steps_of(tables, direction: str):
    """What _determinize steps on in ``direction``, read off ``tables``
    (see _tables_of): (the _rectangles of its index, None) when all its
    letters are rectangles, else (None, its _pack rows)."""
    rectangles = _rectangles(tables(direction))
    return (rectangles, None) if rectangles else (None, tables(direction, True))


def _letters_hit(moves: dict, mask: int) -> int:
    """The OR of ``moves[q]`` (see _rectangles) over the members q of
    ``mask``: the letters on which some member has moves."""
    return reduce(or_, map(moves.get, _bits(mask), repeat(0)), 0)


# Turns the digits of a set of letters, one "0" or "1" each, into one
# byte each, all ones where the letter is in the set.
_SPREAD = bytes.maketrans(b"01", b"\x00\xff")


def _rectangle_rows(rectangles, subsets: list, numbering, typecode):
    """The rows of the breadth-first worklist ``subsets`` (seed first,
    extended in place) on ``rectangles`` (see _rectangles), as one
    row-major array of ``typecode`` cells; with no typecode, only the
    subsets, and None.

    A row's image under letter j is T_j if the row hits j (a member has
    moves on it), else the empty set, so one _letters_hit per row gives
    it.  New images are numbered by ``numbering`` (a _Numbering) where a
    row-major pass meets them: the T_j of letters hit for the first time,
    in letter order, and the empty set at the row's first missed letter.
    The cells of a row are ``zero ^ (diff & spread)`` on ints of its
    bytes: ``zero`` holds the empty set's number in every cell, ``diff``
    each T_j's number XOR that, and ``spread`` cell j all ones iff j is
    hit.  Every image is the empty set or a T, so a count stops once all
    of them are known.
    """
    moves, targets = rectangles
    letters = len(targets)
    images = len({0, subsets[0], *targets})
    number = numbering.__getitem__
    cells = array(typecode or "I")
    # numbers[j] is T_j's number once j is hit; seen has the letters hit.
    numbers = array(cells.typecode, bytes(letters * cells.itemsize))
    spread = bytearray(letters * cells.itemsize)
    empty = None if subsets[0] else 0
    seen = zero = diff = 0
    for mask in subsets:
        if not typecode and len(subsets) == images:
            break
        hits = _letters_hit(moves, mask)
        # Byte j all ones iff letter j is hit.
        flags = bin(hits | 1 << letters)[:2:-1].encode().translate(_SPREAD)
        # The letters hit for the first time and, while the empty set is
        # unknown, the first letter missed, in letter order.
        new = hits & ~seen | (~hits & hits + 1 & (1 << letters) - 1 if empty is None else 0)
        seen |= hits
        # Read off the digits: _bits would take time quadratic in letters.
        for j in compress(count(), bin(new)[:1:-1].encode().translate(_SPREAD)):
            if flags[j]:
                numbers[j] = number(targets[j])
            else:
                empty = number(0)
        if new and typecode:
            zero = int.from_bytes(array(typecode, [empty or 0]) * letters, "little")
            diff = int.from_bytes(numbers, "little") ^ zero
        if typecode:
            # Each flag widened to a cell.
            for k in range(cells.itemsize):
                spread[k::cells.itemsize] = flags
            row = zero ^ (diff & int.from_bytes(spread, "little"))
            cells.frombytes(row.to_bytes(len(spread), "little"))
    return cells if typecode else None


def _packed_rows(packed: dict, n: int, letters: int, subsets: list, numbering, typecode):
    """_rectangle_rows's result for an automaton on n states and
    ``letters`` letters, one of which is no rectangle (so n > 1 and
    letters > 0), stepped on its _pack rows ``packed``: the worklist is
    taken in batches, whose images are computed together, row-major in one
    flat tuple of int fields.  Masks of at most 8 bytes are striped by byte
    column; a batch of more subsets than its images have bytes (lanes) is
    stepped by lane (_column_images), any other by subset (_row_images).
    With a typecode, one pass of ``numbering`` lookups turns a batch's
    images into its rows, a new subset numbered where it first occurs.
    Without, a batch's new subsets, one set difference from the known
    ones, join the worklist in set order.
    """
    width = _byte_width(n)
    # packed[q] holds q's one-letter image under letter j in bytes
    # [j * width, (j + 1) * width); n * letters * width bytes in all.
    narrow = width <= 8
    lanes = letters * width
    size = max(1, _BATCH_CELLS // (letters * -(-width // 8)))
    # Memos of _part, keyed by what is used, as n may be huge: per byte
    # column i by byte when narrow, else one by 256 * i + byte.
    parts = [{0: 0} for _ in range((n + 7) // 8)] if narrow else {}
    # _column_images's, made on its first call.
    lane_tables = []
    if narrow:
        code = {1: "B", 2: "H", 4: "I", 8: "Q"}[width]
    else:
        # Cuts an image's bytes into its letter fields, a tuple also for
        # one letter (itemgetter of one slice returns it bare).
        fields = map(slice, range(0, lanes, width), range(width, lanes + width, width))
        cut = itemgetter(*fields) if letters > 1 else lambda piece: (piece,)

    def image(mask):
        found = 0
        # One step per nonzero byte of the mask, lowest first.
        while mask:
            shift = (mask & -mask).bit_length() - 1 & ~7
            byte = mask >> shift & 255
            mask ^= byte << shift
            if shift << 5 | byte not in parts:
                parts[shift << 5 | byte] = _part(packed, shift, byte)
            found |= parts[shift << 5 | byte]
        return found

    def images(batch):
        """The images of the subsets of ``batch``, row-major in one flat
        tuple: ``letters`` fields per subset, in batch order."""
        if narrow:
            # Stripe i holds byte i of each subset.  By lane when that
            # takes fewer calls: lanes x columns, not subsets x columns.
            joined = struct.pack(f"<{len(batch)}{code}", *batch)
            stripes = [joined[i::width] for i in range(len(parts))]
            for i, stripe in enumerate(stripes):
                # A memo of all 256 bytes needs no fill.
                if len(parts[i]) < 256:
                    parts[i].update((byte, _part(packed, 8 * i, byte)) for byte in set(stripe).difference(parts[i]))
            kernel = _column_images if lanes < len(batch) else _row_images
            return struct.unpack(f"<{len(batch) * letters}{code}", kernel(stripes, parts, lane_tables, lanes))
        found = map(int.to_bytes, map(image, batch), repeat(lanes), repeat("little"))
        return tuple(map(int.from_bytes, chain.from_iterable(map(cut, found)), repeat("little")))

    if typecode:
        number = numbering.__getitem__
        # Numbers stay below the cap.  struct.pack's native "=" layout is
        # the array's; fromlist on "H" parses each item slowly.
        cells = array(typecode)
    else:
        known = set(subsets)
    done = 0
    while done < len(subsets):
        batch = subsets[done:done + size]
        done += len(batch)
        found = images(batch)
        if typecode:
            cells.frombytes(struct.pack(f"={len(found)}{typecode}", *map(number, found)))
        else:
            new = set(found) - known
            # Checked before storing, so the partial count is the cap, as
            # when rows are kept.
            if len(known) + len(new) > numbering.cap:
                raise CapExceededError(numbering.direction, numbering.cap, numbering.cap)
            known |= new
            subsets += new
    return cells if typecode else None


def _determinize(nfa: Nfa, direction: str, cap: int, steps=None, rows: bool = True):
    """The subset construction in ``direction``, as a SubsetAutomaton, on
    ``steps`` (see _steps_of), else on its own.

    One breadth-first worklist of int masks is stepped, by
    _rectangle_rows when each letter's moves all lead to one set T (they
    start at one state, or end at one, as in bridge.graph_to_ufa's
    automata), else by _packed_rows.  With ``rows``, the rows are appended
    to the construction's ``cells``, one row-major ``array("H")`` when
    ``cap`` is at most 2**16, else ``array("I")``.  Without, the return
    value is the number of subsets, with no table or ``marked``.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    seed, mark_against = (nfa.initial, nfa.final) if direction == FORWARD else (nfa.final, nfa.initial)
    rectangles, packed = steps or _steps_of(_tables_of(nfa), direction)
    subsets = [_mask(seed)]
    numbering = _Numbering(subsets, direction, cap)
    typecode = ("H" if cap <= 1 << 16 else "I") if rows else None
    if rectangles:
        cells = _rectangle_rows(rectangles, subsets, numbering, typecode)
    else:
        cells = _packed_rows(packed, nfa.state_count, len(nfa.alphabet), subsets, numbering, typecode)
    if not rows:
        return len(subsets)
    against = _mask(mark_against)
    marked = frozenset(compress(count(), map(against.__and__, subsets)))
    return SubsetAutomaton(nfa, direction, tuple(subsets), cells, marked)


def forward_determinize(nfa: Nfa, cap: int = DEFAULT_CAP, *, _steps=None) -> SubsetAutomaton:
    """Subset construction from the initial set.

    Discovers exactly the subsets reachable by one-letter images, breadth
    first, seed first.  Raises CapExceededError once more than ``cap``
    subsets would be recorded.  ``_steps``: complement_construction's
    (see _determinize).
    """
    return _determinize(nfa, FORWARD, cap, _steps)


def backward_determinize(nfa: Nfa, cap: int = DEFAULT_CAP, *, _steps=None) -> SubsetAutomaton:
    """Subset construction from the final set along reversed transitions.

    Mirror image of forward_determinize; the resulting automaton is
    backward-deterministic and hence unambiguous.
    """
    return _determinize(nfa, BACKWARD, cap, _steps)


@dataclass(frozen=True)
class BoundReport:
    """Sizes from one automaton: ``n`` input states and the forward and
    backward construction sizes ``k`` and ``l`` (None when that side hit
    the cap), against the upper bound sqrt(n + 1) * 2**(n / 2) on min(k, l)
    and the lower bound at half of it, both compared on exact squares."""

    n: int
    k: int
    l: int

    def __post_init__(self):
        if self.k is None and self.l is None:
            raise ValueError("at least one construction size is required")

    @property
    def chosen(self) -> str:
        """The side a complement keeps: the smaller known size, ties forward."""
        if self.l is None or (self.k is not None and self.k <= self.l):
            return FORWARD
        return BACKWARD

    @property
    def result_states(self) -> int:
        """States in the complement: the size of the chosen side."""
        return self.k if self.chosen == FORWARD else self.l

    @property
    def bound_sq(self) -> int:
        """Exact square of the state bound: (n + 1) * 2**n."""
        return (self.n + 1) * (1 << self.n)

    @property
    def within_bound(self) -> bool:
        """result_states**2 <= (n + 1) * 2**n, exactly."""
        return self.result_states**2 <= self.bound_sq

    @property
    def holds_lower(self) -> bool:
        """Both sizes are known and clear the halved bound:
        4k**2 and 4l**2 >= (n + 1) * 2**n."""
        return all(size is not None and 4 * size**2 >= self.bound_sq for size in (self.k, self.l))

    @property
    def holds(self) -> bool:
        return self.within_bound and self.holds_lower


def measure_constructions(nfa: Nfa, cap: int = DEFAULT_CAP) -> BoundReport:
    """Count both constructions on ``nfa`` and report both sizes.

    Neither side builds a transition table.  A side that exceeds ``cap``
    raises its CapExceededError, with its partial count; the forward side
    runs first, so its error stops the backward side from starting.
    """
    k = _determinize(nfa, FORWARD, cap, rows=False)
    l = _determinize(nfa, BACKWARD, cap, rows=False)
    return BoundReport(nfa.state_count, k, l)


def complement_construction(nfa: Nfa, cap: int = DEFAULT_CAP):
    """The subset construction whose swapped marking complements an
    unambiguous automaton.

    Counts both subset constructions, then builds only the smaller (ties
    keep forward) with its transition table, through forward_determinize
    or backward_determinize; it has min(k, l) states, which for unambiguous
    input never exceeds sqrt(n + 1) * 2**(n / 2).  The build's cap is that
    counted size, which it reaches and never passes, so a table of at most
    2**16 states has 2-byte cells.  The ambiguity check, the counts and the
    build share one _tables_of.  Returns (SubsetAutomaton, BoundReport).

    Raises AmbiguousAutomatonError (carrying a witness word) when the input
    is ambiguous.  A side that exceeds ``cap`` is dropped from the choice
    and reported as None; when both sides exceed it, CapExceededError with
    direction "both" is raised.
    """
    tables = _tables_of(nfa)
    ok, witness = is_unambiguous(nfa, _tables=tables)
    if not ok:
        raise AmbiguousAutomatonError(witness)
    steps, sizes = {}, []
    for direction in (FORWARD, BACKWARD):
        steps[direction] = _steps_of(tables, direction)
        try:
            sizes.append(_determinize(nfa, direction, cap, steps[direction], rows=False))
        except CapExceededError:
            sizes.append(None)
    if sizes == [None, None]:
        raise CapExceededError("both", cap, cap)
    report = BoundReport(nfa.state_count, *sizes)
    construct = forward_determinize if report.chosen == FORWARD else backward_determinize
    # Only the chosen side's steps are kept through the build.
    kept, steps, tables = steps[report.chosen], None, None
    return construct(nfa, report.result_states, _steps=kept), report


def complement_ufa(nfa: Nfa, cap: int = DEFAULT_CAP):
    """Complement an unambiguous automaton.

    Swaps the marked set of complement_construction's choice: the result
    recognizes exactly the rejected words, is itself unambiguous, and has
    min(k, l) states.  Returns (complement, BoundReport); raises as
    complement_construction does.
    """
    construction, report = complement_construction(nfa, cap)
    return construction.as_complement_nfa(), report
