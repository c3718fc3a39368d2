"""Nondeterministic finite automata with exact run counting, ambiguity
checking, and subset determinization in both directions.

States are plain integers ``0..state_count-1``; words are tuples of symbol
labels.  Everything here is pure: automata are frozen dataclasses and every
operation returns new values.

The subset constructions represent a subset of base states as an int mask
(bit q set iff state q is a member).  Each base state's one-letter images
for all letters are packed into one int, a subset's images are the OR of
memoized chunk images, one per nonzero byte of its mask, and the packed
result is unpacked into per-letter fields in one ``struct`` call.

is_unambiguous searches pairs of states, coded as ints p * n + q, forward
from the initial states and then backward from the final states over only
the pairs the forward search reached: on a DFA at most n pairs, not n**2.
Transition rows are built only for states that have transitions.

complement_construction picks the side a complement is built from.
complement_ufa turns it into an Nfa; the ``complement`` and ``determinize``
commands instead write the construction with
formats.write_subset_automaton, straight from its transition table in
time linear in the table's cells.
"""

import struct
from dataclasses import dataclass
from functools import cached_property

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

    def _check_state(self, q, role: str):
        if not isinstance(q, int) or q < 0 or q >= self.state_count:
            raise ValueError(
                f"{role} state {q!r} out of range for {self.state_count} states"
            )

    def _rows(self, here: int, there: int):
        """Per symbol, a list indexed by the state at position ``here`` of
        the transition triples, of the sorted tuple of states at position
        ``there``.  The triples are grouped first, so only states that have
        transitions get a tuple of their own; the rest share ``()``."""
        grouped = {}
        for triple in self.transitions:
            grouped.setdefault((triple[1], triple[here]), []).append(triple[there])
        rows = {a: [()] * self.state_count for a in self.alphabet}
        for (a, q), states in grouped.items():
            states.sort()
            rows[a][q] = tuple(states)
        return rows

    @cached_property
    def _succ(self):
        """Per symbol, per source state, the sorted tuple of successors."""
        return self._rows(0, 2)

    @cached_property
    def _pred(self):
        """Per symbol, per target state, the sorted tuple of predecessors."""
        return self._rows(2, 0)


def count_accepting_runs(nfa: Nfa, word) -> int:
    """Exact number of accepting runs of ``word``.

    A run is a path through the transition relation that starts in an
    initial state and consumes the whole word; it is accepting when it ends
    in a final state.  Counted by dynamic programming over word positions,
    so the cost is len(word) * transitions, not the number of runs.  The
    word is accepted iff the result is positive.
    """
    counts = [0] * nfa.state_count
    for q in nfa.initial:
        counts[q] = 1
    for a in word:
        rows = nfa._succ.get(a)
        if rows is None:
            raise ValueError(f"symbol not in alphabet: {a!r}")
        nxt = [0] * nfa.state_count
        for q, c in enumerate(counts):
            if c:
                for r in rows[q]:
                    nxt[r] += c
        counts = nxt
    return sum(counts[q] for q in nfa.final)


def _pair_search(nfa: Nfa, backward: bool = False, allowed=None):
    """Breadth-first search over pairs of states stepped in lockstep.

    Forward, the seeds are the pairs of initial states and a pair steps to
    the pairs of its successors; backward, the seeds are the pairs of final
    states and a pair steps to the pairs of its predecessors.  A pair
    (p, q) is coded as the int ``p * n + q``.  When ``allowed`` is given,
    only pairs in it are visited.  Returns the discovery order and a
    parent map ``code -> (parent code, symbol)`` (seeds map to None).
    Deterministic: seeds, alphabet, and successor tuples are all
    explicitly ordered.
    """
    n = nfa.state_count
    seeds = sorted(nfa.final if backward else nfa.initial)
    rows_by_symbol = nfa._pred if backward else nfa._succ
    columns = [(a, rows_by_symbol[a]) for a in nfa.alphabet]
    parent = {}
    for p in seeds:
        for q in seeds:
            code = p * n + q
            if allowed is None or code in allowed:
                parent[code] = None
    # Iterating a list visits what is appended during the loop, which makes
    # the discovery order the breadth-first queue.
    order = list(parent)
    for code in order:
        p, q = divmod(code, n)
        for a, rows in columns:
            targets = rows[q]
            if not targets:
                continue
            link = (code, a)
            for p2 in rows[p]:
                base = p2 * n
                for q2 in targets:
                    child = base + q2
                    if child not in parent and (allowed is None or child in allowed):
                        parent[child] = link
                        order.append(child)
    return order, parent


def _trace_word(parent, code, reverse: bool) -> Word:
    """Word along the parent chain from ``code`` back to a seed."""
    symbols = []
    link = parent[code]
    while link is not None:
        code, a = link
        symbols.append(a)
        link = parent[code]
    if reverse:
        symbols.reverse()
    return tuple(symbols)


def _unambiguity(nfa: Nfa):
    """The pairs of the forward pair search, as (p, q) tuples in discovery
    order (produced lazily, so they cost nothing unless read), and a
    witness word, or None when no word has two accepting runs.

    The backward search visits only forward-reachable pairs, which cannot
    change the witness.  Backward, a pair Y discovers a pair X only when X
    steps to Y on some letter, and if X is forward-reachable so is Y.  So
    no pruned pair discovers a kept one, and the kept pairs keep the
    discovery order and parents of the unpruned search.
    """
    fwd_order, fwd_parent = _pair_search(nfa)
    _, bwd_parent = _pair_search(nfa, backward=True, allowed=fwd_parent)
    n = nfa.state_count
    witness = None
    for code in fwd_order:
        if code in bwd_parent:
            p, q = divmod(code, n)
            if p != q:
                witness = _trace_word(fwd_parent, code, reverse=True) + _trace_word(
                    bwd_parent, code, reverse=False
                )
                break
    return (divmod(code, n) for code in fwd_order), witness


def is_unambiguous(nfa: Nfa):
    """Whether no word has two accepting runs.

    Ambiguity holds iff some pair of distinct states is both reachable from
    the initial states and co-reachable to the final states along common
    words (Weber & Seidl, TCS 1991); both sides are searched over state
    pairs, so no words are enumerated.  Returns (True, None) or (False,
    witness) where the witness word has at least two accepting runs.
    """
    _, witness = _unambiguity(nfa)
    return witness is None, witness


@dataclass(frozen=True)
class SubsetAutomaton:
    """Result of a forward or backward subset construction.

    ``masks`` lists the discovered subsets of base states in breadth-first
    order, each as an int with bit q set iff base state q is a member; only
    subsets actually reached appear (the empty subset, mask 0, included
    exactly when it is reached).  State 0 is the seed subset: the initial
    set forward, the final set backward.  ``transition_table[i][j]``
    is the image of state ``i`` under ``base.alphabet[j]``; in the backward
    direction the image is the one-letter preimage, so viewed as an
    automaton the edge runs from the image back to ``i``.  ``marked`` holds
    the states whose subset meets base.final (forward) or base.initial
    (backward).  Only _determinize builds instances, so the fields are not
    re-validated.
    """

    base: Nfa
    direction: str
    masks: tuple
    transition_table: tuple
    marked: frozenset

    @property
    def state_count(self) -> int:
        return len(self.masks)

    def _to_nfa(self, marked) -> Nfa:
        forward = self.direction == FORWARD
        # Built as a frozenset so that Nfa keeps it instead of copying it.
        triples = frozenset(
            (i, a, j) if forward else (j, a, i)
            for i, row in enumerate(self.transition_table)
            for a, j in zip(self.base.alphabet, row)
        )
        seed = frozenset({0})
        initial, final = (seed, marked) if forward else (marked, seed)
        return Nfa(self.state_count, self.base.alphabet, triples, initial, final)

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
    return sum(1 << q for q in states)


def _determinize(nfa: Nfa, direction: str, cap: int) -> SubsetAutomaton:
    if cap < 1:
        raise ValueError("cap must be positive")
    if direction == FORWARD:
        rows_by_symbol, seed, mark_against = nfa._succ, nfa.initial, nfa.final
    else:
        rows_by_symbol, seed, mark_against = nfa._pred, nfa.final, nfa.initial
    width = (nfa.state_count + 7) // 8 or 1
    # packed[q] holds q's one-letter image under alphabet[j] in bytes
    # [j * width, (j + 1) * width).  These rows take n * |alphabet| * width
    # bytes in all, quadratic in the state count.
    packed = [
        int.from_bytes(
            b"".join(_mask(rows_by_symbol[a][q]).to_bytes(width, "little") for a in nfa.alphabet),
            "little",
        )
        for q in range(nfa.state_count)
    ]
    fields = struct.Struct(f"{width}s" * len(nfa.alphabet))
    # parts[32 * shift + byte], for shift a multiple of 8: the OR of
    # packed[shift + i] over the bits i of byte, filled in on first use.
    parts = [None] * (256 * width)
    masks = [_mask(seed)]
    # Subsets are looked up by their width-byte little-endian encoding,
    # the form in which an unpacked image yields them.
    index = {masks[0].to_bytes(width, "little"): 0}
    lookup = index.get
    table = []
    # Iterating a list visits what is appended during the loop, which makes
    # this the breadth-first worklist.
    for mask in masks:
        image = 0
        # One step per nonzero byte of the mask, lowest first.
        while mask:
            shift = (mask & -mask).bit_length() - 1 & ~7
            byte = mask >> shift & 255
            mask ^= byte << shift
            part = parts[shift << 5 | byte]
            if part is None:
                # A one-bit byte keeps its packed row itself rather than a copy.
                members = [packed[shift + i] for i in range(8) if byte >> i & 1]
                part = members.pop()
                for other in members:
                    part |= other
                parts[shift << 5 | byte] = part
            image |= part
        images = fields.unpack(image.to_bytes(fields.size, "little"))
        row = tuple(map(lookup, images))
        if None in row:
            row = list(row)
            for j, target in enumerate(row):
                if target is None:
                    subset = images[j]
                    target = lookup(subset)
                    if target is None:
                        if len(masks) >= cap:
                            raise CapExceededError(direction, cap, len(masks))
                        target = index[subset] = len(masks)
                        masks.append(int.from_bytes(subset, "little"))
                    row[j] = target
            row = tuple(row)
        table.append(row)
    against = _mask(mark_against)
    marked = frozenset(i for i, mask in enumerate(masks) if mask & against)
    return SubsetAutomaton(nfa, direction, tuple(masks), tuple(table), marked)


def forward_determinize(nfa: Nfa, cap: int = DEFAULT_CAP) -> SubsetAutomaton:
    """Subset construction from the initial set.

    Discovers exactly the subsets reachable by one-letter images, breadth
    first, seed first.  Raises CapExceededError once more than ``cap``
    subsets would be recorded.
    """
    return _determinize(nfa, FORWARD, cap)


def backward_determinize(nfa: Nfa, cap: int = DEFAULT_CAP) -> SubsetAutomaton:
    """Subset construction from the final set along reversed transitions.

    Mirror image of forward_determinize; the resulting automaton is
    backward-deterministic and hence unambiguous.
    """
    return _determinize(nfa, BACKWARD, cap)


def _both_constructions(nfa: Nfa, cap: int) -> tuple:
    """Run the forward and then the backward construction.

    Returns (forward, backward), each the SubsetAutomaton or the
    CapExceededError that side raised.  The two constructions are looked
    up when called, not bound once, so wrappers installed on this module's
    functions see every call.
    """
    sides = []
    for construct in (forward_determinize, backward_determinize):
        try:
            sides.append(construct(nfa, cap))
        except CapExceededError as exc:
            # The traceback would keep the abandoned construction's frames,
            # up to ``cap`` subsets, alive while the other side runs.
            sides.append(exc.with_traceback(None))
    return tuple(sides)


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
    """Run both constructions on ``nfa`` and report both sizes.

    A side that exceeds ``cap`` raises its CapExceededError, with its
    partial count; the forward side runs first, so its error stops the
    backward side from starting.
    """
    forward = forward_determinize(nfa, cap)
    backward = backward_determinize(nfa, cap)
    return BoundReport(nfa.state_count, forward.state_count, backward.state_count)


def complement_construction(nfa: Nfa, cap: int = DEFAULT_CAP):
    """The subset construction whose swapped marking complements an
    unambiguous automaton.

    Runs both subset constructions and keeps the smaller (ties keep
    forward); it has min(k, l) states, which for unambiguous input never
    exceeds sqrt(n + 1) * 2**(n / 2).  Returns (SubsetAutomaton,
    BoundReport).

    Raises AmbiguousAutomatonError (carrying a witness word) when the input
    is ambiguous.  A side that exceeds ``cap`` is dropped from the choice
    and reported as None; when both sides exceed it, CapExceededError with
    direction "both" is raised.
    """
    ok, witness = is_unambiguous(nfa)
    if not ok:
        raise AmbiguousAutomatonError(witness)
    forward, backward = _both_constructions(nfa, cap)
    k = None if isinstance(forward, CapExceededError) else forward.state_count
    l = None if isinstance(backward, CapExceededError) else backward.state_count
    if k is None and l is None:
        raise CapExceededError("both", cap, cap)
    report = BoundReport(nfa.state_count, k, l)
    return (forward if report.chosen == FORWARD else backward), report


def complement_ufa(nfa: Nfa, cap: int = DEFAULT_CAP):
    """Complement an unambiguous automaton.

    Swaps the marked set of complement_construction's choice: the result
    recognizes exactly the rejected words, is itself unambiguous, and has
    min(k, l) states.  Returns (complement, BoundReport); raises as
    complement_construction does.
    """
    construction, report = complement_construction(nfa, cap)
    return construction.as_complement_nfa(), report
