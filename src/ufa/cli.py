"""Command-line front end.

Exit codes, uniform across subcommands: 0 success (and every checked bound
holds), 1 a checked bound fails, 2 precondition failure (unreadable or
malformed input, ambiguous automaton where an unambiguous one is required,
bad usage), 3 subset cap exceeded.

Each run prints one summary line of ``key=value`` pairs to stdout.
Commands that produce an automaton or graph write it to --output when
given, otherwise below the summary line.  All output is deterministic:
repeated runs on the same input are byte-identical.
"""

import argparse
import os
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path

from . import bridge, graphs
from .automata import (
    DEFAULT_CAP,
    FORWARD,
    AmbiguousAutomatonError,
    CapExceededError,
    backward_determinize,
    complement_construction,
    forward_determinize,
    is_unambiguous,
    word_text,
)
from .formats import (
    ParseError,
    parse_automaton,
    parse_graph,
    serialize_automaton,
    serialize_graph,
    write_subset_automaton,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PRECONDITION = 2
EXIT_CAP = 3

CAP_ENV_VAR = "UFA_CAP"

# verify-graphs enumerates all 2**(n*(n-1)/2) graphs and checks each one
# over all vertex subsets; past six vertices that is out of reach.
MAX_EXHAUSTIVE_N = 6


class _UsageError(Exception):
    pass


class _LetterCapError(Exception):
    """graph-to-ufa would make more letters than the cap: exit 3."""


def _resolve_cap(args) -> int:
    if args.cap is not None:
        cap = args.cap
    else:
        raw = os.environ.get(CAP_ENV_VAR)
        if raw is None:
            return DEFAULT_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise _UsageError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise _UsageError("cap must be positive")
    return cap


def _read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 is malformed input."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: bad byte at offset {exc.start}") from None


@contextmanager
def _output(args):
    """The --output file, opened for writing, when given; otherwise stdout."""
    if args.output is None:
        yield sys.stdout
        return
    with Path(args.output).open("w", encoding="utf-8") as stream:
        yield stream


def _emit(args, document: str):
    with _output(args) as stream:
        stream.write(document)


def _digits(value: int) -> str:
    """``value``, a nonnegative int, in decimal, however long.  Python
    refuses int-to-str conversions above a digit limit (4300 by default);
    (n + 1) * 2**n passes it at about 14,000 states.  Past the limit the
    int is split at a power-of-two bit width w into hi * 2**w + lo, and the
    halves are joined in exact decimal arithmetic, whose multiplication is
    subquadratic."""
    try:
        return str(value)
    except ValueError:
        # Imported here so that no command pays for it at start-up.
        from decimal import MAX_EMAX, MAX_PREC, Context, Decimal

    context = Context(prec=MAX_PREC, Emax=MAX_EMAX)
    powers = {}

    def power(w):
        # 2**w as a Decimal, for w a power of two of at least 8192.
        if w not in powers:
            half = w >> 1
            powers[w] = context.multiply(power(half), power(half)) if w > 8192 else Decimal(1 << w)
        return powers[w]

    def convert(n):
        if n.bit_length() <= 8192:
            return Decimal(n)
        w = 1 << (n.bit_length() - 1).bit_length() - 1
        hi, lo = n >> w, n & ((1 << w) - 1)
        return context.add(context.multiply(convert(hi), power(w)), convert(lo))

    return str(convert(value))


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _size_text(size, cap: int) -> str:
    return str(size) if size is not None else f">{cap}"


def cmd_complement(args) -> int:
    cap = _resolve_cap(args)
    nfa = parse_automaton(_read_text(args.input))
    construction, report = complement_construction(nfa, cap)
    side = "fwd" if report.chosen == FORWARD else "bwd"
    print(
        f"n={report.n} k={_size_text(report.k, cap)} l={_size_text(report.l, cap)} "
        f"chosen={side} states={report.result_states} bound_sq={_digits(report.bound_sq)}"
    )
    with _output(args) as stream:
        write_subset_automaton(construction, stream, complement=True)
    return EXIT_OK


def cmd_determinize(args) -> int:
    cap = _resolve_cap(args)
    nfa = parse_automaton(_read_text(args.input))
    construct = forward_determinize if args.direction == "fwd" else backward_determinize
    result = construct(nfa, cap)
    print(f"n={nfa.state_count} direction={args.direction} states={result.state_count}")
    with _output(args) as stream:
        write_subset_automaton(result, stream)
    return EXIT_OK


def cmd_check_unambiguous(args) -> int:
    nfa = parse_automaton(_read_text(args.input))
    ok, witness = is_unambiguous(nfa)
    if ok:
        print("unambiguous=yes")
        return EXIT_OK
    print(f"unambiguous=no witness={word_text(witness)}")
    return EXIT_PRECONDITION


def cmd_extract_graph(args) -> int:
    nfa = parse_automaton(_read_text(args.input))
    graph = bridge.extract_graph(nfa)
    print(f"n={graph.vertex_count} edges={len(graph.edges())}")
    _emit(args, serialize_graph(graph))
    return EXIT_OK


def cmd_graph_to_ufa(args) -> int:
    cap = _resolve_cap(args)
    graph = parse_graph(_read_text(args.input))
    # One letter per clique and coclique: counted, not listed, first.
    if graphs.count_cliques(graph) + graphs.count_cocliques(graph) > cap:
        raise _LetterCapError(
            f"letter limit exceeded: the graph has more cliques and cocliques "
            f"than the cap ({cap}), one letter each"
        )
    automaton = bridge.graph_to_ufa(graph)
    print(f"n={graph.vertex_count} letters={len(automaton.alphabet)}")
    _emit(args, serialize_automaton(automaton))
    return EXIT_OK


def cmd_count_cliques(args) -> int:
    graph = parse_graph(_read_text(args.input))
    report = graphs.verify_product_bound(graph)
    holds = report.holds and report.min_holds
    names = ("cliques", "cocliques", "product", "bound", "min_sq")
    values = (report.cliques, report.cocliques, report.product, report.bound, report.min_count**2)
    # One field at a time, so that only one number's digits are alive.
    sys.stdout.write(f"n={report.n}")
    for name, value in zip(names, values):
        sys.stdout.write(f" {name}=")
        sys.stdout.write(_digits(value))
    sys.stdout.write(f" holds={_yes_no(holds)}\n")
    return EXIT_OK if holds else EXIT_VIOLATION


def _nonnegative(value: int, flag: str) -> int:
    if value < 0:
        raise _UsageError(f"{flag} must be nonnegative, got {value}")
    return value


def _tightness_line(report) -> str:
    bound_sq = report.bound_sq
    # A quarter of (n + 1) * 2**n is whole for every n but 0, which prints 1/4.
    lower_sq = bound_sq // 4 if bound_sq % 4 == 0 else f"{bound_sq}/4"
    return (
        f"n={report.n} k={report.k} l={report.l} "
        f"lower_sq={lower_sq} upper_sq={bound_sq} holds={_yes_no(report.holds)}"
    )


def cmd_witness(args) -> int:
    cap = _resolve_cap(args)
    automaton, report = bridge._measure_witness(_nonnegative(args.n, "--n"), cap)
    print(_tightness_line(report))
    _emit(args, serialize_automaton(automaton))
    return EXIT_OK if report.holds else EXIT_VIOLATION


def cmd_verify_tightness(args) -> int:
    cap = _resolve_cap(args)
    all_hold = True
    for n in range(_nonnegative(args.max_n, "--max-n") + 1):
        report = bridge.verify_tightness(n, cap)
        # Flushed line by line, so that a closed stdout fails on the first
        # line, before any later n can hit the cap.
        print(_tightness_line(report), flush=True)
        all_hold = all_hold and report.holds
    return EXIT_OK if all_hold else EXIT_VIOLATION


def cmd_verify_graphs(args) -> int:
    if args.max_n > MAX_EXHAUSTIVE_N:
        raise _UsageError(f"--max-n must be at most {MAX_EXHAUSTIVE_N}")
    total_violations = 0
    for n in range(_nonnegative(args.max_n, "--max-n") + 1):
        count = 0
        violations = 0
        for graph in graphs.all_graphs(n):
            count += 1
            problems = graphs.check_graph_bounds(graph)
            if problems:
                violations += 1
                sys.stderr.write(serialize_graph(graph))
                for problem in problems:
                    print(f"violation: {problem}", file=sys.stderr)
        print(f"n={n} graphs={count} violations={violations}", flush=True)
        total_violations += violations
    return EXIT_OK if total_violations == 0 else EXIT_VIOLATION


# Built on the first main() call and reused: argparse reads the streams
# and COLUMNS when it formats a message, not when it builds, so a reused
# parser prints what a fresh one would.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ufa",
        description=(
            "Complement unambiguous finite automata via the smaller of the "
            "forward and backward subset constructions, and check the "
            "clique/coclique counting bounds behind that choice."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, reads=None, writes=False, capped=False):
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        if reads is not None:
            sub.add_argument("input", help=f"path to the {reads} file")
        if writes:
            sub.add_argument(
                "--output", "-o", default=None,
                help="write the result here instead of stdout",
            )
        if capped:
            sub.add_argument(
                "--cap", type=int, default=None,
                help=f"subset limit per construction (default {DEFAULT_CAP}, "
                f"or the {CAP_ENV_VAR} environment variable)",
            )
        sub.set_defaults(handler=handler)
        return sub

    add(
        "complement", cmd_complement,
        "complement an unambiguous automaton by the smaller construction",
        reads="automaton", writes=True, capped=True,
    )
    determinize = add(
        "determinize", cmd_determinize,
        "run one subset construction and emit it as an automaton",
        reads="automaton", writes=True, capped=True,
    )
    determinize.add_argument("--direction", choices=("fwd", "bwd"), required=True)
    add(
        "check-unambiguous", cmd_check_unambiguous,
        "exit 0 if no word has two accepting runs, else 2 with a witness",
        reads="automaton",
    )
    add(
        "extract-graph", cmd_extract_graph,
        "join states of an unambiguous automaton reachable by a common word",
        reads="automaton", writes=True,
    )
    add(
        "graph-to-ufa", cmd_graph_to_ufa,
        "build the unambiguous automaton with one letter per clique and coclique",
        reads="graph", writes=True, capped=True,
    )
    add(
        "count-cliques", cmd_count_cliques,
        "count cliques and cocliques and check the product bound",
        reads="graph",
    )
    witness = add(
        "witness", cmd_witness,
        "emit the n-state witness automaton and check both tightness bounds",
        writes=True, capped=True,
    )
    witness.add_argument("--n", type=int, required=True, help="number of states")
    tightness = add(
        "verify-tightness", cmd_verify_tightness,
        "check the witness bounds for every n up to --max-n",
        capped=True,
    )
    tightness.add_argument("--max-n", type=int, default=12)
    verify_graphs = add(
        "verify-graphs", cmd_verify_graphs,
        "exhaustively check the counting bounds on every graph up to --max-n",
    )
    verify_graphs.add_argument(
        "--max-n", type=int, default=4, help=f"at most {MAX_EXHAUSTIVE_N}"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        # A closed stdout fails here, as an OSError, whether or not the
        # stream is buffered, and not in the interpreter's final flush.
        sys.stdout.flush()
        return code
    except (_UsageError, ParseError, AmbiguousAutomatonError, OSError) as exc:
        code, line = EXIT_PRECONDITION, f"error: {exc}"
    except (CapExceededError, _LetterCapError) as exc:
        code, line = EXIT_CAP, f"error: {exc}"
    try:
        print(line, file=sys.stderr)
        sys.stdout.flush()
    except OSError:
        # stderr or stdout is a closed pipe: on os.devnull, neither
        # stream's final flush can turn the exit code into 120.
        null = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            os.dup2(null, stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
