"""The four workloads: their seeded inputs, their operations, and the check
each operation's output must pass.

A workload builder runs during set-up.  It writes its inputs through an
InputFiles and returns the operations; the program sees only those files
and command lines.  Every check compares against ref.py, gen.py or a
closed form, never against ufa itself.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import gen
import ref

WITNESS_NS = (12, 14, 16)
# The paper's witness sizes at n = 16; also what the closed form must give.
PINNED_WITNESS = {16: (1030, 704)}
LOPSIDED_NS = range(12, 20)
SMALL_GRAPHS = 300
SMALL_GRAPH_N = 6
DENSE_GRAPHS = ((50, 0.7), (60, 0.7))
# (cliques, cocliques) of the dense graphs at seed 1, counted once with
# networkx.enumerate_all_cliques (plus the empty clique).
PINNED_CLIQUES = {(1, 50): (277389, 1030), (1, 60): (857927, 1798)}
AMBIGUITY_SIZES = range(100, 200, 2)


class InputFiles:
    """The work directory that a workload's input files go to.

    ``write`` leaves a file alone when this run already wrote the same text
    to it, so only a run's first set-up creates the files.  On a shared VM
    the time to create a few hundred small files swung tenfold from one
    minute to the next; rewriting identical inputs at every set-up made
    setup_s follow the disk, not the program."""

    def __init__(self, root: Path):
        self.root = root
        self._written = {}

    def path(self, name: str) -> Path:
        return self.root / name

    def write(self, name: str, text: str) -> Path:
        if self._written.get(name) != text:
            self.path(name).write_text(text)
            self._written[name] = text
        return self.path(name)


@dataclass
class Op:
    name: str
    run: Callable[[], tuple]  # () -> (exit code, stdout)
    check: Callable[[int, str], tuple]  # (exit code, stdout) -> (problems, sizes)
    outputs: tuple = ()  # files the operation writes


def cli_op(cli, name, argv, check, outputs=()) -> Op:
    """An operation that runs ``ufa <argv>`` in-process, as a user would."""

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        return code, out.getvalue()

    return Op(name, run, check, tuple(outputs))


def _expect(code, stdout, want_code, want_stdout) -> list:
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if stdout != want_stdout:
        problems.append(f"stdout {stdout[:200]!r}, expected {want_stdout[:200]!r}")
    return problems


def _same_automaton(got: gen.Automaton, want: gen.Automaton) -> bool:
    return (
        got.states == want.states
        and set(got.alphabet) == set(want.alphabet)
        and set(got.trans) == set(want.trans)
        and got.initial == want.initial
        and got.final == want.final
    )


# witness: `witness --n N -o f`, then `complement f -o g`.

def witness(seed, files: InputFiles, ufa) -> list:
    ops = []
    for n in WITNESS_NS:
        source, result = files.path(f"witness{n}.nfa"), files.path(f"witness{n}.complement.nfa")
        words = random.Random(f"{seed}:witness-words:{n}")
        ops.append(cli_op(
            ufa.cli, f"witness n={n}", ["witness", "--n", str(n), "-o", str(source)],
            partial(_check_witness, n, source), [source],
        ))
        ops.append(cli_op(
            ufa.cli, f"complement witness{n}", ["complement", str(source), "-o", str(result)],
            partial(_check_witness_complement, n, source, result, words), [result],
        ))
    return ops


def _witness_reference(n):
    k, l = ref.witness_sizes(n)
    bound_sq = (n + 1) << n
    problems = []
    if PINNED_WITNESS.get(n, (k, l)) != (k, l):
        problems.append(f"closed form gives k={k} l={l}, pinned {PINNED_WITNESS[n]}")
    if not (4 * k * k >= bound_sq and 4 * l * l >= bound_sq and min(k, l) ** 2 <= bound_sq):
        problems.append(f"k={k} l={l} outside the paper's bounds for n={n}")
    return k, l, bound_sq, problems


def _check_witness(n, source, code, stdout):
    k, l, bound_sq, problems = _witness_reference(n)
    want = f"n={n} k={k} l={l} lower_sq={bound_sq // 4} upper_sq={bound_sq} holds=yes\n"
    problems += _expect(code, stdout, 0, want)
    written = ref.parse_automaton_text(source.read_text())
    if not _same_automaton(written, ref.witness_automaton(n)):
        problems.append("witness file differs from the split-graph construction")
    return problems, {"n": n, "sigma": len(written.alphabet), "k": k, "l": l}


def _check_witness_complement(n, source, result, words, code, stdout):
    k, l, bound_sq, problems = _witness_reference(n)
    side = "fwd" if k <= l else "bwd"
    want = f"n={n} k={k} l={l} chosen={side} states={min(k, l)} bound_sq={bound_sq}\n"
    problems += _expect(code, stdout, 0, want)
    base = ref.parse_automaton_text(source.read_text())
    complement = ref.parse_automaton_text(result.read_text())
    if complement.states != min(k, l) or complement.alphabet != base.alphabet:
        problems.append(f"complement has {complement.states} states, expected {min(k, l)}")
    sample = ref.sample_words(base, words, 400, 8)
    problems += ref.split_problems(base, complement, sample)
    sizes = {"n": n, "sigma": len(base.alphabet), "k": k, "l": l, "pairs": ref.reachable_pairs(base)}
    return problems, sizes


# lopsided: `complement` on the n-state DFA for "letter n-1 is a".

def lopsided(seed, files: InputFiles, ufa) -> list:
    rng = random.Random(f"{seed}:lopsided")
    ops = []
    for n in LOPSIDED_NS:
        aut = gen.nth_letter_dfa(n, rng)
        source = files.write(f"nth{n}.nfa", gen.automaton_text(aut))
        result = files.path(f"nth{n}.complement.nfa")
        words = random.Random(f"{seed}:lopsided-words:{n}")
        ops.append(cli_op(
            ufa.cli, f"complement nth{n}", ["complement", str(source), "-o", str(result)],
            partial(_check_lopsided, n, aut, result, words), [result],
        ))
    return ops


def _check_lopsided(n, aut, result, words, code, stdout):
    k, l = n + 1, 1 << (n - 1)
    want = f"n={n} k={k} l={l} chosen=fwd states={k} bound_sq={(n + 1) << n}\n"
    problems = _expect(code, stdout, 0, want)
    complement = ref.parse_automaton_text(result.read_text())
    if complement.states != k:
        problems.append(f"complement has {complement.states} states, expected {k}")

    def member(word):
        return int(len(word) >= n - 1 and word[n - 2] == "a")

    sample = ref.sample_words(aut, words, 200, n + 2)
    problems += ref.split_problems(aut, complement, sample, member)
    return problems, {"n": n, "sigma": 2, "k": k, "l": l, "pairs": ref.reachable_pairs(aut)}


# graphs: `verify-graphs --max-n 5`, check_graph_bounds on 6-vertex graphs,
# `count-cliques` on dense graphs.

def graphs(seed, files: InputFiles, ufa) -> list:
    rng = random.Random(f"{seed}:graphs")
    ops = [cli_op(ufa.cli, "verify-graphs --max-n 5", ["verify-graphs", "--max-n", "5"], _check_verify_graphs)]
    for i in range(SMALL_GRAPHS):
        edges = gen.random_small_graph_edges(SMALL_GRAPH_N, rng)
        path = files.write(f"small{i}.graph", gen.graph_text(SMALL_GRAPH_N, edges))
        ops.append(Op(f"check_graph_bounds small{i}", partial(_graph_bounds, ufa, path), partial(_check_graph_bounds, edges)))
    for n, density in DENSE_GRAPHS:
        edges = gen.random_graph_edges(n, density, rng)
        path = files.write(f"dense{n}.graph", gen.graph_text(n, edges))
        ops.append(cli_op(
            ufa.cli, f"count-cliques G({n}, {density})", ["count-cliques", str(path)],
            partial(_check_count_cliques, seed, n, edges),
        ))
    return ops


def _graph_bounds(ufa, path):
    """No subcommand checks one graph file, so this calls the library."""
    problems = ufa.graphs.check_graph_bounds(ufa.formats.parse_graph(path.read_text()))
    return (1 if problems else 0), "".join(f"{p}\n" for p in problems)


def _check_verify_graphs(code, stdout):
    want = "".join(f"n={n} graphs={1 << (n * (n - 1) // 2)} violations=0\n" for n in range(6))
    return _expect(code, stdout, 0, want), {"n": 5, "graphs": sum(1 << (n * (n - 1) // 2) for n in range(6))}


def _check_graph_bounds(edges, code, stdout):
    sizes = {"n": SMALL_GRAPH_N, "edges": len(edges), "cliques": ref.count_cliques(SMALL_GRAPH_N, edges)}
    return _expect(code, stdout, 0, ""), sizes


def _check_count_cliques(seed, n, edges, code, stdout):
    cliques = ref.count_cliques(n, edges)
    cocliques = ref.count_cliques(n, ref.complement_edges(n, edges))
    problems = []
    if PINNED_CLIQUES.get((seed, n), (cliques, cocliques)) != (cliques, cocliques):
        problems.append(f"reference counts {cliques}, {cocliques} differ from the pinned ones")
    bound, product, least = (n + 1) << n, cliques * cocliques, min(cliques, cocliques)
    holds = product <= bound and least * least <= bound
    want = (
        f"n={n} cliques={cliques} cocliques={cocliques} product={product} bound={bound} "
        f"min_sq={least * least} holds={'yes' if holds else 'no'}\n"
    )
    problems += _expect(code, stdout, 0 if holds else 1, want)
    return problems, {"n": n, "edges": len(edges), "cliques": cliques, "cocliques": cocliques}


# ambiguity: `check-unambiguous` on random DFAs (yes) and NFAs with a
# planted ambiguity (no, with a witness word).

def ambiguity(seed, files: InputFiles, ufa) -> list:
    rng = random.Random(f"{seed}:ambiguity")
    ops = []
    for i, n in enumerate(AMBIGUITY_SIZES):
        letters = 2 + i % 2
        for kind, make in (("dfa", gen.random_dfa), ("nfa", gen.random_ambiguous_nfa)):
            aut = make(n, letters, rng)
            path = files.write(f"{kind}{i}.nfa", gen.automaton_text(aut))
            ops.append(cli_op(
                ufa.cli, f"check-unambiguous {kind}{i}", ["check-unambiguous", str(path)],
                partial(_check_verdict, kind == "dfa", aut),
            ))
    return ops


def _check_verdict(deterministic, aut, code, stdout):
    sizes = {"n": aut.states, "sigma": len(aut.alphabet), "pairs": ref.reachable_pairs(aut)}
    if deterministic:
        return _expect(code, stdout, 0, "unambiguous=yes\n"), sizes
    prefix = "unambiguous=no witness="
    if code != 2 or not stdout.startswith(prefix) or not stdout.endswith("\n"):
        return [f"exit code {code}, stdout {stdout[:200]!r}; expected 2 and a witness"], sizes
    text = stdout[len(prefix):-1]
    word = () if text == "(empty)" else tuple(text.split(" "))
    if not set(word) <= set(aut.alphabet):
        return [f"witness {text!r} uses letters outside the alphabet"], sizes
    runs = ref.RunCounter(aut).runs(word)
    sizes["witness_runs"] = runs
    return ([] if runs >= 2 else [f"witness {text!r} has {runs} accepting runs"]), sizes


WORKLOADS = {
    "witness": witness,
    "lopsided": lopsided,
    "graphs": graphs,
    "ambiguity": ambiguity,
}
