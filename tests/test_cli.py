"""Unit tests for the command line: summary lines, exit codes, determinism."""

import hashlib
import os
import random
import subprocess
import sys
from decimal import MAX_EMAX, Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import ufa
from ufa import (
    Graph,
    ProductBoundReport,
    backward_determinize,
    complement_ufa,
    count_accepting_runs,
    forward_determinize,
    parse_automaton,
    parse_graph,
    serialize_automaton,
    serialize_graph,
)
from ufa.bridge import graph_to_ufa, witness_ufa
from ufa.cli import EXIT_CAP, EXIT_OK, EXIT_PRECONDITION, EXIT_VIOLATION, _digits
from helpers import complete_graph, language, random_graph, run_cli

A_PLUS = "nfa 2\nalphabet a\ninitial 0\nfinal 1\ntrans 0 a 1\ntrans 1 a 1\n"
A_STAR = "nfa 1\nalphabet a\ninitial 0\nfinal 0\ntrans 0 a 0\n"
TWO_LOOP = "nfa 2\nalphabet a\ninitial 0 1\nfinal 0 1\ntrans 0 a 0\ntrans 1 a 1\n"


@pytest.fixture
def a_plus_file(tmp_path):
    path = tmp_path / "aplus.nfa"
    path.write_text(A_PLUS)
    return str(path)


class TestComplementCommand:
    def test_summary_line_and_output_language(self, a_plus_file, tmp_path, capsys):
        out_path = tmp_path / "comp.nfa"
        code, out, _ = run_cli(
            ["complement", a_plus_file, "--output", str(out_path)], capsys
        )
        assert code == EXIT_OK
        assert out == "n=2 k=2 l=2 chosen=fwd states=2 bound_sq=12\n"
        complement = parse_automaton(out_path.read_text())
        assert language(complement, 6) == {()}

    def test_single_state_universal_automaton(self, tmp_path, capsys):
        path = tmp_path / "astar.nfa"
        path.write_text(A_STAR)
        code, out, _ = run_cli(["complement", str(path)], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "n=1 k=1 l=1 chosen=fwd states=1 bound_sq=4"

    def test_ambiguous_input_exits_2_with_witness(self, tmp_path, capsys):
        path = tmp_path / "amb.nfa"
        path.write_text(TWO_LOOP)
        code, out, err = run_cli(["complement", str(path)], capsys)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "witness" in err

    def test_cap_exceeded_on_both_sides_exits_3(self, a_plus_file, capsys):
        code, _, err = run_cli(["complement", a_plus_file, "--cap", "1"], capsys)
        assert code == EXIT_CAP
        assert "state limit" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(["complement", "/nonexistent/x.nfa"], capsys)
        assert code == EXIT_PRECONDITION
        assert "error" in err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.nfa"
        path.write_text("nfa 1\nalphabet a\ninitial 0\nfinal 0\ntrans 0 b 0\n")
        code, _, err = run_cli(["complement", str(path)], capsys)
        assert code == EXIT_PRECONDITION
        assert "line 5" in err

    def test_without_output_flag_the_automaton_follows_the_summary(
        self, a_plus_file, capsys
    ):
        code, out, _ = run_cli(["complement", a_plus_file], capsys)
        assert code == EXIT_OK
        summary, rest = out.split("\n", 1)
        assert summary.startswith("n=2 ")
        complement = parse_automaton(rest)
        assert count_accepting_runs(complement, ()) == 1

    def test_env_cap_is_used_and_flag_wins(self, a_plus_file, capsys, monkeypatch):
        monkeypatch.setenv("UFA_CAP", "1")
        code, _, _ = run_cli(["complement", a_plus_file], capsys)
        assert code == EXIT_CAP
        code, _, _ = run_cli(["complement", a_plus_file, "--cap", "16"], capsys)
        assert code == EXIT_OK

    def test_bad_env_cap_exits_2(self, a_plus_file, capsys, monkeypatch):
        monkeypatch.setenv("UFA_CAP", "many")
        code, _, err = run_cli(["complement", a_plus_file], capsys)
        assert code == EXIT_PRECONDITION
        assert "UFA_CAP" in err

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_bound_of_any_length_prints_in_full(self, tmp_path):
        # bound_sq = 50001 * 2**50000 has 15,057 digits, past the 4300 that
        # Python converts to str by default; printing it raised ValueError
        # and exited 1.  Decimal converts ints without that limit.
        path = tmp_path / "big.nfa"
        path.write_text("nfa 50000\nalphabet a b\ninitial 0\nfinal 49999\ntrans 0 a 1\n")
        written = tmp_path / "c.nfa"
        code, out, err, _ = _run_measured(["complement", str(path), "-o", str(written)], tmp_path)
        bound_sq = Decimal(50001 * 2**50000)
        assert (code, out, err) == (
            EXIT_OK, f"n=50000 k=3 l=2 chosen=bwd states=2 bound_sq={bound_sq}\n", ""
        )
        # The language is empty, so the complement accepts every word.
        assert written.read_text() == (
            "nfa 2\nalphabet a b\ninitial 0 1\nfinal 0\n"
            "trans 1 a 0\ntrans 1 a 1\ntrans 1 b 0\ntrans 1 b 1\n"
        )


class TestDeterminizeCommand:
    def test_forward(self, a_plus_file, capsys):
        code, out, _ = run_cli(["determinize", a_plus_file, "--direction", "fwd"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "n=2 direction=fwd states=2"

    def test_backward_output_parses(self, a_plus_file, tmp_path, capsys):
        out_path = tmp_path / "bwd.nfa"
        code, out, _ = run_cli(
            ["determinize", a_plus_file, "--direction", "bwd", "--output", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert out == "n=2 direction=bwd states=2\n"
        result = parse_automaton(out_path.read_text())
        assert language(result, 5) == language(parse_automaton(A_PLUS), 5)


class TestOutputMatchesTheLibrary:
    """complement and determinize write the bytes that serialize_automaton
    gives for the library's results."""

    @pytest.fixture
    def witness_file(self, tmp_path):
        path = tmp_path / "w8.nfa"
        path.write_text(serialize_automaton(witness_ufa(8)))
        return str(path)

    @pytest.mark.parametrize(
        "argv,library",
        [
            (["complement"], lambda nfa: complement_ufa(nfa)[0]),
            (["determinize", "--direction", "fwd"], lambda nfa: forward_determinize(nfa).as_nfa()),
            (["determinize", "--direction", "bwd"], lambda nfa: backward_determinize(nfa).as_nfa()),
        ],
    )
    def test_written_bytes(self, witness_file, tmp_path, capsys, argv, library):
        expected = serialize_automaton(library(witness_ufa(8)))
        out_path = tmp_path / "out.nfa"
        command = [argv[0], witness_file] + argv[1:]
        code, out, _ = run_cli(command + ["-o", str(out_path)], capsys)
        assert code == EXIT_OK
        assert out_path.read_bytes() == expected.encode()
        code, stdout_only, _ = run_cli(command, capsys)
        assert code == EXIT_OK
        assert stdout_only == out + expected


class TestCheckUnambiguousCommand:
    def test_unambiguous(self, a_plus_file, capsys):
        assert run_cli(["check-unambiguous", a_plus_file], capsys)[:2] == (
            EXIT_OK,
            "unambiguous=yes\n",
        )

    def test_ambiguous(self, tmp_path, capsys):
        path = tmp_path / "amb.nfa"
        path.write_text(TWO_LOOP)
        code, out, _ = run_cli(["check-unambiguous", str(path)], capsys)
        assert code == EXIT_PRECONDITION
        assert out.startswith("unambiguous=no witness=")

    def test_non_utf8_file_exits_2_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.nfa"
        path.write_bytes(b"nfa 1\nalphabet \xff\n")
        assert run_cli(["check-unambiguous", str(path)], capsys) == (
            EXIT_PRECONDITION, "", f"error: {path} is not UTF-8: bad byte at offset 15\n"
        )


class TestGraphCommands:
    def test_extract_graph(self, a_plus_file, tmp_path, capsys):
        out_path = tmp_path / "g.graph"
        code, out, _ = run_cli(
            ["extract-graph", a_plus_file, "--output", str(out_path)], capsys
        )
        assert code == EXIT_OK
        assert out == "n=2 edges=0\n"
        assert parse_graph(out_path.read_text()) == Graph(2, ())

    def test_graph_to_ufa_matches_the_library(self, tmp_path, capsys):
        path = tmp_path / "k2.graph"
        path.write_text("graph 2\nedge 0 1\n")
        out_path = tmp_path / "k2.nfa"
        code, out, _ = run_cli(
            ["graph-to-ufa", str(path), "--output", str(out_path)], capsys
        )
        assert code == EXIT_OK
        assert out == "n=2 letters=7\n"
        assert parse_automaton(out_path.read_text()) == graph_to_ufa(complete_graph(2))

    def test_count_cliques_line(self, tmp_path, capsys):
        path = tmp_path / "p3.graph"
        path.write_text("graph 3\nedge 0 1\nedge 1 2\n")
        code, out, _ = run_cli(["count-cliques", str(path)], capsys)
        assert code == EXIT_OK
        assert out == (
            "n=3 cliques=6 cocliques=5 product=30 bound=32 min_sq=25 holds=yes\n"
        )

    def test_count_cliques_on_a_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.graph"
        path.write_bytes(b"# caf\xe9\ngraph 2\nedge 0 1\n")
        assert run_cli(["count-cliques", str(path)], capsys) == (
            EXIT_PRECONDITION, "", f"error: {path} is not UTF-8: bad byte at offset 5\n"
        )

    def test_count_cliques_prints_a_bound_of_any_length(self, tmp_path, capsys, monkeypatch):
        # No graph this large can be counted, so the counts are stubbed;
        # the bound 20001 * 2**20000 has 6025 digits.
        monkeypatch.setattr(
            ufa.graphs, "verify_product_bound", lambda graph: ProductBoundReport(20000, 3, 2)
        )
        path = tmp_path / "p3.graph"
        path.write_text("graph 3\nedge 0 1\nedge 1 2\n")
        code, out, err = run_cli(["count-cliques", str(path)], capsys)
        bound = Decimal(20001 * 2**20000)
        assert (code, out, err) == (
            EXIT_OK,
            f"n=20000 cliques=3 cocliques=2 product=6 bound={bound} min_sq=4 holds=yes\n",
            "",
        )


class TestWitnessCommand:
    def test_n0(self, capsys):
        code, out, _ = run_cli(["witness", "--n", "0"], capsys)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "n=0 k=1 l=1 lower_sq=1/4 upper_sq=1 holds=yes"

    def test_n4_writes_the_witness(self, tmp_path, capsys):
        out_path = tmp_path / "w4.nfa"
        code, out, _ = run_cli(["witness", "--n", "4", "--output", str(out_path)], capsys)
        assert code == EXIT_OK
        assert out == "n=4 k=9 l=8 lower_sq=20 upper_sq=80 holds=yes\n"
        written = parse_automaton(out_path.read_text())
        assert written == witness_ufa(4)
        assert len(written.alphabet) == 17

    def test_negative_n_exits_2_without_traceback(self, capsys):
        code, out, err = run_cli(["witness", "--n", "-1"], capsys)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == "error: --n must be nonnegative, got -1\n"


class TestVerifyCommands:
    def test_verify_graphs_lines(self, capsys):
        code, out, _ = run_cli(["verify-graphs", "--max-n", "3"], capsys)
        assert code == EXIT_OK
        assert out == (
            "n=0 graphs=1 violations=0\n"
            "n=1 graphs=1 violations=0\n"
            "n=2 graphs=2 violations=0\n"
            "n=3 graphs=8 violations=0\n"
        )

    def test_verify_graphs_rejects_large_n(self, capsys):
        code, _, err = run_cli(["verify-graphs", "--max-n", "7"], capsys)
        assert code == EXIT_PRECONDITION
        assert "at most 6" in err

    def test_verify_graphs_rejects_negative_n(self, capsys):
        code, out, err = run_cli(["verify-graphs", "--max-n", "-3"], capsys)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == "error: --max-n must be nonnegative, got -3\n"

    def test_verify_tightness_rejects_negative_n(self, capsys):
        code, out, err = run_cli(["verify-tightness", "--max-n", "-1"], capsys)
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == "error: --max-n must be nonnegative, got -1\n"

    def test_verify_tightness(self, capsys):
        code, out, _ = run_cli(["verify-tightness", "--max-n", "4"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[2] == "n=2 k=3 l=4 lower_sq=3 upper_sq=12 holds=yes"
        assert all(line.endswith("holds=yes") for line in lines)


def _closed_form_tightness_line(n: int) -> str:
    """The witness line for n, from the closed forms of the split graph
    with a clique on c vertices: k = 2**c + (n - c) forward subsets and
    l = (c + 1) * 2**(n - c) backward ones."""
    c = (n + (n + 1).bit_length() - 1) // 2
    k = 2**c + (n - c)
    l = (c + 1) * 2 ** (n - c)
    upper = (n + 1) * 2**n
    return f"n={n} k={k} l={l} lower_sq={Fraction(upper, 4)} upper_sq={upper} holds=yes"


class TestTightnessLinesMatchTheClosedForms:
    def test_closed_forms_start_at_one_and_one(self):
        assert _closed_form_tightness_line(0) == (
            "n=0 k=1 l=1 lower_sq=1/4 upper_sq=1 holds=yes"
        )

    @pytest.mark.parametrize("n", range(15))
    def test_witness(self, n, tmp_path, capsys):
        written = tmp_path / "w.nfa"
        code, out, err = run_cli(["witness", "--n", str(n), "-o", str(written)], capsys)
        assert (code, out, err) == (EXIT_OK, _closed_form_tightness_line(n) + "\n", "")

    def test_verify_tightness(self, capsys):
        code, out, err = run_cli(["verify-tightness", "--max-n", "14"], capsys)
        expected = "".join(_closed_form_tightness_line(n) + "\n" for n in range(15))
        assert (code, out, err) == (EXIT_OK, expected, "")


# Linux charges a process's peak memory with that of the process it was
# forked from, so the measured command is started from a fresh, small
# interpreter rather than from the test process.
_MEASURE = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
with open(sys.argv[1], "w") as report:
    report.write(f"{child.returncode} {usage.ru_maxrss}")
"""


def _child_env() -> dict:
    """This environment, with the tested ``ufa`` first on the path."""
    source = str(Path(ufa.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))


def _run_measured(argv, tmp_path):
    """Run ``python -m ufa argv`` in a child process; returns its exit
    code, stdout, stderr and peak resident memory in MB."""
    report = tmp_path / "usage.txt"
    done = subprocess.run(
        [sys.executable, "-c", _MEASURE, str(report), sys.executable, "-m", "ufa", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=300,
    )
    code, peak = map(int, report.read_text().split())
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    peak_mb = peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    return code, done.stdout, done.stderr, peak_mb


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
class TestCostFollowsTheInput:
    """Memory follows what a file contains, not what it declares, and the
    witness cap is checked before any letter is built."""

    def test_declared_millions_of_states(self, tmp_path):
        # 61 bytes: three million states but a single transition.  Rows
        # allocated per declared state took 540 MB here.
        path = tmp_path / "big.nfa"
        path.write_text("nfa 3000000\nalphabet a b\ninitial 0\nfinal 2999999\ntrans 0 a 1\n")
        code, out, err, peak_mb = _run_measured(["check-unambiguous", str(path)], tmp_path)
        assert (code, out, err) == (EXIT_OK, "unambiguous=yes\n", "")
        assert peak_mb < 300

    def test_witness_cap_applies_before_the_letters_are_built(self, tmp_path):
        # witness 28 has k = 2**16 + 12 forward subsets; building all its
        # 135,180 letters first took 9 s and 570 MB.
        code, out, err, peak_mb = _run_measured(["witness", "--n", "28", "--cap", "1000"], tmp_path)
        assert (code, out) == (EXIT_CAP, "")
        assert err == (
            "error: state limit exceeded: forward determinization stopped after "
            "discovering 1000 subsets (cap 1000)\n"
        )
        assert peak_mb < 100

    def test_complement_streams_the_witness_16_table(self, tmp_path):
        # The complement of witness 16 is its backward construction: a
        # 704 x 1734 table, 30.8 MB of text.  Joining the whole text before
        # writing it peaked at 166 MB (Python 3.11 on Linux); writing it in
        # pieces peaks at 47 MB.
        source = tmp_path / "w16.nfa"
        source.write_text(serialize_automaton(witness_ufa(16)))
        written = tmp_path / "c16.nfa"
        code, out, err, peak_mb = _run_measured(["complement", str(source), "-o", str(written)], tmp_path)
        assert (code, out, err) == (
            EXIT_OK, "n=16 k=1030 l=704 chosen=bwd states=704 bound_sq=1114112\n", ""
        )
        # The digest of serialize_automaton(complement_ufa(witness_ufa(16))[0]).
        digest = hashlib.sha256()
        with written.open("rb") as stream:
            for block in iter(lambda: stream.read(1 << 20), b""):
                digest.update(block)
        assert written.stat().st_size == 30_813_653
        assert digest.hexdigest() == (
            "e0c44112bd1f7f48d699f1dbe746259a47a1bce72235078e1f4543a6cfe443f2"
        )
        assert peak_mb < 100


def _run_limited(argv, timeout=60, python_args=("-m", "ufa")):
    """Run ``python -m ufa argv`` (or ``python python_args argv``) in a
    child process held to 1 GB of address space and ``timeout`` seconds;
    returns its exit code, stdout and stderr."""
    import resource

    limit = 1 << 30
    done = subprocess.run(
        [sys.executable, *python_args, *argv],
        capture_output=True, text=True, env=_child_env(), timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
class TestOversizedHeaderCounts:
    """A declared count above sys.maxsize is malformed input: no list can
    hold one entry per state or vertex."""

    def test_automaton_state_count(self, tmp_path):
        # 55 bytes; building the per-state rows raised OverflowError and
        # exited 1.
        path = tmp_path / "huge.nfa"
        path.write_text("nfa 100000000000000000000\nalphabet a\ninitial 0\nfinal 0\n")
        assert _run_limited(["check-unambiguous", str(path)]) == (
            EXIT_PRECONDITION, "", f"error: line 1: state count must be at most {sys.maxsize}\n"
        )

    def test_graph_vertex_count(self, tmp_path):
        # 28 bytes; one neighbor set per declared vertex allocated without end.
        path = tmp_path / "huge.graph"
        path.write_text("graph 100000000000000000000\n")
        assert _run_limited(["count-cliques", str(path)]) == (
            EXIT_PRECONDITION, "", f"error: line 1: vertex count must be at most {sys.maxsize}\n"
        )


def _letter_cap_error(cap: int) -> str:
    return (
        f"error: letter limit exceeded: the graph has more cliques and "
        f"cocliques than the cap ({cap}), one letter each\n"
    )


class TestGraphToUfaCap:
    """graph-to-ufa counts its letters, one per clique and coclique,
    before it makes any: more than --cap or UFA_CAP exits 3 with one error
    line and writes nothing; up to the cap the output is unchanged."""

    @pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
    @pytest.mark.parametrize("text", ["graph 60\n", "graph 20000\nedge 0 1\n"])
    def test_more_letters_than_the_default_cap(self, tmp_path, text):
        # 2**60 + 61 and about 2**20000 letters: listing them ended in a
        # SystemError and a MemoryError traceback, both with exit 1.
        path = tmp_path / "g.graph"
        path.write_text(text)
        written = tmp_path / "a.nfa"
        assert _run_limited(["graph-to-ufa", str(path), "-o", str(written)], timeout=30) == (
            EXIT_CAP, "", _letter_cap_error(1 << 20)
        )
        assert not written.exists()

    def test_the_cap_is_the_letter_count(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(89)
        for i in range(20):
            g = random_graph(rng, rng.randint(0, 7), rng.random())
            path = tmp_path / f"g{i}.graph"
            path.write_text(serialize_graph(g))
            letters = len(graph_to_ufa(g).alphabet)
            expected = f"n={g.vertex_count} letters={letters}\n" + serialize_automaton(graph_to_ufa(g))
            assert run_cli(["graph-to-ufa", str(path)], capsys) == (EXIT_OK, expected, "")
            for cap in (letters, letters + 1):
                assert run_cli(["graph-to-ufa", str(path), "--cap", str(cap)], capsys) == (EXIT_OK, expected, "")
            # Every graph has the empty clique and the empty coclique.
            assert run_cli(["graph-to-ufa", str(path), "--cap", str(letters - 1)], capsys) == (
                EXIT_CAP, "", _letter_cap_error(letters - 1)
            )
            monkeypatch.setenv("UFA_CAP", str(letters - 1))
            assert run_cli(["graph-to-ufa", str(path)], capsys) == (EXIT_CAP, "", _letter_cap_error(letters - 1))
            monkeypatch.delenv("UFA_CAP")


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
def test_co_deterministic_twenty_thousand_states(tmp_path):
    # The mirror of a random 20,000-state DFA over a b: every third state
    # initial, state 0 the one final state.  Its 400,000,000 pairs ended
    # in a MemoryError traceback with exit 1 after 18 s; one set of its
    # (letter, target) pairs answers it.
    rng = random.Random(20)
    n = 20000
    lines = [f"nfa {n}", "alphabet a b", "initial " + " ".join(map(str, range(0, n, 3))), "final 0"]
    lines += [f"trans {rng.randrange(n)} {a} {q}" for q in range(n) for a in "ab"]
    path = tmp_path / "codet.nfa"
    path.write_text("\n".join(lines) + "\n")
    assert _run_limited(["check-unambiguous", str(path)], timeout=30) == (EXIT_OK, "unambiguous=yes\n", "")


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
class TestPairsPackedRowsCannotHold:
    """Inputs past the packed-row size rule, whose pairs of states are
    searched one by one: packed rows take n * n bits whatever the input
    holds, and ended both of these in a MemoryError even at 3 GB."""

    def test_hub_of_a_hundred_million_declared_states(self, tmp_path):
        # 90 bytes: two initial states move on a into the one final state.
        path = tmp_path / "hub.nfa"
        path.write_text(
            "nfa 100000000\nalphabet a\ninitial 0 1\nfinal 99999999\n"
            "trans 0 a 99999999\ntrans 1 a 99999999\n"
        )
        assert _run_limited(["check-unambiguous", str(path)], timeout=30) == (
            EXIT_PRECONDITION, "unambiguous=no witness=a\n", ""
        )

    def test_chain_of_a_hundred_thousand_states(self, tmp_path):
        # An a-chain entered at states 0 and 1, with its last two states
        # final: the runs from both meet the final pair after n - 2 letters.
        n = 100_000
        lines = [f"nfa {n}", "alphabet a", "initial 0 1", f"final {n - 2} {n - 1}"]
        lines += [f"trans {q} a {q + 1}" for q in range(n - 1)]
        path = tmp_path / "chain.nfa"
        path.write_text("\n".join(lines) + "\n")
        assert _run_limited(["check-unambiguous", str(path)], timeout=60) == (
            EXIT_PRECONDITION, "unambiguous=no witness=" + " ".join("a" * (n - 2)) + "\n", ""
        )


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
def test_declared_hundred_million_states_without_transitions(tmp_path):
    # 54 bytes.  Per-symbol rows with an entry per declared state ended in
    # a MemoryError traceback with exit 1; rows now hold only the states
    # that have transitions.
    path = tmp_path / "declared.nfa"
    path.write_text("nfa 100000000\nalphabet a\ninitial 0\nfinal 99999999\n")
    assert _run_limited(["check-unambiguous", str(path)]) == (EXIT_OK, "unambiguous=yes\n", "")


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
def test_determinize_declared_hundred_million_states(tmp_path):
    # 55 bytes.  A chunk-image memo with 256 slots per byte of a subset
    # ended in a MemoryError traceback with exit 1; it now holds only the
    # chunks that are used.
    path = tmp_path / "declared.nfa"
    path.write_text("nfa 100000000\nalphabet a\ninitial 0\nfinal 1\ntrans 0 a 1\n")
    written = tmp_path / "d.nfa"
    assert _run_limited(["determinize", "--direction", "fwd", str(path), "-o", str(written)]) == (
        EXIT_OK, "n=100000000 direction=fwd states=3\n", ""
    )
    assert written.read_text() == (
        "nfa 3\nalphabet a\ninitial 0\nfinal 1\ntrans 0 a 1\ntrans 1 a 2\ntrans 2 a 2\n"
    )


_HUGE_EDGELESS_GRAPH = """
from ufa import count_cliques, count_cocliques, parse_graph, serialize_graph

text = "graph 100000000\\n"
g = parse_graph(text)
print(serialize_graph(g) == text, count_cliques(g), count_cocliques(g) == 1 << 100000000)
"""


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
class TestIsolatedVerticesAreFactoredOut:
    """Isolated vertices are never visited: each one adds one clique and
    doubles the coclique count.  Before, the counts
    listed every coclique and the parser built one set per vertex."""

    def test_library_on_a_hundred_million_isolated_vertices(self):
        # One set() per declared vertex ran out of the 1 GB.
        assert _run_limited([], timeout=30, python_args=("-c", _HUGE_EDGELESS_GRAPH)) == (
            0, "True 100000001 True\n", ""
        )

    def test_edgeless_graph_meets_the_product_bound(self, tmp_path):
        # Listing the 2**60 cocliques one by one never ended.
        path = tmp_path / "edgeless.graph"
        path.write_text("graph 60\n")
        code, out, err = _run_limited(["count-cliques", str(path)], timeout=10)
        cocliques, bound = 1 << 60, 61 << 60
        assert (code, out, err) == (
            EXIT_OK,
            f"n=60 cliques=61 cocliques={cocliques} product={61 * cocliques} "
            f"bound={bound} min_sq={61**2} holds=yes\n",
            "",
        )
        assert 61 * cocliques == bound

    def test_counts_past_the_digit_limit_print_in_full(self, tmp_path):
        # 3 * 2**19998 cocliques have 6021 digits, past the 4300 that str()
        # converts by default; Decimal prints them on every version.
        path = tmp_path / "one_edge.graph"
        path.write_text("graph 20000\nedge 0 1\n")
        code, out, err = _run_limited(["count-cliques", str(path)], timeout=10)
        cliques, cocliques = 20002, 3 << 19998
        assert (code, out, err) == (
            EXIT_OK,
            f"n=20000 cliques={cliques} cocliques={Decimal(cocliques)} "
            f"product={Decimal(cliques * cocliques)} bound={Decimal(20001 << 20000)} "
            f"min_sq={cliques**2} holds=yes\n",
            "",
        )


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
@pytest.mark.parametrize("bits", [10**5, 10**6])
@pytest.mark.parametrize(
    "make",
    [lambda k: (k + 1) << k, lambda k: (1 << k) - 12345, lambda k: 3 ** (k * 1000 // 1585)],
    ids=["bound", "below_a_power_of_two", "power_of_three"],
)
def test_digits_past_the_limit_match_str(bits, make):
    value = make(bits)
    # str() with the digit limit lifted, and the limit restored before
    # _digits runs.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert _digits(value) == expected


def _assert_decimal_of(text: str, factor: int, n: int) -> None:
    """``text`` is ``factor * 2**n`` in decimal: its length and leading
    digits from a 50-digit decimal power, and its last 30 digits."""
    context = Context(prec=50, Emax=MAX_EMAX)
    lead = context.multiply(factor, context.power(2, n))
    assert len(text) == lead.adjusted() + 1
    assert text[:30] == "".join(map(str, lead.as_tuple().digits[:30]))
    assert text[-30:] == str((factor << n) % 10**30).zfill(30)


@pytest.mark.skipif(sys.platform == "win32", reason="needs resource.setrlimit")
class TestHugeCountsPrintInSubquadraticTime:
    """Counts of millions of digits print within 1 GB and 60 s.  Converting
    them with Decimal(value) took time quadratic in the digit count, and
    both commands ran past 60 s."""

    def test_complement_of_ten_million_declared_states(self, tmp_path):
        path = tmp_path / "declared.nfa"
        path.write_text("nfa 10000000\nalphabet a\ninitial 0\nfinal 1\ntrans 0 a 1\n")
        written = tmp_path / "c.nfa"
        code, out, err = _run_limited(["complement", str(path), "-o", str(written)])
        assert (code, err) == (EXIT_OK, "")
        summary, _, bound_sq = out.rstrip("\n").rpartition("=")
        assert summary == "n=10000000 k=3 l=3 chosen=fwd states=3 bound_sq"
        _assert_decimal_of(bound_sq, 10000001, 10000000)
        assert written.read_text() == (
            "nfa 3\nalphabet a\ninitial 0\nfinal 0 2\ntrans 0 a 1\ntrans 1 a 2\ntrans 2 a 2\n"
        )

    def test_count_cliques_on_ten_million_isolated_vertices(self, tmp_path):
        path = tmp_path / "edgeless.graph"
        path.write_text("graph 10000000\n")
        code, out, err = _run_limited(["count-cliques", str(path)])
        assert (code, err) == (EXIT_OK, "")
        fields = dict(field.split("=") for field in out.split())
        assert list(fields) == ["n", "cliques", "cocliques", "product", "bound", "min_sq", "holds"]
        assert (fields["n"], fields["cliques"], fields["min_sq"], fields["holds"]) == (
            "10000000", "10000001", str(10000001**2), "yes"
        )
        _assert_decimal_of(fields["cocliques"], 1, 10000000)
        _assert_decimal_of(fields["product"], 10000001, 10000000)
        assert fields["bound"] == fields["product"]


_TIMED_PAIR_SEARCH = """
import sys, time
from ufa import is_unambiguous, parse_automaton

with open(sys.argv[1]) as stream:
    nfa = parse_automaton(stream.read())
best = float("inf")
for _ in range(3):
    start = time.perf_counter()
    verdict = is_unambiguous(nfa)
    best = min(best, time.perf_counter() - start)
print(verdict, best)
"""


def test_backward_pair_search_seeds_only_from_forward_pairs(tmp_path):
    # A random 20,000-state, 2-letter DFA with every third state final: the
    # backward search used to build all 6667**2 final pairs before keeping
    # the forward-reached ones, which took 5.7 s (Python 3.11, 2 vCPUs);
    # seeding from the forward pairs takes about 0.12 s.  The best of three
    # timed calls is held to 1 s, so one slow run on a loaded machine passes.
    rng = random.Random(7)
    n = 20000
    lines = [f"nfa {n}", "alphabet a b", "initial 0", "final " + " ".join(map(str, range(0, n, 3)))]
    lines += [f"trans {q} {a} {rng.randrange(n)}" for q in range(n) for a in "ab"]
    path = tmp_path / "dfa.nfa"
    path.write_text("\n".join(lines) + "\n")
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_PAIR_SEARCH, str(path)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    verdict, seconds = done.stdout.rsplit(" ", 1)
    assert (done.returncode, verdict, done.stderr) == (0, "(True, None)", "")
    assert float(seconds) < 1.0


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, a_plus_file, tmp_path, capsys):
        first_path = tmp_path / "c1.nfa"
        second_path = tmp_path / "c2.nfa"
        _, first_out, _ = run_cli(
            ["complement", a_plus_file, "--output", str(first_path)], capsys
        )
        _, second_out, _ = run_cli(
            ["complement", a_plus_file, "--output", str(second_path)], capsys
        )
        assert first_out == second_out
        assert first_path.read_bytes() == second_path.read_bytes()


class TestUsage:
    def test_missing_subcommand_raises_system_exit(self, capsys):
        with pytest.raises(SystemExit):
            run_cli([], capsys)

    def test_a_reused_parser_answers_as_a_fresh_one(self, a_plus_file, tmp_path, capsys, monkeypatch):
        # main() builds its parser once per process; each call here must
        # print and exit as `python -m ufa` does on the same argv, whose
        # parser is fresh.  COLUMNS changes between the two help calls: it
        # is read when a message is formatted, not when the parser is built.
        assert ufa.cli._build_parser() is ufa.cli._build_parser()
        twins = tmp_path / "twins.nfa"
        twins.write_text(TWO_LOOP)
        malformed = tmp_path / "bad.nfa"
        malformed.write_text("nfa 2\nalphabet a\ninitial 0\nfinal 1\ntrans 0 a 2\n")
        calls = [
            (["check-unambiguous", a_plus_file], "80"),
            (["check-unambiguous", str(twins)], "80"),
            (["complement", a_plus_file, "-o", "{}.nfa"], "80"),
            (["check-unambiguous", str(malformed)], "80"),
            (["complement", a_plus_file, "--cap", "0"], "80"),
            ([], "80"),
            (["--help"], "80"),
            (["complement", "--help"], "50"),
        ]
        here, there = tmp_path / "here.nfa", tmp_path / "there.nfa"
        for argv, columns in calls:
            monkeypatch.setenv("COLUMNS", columns)
            try:
                code = ufa.cli.main([arg.format(tmp_path / "here") for arg in argv])
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            done = subprocess.run(
                [sys.executable, "-m", "ufa", *(arg.format(tmp_path / "there") for arg in argv)],
                capture_output=True, text=True, env=_child_env(), timeout=60,
            )
            assert (code, out, err) == (done.returncode, done.stdout, done.stderr), argv
            assert here.exists() == there.exists()
            if here.exists():
                assert here.read_bytes() == there.read_bytes()

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_VIOLATION, EXIT_PRECONDITION, EXIT_CAP}) == 4

    def test_import_loads_neither_fractions_nor_decimal(self):
        done = subprocess.run(
            [sys.executable, "-c", "import sys, ufa.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_shared_pipe_closed_early_exits_2(self, tmp_path, unbuffered):
        # As in `ufa complement w12.nfa 2>&1 | head -n 1`: the write that
        # finds the pipe closed is an OSError, exit 2, and the error line
        # and the final flush, bound for the same pipe, must not change
        # that.  They made it 120 with buffered streams and 1 unbuffered.
        source = tmp_path / "w12.nfa"
        source.write_text(serialize_automaton(witness_ufa(12)))
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        # The complement's text is about 750 KB, far more than a pipe holds.
        child = subprocess.Popen(
            [sys.executable, "-m", "ufa", "complement", str(source)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        )
        first = child.stdout.readline()
        child.stdout.close()
        assert child.wait(timeout=120) == EXIT_PRECONDITION
        assert first == b"n=12 k=133 l=256 chosen=fwd states=133 bound_sq=53248\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv,shared",
        [
            (["verify-graphs", "--max-n", "3"], False),
            (["verify-tightness", "--max-n", "3"], False),
            (["witness", "--n", "5"], False),
            # The cap is hit at n = 8, after the first lines are printed.
            (["verify-tightness", "--max-n", "12", "--cap", "100"], True),
        ],
        ids=["verify-graphs", "verify-tightness", "witness", "verify-tightness-cap-shared"],
    )
    def test_a_closed_stdout_exits_2_buffered_or_not(self, argv, shared, unbuffered):
        # stdout is a pipe whose read end is closed before the run starts,
        # so its first write fails, however the stream is buffered.  With
        # buffered streams these ran to the end and exited 120 from the
        # final flush (3, the cap, when stderr shared the pipe); unbuffered,
        # they exited 2.
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "ufa", *argv],
                stdout=write_end, stderr=write_end if shared else subprocess.PIPE,
                env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_PRECONDITION
        if not shared:
            assert done.stderr == b"error: [Errno 32] Broken pipe\n"
