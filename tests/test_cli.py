"""Unit tests for the command line: summary lines, exit codes, determinism."""

import hashlib
import os
import subprocess
import sys
from decimal import Decimal
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
from ufa.cli import EXIT_CAP, EXIT_OK, EXIT_PRECONDITION, EXIT_VIOLATION
from helpers import complete_graph, language, run_cli

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
        assert parse_graph(out_path.read_text()) == Graph(2, (frozenset(), frozenset()))

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


def _run_limited(argv):
    """Run ``python -m ufa argv`` in a child process held to 1 GB of
    address space and 60 seconds; returns its exit code, stdout and
    stderr."""
    import resource

    limit = 1 << 30
    done = subprocess.run(
        [sys.executable, "-m", "ufa", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
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

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_VIOLATION, EXIT_PRECONDITION, EXIT_CAP}) == 4

    def test_import_loads_neither_fractions_nor_decimal(self):
        done = subprocess.run(
            [sys.executable, "-c", "import sys, ufa.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
