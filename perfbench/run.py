"""Benchmark for ufa: one seeded workload, run in this process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports ufa afresh from this checkout's src/ and makes the
workload's seeded inputs, as files under .perfbench_work/ (the first
set-up of a run writes them; see workloads.InputFiles).  SETUPS_PER_PASS
set-ups precede every pass over the workload's operations, and passes
repeat until --seconds have gone by (at least MIN_PASSES of them); setup_s
is the median set-up, the first one timed from the start of this script.
Spreading the set-ups over the run keeps setup_s from resting on one
moment of a machine whose speed drifts.  Each operation's output is checked against a reference that does
not come from ufa.

Every time in the end-to-end metrics is a wall time at reference speed
(see speed.py): a fixed probe samples the machine's speed throughout the
passes and set-ups, and each interval is scaled by it.  The report line
keeps the raw wall times next to them.

With --trace 0 the result carries the end-to-end metrics: setup_s,
wall_s (one pass, each operation at its median over the passes),
op_ms.p50 and op_ms.p90 (over those per-operation medians) and
peak_rss_mb.  With --trace 1, passes alternate untraced and traced, and
the result carries the per-layer metrics of the traced passes (medians
over them; self times are raw wall times less the probes) plus the
tracing overhead, wall_s traced less wall_s untraced.  The line before
the result is a report: per-operation timings with instance sizes and
checks, fail_ratio, and machine metadata.  The last line is the result
JSON.  Exit status 2, with no result, when ufa
cannot be imported from src/.
"""

import time

STARTED = time.perf_counter()  # set-up is timed from here

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import gen
import ref
from spans import Tracer
from speed import Speedometer
from workloads import WORKLOADS, InputFiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # repetitions of each operation, at least
# Set-ups are short (15-120 ms); several per pass give their median enough
# samples.
SETUPS_PER_PASS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
SELF_TIMED = (
    "cli.main",
    "formats.parse_automaton",
    "formats.parse_graph",
    "formats.serialize_automaton",
    "automata.is_unambiguous",
    "automata.forward_determinize",
    "automata.backward_determinize",
    "automata.complement_ufa",
    "automata.as_complement_nfa",
    "graphs.check_graph_bounds",
    "graphs.clique_coclique_partitions",
    "graphs.clique_coclique_covers",
    "graphs.count_cliques",
    "graphs.count_cocliques",
    "bridge.witness_ufa",
)
COUNTED = {
    "formats.serialize_automaton.bytes": "bytes",
    "automata.fwd_subsets": "count",
    "automata.bwd_subsets": "count",
    "automata.table_cells": "count",
    "automata.complement_transitions": "count",
    "graphs.graphs_checked": "count",
    "graphs.cliques_counted": "count",
    "bridge.letters": "count",
}
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **COUNTED,
    "automata.kept_ratio": "ratio",
    "automata.pairs": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class ProgramMissing(Exception):
    pass


@dataclass
class Record:
    began: float
    ended: float
    code: object
    stdout: str
    error: str
    digest: str = ""
    out_bytes: int = 0
    reference_s: float = 0.0  # the wall time at reference speed

    @property
    def seconds(self) -> float:
        return self.ended - self.began


def import_program():
    """Import ufa afresh from ROOT/src, never from anywhere else."""
    source = ROOT / "src"
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    for name in [m for m in sys.modules if m == "ufa" or m.startswith("ufa.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("ufa.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import ufa from {source}: {exc}") from None
    if Path(cli.__file__).resolve().parent != source / "ufa":
        raise ProgramMissing(f"ufa.cli imported from {cli.__file__}, not from {source}")
    return SimpleNamespace(
        cli=cli,
        formats=importlib.import_module("ufa.formats"),
        graphs=importlib.import_module("ufa.graphs"),
    )


def set_up(build, seed, files, speed, started=None):
    """Returns the set-up's wall time at reference speed and the operations."""
    gc.collect()  # the previous set-up's program and operations
    started = time.perf_counter() if started is None else started
    program = import_program()
    ops = build(seed, files, program)
    return speed.at_reference(started, time.perf_counter()), ops


def _digest(paths) -> tuple:
    digest, size = hashlib.sha256(), 0
    for path in paths:
        try:
            with open(path, "rb") as stream:
                for block in iter(lambda: stream.read(1 << 20), b""):
                    digest.update(block)
                    size += len(block)
        except OSError:
            digest.update(b"<missing>")
    return digest.hexdigest(), size


def run_pass(ops, speed, tracer=None):
    """One timed pass; returns its raw wall time and one Record per
    operation, with its time at reference speed.  Raw times leave out the
    probes."""
    for op in ops:  # so that an output the pass fails to write shows
        for path in op.outputs:
            path.unlink(missing_ok=True)
    gc.collect()
    records = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        began = time.perf_counter()
        try:
            code, stdout = op.run()
            error = ""
        except Exception:
            code, stdout, error = None, "", traceback.format_exc()
        records.append(Record(began, time.perf_counter(), code, stdout, error))
    wall = time.perf_counter() - start
    wall -= speed.probe_seconds(start, start + wall)
    for op, record in zip(ops, records):
        record.digest, size = _digest(op.outputs)
        record.out_bytes = size + len(record.stdout.encode())
        record.reference_s = speed.at_reference(record.began, record.ended)
        record.ended -= speed.probe_seconds(record.began, record.ended)
    return wall, records


def layer_metrics(tracer, records, pair_counts, speed) -> dict:
    values = {f"{name}.self_s": 0.0 for name in SELF_TIMED}
    values.update((f"{name}.self_s", s) for name, s in tracer.self_seconds(speed.probe_seconds).items())
    values.update((name, tracer.counts[name]) for name in COUNTED)
    built = tracer.counts["automata.built_subsets"]
    values["automata.kept_ratio"] = tracer.counts["automata.kept_subsets"] / built if built else 0.0
    pairs = 0
    for nfa in tracer.checked_automata:
        if nfa not in pair_counts:
            pair_counts[nfa] = ref.reachable_pairs(
                gen.Automaton(nfa.state_count, nfa.alphabet, nfa.transitions, nfa.initial, nfa.final)
            )
        pairs += pair_counts[nfa]
    values["automata.pairs"] = pairs
    values["cli.output_bytes"] = sum(r.out_bytes for r in records)
    return values


def median_reference_ms(passes) -> list:
    """Per operation, its median time at reference speed over the passes, in ms."""
    return [statistics.median(records[i].reference_s for _, records in passes) * 1000 for i in range(len(passes[0][1]))]


def judge(ops, plain, traced):
    """Check each operation once, on the files the last pass left, and
    require every other pass to have produced the same outcome."""
    rows, failed = [], 0
    passes = plain + traced
    last = passes[-1][1]
    for index, op in enumerate(ops):
        final = last[index]
        if final.error:
            problems, sizes = [final.error.strip().splitlines()[-1]], {}
            print(f"{op.name} raised:\n{final.error}", file=sys.stderr)
        else:
            try:
                problems, sizes = op.check(final.code, final.stdout)
            except Exception:
                problems, sizes = [traceback.format_exc().strip().splitlines()[-1]], {}
        sizes["out_bytes"] = final.out_bytes
        for _, records in passes:
            outcome = records[index]
            same = (outcome.code, outcome.stdout, outcome.digest) == (final.code, final.stdout, final.digest)
            if problems or outcome.error or not same:
                failed += 1
        if problems:
            print(f"{op.name}: {'; '.join(problems)}", file=sys.stderr)
        rows.append({
            "op": op.name,
            "exit": final.code,
            "ms": [records[index].seconds * 1000 for _, records in plain],
            "reference_ms": [records[index].reference_s * 1000 for _, records in plain],
            "traced_ms": [records[index].seconds * 1000 for _, records in traced],
            "traced_reference_ms": [records[index].reference_s * 1000 for _, records in traced],
            "sizes": sizes,
            "problems": problems,
        })
    return rows, failed


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _commit():
    """HEAD of ROOT's git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(load_before):
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_before": load_before,
        "loadavg_after": _loadavg(),
        "commit": _commit(),
        "src_sha256": source.hexdigest(),
        "note": "CPUs are not pinned and caches are not dropped; other load on the machine shows in the timings",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_before = _loadavg()
    build = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = InputFiles(work)
    speed = Speedometer()
    try:
        setups, plain, traced, pair_counts, layers = [], [], [], {}, []
        tracer = Tracer() if args.trace else None
        began = None
        speed.start()
        while True:
            for _ in range(SETUPS_PER_PASS):
                seconds, ops = set_up(build, args.seed, files, speed, None if setups else STARTED)
                setups.append(seconds)
            if began is None:
                began = time.perf_counter()
            plain.append(run_pass(ops, speed))
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    traced.append(run_pass(ops, speed, tracer))
                finally:
                    tracer.uninstall()
                layers.append(layer_metrics(tracer, traced[-1][1], pair_counts, speed))
            if len(plain) >= MIN_PASSES and time.perf_counter() - began >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows, failed = judge(ops, plain, traced)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        speed.stop()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    # Each operation's latency is its median at reference speed over the
    # passes; one latency per operation keeps the quantiles at fixed ranks.
    latencies = median_reference_ms(plain)
    if args.trace:
        values = {name: statistics.median(layer[name] for layer in layers) for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (sum(median_reference_ms(traced)) - sum(latencies)) / 1000
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(sum(r.reference_s for r in records) for _, records in plain),
            "op_ms.p50": statistics.median(latencies),
            "op_ms.p90": statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    attempted = len(ops) * len(plain + traced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_s": setups,
        "pass_wall_s": [wall for wall, _ in plain],
        "pass_reference_s": [sum(r.reference_s for r in records) for _, records in plain],
        "probes": len(speed.seconds),
        "probe_ms": [round(q * 1000, 4) for q in statistics.quantiles(speed.seconds, n=10)] if len(speed.seconds) > 1 else None,
        "traced_pass_wall_s": [wall for wall, _ in traced],
        "op_samples": len(latencies),
        "fail_ratio": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "machine": machine(load_before),
        "rows": rows,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
