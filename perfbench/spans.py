"""Per-layer tracing from outside the program.

Tracing wraps the public functions that ufa's modules look up at call
time, wherever a module namespace (or SubsetAutomaton) holds them, and
records one in-memory span per call: name, start, end, parent span and the
operation it ran under.  Counters are read off return values at the same
boundaries.  ``Tracer.uninstall`` puts the original functions back, so
untraced and traced passes run in one process.
"""

import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int


def _subsets(name):
    def record(tracer, args, result):
        tracer.counts[name] += result.state_count
        tracer.counts["automata.table_cells"] += result.state_count * len(result.base.alphabet)
    return record


def _complement(tracer, args, result):
    report = result[1]
    tracer.counts["automata.kept_subsets"] += report.result_states
    tracer.counts["automata.built_subsets"] += (report.k or 0) + (report.l or 0)


def _count(name, measure):
    def record(tracer, args, result):
        tracer.counts[name] += measure(result)
    return record


def _unambiguity_input(tracer, args, result):
    tracer.checked_automata.append(args[0])


# (span name, module, attribute, counter hook).  A missing target is
# reported on stderr and its metrics stay 0.
TARGETS = (
    ("cli.main", "ufa.cli", "main", None),
    ("formats.parse_automaton", "ufa.formats", "parse_automaton", None),
    ("formats.parse_graph", "ufa.formats", "parse_graph", None),
    ("formats.serialize_automaton", "ufa.formats", "serialize_automaton",
     _count("formats.serialize_automaton.bytes", len)),
    ("automata.is_unambiguous", "ufa.automata", "is_unambiguous", _unambiguity_input),
    ("automata.forward_determinize", "ufa.automata", "forward_determinize", _subsets("automata.fwd_subsets")),
    ("automata.backward_determinize", "ufa.automata", "backward_determinize", _subsets("automata.bwd_subsets")),
    ("automata.complement_ufa", "ufa.automata", "complement_ufa", _complement),
    ("automata.as_complement_nfa", "ufa.automata", "SubsetAutomaton.as_complement_nfa",
     _count("automata.complement_transitions", lambda nfa: len(nfa.transitions))),
    ("graphs.check_graph_bounds", "ufa.graphs", "check_graph_bounds",
     _count("graphs.graphs_checked", lambda problems: 1)),
    ("graphs.clique_coclique_partitions", "ufa.graphs", "clique_coclique_partitions", None),
    ("graphs.clique_coclique_covers", "ufa.graphs", "clique_coclique_covers", None),
    ("graphs.count_cliques", "ufa.graphs", "count_cliques", _count("graphs.cliques_counted", int)),
    ("graphs.count_cocliques", "ufa.graphs", "count_cocliques", None),
    ("bridge.witness_ufa", "ufa.bridge", "witness_ufa",
     _count("bridge.letters", lambda nfa: len(nfa.alphabet))),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.checked_automata = []
        self._patched = []  # (owner, attribute, original)

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.checked_automata.clear()

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[index]
                span.start, span.end = start, end
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "ufa" or key.startswith("ufa.")]
        for name, module_name, attribute, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner, _, leaf = attribute.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None)
            if original is None:
                print(f"trace: {module_name}.{attribute} not found; {name} stays 0", file=sys.stderr)
                continue
            traced = self._wrap(name, original, hook)
            if owner:
                self._patched.append((holder, leaf, original))
                setattr(holder, leaf, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def self_seconds(self, paused=lambda start, end: 0.0) -> dict:
        """Per span name, total duration minus the time its child spans
        cover; ``paused(start, end)`` is time inside a span that belongs
        to neither, such as the speed probes."""
        durations = [span.end - span.start - paused(span.start, span.end) for span in self.spans]
        child_time = [0.0] * len(self.spans)
        for span, duration in zip(self.spans, durations):
            if span.parent >= 0:
                child_time[span.parent] += duration
        totals = {}
        for span, duration, covered in zip(self.spans, durations, child_time):
            totals[span.name] = totals.get(span.name, 0.0) + duration - covered
        return totals
