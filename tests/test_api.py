"""The package's public surface and its documented example."""

import re
import types
from pathlib import Path

import ufa

README = Path(__file__).resolve().parents[1] / "README.md"

# Every public name of the package.  A name joins this list on purpose,
# when the command line or the paper's checks need it; none exists only
# for the tests.
PUBLIC_NAMES = [
    "AmbiguousAutomatonError",
    "BACKWARD",
    "BoundReport",
    "CapExceededError",
    "DEFAULT_CAP",
    "FORWARD",
    "Graph",
    "Nfa",
    "ParseError",
    "ProductBoundReport",
    "SubsetAutomaton",
    "Word",
    "all_graphs",
    "backward_determinize",
    "check_graph_bounds",
    "complement_construction",
    "complement_ufa",
    "count_accepting_runs",
    "count_cliques",
    "count_cocliques",
    "extract_graph",
    "extremal_split_graph",
    "forward_determinize",
    "graph_to_ufa",
    "is_unambiguous",
    "measure_constructions",
    "nearest_k",
    "parse_automaton",
    "parse_graph",
    "serialize_automaton",
    "serialize_graph",
    "verify_product_bound",
    "verify_tightness",
    "witness_ufa",
    "word_text",
    "write_subset_automaton",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(ufa).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert blocks, "no python block under 'Library example'"
    exec(compile(blocks[0], str(README), "exec"), {})
