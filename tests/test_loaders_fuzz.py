"""Malformed input never escapes the loaders as anything but ScenarioError
or TraceError.  Each example takes a committed config or a real
counterexample trace, damages one spot of its JSON tree (replaces a
value, deletes a key or list entry, or swaps in arbitrary JSON) and feeds
the text to the matching loader."""
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from passivesafe import TraceError, check_safety, load_scenario, load_sim_config, load_sweep_spec
from passivesafe.checker import trace_from_jsonl, trace_to_jsonl
from passivesafe.model import ScenarioError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_scenario_text = (CONFIGS / "head_on_under_assumption.json").read_text()
_scenario = load_scenario(_scenario_text)
_trace_lines = [
    json.loads(line)
    for line in trace_to_jsonl(check_safety(_scenario).counterexample, _scenario).splitlines()
]

DOCUMENTS = {
    "scenario": (json.loads(_scenario_text), lambda doc: load_scenario(json.dumps(doc))),
    "runtime": (json.loads((CONFIGS / "runtime.json").read_text()),
                lambda doc: load_sim_config(json.dumps(doc))),
    "sweep": (json.loads((CONFIGS / "sweep.json").read_text()),
              lambda doc: load_sweep_spec(json.dumps(doc))),
    # A list is written one JSON value per line, which is the trace format.
    "trace": (_trace_lines,
              lambda doc: trace_from_jsonl("\n".join(map(json.dumps, doc)) + "\n")),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=6,
)


def damage(draw, node, depth=0):
    """A copy of ``node`` with one spot replaced, deleted or descended into."""
    children = list(node.items() if isinstance(node, dict) else
                    enumerate(node) if isinstance(node, list) else [])
    if not children or (depth > 0 and draw(st.integers(0, 3)) == 0):
        return draw(json_values)
    key, child = draw(st.sampled_from(children))
    copy = dict(node) if isinstance(node, dict) else list(node)
    if draw(st.integers(0, 4)) == 0:
        del copy[key]
    else:
        copy[key] = damage(draw, child, depth + 1)
    return copy


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(DOCUMENTS)), data=st.data())
def test_damaged_inputs_raise_only_documented_errors(name, data):
    document, load = DOCUMENTS[name]
    try:
        load(damage(data.draw, document))
    except (ScenarioError, TraceError):
        pass
