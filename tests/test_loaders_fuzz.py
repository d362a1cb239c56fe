"""Malformed input never escapes the loaders as anything but ScenarioError
or TraceError, and never ends the CLI in an undocumented exit code.  Each
example takes a committed config or a real counterexample trace, damages
one spot of its JSON tree (replaces a value, deletes a key or list entry,
or swaps in arbitrary JSON) and feeds the text to the matching loader or
CLI command."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from passivesafe import TraceError, check_safety, load_scenario, load_sim_config, load_sweep_spec
from passivesafe.counterexample import trace_from_jsonl, trace_to_jsonl
from passivesafe.cli import main
from passivesafe.model import RobotMode, ScenarioError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

_scenario_path = CONFIGS / "head_on_under_assumption.json"
_scenario_text = _scenario_path.read_text()
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

def json_values(max_int=10**6):
    return st.recursive(
        st.none() | st.booleans() | st.integers(-max_int, max_int) | st.floats()
        | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                   max_size=3),
        max_leaves=6,
    )


def damage(draw, node, values, depth=0):
    """A copy of ``node`` with one spot replaced, deleted or descended into."""
    children = list(node.items() if isinstance(node, dict) else
                    enumerate(node) if isinstance(node, list) else [])
    if not children or (depth > 0 and draw(st.integers(0, 3)) == 0):
        return draw(values)
    key, child = draw(st.sampled_from(children))
    copy = dict(node) if isinstance(node, dict) else list(node)
    if draw(st.integers(0, 4)) == 0:
        del copy[key]
    else:
        copy[key] = damage(draw, child, values, depth + 1)
    return copy


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(DOCUMENTS)), data=st.data())
def test_damaged_inputs_raise_only_documented_errors(name, data):
    document, load = DOCUMENTS[name]
    try:
        load(damage(data.draw, document, json_values()))
    except (ScenarioError, TraceError):
        pass


# The CLI runs what it loads, so its documents are kept cheap to run: a
# small sweep, a state budget on `check`, and integers no larger than 50
# (a damaged runsPerCell or maxTicks stays small).
CLI_DOCUMENTS = {
    "scenario": DOCUMENTS["scenario"][0],
    "runtime": DOCUMENTS["runtime"][0],
    "sweep": {**DOCUMENTS["sweep"][0], "obstacleVelGrid": [0.3],
              "reactionRadiusGrid": [0.48, 1.0], "runsPerCell": 2},
    "trace": DOCUMENTS["trace"][0],
}


def _cli_args(name: str, doc: Path, scratch: Path) -> list[str]:
    return {
        "scenario": ["check", str(doc), "--budget", "2000",
                     "--trace", str(scratch / "ce.jsonl")],
        "runtime": ["simulate", str(doc), "--trace", str(scratch / "run.jsonl")],
        "sweep": ["sweep", str(doc), "--out", str(scratch / "out.csv")],
        "trace": ["replay", str(_scenario_path), str(doc)],
    }[name]


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(CLI_DOCUMENTS)), data=st.data())
def test_damaged_documents_end_in_documented_exit_codes(name, data):
    damaged = damage(data.draw, CLI_DOCUMENTS[name], json_values(max_int=50))
    text = "\n".join(map(json.dumps, damaged)) + "\n" if name == "trace" else json.dumps(damaged)
    with tempfile.TemporaryDirectory() as scratch:
        doc = Path(scratch) / "doc.json"
        doc.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(_cli_args(name, doc, Path(scratch)))
    assert code in {0, 2, 3, 64, 65, 66}


_VIOLATED = {}      # config path -> its counterexample's JSON records
for _name in ("head_on_under_assumption.json", "head_on_two_movers_under_assumption.json"):
    _path = CONFIGS / _name
    _violated = load_scenario(_path.read_text())
    _VIOLATED[str(_path)] = [json.loads(line) for line in trace_to_jsonl(
        check_safety(_violated).counterexample, _violated).splitlines()]


def _other_values(old):
    """JSON values that are not ``old``: others of its type, and others
    equal to it in Python but of another JSON type (``1.0`` or ``true``
    for ``1``, ``1`` for ``true``)."""
    if isinstance(old, str):
        same = st.sampled_from([mode.value for mode in RobotMode])
        alike = st.nothing()
    else:
        same = st.booleans() if isinstance(old, bool) else st.integers(-3, 60)
        alike = st.sampled_from([float(old), int(old), bool(old)])
    return (same | alike | st.sampled_from([None, "x", [], {}])).filter(
        lambda value: type(value) is not type(old) or value != old)


@settings(max_examples=100, deadline=None)
@given(scenario=st.sampled_from(sorted(_VIOLATED)), data=st.data())
def test_a_step_line_that_misstates_one_snapshot_field_exits_65(scenario, data):
    """One field of one step line's robot or obstacle snapshot changed in
    a valid counterexample: replay exits 65 naming the line and the key."""
    records = json.loads(json.dumps(_VIOLATED[scenario]))
    k = data.draw(st.integers(1, len(records) - 1), label="line index")
    step = records[k]
    snapshot = data.draw(st.sampled_from([step["robot"], *step["obstacles"]]))
    key = data.draw(st.sampled_from(sorted(snapshot)), label="key")
    snapshot[key] = data.draw(_other_values(snapshot[key]), label="value")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        doc = Path(scratch) / "cex.jsonl"
        doc.write_text("\n".join(map(json.dumps, records)) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["replay", scenario, str(doc)])
    assert code == 65
    (line,) = err.getvalue().splitlines()
    assert line.startswith(f"error: trace line {k + 1}: ") and key in line, line
