"""Sweep harness determinism and the command-line exit-code contract."""
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path, PurePath

import pytest

from passivesafe import (GridScenario, SimConfig, SweepSpec, cli, load_sweep_spec, run_sweep,
                         sweep_result_to_csv)
from passivesafe import sweep as sweep_module
from passivesafe.cli import EX_DATAERR, EX_NOINPUT, EX_USAGE, main
from passivesafe.model import ScenarioError, TraceError, _to_dict
from passivesafe.sim import sim_config_to_dict
from passivesafe.sweep import _SPEC_KEYS
from helpers import read_trace_jsonl

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL_SPEC = SweepSpec(
    base=SimConfig(),
    obstacle_vel_grid=(0.2, 0.3),
    reaction_radius_grid=(0.48, 0.8),
    runs_per_cell=5,
    seed_base=7,
)


def test_cells_enumerate_velocity_major():
    assert SMALL_SPEC.cells() == [(0.2, 0.48), (0.2, 0.8), (0.3, 0.48), (0.3, 0.8)]


def test_sweep_csv_deterministic_and_order_independent():
    sequential = sweep_result_to_csv(run_sweep(SMALL_SPEC, workers=1))
    again = sweep_result_to_csv(run_sweep(SMALL_SPEC, workers=1))
    parallel = sweep_result_to_csv(run_sweep(SMALL_SPEC, workers=3))
    assert sequential == again == parallel


def test_csv_shape():
    csv = sweep_result_to_csv(run_sweep(SMALL_SPEC))
    lines = csv.splitlines()
    assert lines[0] == "obstacle_vel_mps,reaction_radius_m,runs,active_collisions,reached_goal,stopped_safe"
    assert len(lines) == 1 + 4
    assert csv.endswith("\n") and "\r" not in csv
    for line in lines[1:]:
        vel, radius, runs, active, goal, stopped = line.split(",")
        assert int(active) <= int(runs) == 5
        assert int(active) + int(goal) + int(stopped) <= int(runs)


def test_counts_match_direct_simulation():
    from dataclasses import replace
    from passivesafe import SimOutcome, simulate

    result = run_sweep(SMALL_SPEC)
    cell = result.cells[2]   # (0.3, 0.48), cell index 2
    expected = 0
    for run in range(SMALL_SPEC.runs_per_cell):
        config = replace(
            SMALL_SPEC.base,
            obstacle_true_max_vel=0.3,
            reaction_radius=0.48,
            seed=SMALL_SPEC.seed_base + 2 * SMALL_SPEC.runs_per_cell + run,
        )
        if simulate(config, collect_states=False).outcome is SimOutcome.ACTIVE_COLLISION:
            expected += 1
    assert cell.active_collisions == expected


def test_sweep_spec_json_round_trip():
    text = (CONFIGS / "sweep.json").read_text()
    spec = load_sweep_spec(text)
    assert spec.obstacle_vel_grid == (0.15, 0.2, 0.25, 0.3)
    assert spec.runs_per_cell == 30


def test_sweep_spec_rejects_unknown_key():
    with pytest.raises(ScenarioError, match="runsPerCel"):
        load_sweep_spec('{"base": {}, "obstacleVelGrid": [0.1], '
                        '"reactionRadiusGrid": [0.5], "runsPerCel": 3}')


def test_sweep_spec_rejects_empty_grid():
    with pytest.raises(ScenarioError, match="obstacleVelGrid"):
        load_sweep_spec('{"base": {}, "obstacleVelGrid": [], "reactionRadiusGrid": [0.5]}')


@pytest.mark.parametrize("change, message", [
    ({"runs_per_cell": 1.5}, "runsPerCell must be an integer"),
    ({"runs_per_cell": True}, "runsPerCell must be an integer"),
    ({"obstacle_vel_grid": (0.2, "0.3")}, r"obstacleVelGrid\[1\] must be a number"),
    ({"obstacle_vel_grid": 0.2}, "obstacleVelGrid must be a list of numbers"),
    ({"seed_base": 0.5}, "seedBase must be an integer"),
])
def test_python_built_and_loaded_specs_fail_alike(change, message):
    spec = replace(SMALL_SPEC, **change)
    with pytest.raises(ScenarioError, match=message):
        run_sweep(spec)
    text = json.dumps(_to_dict(spec, _SPEC_KEYS, base=sim_config_to_dict))
    with pytest.raises(ScenarioError, match=message):
        load_sweep_spec(text)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_check_holds_exits_zero(capsys):
    assert main(["check", str(CONFIGS / "head_on.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "Holds"


def test_check_violated_writes_replayable_trace(tmp_path, capsys):
    trace_path = tmp_path / "ce.jsonl"
    code = main(["check", str(CONFIGS / "head_on_under_assumption.json"),
                 "--trace", str(trace_path)])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "Violated"
    assert trace_path.exists()
    assert main(["replay", str(CONFIGS / "head_on_under_assumption.json"),
                 str(trace_path)]) == 0


def test_check_budget_exhaustion_exits_three(capsys):
    assert main(["check", str(CONFIGS / "head_on.json"), "--budget", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == (
        '{"outcome": "Inconclusive", "statesExplored": 11, "maxDepth": 2, '
        '"counterexampleLength": null, "depthBound": null, "reachedFixpoint": false}\n')
    assert captured.err == ("inconclusive: state budget 10 exceeded: 11 states, "
                            "12 transitions, peak frontier 7, max depth 2\n")


def test_replay_against_wrong_scenario_fails(tmp_path, capsys):
    trace_path = tmp_path / "ce.jsonl"
    main(["check", str(CONFIGS / "head_on_under_assumption.json"),
          "--trace", str(trace_path)])
    capsys.readouterr()
    # the trace belongs to the under-assumption scenario, not this one
    assert main(["replay", str(CONFIGS / "head_on.json"), str(trace_path)]) == EX_DATAERR


def test_simulate_exit_codes(tmp_path, capsys):
    assert main(["simulate", str(CONFIGS / "runtime.json"), "--seed", "1"]) == 0
    capsys.readouterr()

    unsafe = dict(json.loads((CONFIGS / "runtime.json").read_text()))
    unsafe["obstacleTrueMaxVel"] = 0.3
    unsafe["reactionRadius"] = 0.4
    unsafe_path = tmp_path / "unsafe.json"
    unsafe_path.write_text(json.dumps(unsafe))
    codes = {main(["simulate", str(unsafe_path), "--seed", str(seed)]) for seed in range(20)}
    capsys.readouterr()
    assert 2 in codes


def test_simulate_tick_budget_exhaustion_exits_three(tmp_path, capsys):
    stuck = dict(json.loads((CONFIGS / "runtime.json").read_text()))
    stuck["maxTicks"] = 3   # nowhere near the goal in three ticks
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(stuck))
    assert main(["simulate", str(path)]) == 3
    assert json.loads(capsys.readouterr().out)["outcome"] == "TickBudgetExhausted"


@pytest.mark.parametrize("config, seed, code", [
    ("runtime.json", "1", 0),
    ("runtime_precondition_gap.json", "1", 2),
    ("runtime.json", None, 3),
], ids=["safe", "active-collision", "tick-budget"])
def test_simulate_without_trace_builds_no_states(config, seed, code, tmp_path, capsys,
                                                 monkeypatch):
    """Without ``--trace`` nothing reads the per-tick states, so none is
    built; stdout and the exit code are those of the run that builds them."""
    from passivesafe import sim
    path = tmp_path / "config.json"
    data = json.loads((CONFIGS / config).read_text())
    if code == 3:
        data["maxTicks"] = 3
    path.write_text(json.dumps(data))
    argv = ["simulate", str(path)] + (["--seed", seed] if seed else [])
    assert main(argv + ["--trace", str(tmp_path / "run.jsonl")]) == code
    expected = capsys.readouterr().out

    def no_state(*args):
        raise AssertionError("a SimState was built")

    monkeypatch.setattr(sim, "SimState", no_state)
    assert main(argv) == code
    assert capsys.readouterr().out == expected


def test_simulate_writes_trace(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["simulate", str(CONFIGS / "runtime.json"), "--trace", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "config"
    assert json.loads(lines[-1])["type"] == "outcome"


def test_sweep_cli_byte_identical_across_workers(tmp_path, capsys):
    spec = {
        "base": {},
        "obstacleVelGrid": [0.2, 0.3],
        "reactionRadiusGrid": [0.48, 0.8],
        "runsPerCell": 4,
        "seedBase": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", str(spec_path), "--out", str(a)]) == 0
    assert main(["sweep", str(spec_path), "--out", str(b), "--workers", "2"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])   # missing scenario argument
    assert exc.value.code == EX_USAGE
    capsys.readouterr()


def test_missing_file_exit_code(capsys):
    assert main(["check", "/nonexistent/scenario.json"]) == EX_NOINPUT
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check", str(CONFIGS / "head_on_under_assumption.json"), "--trace", "{out}"],
    ["simulate", str(CONFIGS / "runtime.json"), "--trace", "{out}"],
    ["sweep", "{spec}", "--out", "{out}"],
], ids=["check", "simulate", "sweep"])
def test_unwritable_output_exits_noinput(tmp_path, capsys, argv):
    out = str(tmp_path / "missing" / "out")
    argv = [arg.format(out=out, spec=_small_spec_file(tmp_path)) for arg in argv]
    assert main(argv) == EX_NOINPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cannot write {out}: No such file or directory\n"


def test_malformed_scenario_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"trackLengthCells": 10}')
    assert main(["check", str(bad)]) == EX_DATAERR
    capsys.readouterr()


@pytest.fixture
def validations(monkeypatch):
    """Every ``GridScenario.validate`` call, as the scenario it validated."""
    calls = []
    plain = GridScenario.validate

    def spy(scenario):
        calls.append(scenario)
        plain(scenario)

    monkeypatch.setattr(GridScenario, "validate", spy)
    return calls


@pytest.mark.parametrize("config", ["head_on.json", "head_on_under_assumption.json"])
def test_check_and_replay_validate_the_scenario_once(tmp_path, capsys, validations, config):
    """`check` builds the record from the file's shape and leaves the
    types and values to `check_safety`; `replay` validates as it loads."""
    trace_path = tmp_path / "ce.jsonl"
    code = main(["check", str(CONFIGS / config), "--trace", str(trace_path)])
    assert len(validations) == 1
    if code == 2:
        assert main(["replay", str(CONFIGS / config), str(trace_path)]) == 0
        assert len(validations) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "replay"])
@pytest.mark.parametrize("change, message", [
    ({"robotMaxVel": 0}, "robotMaxVel must be >= 1"),
    ({"laneCount": 1.5}, "laneCount must be an integer"),
    ({"obstacles": [{"id": 0, "startCell": 40, "lane": 1, "isStatic": "no"}]},
     "obstacles[0].isStatic must be a boolean"),
    ({"assumptions": {"assumedObstacleMaxVel": 2, "visualRadius": 30, "buffer": -1}},
     "assumptions.buffer must be > 0"),
])
def test_invalid_scenario_exits_dataerr_with_one_line(tmp_path, monkeypatch, capsys, validations,
                                                      command, change, message):
    """A scenario of the right shape that fails ``validate()`` exits 65
    with one stderr line, validated once, and `check` writes no
    counterexample."""
    monkeypatch.chdir(tmp_path)
    data = {**json.loads((CONFIGS / "head_on_under_assumption.json").read_text()), **change}
    (tmp_path / "bad.json").write_text(json.dumps(data))
    argv = [command, "bad.json"]
    if command == "replay":
        main(["check", str(CONFIGS / "head_on_under_assumption.json"), "--trace", "ce.jsonl"])
        capsys.readouterr()
        validations.clear()
        argv.append("ce.jsonl")
    assert main(argv) == EX_DATAERR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert len(validations) == 1
    assert list(tmp_path.glob("bad.counterexample.jsonl")) == []


_HUGE = 10**310


@pytest.mark.parametrize("edit, key", [
    (lambda data: data.update(robotMaxVel=10**160), "robotMaxVel"),
    (lambda data: (data.update(trackLengthCells=_HUGE + 100, robotStartCell=_HUGE,
                               robotDestCell=_HUGE + 90),
                   data["obstacles"][0].update(startCell=_HUGE + 5, destCell=_HUGE)),
     "trackLengthCells"),
], ids=["robotMaxVel", "trackLengthCells"])
def test_grid_integer_too_large_for_a_float_exits_dataerr(tmp_path, capsys, edit, key):
    """``head_on.json`` under an assumed bound of 2.5 with a robot speed,
    or a track whose cells, are past a float's range: the danger rule's
    mixed int/float arithmetic would overflow, so `check` refuses the
    scenario with one line naming the key."""
    data = json.loads((CONFIGS / "head_on.json").read_text())
    data["assumptions"]["assumedObstacleMaxVel"] = 2.5
    edit(data)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--budget", "200"]) == EX_DATAERR
    assert _one_line_error(capsys) == f"error: {key} must be <= 2**53 (9007199254740992)\n"


def test_scenario_without_assumptions_exits_dataerr(tmp_path, monkeypatch, capsys):
    """A scenario is checked only against assumptions it states: with none,
    `check` gives no verdict and writes no counterexample."""
    data = json.loads((CONFIGS / "head_on.json").read_text())
    del data["assumptions"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "head_on.json").write_text(json.dumps(data))
    assert main(["check", "head_on.json"]) == EX_DATAERR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: missing required field scenario.assumptions\n"
    assert list(tmp_path.glob("*.counterexample.jsonl")) == []


def test_negative_depth_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(CONFIGS / "head_on_under_assumption.json"), "--depth", "-1"])
    assert exc.value.code == EX_USAGE
    assert "--depth: must be >= 0" in capsys.readouterr().err


def test_negative_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(CONFIGS / "runtime.json"), "--seed", "-1"])
    assert exc.value.code == EX_USAGE
    assert "--seed: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_nonpositive_budget_is_usage_error(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(CONFIGS / "head_on.json"), "--budget", budget])
    assert exc.value.code == EX_USAGE
    assert f"--budget: must be >= 1, got {budget}" in capsys.readouterr().err


def _first_obstacle(**change):
    return lambda data: data["obstacles"][0].update(change)


_VALIDATION_MESSAGES = [
    ("check", "head_on.json", lambda d: d.update(trackLengthCells=1), EX_DATAERR,
     "error: trackLengthCells must be >= 2"),
    ("check", "head_on.json", lambda d: d.update(laneCount=0), EX_DATAERR,
     "error: laneCount must be >= 1"),
    ("check", "head_on.json", lambda d: d.update(robotDestCell=50), EX_DATAERR,
     "error: robotDestCell beyond end of track"),
    ("check", "head_on.json", lambda d: d.update(robotStartLane=3), EX_DATAERR,
     "error: robotStartLane: lane out of range"),
    ("check", "head_on.json", lambda d: d["obstacles"].append(d["obstacles"][0]), EX_DATAERR,
     "error: duplicate obstacle id 0"),
    ("check", "head_on.json", _first_obstacle(startCell=50), EX_DATAERR,
     "error: obstacle 0: startCell out of range"),
    ("check", "head_on.json", _first_obstacle(destCell=-1), EX_DATAERR,
     "error: obstacle 0: destCell out of range"),
    ("check", "head_on.json", _first_obstacle(maxVel=0), EX_DATAERR,
     "error: obstacle 0: maxVel must be >= 1"),
    ("simulate", "runtime.json", lambda d: d.update(visualRange=0.0), EX_DATAERR,
     "error: visualRange must be > 0"),
    ("simulate", "runtime.json", lambda d: d.update(buffer=-0.1), EX_DATAERR,
     "error: buffer must be >= 0"),
    ("simulate", "runtime.json", lambda d: d.update(obstacleStart=0.0), EX_DATAERR,
     "error: obstacleStart must lie ahead of the robot"),
    ("simulate", "runtime.json", lambda d: d.update(trackLength=11.0), EX_DATAERR,
     "error: robotDest and obstacleStart must fit on the track"),
    ("simulate", "runtime.json", lambda d: d.update(maxTicks=0), EX_DATAERR,
     "error: maxTicks must be >= 1"),
    ("sweep", "sweep.json", lambda d: d.update(runsPerCell=0), EX_DATAERR,
     "error: runsPerCell must be >= 1"),
    ("check", "head_on.json", None, EX_USAGE,
     "passivesafe check: error: argument --budget: invalid int value: 'x'"),
]


@pytest.mark.parametrize("command, config, edit, code, message", _VALIDATION_MESSAGES,
                         ids=[case[-1].split("error: ")[1] for case in _VALIDATION_MESSAGES])
def test_each_validation_message_exits_with_one_line(tmp_path, capsys, command, config, edit,
                                                     code, message):
    """One input per message of the scenario, simulation config and sweep
    spec checks, and the CLI's int parser: it exits with the documented
    code, prints one error line to stderr (a usage error after the
    parser's usage) and writes nothing to stdout or to the sweep's CSV."""
    data = json.loads((CONFIGS / config).read_text())
    path, out = tmp_path / config, tmp_path / "out.csv"
    if edit is not None:
        edit(data)
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + {"sweep": ["--out", str(out)]}.get(command, [])
    if code == EX_USAGE:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", "x"])
        assert exc.value.code == code
    else:
        assert main(argv) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    if code == EX_USAGE:    # the usage, its continuation lines indented, comes first
        assert lines[0].startswith(f"usage: passivesafe {command} ")
        lines = [line for line in lines[1:] if not line.startswith(" ")]
    assert lines == [message]
    assert captured.out == "" and "Traceback" not in captured.err
    assert not out.exists()



def _small_spec_file(tmp_path) -> str:
    spec = {
        "base": {},
        "obstacleVelGrid": list(SMALL_SPEC.obstacle_vel_grid),
        "reactionRadiusGrid": list(SMALL_SPEC.reaction_radius_grid),
        "runsPerCell": SMALL_SPEC.runs_per_cell,
        "seedBase": SMALL_SPEC.seed_base,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_nonpositive_workers_is_usage_error(tmp_path, capsys, workers):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", _small_spec_file(tmp_path), "--out", str(out), "--workers", workers])
    assert exc.value.code == EX_USAGE
    assert f"--workers: must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def forks(monkeypatch):
    """Records each ``os.fork`` this process makes, then forks for real."""
    calls = []
    real = os.fork

    def recording():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", recording)
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers, children", [(2, 1), (4, 3), (5, 3), (5000, 3)])
def test_sweep_forks_at_most_one_process_per_cell(forks, workers, children):
    csv = sweep_result_to_csv(run_sweep(SMALL_SPEC, workers=workers))
    assert len(forks) == children    # SMALL_SPEC has four cells; this process is one
    assert csv == sweep_result_to_csv(run_sweep(SMALL_SPEC, workers=1))
    assert len(forks) == children


def test_single_cell_sweep_runs_in_process(forks):
    spec = replace(SMALL_SPEC, obstacle_vel_grid=(0.2,), reaction_radius_grid=(0.48,))
    run_sweep(spec, workers=8)
    assert forks == []


def test_sweep_cli_caps_workers_at_cells(tmp_path, capsys, forks):
    out = tmp_path / "out.csv"
    assert main(["sweep", _small_spec_file(tmp_path), "--out", str(out), "--workers", "5000"]) == 0
    capsys.readouterr()
    assert len(forks) == 3
    assert out.read_text() == sweep_result_to_csv(run_sweep(SMALL_SPEC))


def test_parallel_sweep_leaves_no_child():
    run_sweep(SMALL_SPEC, workers=3)
    _assert_no_child_left()


def _fail_in_cell_1(monkeypatch):
    """Makes the first episode of SMALL_SPEC's cell 1 raise; at two
    workers, cell 1 is in the forked worker's stripe."""
    real = sweep_module._episode

    def failing(config, seed, **kwargs):
        if seed == SMALL_SPEC.seed_base + SMALL_SPEC.runs_per_cell:
            raise ValueError("episode failed")
        return real(config, seed, **kwargs)

    monkeypatch.setattr(sweep_module, "_episode", failing)


def test_failed_child_raises_and_is_reaped(monkeypatch):
    _fail_in_cell_1(monkeypatch)
    with pytest.raises(RuntimeError) as failure:
        run_sweep(SMALL_SPEC, workers=2)
    assert str(failure.value) == "sweep worker 1 failed: exit code 1: ValueError: episode failed"
    _assert_no_child_left()


@pytest.fixture
def episodes(monkeypatch):
    """Counts the episodes the sweep runs, in this process."""
    calls = []
    real = sweep_module._episode

    def counting(config, seed, **kwargs):
        calls.append(seed)
        return real(config, seed, **kwargs)

    monkeypatch.setattr(sweep_module, "_episode", counting)
    return calls


def test_sweep_runs_each_seed_of_each_cell_once(episodes):
    run_sweep(SMALL_SPEC)
    assert episodes == list(range(7, 7 + 4 * 5))


@pytest.mark.parametrize("grid, value, message", [
    ("obstacleVelGrid", 0.0, "obstacleTrueMaxVel must be > 0"),
    ("obstacleVelGrid", -0.1, "obstacleTrueMaxVel must be > 0"),
    ("reactionRadiusGrid", 2.5, "need 0 < reactionRadius <= visualRange"),
])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_invalid_grid_value_fails_before_any_episode(tmp_path, capsys, forks, episodes,
                                                     grid, value, message, workers):
    spec = json.loads(Path(_small_spec_file(tmp_path)).read_text())
    spec[grid] = [*spec[grid], value]   # the last cells, after valid ones
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out.csv"
    assert main(["sweep", str(path), "--out", str(out), "--workers", workers]) == EX_DATAERR
    assert _one_line_error(capsys) == f"error: {message}\n"
    assert episodes == [] and forks == []
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_unwritable_sweep_output_fails_before_any_episode(tmp_path, capsys, forks, episodes,
                                                          workers):
    out = str(tmp_path / "missing" / "out.csv")
    argv = ["sweep", _small_spec_file(tmp_path), "--out", out, "--workers", workers]
    assert main(argv) == EX_NOINPUT
    assert _one_line_error(capsys) == f"cannot write {out}: No such file or directory\n"
    assert episodes == [] and forks == []


@pytest.mark.parametrize("workers, error", [("1", ValueError), ("2", RuntimeError)])
@pytest.mark.parametrize("before", [None, "an earlier sweep\n"])
def test_failed_sweep_leaves_no_partial_csv(tmp_path, monkeypatch, capsys, workers, error, before):
    _fail_in_cell_1(monkeypatch)
    out = tmp_path / "out.csv"
    if before is not None:
        out.write_text(before)
    with pytest.raises(error):
        main(["sweep", _small_spec_file(tmp_path), "--out", str(out), "--workers", workers])
    assert (out.read_text() if out.exists() else None) == before
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------

@pytest.fixture
def parser_builds(monkeypatch):
    """Starts the process's shared parser afresh and counts its builds."""
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    return builds


def test_check_options_do_not_leak_into_the_next_call(tmp_path, monkeypatch, capsys,
                                                      parser_builds):
    monkeypatch.chdir(tmp_path)
    scenario = str(CONFIGS / "head_on_under_assumption.json")
    custom = str(tmp_path / "custom.jsonl")
    assert main(["check", scenario, "--depth", "3", "--trace", custom]) == 0
    assert json.loads(capsys.readouterr().out)["depthBound"] == 3
    assert main(["check", scenario, "--depth", "8", "--trace", custom]) == 2
    assert json.loads(capsys.readouterr().out)["counterexamplePath"] == custom
    assert main(["check", scenario]) == 2
    plain = json.loads(capsys.readouterr().out)
    assert plain["depthBound"] is None
    assert plain["counterexamplePath"] == "head_on_under_assumption.counterexample.jsonl"
    assert parser_builds == [1]


@pytest.mark.parametrize("name", ["a.b.json", ".hidden", "foo.", os.path.join("sub", "dir", "x.json")])
def test_default_counterexample_name_is_the_pathlib_stem(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / name
    scenario.parent.mkdir(parents=True, exist_ok=True)
    scenario.write_bytes((CONFIGS / "head_on_under_assumption.json").read_bytes())
    assert main(["check", name]) == 2
    expected = PurePath(name).stem + ".counterexample.jsonl"
    assert json.loads(capsys.readouterr().out)["counterexamplePath"] == expected
    assert (tmp_path / expected).is_file()


def test_usage_error_leaves_the_parser_usable(capsys, parser_builds):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(CONFIGS / "head_on.json"), "--budget", "0"])
    assert exc.value.code == EX_USAGE
    assert main(["check", str(CONFIGS / "head_on.json")]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "Holds"
    assert parser_builds == [1]


def test_interleaved_commands_match_fresh_parsers(tmp_path, monkeypatch, capsys, parser_builds):
    scenario = str(CONFIGS / "head_on_under_assumption.json")
    trace = str(tmp_path / "ce.jsonl")
    csv = str(tmp_path / "out.csv")
    calls = [
        ["check", scenario, "--trace", trace],
        ["replay", scenario, trace],
        ["simulate", str(CONFIGS / "runtime.json"), "--seed", "4"],
        ["sweep", _small_spec_file(tmp_path), "--out", csv, "--workers", "1"],
        ["check", str(CONFIGS / "head_on.json"), "--budget", "10"],
        ["simulate", str(CONFIGS / "runtime.json")],
        ["replay", str(CONFIGS / "head_on.json"), trace],
        ["sweep", _small_spec_file(tmp_path), "--out", csv],
        ["check", str(CONFIGS / "head_on.json")],
    ]

    def run_all(fresh: bool):
        results = []
        for argv in calls:
            if fresh:
                monkeypatch.setattr(cli, "_parser", None)
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = run_all(fresh=False)
    assert parser_builds == [1]
    assert shared == run_all(fresh=True)
    assert len(parser_builds) == 1 + len(calls)
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 3, 0, EX_DATAERR, 0, 0]


def test_verdict_reports_depth_bound_and_fixpoint(capsys):
    scenario = str(CONFIGS / "head_on.json")
    assert main(["check", scenario, "--depth", "5"]) == 0
    bounded = json.loads(capsys.readouterr().out)
    assert main(["check", scenario]) == 0
    unbounded = json.loads(capsys.readouterr().out)
    keys = ["outcome", "statesExplored", "maxDepth", "counterexampleLength",
            "depthBound", "reachedFixpoint"]
    assert list(bounded) == list(unbounded) == keys
    assert (bounded["depthBound"], bounded["reachedFixpoint"]) == (5, False)
    assert (unbounded["depthBound"], unbounded["reachedFixpoint"]) == (None, True)


def test_violated_verdict_appends_new_keys_after_trace_path(tmp_path, capsys):
    trace_path = tmp_path / "ce.jsonl"
    assert main(["check", str(CONFIGS / "head_on_under_assumption.json"),
                 "--trace", str(trace_path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert list(out)[4:] == ["counterexamplePath", "depthBound", "reachedFixpoint"]
    assert out["reachedFixpoint"] is False


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


_LONG_INT = "9" * 5000   # past CPython's int-string digit limit


def test_overlong_integer_literal_exits_dataerr(tmp_path, capsys):
    text = (CONFIGS / "head_on.json").read_text()
    path = tmp_path / "long.json"
    path.write_text(text.replace('"trackLengthCells": 50', f'"trackLengthCells": {_LONG_INT}'))
    assert main(["check", str(path)]) == EX_DATAERR
    assert "integer string conversion" in _one_line_error(capsys)

    scenario = str(CONFIGS / "head_on_under_assumption.json")
    trace_path = tmp_path / "ce.jsonl"
    assert main(["check", scenario, "--trace", str(trace_path)]) == 2
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    lines[1] = lines[1].replace('"tick": 1,', f'"tick": {_LONG_INT},')
    assert _LONG_INT in lines[1]
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["replay", scenario, str(trace_path)]) == EX_DATAERR
    assert "trace line 2: " in _one_line_error(capsys)


def _with_nan(config: str, *path: str) -> str:
    """The committed config's JSON text with the field at ``path`` set to NaN."""
    document = json.loads((CONFIGS / config).read_text())
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = float("nan")
    return json.dumps(document)


@pytest.mark.parametrize("command, config, path, message", [
    ("simulate", "runtime.json", ("obstacleTrueMaxVel",), "obstacleTrueMaxVel must be a finite"),
    ("simulate", "runtime.json", ("dt",), "dt must be a finite number"),
    ("check", "head_on.json", ("assumptions", "buffer"), "assumptions.buffer must be a finite"),
], ids=["simulate-obstacleTrueMaxVel", "simulate-dt", "check-buffer"])
def test_nan_number_exits_dataerr(tmp_path, capsys, command, config, path, message):
    doc = tmp_path / config
    doc.write_text(_with_nan(config, *path))
    assert "NaN" in doc.read_text()
    assert main([command, str(doc), "--trace", str(tmp_path / "trace.jsonl")]) == EX_DATAERR
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("key, value, message", [
    ("runsPerCell", "30", "runsPerCell must be an integer"),
    ("obstacleVelGrid", [0.1, "x"], "obstacleVelGrid[1] must be a number"),
    ("seedBase", 1.5, "seedBase must be an integer"),
])
def test_sweep_spec_field_types_exit_dataerr(tmp_path, capsys, key, value, message):
    spec = json.loads((CONFIGS / "sweep.json").read_text())
    spec[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path), "--out", str(tmp_path / "out.csv")]) == EX_DATAERR
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("damage, message", [
    (lambda initial, step: (initial, {k: v for k, v in step.items() if k != "tick"}),
     "missing required field step.tick"),
    (lambda initial, step: (initial, {**step, "modeBefore": "Flying"}),
     "step.modeBefore: unknown robot mode 'Flying'"),
    (lambda initial, step: (initial, [step]), "record must be a JSON object"),
    (lambda initial, step: ({**initial, "robot": {**initial["robot"], "x": "0"}}, step),
     "robot.x must be an integer"),
    (lambda initial, step: (initial, {k: v for k, v in step.items() if k != "stateHash"}),
     "missing required field step.stateHash"),
    (lambda initial, step: (initial, {**step, "stateHash": False}),
     "step.stateHash must be a string"),
    (lambda initial, step: (initial, {**step, "stateHash": None}),
     "step.stateHash must be a string"),
])
def test_malformed_trace_line_exits_dataerr(tmp_path, capsys, damage, message):
    """``damage`` rewrites the initial line and the first step line; the
    error names the line it changed."""
    scenario = str(CONFIGS / "head_on_under_assumption.json")
    trace_path = tmp_path / "ce.jsonl"
    assert main(["check", scenario, "--trace", str(trace_path)]) == 2
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    records = [json.loads(line) for line in lines[:2]]
    damaged = damage(*records)
    (changed,) = [n for n in range(2) if damaged[n] != records[n]]
    lines[:2] = map(json.dumps, damaged)
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["replay", scenario, str(trace_path)]) == EX_DATAERR
    assert f"trace line {changed + 1}: {message}" in _one_line_error(capsys)


@pytest.mark.parametrize("arrange, message", [
    (lambda own, foreign: own[:1] + own, "trace line 2: a trace has one initial state line"),
    (lambda own, foreign: own[1:] + own[:1],
     "trace line 1: step line before the initial state line"),
    (lambda own, foreign: foreign[:1] + own, "trace line 2: a trace has one initial state line"),
], ids=["doubled", "moved-last", "foreign-first"])
def test_trace_initial_line_comes_once_and_first(tmp_path, capsys, arrange, message):
    """The first non-blank line is a trace's one initial line.  Each case
    holds the scenario's own initial line, which replay accepts; a second
    initial line, or a step line before the first, exits 65 naming it.
    The other config's initial line alone is refused as foreign."""
    scenario = str(CONFIGS / "head_on_under_assumption.json")
    lines = {}
    for name, config in (("own", scenario),
                         ("foreign", str(CONFIGS / "head_on_two_movers_under_assumption.json"))):
        path = tmp_path / f"{name}.jsonl"
        assert main(["check", config, "--trace", str(path)]) == 2
        lines[name] = path.read_text().splitlines()
    capsys.readouterr()
    trace_path = tmp_path / "arranged.jsonl"
    trace_path.write_text("\n".join(arrange(lines["own"], lines["foreign"])) + "\n")
    assert main(["replay", scenario, str(trace_path)]) == EX_DATAERR
    assert _one_line_error(capsys) == f"error: {message}\n"
    trace_path.write_text(lines["foreign"][0] + "\n")
    assert main(["replay", scenario, str(trace_path)]) == EX_DATAERR
    assert "trace initial state does not match the scenario" in _one_line_error(capsys)


def test_replay_rejects_a_step_line_that_shows_another_state(tmp_path, capsys):
    """A step line's snapshots must show the state its step reaches: with
    line 4's robot moved to cell 999 and its obstacles gone, the labels
    and hashes still pass, and replay exits 65 naming the line and the
    first field that differs."""
    scenario = str(CONFIGS / "head_on_under_assumption.json")
    trace_path = tmp_path / "ce.jsonl"
    assert main(["check", scenario, "--trace", str(trace_path)]) == 2
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    step = json.loads(lines[3])
    step["robot"]["x"], step["obstacles"] = 999, []
    lines[3] = json.dumps(step)
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["replay", scenario, str(trace_path)]) == EX_DATAERR
    assert _one_line_error(capsys) == "error: trace line 4: robot.x shows 999, replayed 6\n"


def test_replay_names_the_first_faulty_step(tmp_path, capsys):
    """Each step is checked whole, its label and then its snapshots,
    before the next: with line 3's robot moved to cell 999 and line 6's
    tick set to 77, replay names line 3, not step 4's label."""
    scenario = str(CONFIGS / "head_on_under_assumption.json")
    trace_path = tmp_path / "ce.jsonl"
    assert main(["check", scenario, "--trace", str(trace_path)]) == 2
    capsys.readouterr()
    lines = trace_path.read_text().splitlines()
    records = {n: json.loads(lines[n]) for n in (2, 5)}
    records[2]["robot"]["x"], records[5]["tick"] = 999, 77
    for n, record in records.items():
        lines[n] = json.dumps(record)
    trace_path.write_text("\n".join(lines) + "\n")
    assert main(["replay", scenario, str(trace_path)]) == EX_DATAERR
    assert _one_line_error(capsys) == "error: trace line 3: robot.x shows 999, replayed 3\n"


def test_replay_reads_snapshots_in_another_json_layout(tmp_path, capsys):
    """Snapshots in other bytes than the writer's, here compact and with
    sorted keys, are read and compared, not refused."""
    scenario = str(CONFIGS / "head_on_two_movers_under_assumption.json")
    trace_path = tmp_path / "ce.jsonl"
    assert main(["check", scenario, "--trace", str(trace_path)]) == 2
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    trace_path.write_text("".join(json.dumps(record, separators=(",", ":"), sort_keys=True)
                                  + "\n" for record in records))
    capsys.readouterr()
    assert main(["replay", scenario, str(trace_path)]) == 0
    assert json.loads(capsys.readouterr().out)["violatesPassiveSafety"] is True


@pytest.mark.parametrize("command", ["check", "simulate", "sweep", "replay"])
def test_input_that_is_not_utf8_exits_dataerr(tmp_path, capsys, command):
    """JSON is UTF-8 (RFC 8259): a file with one stray byte fails with one
    line that names the file and the byte's offset."""
    scenario = str(CONFIGS / "head_on_under_assumption.json")
    source = {"check": CONFIGS / "head_on.json", "simulate": CONFIGS / "runtime.json",
              "sweep": CONFIGS / "sweep.json", "replay": tmp_path / "cex.jsonl"}[command]
    if command == "replay":
        assert main(["check", scenario, "--trace", str(source)]) == 2
        capsys.readouterr()
    data = source.read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_bytes(data[:5] + b"\xff" + data[5:])
    out = tmp_path / "out.csv"
    argv = {"check": ["check", str(bad)], "simulate": ["simulate", str(bad)],
            "sweep": ["sweep", str(bad), "--out", str(out)],
            "replay": ["replay", scenario, str(bad)]}[command]
    assert main(argv) == EX_DATAERR
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad} is not UTF-8: invalid start byte at byte 5\n"
    assert captured.out == ""
    assert not out.exists()
    if command == "replay":
        with pytest.raises(TraceError, match=r"is not UTF-8: invalid start byte at byte 5$"):
            read_trace_jsonl(bad)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "passivesafe.cli", "check", str(CONFIGS / "head_on.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"] == "Holds"


def test_cli_import_leaves_the_process_pool_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, passivesafe.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
