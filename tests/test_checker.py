"""Reachability checking: verdicts, counterexamples, replay, statistics."""
import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from passivesafe import (
    ObstacleChoice,
    ObstacleSpec,
    Outcome,
    RobotMode,
    Trace,
    TraceError,
    check_safety,
    initial_world_state,
    is_passive_safe,
    load_scenario,
    replay_trace,
    state_space_stats,
    world_step,
)
from passivesafe import checker, counterexample
from passivesafe.checker import state_key, verdict_to_dict
from passivesafe.counterexample import (
    _CHOICE_LINE,
    _INITIAL_LINE,
    _OBSTACLE_LINE,
    _ROBOT_LINE,
    _STEP_LINE,
    TransitionLabel,
    replay_jsonl,
    state_digest,
    trace_from_jsonl,
    trace_to_jsonl,
    write_trace_jsonl,
)
from passivesafe.cli import main
from helpers import (empty_scenario, head_on_scenario, random_rollout, read_trace_jsonl,
                     single_lane_duel)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_empty_scenario_holds_with_small_state_space():
    scenario = empty_scenario()
    verdict = check_safety(scenario)
    assert verdict.outcome is Outcome.HOLDS
    assert verdict.counterexample is None
    # robot state count bound: position x velocity x mode
    assert verdict.states_explored <= scenario.track_length_cells * 4 * 5


def test_adequate_assumption_holds():
    verdict = check_safety(head_on_scenario(assumed_obstacle_max_vel=3))
    assert verdict.outcome is Outcome.HOLDS


def test_covering_assumption_with_blinkered_sensing_still_violated():
    """The look-ahead guard needs to see at least its own reach (19 cells
    here); a shorter visual radius makes the robot react on first sight,
    which is too deep to stop in time."""
    nearsighted = head_on_scenario(assumed_obstacle_max_vel=3, visual_radius=16)
    assert check_safety(nearsighted).outcome is Outcome.VIOLATED
    farsighted = head_on_scenario(assumed_obstacle_max_vel=3, visual_radius=19)
    assert check_safety(farsighted).outcome is Outcome.HOLDS


def test_under_assumption_violated_and_replayable():
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    verdict = check_safety(scenario)
    assert verdict.outcome is Outcome.VIOLATED
    trace = verdict.counterexample
    final = replay_trace(scenario, trace)
    assert not is_passive_safe(final)
    assert final.robot.v > 0
    gap = min(o.x - final.robot.x for o in final.obstacles
              if o.lane == final.robot.lane and o.x > final.robot.x)
    assert gap <= 1


def test_every_counterexample_state_respects_model_invariants():
    from helpers import validate_world

    scenario = head_on_scenario(assumed_obstacle_max_vel=1)
    trace = check_safety(scenario).counterexample
    world = initial_world_state(scenario)
    validate_world(world, scenario)
    for label in trace.steps:
        world = world_step(world, label.choices, scenario)
        validate_world(world, scenario)


@pytest.mark.parametrize("scenario", [
    head_on_scenario(assumed_obstacle_max_vel=1),
    head_on_scenario(assumed_obstacle_max_vel=2),
    head_on_scenario(assumed_obstacle_max_vel=2, buffer=1),
    head_on_scenario(assumed_obstacle_max_vel=3, visual_radius=12),
    single_lane_duel(),
    single_lane_duel(true_obstacle_max_vel=2, obstacle_start=16),
], ids=["under-1", "under-2", "thin-buffer", "nearsighted", "duel", "duel-slow"])
def test_all_violated_verdicts_replay_to_violations(scenario):
    verdict = check_safety(scenario)
    assert verdict.outcome is Outcome.VIOLATED
    assert not is_passive_safe(replay_trace(scenario, verdict.counterexample))


def brute_force_min_violation_depth(scenario, cap):
    """Level-by-level enumeration of every choice sequence up to cap.

    Exponential and deliberately simple: the independent oracle for
    counterexample minimality.
    """
    frontier = [initial_world_state(scenario)]
    for depth in range(1, cap + 1):
        nxt = []
        for world in frontier:
            mover_vel = scenario.obstacle_by_id(0).max_vel
            for vel in range(1, mover_vel + 1):
                successor = world_step(world, (ObstacleChoice(0, vel),), scenario)
                if not is_passive_safe(successor):
                    return depth
                nxt.append(successor)
        frontier = nxt
    return None


def test_counterexample_is_minimal():
    scenario = single_lane_duel()
    verdict = check_safety(scenario)
    assert verdict.outcome is Outcome.VIOLATED
    depth = len(verdict.counterexample.steps)
    oracle_depth = brute_force_min_violation_depth(scenario, depth + 2)
    assert depth == oracle_depth


def test_checker_deterministic():
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    a = check_safety(scenario)
    b = check_safety(scenario)
    assert a.states_explored == b.states_explored
    assert a.counterexample == b.counterexample


def test_depth_bound_limits_exploration():
    scenario = single_lane_duel()
    shallow = check_safety(scenario, depth_bound=2)
    assert shallow.outcome is Outcome.HOLDS   # violation needs three ticks
    assert shallow.max_depth <= 2
    deep = check_safety(scenario, depth_bound=10)
    assert deep.outcome is Outcome.VIOLATED


def test_state_budget_exceeded_is_inconclusive():
    scenario = head_on_scenario()
    verdict = check_safety(scenario, state_budget=50)
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert verdict.counterexample is None


def test_budgeted_memory_follows_the_budget_not_the_track():
    """``configs/head_on.json`` on a 100,000-cell track with the mover on
    its last cell: a budget of 1,000 states cuts the search long before
    the mover comes near, and what the search allocates follows the
    states it reached, not the cells of the track (a pick table over
    every cell up to the mover's start took about 39 MB here)."""
    data = json.loads((CONFIGS / "head_on.json").read_text())
    cells = 100_000
    data.update(trackLengthCells=cells, robotDestCell=cells - 1)
    data["obstacles"][0]["startCell"] = cells - 1
    scenario = load_scenario(json.dumps(data))
    tracemalloc.start()
    try:
        verdict = check_safety(scenario, state_budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert verdict.stats[:4] == (1001, 2676, 111, 19)
    assert peak < 5_000_000


def test_huge_mover_max_vel_builds_no_pick_per_velocity():
    """``configs/head_on.json`` with the mover's maxVel 10**9, under a
    budget of 1,000 states.  A mover's options at a cell are its distinct
    successors, at most its distance from its destination, and the
    counterexample rebuild tries no pick past that distance; a list of
    every pick ran out of memory.  The mover can land on the cell ahead
    of the robot in one tick, so the check ends Violated at depth 1."""
    data = json.loads((CONFIGS / "head_on.json").read_text())
    data["obstacles"][0]["maxVel"] = 10**9
    scenario = load_scenario(json.dumps(data))
    tracemalloc.start()
    try:
        verdict = check_safety(scenario, state_budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.outcome is Outcome.VIOLATED
    assert verdict.states_explored == 39
    assert len(verdict.counterexample.steps) == 1
    assert not is_passive_safe(replay_trace(scenario, verdict.counterexample))
    assert peak < 1_000_000


def test_rollouts_agree_with_holds_verdict():
    scenario = head_on_scenario(assumed_obstacle_max_vel=3)
    assert check_safety(scenario).outcome is Outcome.HOLDS
    assert all(random_rollout(scenario, seed) is None for seed in range(300))


def test_rollouts_find_known_violation():
    scenario = head_on_scenario(assumed_obstacle_max_vel=1)
    hits = [seed for seed in range(300) if random_rollout(scenario, seed) is not None]
    assert hits


# ---------------------------------------------------------------------------
# state identity
# ---------------------------------------------------------------------------

def test_equal_states_share_visited_entry():
    rng = random.Random(5)
    scenario = head_on_scenario()
    world = initial_world_state(scenario)
    for _ in range(40):
        choices = tuple(
            ObstacleChoice(o.id, rng.randint(1, scenario.obstacle_by_id(o.id).max_vel))
            for o in world.obstacles if not o.is_static
        )
        world = world_step(world, choices, scenario)
        clone = type(world)(
            tick=world.tick, robot=world.robot,
            obstacles=tuple(world.obstacles), prev_obstacles=tuple(world.prev_obstacles),
        )
        assert state_key(world) == state_key(clone)
        assert hash(state_key(world)) == hash(state_key(clone))
        assert state_digest(world) == state_digest(clone)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_stats_path_shape_on_empty_scenario():
    scenario = empty_scenario()
    stats = state_space_stats(scenario)
    assert stats.transitions == stats.states - 1
    assert stats.peak_frontier == 1


def test_stats_states_match_checker_on_holds():
    scenario = head_on_scenario(assumed_obstacle_max_vel=3)
    stats = state_space_stats(scenario)
    verdict = check_safety(scenario)
    assert stats.states == verdict.states_explored
    assert stats.max_depth == verdict.max_depth


def test_verdict_carries_its_exploration_stats():
    scenario = head_on_scenario(assumed_obstacle_max_vel=3)
    verdict = check_safety(scenario)
    assert verdict.outcome is Outcome.HOLDS
    assert verdict.stats == state_space_stats(scenario)

    partial = check_safety(scenario, state_budget=10)
    assert partial.outcome is Outcome.INCONCLUSIVE
    assert partial.stats.states == partial.states_explored == 11
    assert 0 < partial.stats.transitions
    assert partial.stats.max_depth == partial.max_depth > 0
    assert partial.stats.peak_frontier >= 1
    with pytest.raises(RuntimeError, match="state budget of 10"):
        state_space_stats(scenario, state_budget=10)


def test_stats_deterministic():
    scenario = head_on_scenario(assumed_obstacle_max_vel=4)
    a = state_space_stats(scenario)
    b = state_space_stats(scenario)
    assert (a.states, a.transitions, a.peak_frontier, a.max_depth) == \
           (b.states, b.transitions, b.peak_frontier, b.max_depth)


def test_branching_bounded_by_choice_count():
    scenario = single_lane_duel(true_obstacle_max_vel=2)
    stats = state_space_stats(scenario)
    # every state has at most two successors while the mover is active
    assert stats.transitions <= stats.states * 2


# ---------------------------------------------------------------------------
# replay and trace serialization
# ---------------------------------------------------------------------------

def test_empty_trace_replays_to_initial():
    scenario = head_on_scenario()
    trace = Trace(initial=initial_world_state(scenario), steps=())
    assert replay_trace(scenario, trace) == initial_world_state(scenario)


def test_replay_rejects_corrupted_label():
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    trace = check_safety(scenario).counterexample
    bad_step = TransitionLabel(
        tick=trace.steps[2].tick,
        mode_before=trace.steps[2].mode_before,
        mode_after=trace.steps[2].mode_after,
        choices=(ObstacleChoice(0, 99),),
        state_hash=trace.steps[2].state_hash,
        robot=trace.steps[2].robot,
        obstacles=trace.steps[2].obstacles,
    )
    corrupted = Trace(trace.initial, trace.steps[:2] + (bad_step,) + trace.steps[3:])
    with pytest.raises(TraceError, match="step 2"):
        replay_trace(scenario, corrupted)


def test_replay_rejects_hash_mismatch():
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    trace = check_safety(scenario).counterexample
    tampered_step = TransitionLabel(
        tick=trace.steps[1].tick,
        mode_before=trace.steps[1].mode_before,
        mode_after=trace.steps[1].mode_after,
        choices=trace.steps[1].choices,
        state_hash="0" * 64,
        robot=trace.steps[1].robot,
        obstacles=trace.steps[1].obstacles,
    )
    tampered = Trace(trace.initial, trace.steps[:1] + (tampered_step,) + trace.steps[2:])
    with pytest.raises(TraceError, match="step 1"):
        replay_trace(scenario, tampered)


def test_replay_compares_every_hash_even_an_empty_one():
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    trace = check_safety(scenario).counterexample
    unhashed = Trace(trace.initial, tuple(step._replace(state_hash="") for step in trace.steps))
    with pytest.raises(TraceError, match="invalid label at step 0: state hash mismatch"):
        replay_trace(scenario, unhashed)


@pytest.mark.parametrize("fields", [
    {"tick": 99},
    {"mode_before": RobotMode.STOP},
    {"mode_after": RobotMode.IDLE},
    {"tick": 99, "mode_before": RobotMode.STOP, "mode_after": RobotMode.IDLE},
], ids=["tick", "modeBefore", "modeAfter", "all"])
def test_replay_rejects_label_that_misstates_its_step(fields):
    """The stored hash still matches; only the label's tick or modes lie."""
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    trace = check_safety(scenario).counterexample
    tampered = Trace(trace.initial,
                     trace.steps[:2] + (trace.steps[2]._replace(**fields),) + trace.steps[3:])
    with pytest.raises(TraceError, match="invalid label at step 2: tick "):
        replay_trace(scenario, tampered)


@pytest.mark.parametrize("damage, message", [
    (lambda label: {"robot": label.robot._replace(x=label.robot.x + 1)},
     r"robot\.x shows 10, replayed 9"),
    (lambda label: {"obstacles": (label.obstacles[0]._replace(lane=0),) + label.obstacles[1:]},
     r"obstacles\[0\]\.lane shows 0, replayed 1"),
    (lambda label: {"obstacles": ()}, r"obstacles shows 0 obstacles, replayed 13"),
], ids=["robot", "obstacle", "no-obstacles"])
def test_replay_checks_the_snapshots_of_a_trace_built_in_python(damage, message):
    """A label's snapshots are checked on every replay, not only on one
    read from JSONL: with no line to name, the fault names the step."""
    scenario = load_scenario((CONFIGS / "head_on_under_assumption.json").read_text())
    trace = check_safety(scenario).counterexample
    label = trace.steps[3]
    tampered = Trace(trace.initial, trace.steps[:3] + (label._replace(**damage(label)),)
                     + trace.steps[4:])
    with pytest.raises(TraceError, match=rf"^invalid label at step 3: {message}$"):
        replay_trace(scenario, tampered)


def test_replay_trace_refuses_a_read_trace_whose_step_line_shows_another_state():
    """The edited trace that ``replay`` refuses (line 4's robot moved to
    cell 999, its obstacles gone) is refused by ``replay_trace`` on the
    trace read from it too, naming the step."""
    scenario = load_scenario((CONFIGS / "head_on_under_assumption.json").read_text())
    lines = trace_to_jsonl(check_safety(scenario).counterexample).splitlines()
    step = json.loads(lines[3])
    step["robot"]["x"], step["obstacles"] = 999, []
    lines[3] = json.dumps(step)
    trace = trace_from_jsonl("\n".join(lines) + "\n")
    with pytest.raises(TraceError,
                       match=r"^invalid label at step 2: robot\.x shows 999, replayed 6$"):
        replay_trace(scenario, trace)


def test_trace_to_jsonl_steps_no_world(monkeypatch):
    """The writer formats the labels' own snapshots: with ``world_step``
    made to raise, it writes the same bytes."""
    scenario = load_scenario((CONFIGS / "head_on_two_movers_under_assumption.json").read_text())
    trace = check_safety(scenario).counterexample
    text = trace_to_jsonl(trace)

    def refuse(*args):
        raise AssertionError("trace_to_jsonl stepped a world")

    monkeypatch.setattr(counterexample, "world_step", refuse)
    assert trace_to_jsonl(trace) == text


def test_rebuild_refuses_a_path_no_pick_reaches(monkeypatch):
    """The rebuild follows the search's keys with ``world_step``: when no
    pick vector's successor has the next key, it raises instead of
    keeping the last one tried.  Here ``world_step`` adds 7 to the
    robot's speed, so no successor matches the first key."""
    def skewed(world, choices, scenario):
        after = world_step(world, choices, scenario)
        return after._replace(robot=after.robot._replace(v=after.robot.v + 7))

    monkeypatch.setattr(checker, "world_step", skewed)
    scenario = load_scenario((CONFIGS / "head_on_under_assumption.json").read_text())
    with pytest.raises(RuntimeError, match=r"at step 0$"):
        check_safety(scenario)


def test_replay_rejects_foreign_initial_state():
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    trace = check_safety(scenario).counterexample
    other = single_lane_duel()
    with pytest.raises(TraceError, match="initial state"):
        replay_trace(other, trace)


def test_trace_jsonl_round_trip(tmp_path):
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    trace = check_safety(scenario).counterexample
    path = tmp_path / "counterexample.jsonl"
    for write_to, read_from in ((path, str(path)), (str(path), path)):  # str and path-like
        write_trace_jsonl(trace, scenario, write_to)
        loaded = read_trace_jsonl(read_from)
        assert loaded == trace
        assert not is_passive_safe(replay_trace(scenario, loaded))


def test_trace_jsonl_has_one_step_line_per_transition():
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    trace = check_safety(scenario).counterexample
    lines = trace_to_jsonl(trace).splitlines()
    assert len(lines) == 1 + len(trace.steps)


def test_trace_jsonl_rejects_garbage():
    with pytest.raises(TraceError):
        trace_from_jsonl("not json\n")
    with pytest.raises(TraceError, match="initial"):
        trace_from_jsonl("")


def test_trace_initial_line_is_the_first_non_blank_line():
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    trace = check_safety(scenario).counterexample
    initial, *steps = trace_to_jsonl(trace).splitlines()
    assert trace_from_jsonl("\n  \n" + "\n".join([initial, *steps])) == trace
    with pytest.raises(TraceError, match=r"^trace has no initial state line$"):
        trace_from_jsonl("\n\n")
    with pytest.raises(TraceError, match=r"^trace line 2: step line before the initial state"):
        trace_from_jsonl("\n".join(["", steps[0], initial]))
    with pytest.raises(TraceError, match=r"^trace line 3: a trace has one initial state line$"):
        trace_from_jsonl("\n".join([initial, steps[0], initial]))


@pytest.mark.parametrize("damage, message", [
    (lambda step: step.pop("robot"), "missing required field step.robot"),
    (lambda step: step["robot"].update(x=1.0), "robot.x must be an integer"),
], ids=["no-robot", "float-x"])
def test_trace_from_jsonl_reads_step_snapshots(damage, message):
    """A step line's robot and obstacles are read with its label, through
    the initial line's tables, so parsing alone refuses a malformed one."""
    scenario = head_on_scenario(assumed_obstacle_max_vel=2)
    trace = check_safety(scenario).counterexample
    initial, step, *steps = trace_to_jsonl(trace).splitlines()
    record = json.loads(step)
    damage(record)
    with pytest.raises(TraceError, match=rf"^trace line 2: {message}$"):
        trace_from_jsonl("\n".join([initial, json.dumps(record), *steps]))


@pytest.mark.parametrize("config", ["head_on_under_assumption.json",
                                    "head_on_two_movers_under_assumption.json"])
def test_reader_tables_state_the_trace_keys(monkeypatch, config):
    """On the committed Violated configs, every record ``trace_to_jsonl``
    writes has its reader table's keys in table order, less ``type``; the
    step line, read in another order than it is written, has them as a
    set.  ``state_digest`` hashes the same keys, sorted."""
    scenario = load_scenario((CONFIGS / config).read_text())
    trace = check_safety(scenario).counterexample
    assert trace is not None
    initial, *steps = map(json.loads, trace_to_jsonl(trace).splitlines())
    assert [key for key in initial if key != "type"] == list(_INITIAL_LINE)
    obstacles = initial["obstacles"] + initial["prevObstacles"]
    for record in (initial, *steps):
        assert list(record["robot"]) == list(_ROBOT_LINE)
        obstacles += record["obstacles"]
    for step in steps:
        assert step.keys() - {"type"} == _STEP_LINE.keys()
        assert step["choices"] and all(list(c) == list(_CHOICE_LINE) for c in step["choices"])
    assert all(list(obstacle) == list(_OBSTACLE_LINE) for obstacle in obstacles)

    payloads, sha256 = [], hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256",
                        lambda data: payloads.append(json.loads(data)) or sha256(data))
    world = trace.initial
    assert state_digest(world)
    for label in trace.steps:
        world = world_step(world, label.choices, scenario)
        assert state_digest(world) == label.state_hash
    assert len(payloads) == 1 + len(steps)
    for payload in payloads:
        assert list(payload) == sorted(_INITIAL_LINE)
        assert list(payload["robot"]) == sorted(_ROBOT_LINE)
        assert all(list(obstacle) == sorted(_OBSTACLE_LINE)
                   for obstacle in payload["obstacles"] + payload["prevObstacles"])


@pytest.mark.parametrize("config, states, sha256", [
    ("head_on_under_assumption.json", 220,
     "570e34b494b7dac745fa64737fa64208f80f66d408220b48e8b283c649a5b41f"),
    ("head_on_two_movers_under_assumption.json", 5_138,
     "0d361bec2f8a644cf3aaa92cc723b4603dc025ed6504416ca0c4a0ff95027906"),
])
def test_counterexample_matches_pinned_digest(tmp_path, capsys, config, states, sha256):
    """The bytes of ``check --trace``, which replay accepts.  The second
    config's two movers are interchangeable, so its keys forget which
    mover is which and the rebuild has to find out."""
    path = tmp_path / "cex.jsonl"
    assert main(["check", str(CONFIGS / config), "--trace", str(path)]) == 2
    verdict = json.loads(capsys.readouterr().out)
    assert (verdict["statesExplored"], verdict["counterexampleLength"]) == (states, 8)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    assert main(["replay", str(CONFIGS / config), str(path)]) == 0
    capsys.readouterr()


_DODGE_VERDICTS = {
    "dodge.json": (0, '{"outcome": "Holds", "statesExplored": 85, "maxDepth": 19, '
                      '"counterexampleLength": null, "depthBound": null, "reachedFixpoint": true}'),
    "dodge_under_assumption.json": (
        2, '{"outcome": "Violated", "statesExplored": 1612, "maxDepth": 7, '
           '"counterexampleLength": 7, "counterexamplePath": "{trace}", "depthBound": null, '
           '"reachedFixpoint": false}'),
}


@pytest.mark.parametrize("config", list(_DODGE_VERDICTS))
def test_dodge_configs_find_a_free_side_lane(tmp_path, capsys, monkeypatch, config):
    """The committed configs on which the robot dodges: it brakes for a
    head-on mover on lane 1 and, in danger, takes lane 0.  Under an
    assumed bound of 2 that holds; a lane-0 mover of maxVel 3 makes the
    dodge unsafe, and the counterexample changes lane at tick 6.  The
    check finds lane 0 free, and the verdict, exit codes, trace bytes and
    replay are pinned."""
    found = []
    plain = checker.free_side_lane
    monkeypatch.setattr(checker, "free_side_lane",
                        lambda *args: found.append(plain(*args)) or found[-1])
    path = tmp_path / "cex.jsonl"
    code, verdict = _DODGE_VERDICTS[config]
    assert main(["check", str(CONFIGS / config), "--trace", str(path)]) == code
    assert capsys.readouterr().out == (verdict.replace("{trace}", str(path)) + "\n")
    assert 0 in found
    if code == 0:
        assert not path.exists()
        return
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "cfa4f43e32ce72ce4fe45ca78929be03619a42005fdf32ad7c03fc21f44bb760"
    lanes = [json.loads(line)["robot"]["lane"] for line in path.read_text().splitlines()]
    assert lanes == [1] * 6 + [0] * 2
    assert main(["replay", str(CONFIGS / config), str(path)]) == 0
    assert capsys.readouterr().out == '{"steps": 7, "finalTick": 7, "violatesPassiveSafety": true}\n'


def test_design_points_match_their_pinned_digest():
    """Every design point of ``head_on_scenario``: mover start 30-46, true
    maxVel 1-3, assumed bound 1-5.  One SHA-256 over each point's verdict
    JSON, four counts and counterexample JSONL pins them all, so a change
    to the search that moves any byte or count fails here."""
    digest, outcomes, states, steps = hashlib.sha256(), [], 0, 0
    for start in range(30, 47):
        for true_max_vel in (1, 2, 3):
            for assumed in (1, 2, 3, 4, 5):
                scenario = head_on_scenario(assumed, true_max_vel, obstacle_start=start)
                verdict = check_safety(scenario)
                trace = verdict.counterexample
                digest.update(json.dumps(verdict_to_dict(verdict)).encode())
                digest.update(json.dumps(verdict.stats[:4]).encode())
                digest.update((trace_to_jsonl(trace) if trace else "").encode())
                outcomes.append(verdict.outcome)
                states += verdict.states_explored
                steps += len(trace.steps) if trace else 0
    assert (outcomes.count(Outcome.HOLDS), outcomes.count(Outcome.VIOLATED)) == (204, 51)
    assert (states, steps) == (37_465, 405)
    assert digest.hexdigest() == "9cf0e22dcc70b2ed2b892ff99ed92e8fe31dcc094e3a4053af26af6ad02ab94f"


def test_design_point_counterexamples_replay_from_their_jsonl():
    """The JSONL of each of the 51 Violated design points replays, every
    step line's snapshots checked, to an unsafe state."""
    replayed = 0
    for start in range(30, 47):
        for true_max_vel in (1, 2, 3):
            for assumed in (1, 2, 3, 4, 5):
                scenario = head_on_scenario(assumed, true_max_vel, obstacle_start=start)
                trace = check_safety(scenario).counterexample
                if trace is not None:
                    loaded, final = replay_jsonl(scenario, trace_to_jsonl(trace))
                    assert loaded == trace and not is_passive_safe(final)
                    replayed += 1
    assert replayed == 51


@pytest.mark.parametrize("start, verdict", [
    (18, ("Violated", 33, 5)),      # Holds after 58 states on mover x <= x + bound
    (22, ("Holds", 73, None)),      # Violated at length 6 on mover x - x <= bound
])
def test_moving_danger_rule_keeps_its_float_order(tmp_path, capsys, start, verdict):
    """``configs/head_on.json`` with a non-dyadic assumed bound (2.3) and
    buffer (1.1), the mover starting on cell ``start`` with maxVel 2.  The
    moving danger rule sums ``x + braking distance + assumed * vmax`` and
    compares it with ``mover x - buffer``.  Folded into one precomputed
    bound (braking distance + assumed * vmax + buffer), it rounds other
    floats differently, and the verdict changes as noted."""
    data = json.loads((CONFIGS / "head_on.json").read_text())
    data["assumptions"].update(assumedObstacleMaxVel=2.3, buffer=1.1)
    for obstacle in data["obstacles"]:
        if not obstacle["isStatic"]:
            obstacle.update(startCell=start, maxVel=2)
    config, path = tmp_path / "float.json", tmp_path / "cex.jsonl"
    config.write_text(json.dumps(data))
    code = main(["check", str(config), "--trace", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert (out["outcome"], out["statesExplored"], out["counterexampleLength"]) == verdict
    assert code == (2 if verdict[0] == "Violated" else 0)
    if code == 2:
        assert main(["replay", str(config), str(path)]) == 0
        capsys.readouterr()


def _assert_fixpoint(config: str, stats: tuple[int, int, int, int]) -> None:
    """``stats`` is (states, transitions, peak frontier, max depth)."""
    verdict = check_safety(load_scenario((CONFIGS / config).read_text()))
    assert verdict.outcome is Outcome.HOLDS and verdict.reached_fixpoint
    # counted up to interchange of movers and parking of dead ones
    s = verdict.stats
    assert (s.states, s.transitions, s.peak_frontier, s.max_depth) == stats


def test_two_interchangeable_movers_reach_fixpoint():
    _assert_fixpoint("head_on_two_movers.json", (9_548, 84_807, 2_658, 30))


@pytest.mark.slow
def test_three_interchangeable_movers_reach_fixpoint():
    """About 1-2 s and 100 MB under pytest: deselected by default, run
    with ``pytest -m slow``."""
    _assert_fixpoint("head_on_three_movers.json", (240_388, 6_388_591, 70_221, 30))


@pytest.mark.slow
def test_four_interchangeable_movers_run_out_of_budget():
    """The three-mover config plus a like mover at cell 49, cut mid-level
    by a budget of 1,000,000 states: the counts pin the search order on
    a four-mover group.  About 3-5 s and 300 MB under pytest."""
    scenario = load_scenario((CONFIGS / "head_on_three_movers.json").read_text())
    fourth = ObstacleSpec(id=3, start_cell=49, lane=1, is_static=False, dest_cell=0, max_vel=3)
    scenario = scenario._replace(obstacles=scenario.obstacles + (fourth,))
    verdict = check_safety(scenario, state_budget=1_000_000)
    assert verdict.outcome is Outcome.INCONCLUSIVE
    s = verdict.stats
    assert (s.states, s.transitions, s.peak_frontier, s.max_depth) == \
        (1_000_001, 34_664_517, 572_085, 7)
