"""``sim.simulate`` against the plain episode loop it replaced.

``reference_simulate`` below is the simple form of the simulator: every
tick it builds an ``Observation`` for ``monitor.observe`` and reads the
config through ``_accelerated`` / ``_braked``.  ``simulate`` runs the same
arithmetic on hoisted locals and calls ``monitor.observe_at`` only inside
the reaction area, so on every valid config the two must return equal
traces, states and events included, and write the same trace JSONL bytes.
They must also agree when every draw is the smallest or the largest
there is: a draw of 0.0 moves the obstacle its full true maximum, the
worst case that the approach's untested prefix is proved against.

The digests pin the command-line outputs to the bytes the plain loop
wrote: the sweep CSV of ``configs/sweep.json`` at one and two workers,
and the ``simulate --trace`` JSONL of ``configs/runtime.json`` for seeds
0-9.  Those traces hold only collision and mode-change events, so two
more runs pin every event kind's line: an active collision and a run
whose monitor trips.
"""
import hashlib
import json
import random
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passivesafe import sim
from passivesafe.cli import main
from passivesafe.model import Assumptions, RobotMode, ScenarioError
from passivesafe.monitor import Observation, new_monitor, observe
from passivesafe.sim import (
    CollisionEvent,
    ModeChangeEvent,
    SimConfig,
    SimEvent,
    SimOutcome,
    SimState,
    SimTrace,
    load_sim_config,
    simulate,
    trace_to_jsonl,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SWEEP_CSV_SHA256 = "e68b7f2f4d975ad7ef5074450e59498dff7d037c30bee2de55993c6c46c6e8ef"
RUNTIME_EXIT_CODES = [0] * 10   # every seed reaches the goal
RUNTIME_TRACES_SHA256 = "0b13f71386822d22ee1fcc8e40352e8090016e779035e51dc70ee12aaf0f2bdd"
EVENT_TRACES_SHA256 = "111320922278659f9b0eaf74052072856c92232f66bae33b6953d68a36afbd0f"


def reference_simulate(config: SimConfig, collect_states: bool = True) -> SimTrace:
    """The plain episode loop: an ``Observation`` for ``observe`` and a
    ``config`` read through ``_accelerated`` / ``_braked`` every tick."""
    config.validate()
    rng = random.Random(config.seed)
    dt = config.dt
    d_collision = config.derived_collision_distance()
    monitor = new_monitor(Assumptions(
        assumed_obstacle_max_vel=config.assumed_obstacle_max_vel,
        visual_radius=config.visual_range,
        buffer=config.buffer,
        reaction_radius=config.reaction_radius,
    ))

    robot_x = config.robot_start
    robot_v = 0.0
    mode = RobotMode.IDLE
    obstacle_x = config.obstacle_start
    prev_obstacle_x = config.obstacle_start   # delayed view, tick-0 convention
    obstacle_v = 0.0

    states: list[SimState] = []
    events: list[SimEvent] = []
    in_contact = False
    outcome = SimOutcome.TICK_BUDGET_EXHAUSTED

    if collect_states:
        states.append(SimState(0.0, robot_x, robot_v, mode, obstacle_x, obstacle_v, False))

    for tick in range(1, config.max_ticks + 1):
        t = tick * dt

        # (1) obstacle speed for this tick
        obstacle_v = config.obstacle_true_max_vel * (1.0 - rng.random())

        # (2) monitor observation with the delayed obstacle position
        monitor, feedback = observe(
            monitor, Observation(t=t, robot_x=robot_x, robot_v=robot_v,
                                 obstacle_x=prev_obstacle_x)
        )
        if feedback is not None:
            events.append(feedback)

        # (3) robot transition; the brake trigger reads the delayed gap
        gap_observed = prev_obstacle_x - robot_x
        danger = (
            monitor.violation_latched
            or (0 <= gap_observed <= min(config.reaction_radius, config.visual_range)
                and gap_observed <= d_collision)
        )
        mode_before = mode
        if mode is RobotMode.IDLE:
            mode, robot_v = _accelerated(robot_v, config)
        elif mode is RobotMode.ACCELERATE:
            mode, robot_v = _braked(robot_v, config) if danger else _accelerated(robot_v, config)
        elif mode is RobotMode.DRIVE:
            if danger:
                mode, robot_v = _braked(robot_v, config)
        elif mode is RobotMode.BRAKE:
            mode, robot_v = _braked(robot_v, config) if danger else _accelerated(robot_v, config)
        elif mode is RobotMode.STOP:
            if not danger:
                mode, robot_v = _accelerated(robot_v, config)
        if mode is not mode_before:
            events.append(ModeChangeEvent(t=t, mode_before=mode_before, mode_after=mode))

        # (4) integrate positions
        gap_before = obstacle_x - robot_x
        prev_obstacle_x = obstacle_x
        robot_x += robot_v * dt
        obstacle_x -= obstacle_v * dt
        gap_after = obstacle_x - robot_x

        if collect_states:
            states.append(SimState(
                t, robot_x, robot_v, mode, obstacle_x, obstacle_v,
                monitor.violation_latched,
            ))

        # (5) contact: the gap is inside the threshold now, or it crossed
        # zero within this tick.  Once the obstacle is past, the pair only
        # separates and no further contact is possible.
        touching = 0 <= gap_after <= config.collision_threshold
        crossed = gap_before >= 0 > gap_after
        if touching or crossed:
            if not in_contact:
                in_contact = True
                event = CollisionEvent(
                    t=t, robot_v=robot_v, gap=gap_after, active=robot_v > 0
                )
                events.append(event)
                if event.active:
                    outcome = SimOutcome.ACTIVE_COLLISION
                    break
        else:
            in_contact = False

        if robot_x >= config.robot_dest:
            outcome = SimOutcome.REACHED_GOAL
            break
        if monitor.violation_latched and robot_v == 0:
            outcome = SimOutcome.STOPPED_SAFE
            break

    return SimTrace(
        config=config,
        states=tuple(states),
        events=tuple(events),
        outcome=outcome,
        ticks=tick,
    )


def _accelerated(v: float, config: SimConfig) -> tuple[RobotMode, float]:
    v = min(v + config.robot_accel * config.dt, config.robot_max_vel)
    return (RobotMode.DRIVE if v == config.robot_max_vel else RobotMode.ACCELERATE), v


def _braked(v: float, config: SimConfig) -> tuple[RobotMode, float]:
    v = max(v - config.robot_decel * config.dt, 0.0)
    return (RobotMode.STOP if v == 0.0 else RobotMode.BRAKE), v


def _positive(low, high, *nice):
    return st.sampled_from(nice) | st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def sim_configs(draw):
    """Valid configs around the defaults: short tracks, reaction radii up
    to the visual range, obstacle speeds on both sides of the assumed
    bound, and tick budgets small enough to run out."""
    robot_start = draw(st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 2.0))
    robot_dest = robot_start + draw(_positive(0.2, 4.0, 1.0, 10.0))
    obstacle_start = robot_start + draw(_positive(0.05, 6.0, 0.5, 2.0))
    visual_range = draw(_positive(0.1, 4.0, 2.0))
    true_max = draw(_positive(0.01, 3.0, 0.15, 0.2, 0.3))
    return SimConfig(
        dt=draw(_positive(0.01, 0.5, 0.1, 0.05, 0.25)),
        track_length=max(robot_dest, obstacle_start) + draw(st.sampled_from([0.0, 0.5])),
        robot_start=robot_start,
        robot_dest=robot_dest,
        robot_max_vel=draw(_positive(0.05, 2.0, 0.5)),
        robot_accel=draw(_positive(0.05, 6.0, 0.5, 5.0)),
        robot_decel=draw(_positive(0.05, 6.0, 0.5, 5.0)),
        obstacle_start=obstacle_start,
        obstacle_true_max_vel=true_max,
        assumed_obstacle_max_vel=draw(st.just(true_max) | _positive(0.01, 3.0, 0.2)),
        visual_range=visual_range,
        reaction_radius=visual_range * draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0)),
        buffer=draw(_positive(0.0, 0.5, 0.0, 0.1)),
        collision_threshold=draw(_positive(1e-9, 0.3, 0.05)),
        seed=draw(st.integers(0, 2**32)),
        max_ticks=draw(st.integers(1, 300)),
    )


# Configs every differential test runs, besides hypothesis's own draws.
EXAMPLE_CONFIGS = [
    # in reach from tick 1: no skipped tick to feed
    replace(SimConfig(), obstacle_start=0.9, obstacle_true_max_vel=0.3, seed=3),
    # first in reach at tick 2: the skipped tick fed is the stream's first
    replace(SimConfig(), robot_accel=5.0, obstacle_start=1.04, seed=3),
    # the gap jumps from beyond the radius to below 0 in one tick: no call at all
    replace(SimConfig(), dt=0.5, robot_accel=6.0, robot_max_vel=2.0,
            reaction_radius=0.1, obstacle_start=1.0, seed=3),
    # feedback on the first tick in reach (tick 58), estimated against the
    # skipped tick 57
    replace(SimConfig(), obstacle_true_max_vel=3.0, seed=1),
    # The episode ends before the first tick in reach: an active contact at
    # tick 200, the threshold being above the reaction radius ...
    replace(SimConfig(), reaction_radius=0.05, collision_threshold=0.3, seed=3),
    # ... the goal at tick 105 ...
    replace(SimConfig(), robot_dest=5.0, seed=3),
    # ... and the tick budget at tick 50
    replace(SimConfig(), max_ticks=50, seed=3),
    # first in reach at tick 7, with the robot still accelerating
    replace(SimConfig(), obstacle_start=1.15, seed=3),
    # in reach from tick 1, the gap exactly the reaction radius: no approach
    replace(SimConfig(), obstacle_start=1.0, seed=3),
    # a one-tick approach: prefix 0, the budget spent by the only full tick
    replace(SimConfig(), max_ticks=1, seed=3),
]


def _examples(configs):
    """``@example`` for each of ``configs``."""
    def decorate(test):
        for config in configs:
            test = example(config)(test)
        return test
    return decorate


# ``simulate`` calls the monitor only inside the reaction area, after
# feeding it a skipped previous tick; the reference calls it every tick.
@settings(max_examples=300, deadline=None)
@given(sim_configs())
@_examples(EXAMPLE_CONFIGS)
def test_simulate_matches_reference(config):
    for collect_states in (True, False):
        fast = simulate(config, collect_states)
        slow = reference_simulate(config, collect_states)
        assert fast == slow
        assert trace_to_jsonl(fast) == trace_to_jsonl(slow)


def _draw_always(monkeypatch, value):
    """Make every draw of ``simulate`` and ``reference_simulate`` return
    ``value``."""
    class Fixed:
        def __init__(self, seed):
            pass

        def random(self):
            return value

    fake = types.SimpleNamespace(Random=Fixed)
    monkeypatch.setattr(sim, "random", fake)
    monkeypatch.setattr(sys.modules[__name__], "random", fake)


def _runtime_config(name: str = "runtime.json") -> SimConfig:
    return load_sim_config((CONFIGS / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("draw", [0.0, 1 - 2**-53], ids=["fastest", "slowest"])
def test_simulate_matches_reference_at_extreme_draws(monkeypatch, draw):
    """A draw of 0.0 moves the obstacle its full true maximum every tick,
    the worst case the approach's prefix is proved against; the largest
    draw moves it least."""
    _draw_always(monkeypatch, draw)
    for config in [SimConfig(), _runtime_config(), *EXAMPLE_CONFIGS]:
        for collect_states in (True, False):
            fast = simulate(config, collect_states)
            slow = reference_simulate(config, collect_states)
            assert fast == slow
            assert trace_to_jsonl(fast) == trace_to_jsonl(slow)


@pytest.mark.parametrize("config", [SimConfig(), _runtime_config()], ids=["default", "runtime"])
def test_prefix_bound_is_tight(monkeypatch, config):
    """With the obstacle at its true maximum every tick, the first tick
    whose observed gap is inside the reaction radius is the one right
    after the prefix: the prefix skips no tick it could have skipped."""
    _draw_always(monkeypatch, 0.0)
    prefix = sim._approach(config, True)[0]
    states = simulate(config).states
    first_in_reach = next(
        n for n in range(1, len(states))
        if states[max(n - 2, 0)].obstacle_x - states[n - 1].robot_x <= config.reaction_radius)
    assert (prefix, first_in_reach) == (161, 162)


@pytest.mark.parametrize("config", [
    *EXAMPLE_CONFIGS, _runtime_config(), _runtime_config("runtime_precondition_gap.json")])
def test_full_tick_decides_the_outcome(config):
    """The prefix stops before the episode's last tick, so the full
    tick decides every outcome, the goal and the tick budget included."""
    assert sim._approach(config, True)[0] < simulate(config).ticks


def test_acceleration_step_rounding_to_zero_is_rejected():
    """Once an example of a passive contact before the reaction area
    (tick 175): with ``robotAccel * dt`` rounding to 0 the robot never
    left v = 0.  Both ``simulate`` and the reference now reject the
    config, so a valid one cannot stand still before the reaction
    area."""
    config = replace(SimConfig(), robot_accel=5e-324, reaction_radius=0.05,
                     collision_threshold=0.3, obstacle_start=2.0, max_ticks=400, seed=3)
    for run in (simulate, reference_simulate):
        with pytest.raises(ScenarioError, match=r"^robotAccel \* dt must be > 0"):
            run(config)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_csv_matches_pinned_digest(tmp_path, capsys, workers):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", str(CONFIGS / "sweep.json"), "--out", str(out), "--workers", workers]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_CSV_SHA256


def test_runtime_traces_match_pinned_digest(tmp_path, capsys):
    digest, codes = hashlib.sha256(), []
    for seed in range(10):
        path = tmp_path / f"seed{seed}.jsonl"
        codes.append(main(["simulate", str(CONFIGS / "runtime.json"),
                           "--seed", str(seed), "--trace", str(path)]))
        digest.update(path.read_bytes())
    capsys.readouterr()
    assert codes == RUNTIME_EXIT_CODES
    assert digest.hexdigest() == RUNTIME_TRACES_SHA256


def test_event_traces_match_pinned_digest(tmp_path, capsys):
    """``runtime_precondition_gap.json`` at seed 1 ends in an active
    collision; ``runtime.json`` with a faster obstacle and a wider
    reaction area trips the monitor at seed 9 (seven feedback lines) and
    stops safe after 162 ticks."""
    trip = json.loads((CONFIGS / "runtime.json").read_text())
    trip.update(obstacleTrueMaxVel=0.4, reactionRadius=1.5)
    (tmp_path / "trip.json").write_text(json.dumps(trip))
    digest, codes, kinds = hashlib.sha256(), [], set()
    for config, seed in ((CONFIGS / "runtime_precondition_gap.json", 1),
                         (tmp_path / "trip.json", 9)):
        path = tmp_path / f"{config.stem}.jsonl"
        codes.append(main(["simulate", str(config), "--seed", str(seed), "--trace", str(path)]))
        digest.update(path.read_bytes())
        kinds.update(json.loads(line).get("kind") for line in path.read_text().splitlines())
    capsys.readouterr()
    assert codes == [2, 0]
    assert kinds == {None, "collision", "mode_change", "assumption_violated"}
    assert digest.hexdigest() == EVENT_TRACES_SHA256
