"""Runtime simulation: determinism, clamping, braking, contact handling."""
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from passivesafe import (
    CollisionEvent,
    RobotMode,
    SimConfig,
    SimOutcome,
    simulate,
)
from passivesafe.cli import main
from passivesafe.model import MODE_TABLE, ScenarioError, VelocityAction
from passivesafe.sim import (
    _CONFIG_KEYS,
    load_sim_config,
    sim_config_to_dict,
    trace_to_jsonl,
)
from test_sim_differential import sim_configs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def cfg(**overrides):
    return replace(SimConfig(), **overrides)


def test_same_seed_byte_identical_trace():
    config = cfg(obstacle_true_max_vel=0.3, reaction_radius=0.5, seed=41)
    assert trace_to_jsonl(simulate(config)) == trace_to_jsonl(simulate(config))


def test_different_seeds_differ():
    a = trace_to_jsonl(simulate(cfg(seed=1)))
    b = trace_to_jsonl(simulate(cfg(seed=2)))
    assert a != b


def test_velocity_clamping_every_tick():
    config = cfg(obstacle_true_max_vel=0.3, reaction_radius=0.6, seed=7)
    trace = simulate(config)
    for state in trace.states:
        assert 0.0 <= state.robot_v <= config.robot_max_vel
        if state.t > 0:
            assert 0.0 < state.obstacle_v <= config.obstacle_true_max_vel


def test_obstacle_velocity_draw_excludes_zero_includes_max():
    trace = simulate(cfg(obstacle_true_max_vel=0.25, seed=13))
    samples = [s.obstacle_v for s in trace.states if s.t > 0]
    assert min(samples) > 0.0
    assert max(samples) <= 0.25


def test_safe_config_reaches_goal_or_stops():
    for seed in range(40):
        trace = simulate(cfg(seed=seed), collect_states=False)
        assert trace.outcome in (SimOutcome.REACHED_GOAL, SimOutcome.STOPPED_SAFE)


def test_tiny_reaction_radius_fast_obstacle_can_collide():
    hits = [
        seed for seed in range(60)
        if simulate(cfg(obstacle_true_max_vel=0.3, reaction_radius=0.4, seed=seed),
                    collect_states=False).outcome is SimOutcome.ACTIVE_COLLISION
    ]
    assert hits


def test_active_collision_outcome_iff_active_event():
    for seed in range(30):
        trace = simulate(cfg(obstacle_true_max_vel=0.3, reaction_radius=0.45, seed=seed))
        active_events = [e for e in trace.events
                         if isinstance(e, CollisionEvent) and e.active]
        assert (trace.outcome is SimOutcome.ACTIVE_COLLISION) == bool(active_events)


def test_passive_contact_does_not_end_run_as_collision():
    """A stopped robot letting the obstacle roll through it records only
    passive contact events."""
    seen_passive = False
    for seed in range(60):
        trace = simulate(cfg(obstacle_true_max_vel=0.2, reaction_radius=0.6, seed=seed))
        for event in trace.events:
            if isinstance(event, CollisionEvent) and not event.active:
                assert event.robot_v == 0.0
                seen_passive = True
        assert trace.outcome is not SimOutcome.ACTIVE_COLLISION
    assert seen_passive


def test_braking_covers_close_to_ideal_distance():
    """From the brake decision at speed v, distance to standstill matches
    v^2/(2 a) up to one dt*v of discretization."""
    config = cfg(obstacle_true_max_vel=0.2, reaction_radius=1.0, seed=3)
    trace = simulate(config)
    states = trace.states
    entry = next(i for i, s in enumerate(states)
                 if s.robot_mode is RobotMode.BRAKE)
    decision = states[entry - 1]
    stop = next(s for s in states[entry:] if s.robot_v == 0.0)
    covered = stop.robot_x - decision.robot_x
    ideal = decision.robot_v ** 2 / (2 * config.robot_decel)
    assert abs(covered - ideal) <= config.dt * decision.robot_v + 1e-9


def test_brake_entry_velocity_steps_down_by_decel_dt():
    config = cfg(obstacle_true_max_vel=0.2, reaction_radius=1.0, seed=3)
    states = simulate(config).states
    entry = next(i for i, s in enumerate(states) if s.robot_mode is RobotMode.BRAKE)
    assert states[entry].robot_v == pytest.approx(
        states[entry - 1].robot_v - config.robot_decel * config.dt
    )


def test_robot_resumes_after_obstacle_passes():
    """Unlatched robot: brakes on proximity, waits out the pass-through,
    then drives on to the goal."""
    trace = simulate(cfg(obstacle_true_max_vel=0.18, reaction_radius=0.8, seed=11))
    assert trace.outcome is SimOutcome.REACHED_GOAL
    modes = [s.robot_mode for s in trace.states]
    assert RobotMode.STOP in modes       # it did stop for the obstacle
    last_stop = max(i for i, m in enumerate(modes) if m is RobotMode.STOP)
    assert any(s.robot_v > 0 for s in trace.states[last_stop:])


def test_latched_monitor_ends_run_stopped_safe():
    trace = simulate(cfg(obstacle_true_max_vel=0.4, reaction_radius=1.2, seed=5))
    assert trace.outcome is SimOutcome.STOPPED_SAFE
    assert trace.states[-1].monitor_tripped
    assert trace.states[-1].robot_v == 0.0


def test_obstacle_jumping_past_moving_robot_is_active_collision():
    """The contact rule counts a zero crossing within one tick, not only a
    gap inside the threshold: a fast obstacle that is never within a tiny
    threshold of the robot still collides, with a negative gap."""
    config = cfg(collision_threshold=1e-9, obstacle_true_max_vel=3.0,
                 reaction_radius=0.05, seed=1)
    trace = simulate(config)
    assert trace.outcome is SimOutcome.ACTIVE_COLLISION
    (event,) = [e for e in trace.events if isinstance(e, CollisionEvent)]
    assert event.active and event.robot_v > 0
    assert event.gap < 0
    before = trace.states[-2]
    assert before.obstacle_x - before.robot_x > config.collision_threshold


def test_trace_jsonl_structure():
    import json
    config = cfg(obstacle_true_max_vel=0.3, reaction_radius=0.5, seed=2)
    lines = trace_to_jsonl(simulate(config)).splitlines()
    header = json.loads(lines[0])
    footer = json.loads(lines[-1])
    assert header["type"] == "config"
    assert header["assumedObstacleMaxVel"] == 0.2
    assert footer["type"] == "outcome"
    kinds = {json.loads(line)["type"] for line in lines}
    assert kinds == {"config", "tick", "event", "outcome"}


def test_monitor_feedback_lands_in_jsonl_stream():
    import json
    # obstacle well over the assumption and a roomy reaction area: trips
    config = cfg(obstacle_true_max_vel=0.4, reaction_radius=1.5, seed=9)
    trace = simulate(config)
    assert trace.outcome is SimOutcome.STOPPED_SAFE
    records = [json.loads(line) for line in trace_to_jsonl(trace).splitlines()]
    violations = [r for r in records
                  if r["type"] == "event" and r["kind"] == "assumption_violated"]
    assert violations
    assert violations[0]["estimatedObstacleVel"] > violations[0]["assumedMax"]


def test_invalid_configs_rejected():
    with pytest.raises(ScenarioError):
        cfg(dt=0.0).validate()
    with pytest.raises(ScenarioError):
        cfg(reaction_radius=3.0, visual_range=2.0).validate()
    with pytest.raises(ScenarioError):
        cfg(collision_threshold=0.0).validate()
    with pytest.raises(ScenarioError):
        cfg(obstacle_true_max_vel=-0.1).validate()
    with pytest.raises(ScenarioError):
        cfg(robot_start=10.0, robot_dest=5.0).validate()


@pytest.mark.parametrize("key", ["dt", "robotMaxVel", "robotAccel", "robotDecel",
                                 "obstacleTrueMaxVel", "assumedObstacleMaxVel"])
def test_positive_field_messages_name_json_key(key):
    loaded = json.dumps({**sim_config_to_dict(SimConfig()), key: 0})
    with pytest.raises(ScenarioError, match=f"^{key} must be > 0$"):
        load_sim_config(loaded)
    with pytest.raises(ScenarioError, match=f"^{key} must be > 0$"):
        simulate(cfg(**{_CONFIG_KEYS[key]: -0.5}))


@pytest.mark.parametrize("key, overrides", [
    # the robot would sit in Accelerate at v = 0 to the tick budget
    ("robotAccel", {"robot_accel": 5e-324}),
    # the robot would "brake" without slowing into an active collision (tick 60)
    ("robotDecel", {"robot_decel": 5e-324, "obstacle_true_max_vel": 3.0, "seed": 1}),
    ("robotAccel", {"robot_accel": 1e-300, "dt": 1e-30}),
])
def test_speed_step_rounding_to_zero_rejected(tmp_path, capsys, key, overrides):
    """A positive acceleration or deceleration whose one-tick step
    ``value * dt`` is 0.0 as a float is rejected, by ``simulate`` and by
    the CLI (exit 65), for a config and for a sweep spec's base."""
    message = f"^{key} \\* dt must be > 0, not round to 0$"
    with pytest.raises(ScenarioError, match=message):
        simulate(cfg(**overrides))
    fields = sim_config_to_dict(cfg(**overrides))
    config = tmp_path / "runtime.json"
    config.write_text(json.dumps(fields))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({**json.loads((CONFIGS / "sweep.json").read_text()),
                                "base": fields}))
    out = tmp_path / "out.csv"
    assert main(["simulate", str(config)]) == 65
    assert main(["sweep", str(spec), "--out", str(out)]) == 65
    assert capsys.readouterr().err.count(f"{key} * dt must be > 0") == 2
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_rejected(value):
    with pytest.raises(ScenarioError, match="dt must be a finite number"):
        cfg(dt=value).validate()
    with pytest.raises(ScenarioError, match="obstacleTrueMaxVel must be a finite number"):
        cfg(obstacle_true_max_vel=value).validate()
    with pytest.raises(ScenarioError, match="buffer must be a finite number"):
        simulate(cfg(buffer=value))


def test_derived_collision_distance_composition():
    config = cfg()
    t_brake = config.robot_max_vel / config.robot_decel
    expected = (config.robot_max_vel * t_brake
                + config.assumed_obstacle_max_vel * t_brake
                + config.buffer)
    assert config.derived_collision_distance() == pytest.approx(expected)


@pytest.mark.parametrize("v,decel,vo,b,total", [
    (0.0, 1.0, 0.2, 0.1, 0.1),
    (0.5, 0.5, 0.2, 0.1, 0.8),
    (0.4, 0.2, 0.2, 0.0, 1.2),
])
def test_derived_collision_distance_known_values(v, decel, vo, b, total):
    config = cfg(robot_max_vel=v, robot_decel=decel, assumed_obstacle_max_vel=vo, buffer=b)
    t_brake = v / decel
    assert config.derived_collision_distance() == pytest.approx(total)
    assert config.derived_collision_distance() == v * t_brake + vo * t_brake + b


class _MaxSpeedRng:
    """Stand-in generator whose draws always yield the speed bound."""

    def __init__(self, seed):
        pass

    def random(self):
        return 0.0   # speed = max * (1 - 0.0)


def test_worst_case_obstacle_cannot_collide_at_sweep_floor(monkeypatch):
    """Independent backing for the all-zero slow column of the sweep: even
    an obstacle pinned at its speed bound every single tick cannot force
    contact with a moving robot at the smallest swept radius."""
    import types

    import passivesafe.sim as sim_module

    fake = types.SimpleNamespace(Random=_MaxSpeedRng)
    monkeypatch.setattr(sim_module, "random", fake)

    pinned_slow = simulate(cfg(obstacle_true_max_vel=0.15, reaction_radius=0.48))
    assert pinned_slow.outcome is not SimOutcome.ACTIVE_COLLISION

    # the bound is tight: a slightly smaller radius does let it through
    pinned_close = simulate(cfg(obstacle_true_max_vel=0.15, reaction_radius=0.45))
    assert pinned_close.outcome is SimOutcome.ACTIVE_COLLISION


STILL, BACK_OFF = 1.0, 21.0   # draws: speed 1 * (1 - draw) is 0 or -20 m/s
NEAR, FAR = 0.9, 12.0          # obstacle starts: inside and outside the trigger


class _ScriptedRng:
    """Stand-in generator that replays fixed draws.  A draw above 1 lies
    outside ``random()``'s range on purpose: it sends the obstacle back,
    which clears the brake trigger.  With real draws the observed gap never
    grows, so Brake never meets a cleared trigger."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def _script_draws(monkeypatch, draws):
    import types

    import passivesafe.sim as sim_module

    monkeypatch.setattr(sim_module, "random",
                        types.SimpleNamespace(Random=lambda seed: _ScriptedRng(draws)))


@pytest.mark.parametrize(
    "mode_before, danger, action, mode_after, start, overrides, draws",
    [
        (RobotMode.IDLE, False, "accelerate", RobotMode.ACCELERATE, FAR, {}, [STILL]),
        (RobotMode.IDLE, True, "accelerate", RobotMode.ACCELERATE, NEAR, {}, [STILL]),
        (RobotMode.ACCELERATE, False, "accelerate", RobotMode.ACCELERATE,
         FAR, {}, [STILL] * 2),
        (RobotMode.ACCELERATE, True, "brake", RobotMode.BRAKE,
         NEAR, {"robot_decel": 0.2}, [STILL] * 2),
        (RobotMode.DRIVE, False, "hold", RobotMode.DRIVE,
         FAR, {"robot_accel": 5.0}, [STILL] * 2),
        (RobotMode.DRIVE, True, "brake", RobotMode.BRAKE,
         NEAR, {"robot_accel": 5.0}, [STILL] * 2),
        (RobotMode.BRAKE, False, "accelerate", RobotMode.DRIVE,
         NEAR, {"robot_accel": 5.0}, [BACK_OFF, STILL, STILL]),
        (RobotMode.BRAKE, True, "dodge", RobotMode.BRAKE,
         NEAR, {"robot_accel": 5.0}, [STILL] * 3),
        (RobotMode.STOP, False, "accelerate", RobotMode.ACCELERATE,
         NEAR, {"robot_decel": 5.0}, [BACK_OFF, STILL, STILL]),
        (RobotMode.STOP, True, "hold", RobotMode.STOP,
         NEAR, {"robot_decel": 5.0}, [STILL] * 3),
    ],
)
def test_mode_table_row(monkeypatch, mode_before, danger, action, mode_after, start,
                        overrides, draws):
    """``model.MODE_TABLE``'s far columns as the sim reads them, one (mode,
    danger) cell per case, pinned on the last tick of a run cut to
    len(draws) ticks.  The 1 m buffer puts the look-ahead distance above
    the 1 m reaction radius, so the trigger is the observed gap alone.
    A dodge brakes, as the grid's does with no free side lane: the sim's
    one lane has none."""
    _script_draws(monkeypatch, draws)
    config = cfg(obstacle_true_max_vel=1.0, buffer=1.0, reaction_radius=1.0,
                 obstacle_start=start, max_ticks=len(draws), **overrides)
    trace = simulate(config)
    assert trace.outcome is SimOutcome.TICK_BUDGET_EXHAUSTED
    assert trace.ticks == len(draws)

    *_, before, after = trace.states
    delayed_obstacle_x = trace.states[-3].obstacle_x if len(draws) > 1 else start
    assert before.robot_mode is mode_before
    assert not after.monitor_tripped
    assert (0 <= delayed_obstacle_x - before.robot_x <= config.reaction_radius) is danger

    v = before.robot_v
    braked = max(v - config.robot_decel * config.dt, 0.0)
    expected_v = {
        "accelerate": min(v + config.robot_accel * config.dt, config.robot_max_vel),
        "brake": braked,
        "dodge": braked,
        "hold": v,
    }[action]
    assert MODE_TABLE[mode_before][2 * danger] is VelocityAction(action)
    assert after.robot_v == expected_v
    assert after.robot_mode is mode_after


def test_calm_far_actions_only_accelerate_or_hold():
    """The approach before the reaction area is computed on this premise:
    ``MODE_TABLE``'s calm far column, the action the sim takes there."""
    assert {row[0] for row in MODE_TABLE.values()} == {
        VelocityAction.ACCELERATE, VelocityAction.HOLD}


def test_integer_speed_steps_stop_at_a_float_zero():
    """With dt, robotAccel and robotDecel as JSON ints, one tick's speed
    steps are ints too; the sim still brakes to the float 0.0, its own
    zero, and the trace prints it so."""
    data = json.loads((CONFIGS / "runtime.json").read_text())
    data.update(dt=1, robotDecel=1, robotAccel=1, robotMaxVel=1.5, trackLength=40, robotDest=30,
                obstacleStart=40, visualRange=10, reactionRadius=8, obstacleTrueMaxVel=3,
                assumedObstacleMaxVel=0.5)
    trace = simulate(load_sim_config(json.dumps(data)))
    assert trace.outcome is SimOutcome.STOPPED_SAFE
    assert ('{"type": "tick", "t": 15, "robotX": 19.5, "robotV": 0.0, "robotMode": "Stop", '
            in trace_to_jsonl(trace))


def test_untraced_approach_keeps_no_tick_of_the_prefix():
    """``configs/runtime.json`` on a track so long that the robot never
    nears the obstacle or its goal: every tick but the last is prefix.
    Without states collected the approach keeps the last few robot
    states only, so 200,000 ticks stay within 1 MB traced; a list per
    tick took 26 MB."""
    config = replace(load_sim_config((CONFIGS / "runtime.json").read_text()),
                     track_length=1e308, obstacle_start=1e308, robot_dest=1e307,
                     max_ticks=200_000)
    tracemalloc.start()
    try:
        trace = simulate(config, collect_states=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (trace.outcome, trace.ticks) == (SimOutcome.TICK_BUDGET_EXHAUSTED, 200_000)
    assert peak < 1_000_000


@pytest.mark.parametrize("field, before, value, text", [
    ("robot_start", 0.0, -0.0, '"robotX": -0.0,'),
    ("robot_max_vel", 1.0, 1, '"robotV": 1,'),
])
def test_next_config_with_equal_values_gets_its_own_approach(field, before, value, text):
    """Each ``simulate`` call computes its own approach: a value equal to
    the last config's, but of another sign or type, still shows in the
    trace."""
    assert text not in trace_to_jsonl(simulate(cfg(**{field: before})))
    assert text in trace_to_jsonl(simulate(cfg(**{field: value})))


@settings(max_examples=200, deadline=None)
@given(sim_configs())
def test_observed_gap_never_grows_with_real_draws(config):
    """With real draws the obstacle never backs off and the robot never
    reverses, so the gap the robot observes (the delayed obstacle position
    minus its own) never grows.  So with real draws, the ticks before the
    first one in reach all come before the obstacle's start is in reach,
    where the sim's precomputed approach ends."""
    states = simulate(config).states
    gaps = [states[max(tick - 2, 0)].obstacle_x - states[tick - 1].robot_x
            for tick in range(1, len(states))]
    assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))


def test_exact_coincidence_is_contact(monkeypatch):
    """A gap of exactly 0 is inside the threshold: robot and obstacle
    meeting on one point at the end of tick 1 collide then, not a tick
    later through the crossing test."""
    _script_draws(monkeypatch, [0.5, 0.5])
    config = cfg(dt=0.5, robot_accel=1.0, obstacle_start=0.5, obstacle_true_max_vel=1.0)
    trace = simulate(config)
    assert trace.outcome is SimOutcome.ACTIVE_COLLISION
    assert trace.events[-1] == CollisionEvent(t=0.5, robot_v=0.5, gap=0.0, active=True)


def test_precondition_gap_reproducer_collides(capsys):
    """True speed = assumed and a reaction radius equal to the derived
    look-ahead distance do not rule out an active collision: the distance
    leaves out the collision threshold, the obstacle's unseen tick and
    the robot's travel in the tick it brakes.  Pinned as it runs today,
    with the brake trigger unchanged, until a sufficient precondition is
    derived."""
    path = CONFIGS / "runtime_precondition_gap.json"
    config = load_sim_config(path.read_text())
    assert config.obstacle_true_max_vel == config.assumed_obstacle_max_vel
    assert config.reaction_radius == config.derived_collision_distance()
    assert main(["simulate", str(path), "--seed", "1"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "outcome": "ActiveCollision", "ticks": 136, "seed": 1}
    outcomes = [simulate(replace(config, seed=seed), collect_states=False).outcome
                for seed in range(300)]
    assert outcomes.count(SimOutcome.ACTIVE_COLLISION) == 38
