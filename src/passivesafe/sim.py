"""Continuous-valued, discrete-time runtime simulation.

One robot and one stochastic obstacle approach each other on a single
lane.  Every tick:

  1. the obstacle draws a fresh speed uniformly from (0, true max]
     using the run's seeded generator;
  2. while the one-tick-delayed obstacle position lies inside the
     robot's reaction area, the assumption monitor sees it and the robot
     state (outside that area it cannot fire);
  3. the robot applies its mode's far action from ``model.MODE_TABLE``
     with ``model.velocity_step``, as the grid does; there is danger while
     the monitor has latched a violation, or while the observed gap is
     inside its reaction area and below the look-ahead collision distance;
  4. positions integrate the updated velocities over dt;
  5. contact is checked against the collision threshold; contact while
     the robot still moves is an active collision and ends the run.

An episode runs in two loops.  Before the first tick whose observed gap
is at most the reaction radius, the monitor cannot fire and there is no
danger, so the robot's calm motion depends on the config alone.  A
prefix of those ticks, also fixed by the config, is one on which even
the entry and contact tests cannot pass, so its ticks only draw and move
the obstacle; the robot's motion there, its mode changes, the look-ahead
distance and the monitor's assumptions are computed once per config
(once per sweep cell for all of its seeds).  The full tick runs every
later tick and alone decides each outcome.

A draw moves the obstacle by ``(true_max * (1.0 - draw)) * dt``, never
more than ``true_max * dt`` since draws are >= 0, and rounding to
nearest is monotone: the obstacle never stands below the positions
reached by stepping ``true_max * dt`` every tick with the same float
operations.  A tick whose tests fail on those positions fails them for
every draw.

The robot only ever reacts inside its reaction area, which may be
smaller than its sensing range: a deliberately small reaction area makes
the robot brake too late even against obstacles that honor the assumed
speed bound, which is exactly the degradation the sweep harness maps.
"""
from __future__ import annotations

import json
import random
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .model import (
    MODE_TABLE,
    Assumptions,
    RobotMode,
    ScenarioError,
    VelocityAction,
    _as_int,
    _as_number,
    _record,
    _to_dict,
    parse_json,
    velocity_step,
)
from .monitor import Feedback, new_monitor, observe_at


class SimOutcome(str, Enum):
    REACHED_GOAL = "ReachedGoal"
    STOPPED_SAFE = "StoppedSafe"
    ACTIVE_COLLISION = "ActiveCollision"
    TICK_BUDGET_EXHAUSTED = "TickBudgetExhausted"


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One episode's track, robot, obstacle and monitor parameters; a
    sweep varies it with ``dataclasses.replace``."""

    dt: float = 0.1                       # s
    track_length: float = 12.0            # m
    robot_start: float = 0.0              # m
    robot_dest: float = 10.0              # m
    robot_max_vel: float = 0.5            # m/s
    robot_accel: float = 0.5              # m/s²
    robot_decel: float = 0.5              # m/s²
    obstacle_start: float = 12.0          # m
    obstacle_true_max_vel: float = 0.2    # m/s, the real bound
    assumed_obstacle_max_vel: float = 0.2  # m/s, what the robot believes
    visual_range: float = 2.0             # m
    reaction_radius: float = 1.0          # m
    buffer: float = 0.1                   # m
    collision_threshold: float = 0.05     # m
    seed: int = 0
    max_ticks: int = 2000

    def validate(self) -> None:
        for key, field in _CONFIG_KEYS.items():
            read = _as_int if field in ("seed", "max_ticks") else _as_number
            read(getattr(self, field), key)
        for key in ("dt", "robotMaxVel", "robotAccel", "robotDecel",
                    "obstacleTrueMaxVel", "assumedObstacleMaxVel"):
            if getattr(self, _CONFIG_KEYS[key]) <= 0:
                raise ScenarioError(f"{key} must be > 0")
        for key in ("robotAccel", "robotDecel"):    # one tick's speed change
            if getattr(self, _CONFIG_KEYS[key]) * self.dt == 0:
                raise ScenarioError(f"{key} * dt must be > 0, not round to 0")
        if self.collision_threshold <= 0:
            raise ScenarioError("collisionThreshold must be > 0")
        if self.visual_range <= 0:
            raise ScenarioError("visualRange must be > 0")
        if not 0 < self.reaction_radius <= self.visual_range:
            raise ScenarioError("need 0 < reactionRadius <= visualRange")
        if self.buffer < 0:
            raise ScenarioError("buffer must be >= 0")
        if self.robot_start >= self.robot_dest:
            raise ScenarioError("robotStart must lie before robotDest")
        if self.obstacle_start <= self.robot_start:
            raise ScenarioError("obstacleStart must lie ahead of the robot")
        if max(self.robot_dest, self.obstacle_start) > self.track_length:
            raise ScenarioError("robotDest and obstacleStart must fit on the track")
        if self.max_ticks < 1:
            raise ScenarioError("maxTicks must be >= 1")
        if self.seed < 0:   # random.Random would seed from abs(seed)
            raise ScenarioError("seed must be >= 0")

    def derived_collision_distance(self) -> float:
        """Look-ahead distance at top speed under the assumed bound: the
        robot's and the obstacle's travel over the braking time plus the
        buffer.  Also the reaction radius above which braking distance is
        guaranteed."""
        v = self.robot_max_vel
        t_brake = v / self.robot_decel
        return v * t_brake + self.assumed_obstacle_max_vel * t_brake + self.buffer


class SimState(namedtuple("SimState", "t robot_x robot_v robot_mode obstacle_x obstacle_v "
                           "monitor_tripped")):
    """The world after one tick; ``obstacle_v`` is the tick's sample, 0.0
    before the first draw."""

    __slots__ = ()


class CollisionEvent(namedtuple("CollisionEvent", "t robot_v gap active kind",
                                defaults=("collision",))):
    __slots__ = ()


class ModeChangeEvent(namedtuple("ModeChangeEvent", "t mode_before mode_after kind",
                                 defaults=("mode_change",))):
    __slots__ = ()


SimEvent = CollisionEvent | ModeChangeEvent | Feedback


class SimTrace(namedtuple("SimTrace", "config states events outcome ticks")):
    __slots__ = ()


def simulate(config: SimConfig, collect_states: bool = True) -> SimTrace:
    """Run one episode to an outcome or the tick budget.

    Deterministic: equal configs (the seed is part of the config)
    produce equal traces.  ``collect_states`` can be switched off for
    bulk runs that only need events and the outcome.
    """
    config.validate()
    states, events, outcome, ticks = _episode(
        config, config.seed, collect_states=collect_states, approach=_approach(config))
    return SimTrace(
        config=config,
        states=tuple(states),
        events=tuple(events),
        outcome=outcome,
        ticks=ticks,
    )


def _approach(config: SimConfig) -> tuple[int, list, list, float, Assumptions]:
    """The part of an episode that depends on the config alone: the
    prefix, the robot's ``(x, v, mode)`` after ticks 0..prefix, the
    ``ModeChangeEvent``s of those ticks, ``derived_collision_distance()``
    and the monitor's ``Assumptions``.

    Before the reaction area the robot takes calm far actions (all
    accelerate or hold), so its motion is fixed up to the goal, the tick
    budget or the obstacle's start in reach.  The prefix is the number
    of leading ticks whose entry and contact tests fail on ``low``, the
    obstacle's lowest positions (see the module docstring), and so fail
    for any draws; it stops at least one tick before that motion ends,
    so the full tick decides every outcome.  Tick n's entry test reads
    the obstacle after tick n - 2 (the start for n <= 2) and the robot
    before tick n; its contact test reads both after tick n."""
    x, dest, max_vel, dt = config.robot_start, config.robot_dest, config.robot_max_vel, config.dt
    v, mode = 0.0, RobotMode.IDLE
    accel_dv, decel_dv = config.robot_accel * dt, config.robot_decel * dt
    robot = [(x, v, mode)]
    while (len(robot) <= config.max_ticks and x < dest
           and config.obstacle_start - x > config.reaction_radius):
        v, mode = velocity_step(v, mode, MODE_TABLE[mode][0], accel_dv, decel_dv, 0.0, max_vel)
        x += v * dt
        robot.append((x, v, mode))
    last = len(robot) - 1
    step, low = config.obstacle_true_max_vel * dt, [config.obstacle_start]
    for _ in range(last):
        low.append(low[-1] - step)
    prefix = next((n - 1 for n in range(1, last)
                   if low[max(n - 2, 0)] - robot[n - 1][0] <= config.reaction_radius
                   or low[n] - robot[n][0] <= config.collision_threshold), max(last - 1, 0))
    mode_changes = [ModeChangeEvent(n * dt, robot[n - 1][2], robot[n][2])
                    for n in range(1, prefix + 1) if robot[n][2] is not robot[n - 1][2]]
    assumptions = Assumptions(
        assumed_obstacle_max_vel=config.assumed_obstacle_max_vel,
        visual_radius=config.visual_range,
        buffer=config.buffer,
        reaction_radius=config.reaction_radius,
    )
    return prefix, robot[:prefix + 1], mode_changes, config.derived_collision_distance(), assumptions


def _episode(
    config: SimConfig, seed: int, *, collect_states: bool,
    approach: tuple[int, list, list, float, Assumptions]
) -> tuple[list[SimState], list[SimEvent], SimOutcome, int]:
    """The episode of ``simulate`` on a config that has passed
    ``validate()``, drawn from ``seed`` instead of ``config.seed``, with
    ``approach`` as ``_approach(config)`` returned it, so a sweep cell
    validates its config and computes its approach once and runs it for
    each of its seeds.  Returns the states, events, outcome and tick
    count.

    The episode is two loops.  The prefix loop runs the approach's
    prefix, whose ticks only draw, move the obstacle and keep its last
    position: even an obstacle that moves its true maximum every tick,
    which with monotone rounding bounds every draw's position from
    below, passes neither the entry nor the contact test there (see
    ``_approach``), and the robot moves as the approach says.  The full
    tick runs every later tick; it alone decides contact, the goal,
    a safe stop and the tick budget.

    The full tick reads only locals and allocates no object on a tick
    without an event.  ``observe_at`` alone decides when the assumption
    is violated, and it cannot fire while the observed gap lies outside
    ``[0, reaction radius]``; so the loop calls it only on ticks inside
    the reaction area (about a tenth of the ticks of the benchmark's
    sweep).  On the first such tick after a skipped one it first feeds
    the skipped tick's sample, which can only be recorded, so every
    estimate reads the same two consecutive ticks as a call on every
    tick would.  The latch is a local, set from the feedback returned.
    """
    draw = random.Random(seed).random
    dt = config.dt
    true_max = config.obstacle_true_max_vel
    reaction = config.reaction_radius
    threshold = config.collision_threshold
    prefix, robot, mode_changes, d_collision, assumptions = approach
    obstacle_x = prev_obstacle_x = config.obstacle_start   # tick-0 convention
    obstacle_v = 0.0
    states: list[SimState] = []
    events: list[SimEvent] = list(mode_changes)
    skipped_robot_x = skipped_seen = None   # the last tick's sample, if skipped

    if collect_states:
        states.append(SimState(0.0, *robot[0], obstacle_x, obstacle_v, False))

    # The prefix, ticks 1..prefix, where no test can pass.
    for tick in range(1, prefix + 1):
        obstacle_v = true_max * (1.0 - draw())
        skipped_seen, prev_obstacle_x = prev_obstacle_x, obstacle_x
        obstacle_x -= obstacle_v * dt
        if collect_states:
            states.append(SimState(tick * dt, *robot[tick], obstacle_x, obstacle_v, False))
    if prefix:
        skipped_robot_x = robot[prefix - 1][0]

    # The full tick, from the first tick after the prefix on.
    robot_x, robot_v, mode = robot[prefix]
    max_vel = config.robot_max_vel
    accel_dv = config.robot_accel * dt
    decel_dv = config.robot_decel * dt
    dest = config.robot_dest
    monitor = new_monitor(assumptions)
    observe, step = observe_at, velocity_step
    HOLD = VelocityAction.HOLD
    calm, alarmed = MODE_TABLE[mode][0::2]
    latched = in_contact = False
    outcome = SimOutcome.TICK_BUDGET_EXHAUSTED

    for tick in range(prefix + 1, config.max_ticks + 1):
        # (1) obstacle speed for this tick
        obstacle_v = true_max * (1.0 - draw())

        # (2) monitor observation with the delayed obstacle position,
        # only inside the reaction area, after catching up a skipped tick
        gap_observed = prev_obstacle_x - robot_x
        in_reach = 0 <= gap_observed <= reaction
        if in_reach:
            if skipped_seen is not None:
                observe(monitor, (tick - 1) * dt, skipped_robot_x, skipped_seen)
                skipped_seen = None
            feedback = observe(monitor, tick * dt, robot_x, prev_obstacle_x)
            if feedback is not None:
                latched = True
                events.append(feedback)
        else:
            skipped_robot_x, skipped_seen = robot_x, prev_obstacle_x

        # (3) robot transition by the mode's far actions (calm, danger);
        # the trigger reads the delayed gap.  Only an action that is not
        # hold can change the mode, and only a new mode looks up a new pair.
        action = alarmed if latched or (in_reach and gap_observed <= d_collision) else calm
        if action is not HOLD:
            mode_before = mode
            robot_v, mode = step(robot_v, mode, action, accel_dv, decel_dv, 0.0, max_vel)
            if mode is not mode_before:
                events.append(ModeChangeEvent(tick * dt, mode_before, mode))
                calm, alarmed = MODE_TABLE[mode][0::2]

        # (4) integrate positions
        gap_before = obstacle_x - robot_x
        prev_obstacle_x = obstacle_x
        robot_x += robot_v * dt
        obstacle_x -= obstacle_v * dt
        gap_after = obstacle_x - robot_x

        if collect_states:
            states.append(SimState(
                tick * dt, robot_x, robot_v, mode, obstacle_x, obstacle_v, latched))

        # (5) contact: the gap is inside the threshold now, or it crossed
        # zero within this tick.  Once the obstacle is past, the pair only
        # separates and no further contact is possible.  Since the
        # threshold is > 0, this is ``0 <= gap_after <= threshold or
        # gap_before >= 0 > gap_after`` with one compare on a far tick.
        if gap_after <= threshold and (gap_after >= 0 or gap_before >= 0):
            if not in_contact:
                in_contact = True
                active = robot_v > 0
                events.append(CollisionEvent(
                    t=tick * dt, robot_v=robot_v, gap=gap_after, active=active))
                if active:
                    outcome = SimOutcome.ACTIVE_COLLISION
                    break
        else:
            in_contact = False

        if robot_x >= dest:
            outcome = SimOutcome.REACHED_GOAL
            break
        if latched and robot_v == 0:
            outcome = SimOutcome.STOPPED_SAFE
            break

    return states, events, outcome, tick


# ---------------------------------------------------------------------------
# JSON configuration and JSONL traces
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "dt": "dt", "trackLength": "track_length", "robotStart": "robot_start",
    "robotDest": "robot_dest", "robotMaxVel": "robot_max_vel", "robotAccel": "robot_accel",
    "robotDecel": "robot_decel", "obstacleStart": "obstacle_start",
    "obstacleTrueMaxVel": "obstacle_true_max_vel",
    "assumedObstacleMaxVel": "assumed_obstacle_max_vel", "visualRange": "visual_range",
    "reactionRadius": "reaction_radius", "buffer": "buffer",
    "collisionThreshold": "collision_threshold", "seed": "seed", "maxTicks": "max_ticks",
}


def sim_config_from_dict(data: dict) -> SimConfig:
    config = _record(SimConfig, data, _CONFIG_KEYS, "simulation config")
    config.validate()
    return config


def load_sim_config(source: str) -> SimConfig:
    return sim_config_from_dict(parse_json(source))


def sim_config_to_dict(config: SimConfig) -> dict:
    return _to_dict(config, _CONFIG_KEYS)


# The trace's tick line and, by ``kind``, each event line have one table,
# as the config does.  A mode is written as its ``.value``, whatever
# ``json`` would make of the enum.
_STATE_KEYS = {
    "t": "t", "robotX": "robot_x", "robotV": "robot_v", "robotMode": "robot_mode",
    "obstacleX": "obstacle_x", "obstacleV": "obstacle_v", "monitorTripped": "monitor_tripped",
}
_EVENT_KEYS = {
    "collision": {"kind": "kind", "t": "t", "robotV": "robot_v", "gap": "gap",
                  "active": "active"},
    "mode_change": {"kind": "kind", "t": "t", "modeBefore": "mode_before",
                    "modeAfter": "mode_after"},
    "assumption_violated": {"kind": "kind", "t": "t",
                            "estimatedObstacleVel": "estimated_obstacle_vel",
                            "assumedMax": "assumed_max"},
}
_value = attrgetter("value")


def _event_line(event: SimEvent) -> str:
    return json.dumps({"type": "event", **_to_dict(
        event, _EVENT_KEYS[event.kind], mode_before=_value, mode_after=_value)})


def trace_to_jsonl(trace: SimTrace) -> str:
    """Header line with the config echo, one line per recorded tick, one
    line per event (in time order after their tick), and a final outcome
    summary line."""
    lines = [json.dumps({"type": "config", **sim_config_to_dict(trace.config)})]
    pending = list(trace.events)
    for state in trace.states:
        lines.append(json.dumps(
            {"type": "tick", **_to_dict(state, _STATE_KEYS, robot_mode=_value)}))
        while pending and pending[0].t <= state.t:
            lines.append(_event_line(pending.pop(0)))
    lines.extend(map(_event_line, pending))
    lines.append(json.dumps({
        "type": "outcome",
        "outcome": trace.outcome.value,
        "ticks": trace.ticks,
        "activeCollisions": sum(
            1 for e in trace.events if isinstance(e, CollisionEvent) and e.active
        ),
    }))
    return "\n".join(lines) + "\n"
