"""Continuous-valued, discrete-time runtime simulation.

One robot and one stochastic obstacle approach each other on a single
lane.  Every tick:

  1. the obstacle draws a fresh speed uniformly from (0, true max]
     using the run's seeded generator;
  2. while the one-tick-delayed obstacle position lies inside the
     robot's reaction area, the assumption monitor sees it and the robot
     state (outside that area it cannot fire);
  3. the robot takes its mode's far action from ``model.MODE_TABLE``;
     there is danger while the monitor has latched a violation, or while
     the observed gap is inside its reaction area and below the
     look-ahead collision distance;
  4. positions integrate the updated velocities over dt;
  5. contact is checked against the collision threshold; contact while
     the robot still moves is an active collision and ends the run.

An episode runs in two phases.  Before the first tick whose observed
gap is at most the reaction radius, the monitor cannot fire and there is
no danger, so the robot's calm motion depends on the config alone: it is
computed once per episode, or once per sweep cell for all of its seeds,
and those ticks only draw, move the obstacle
and test for entry, contact, the goal and the tick budget.  That phase
leaves out only what cannot happen there, so the split is exact.

The robot only ever reacts inside its reaction area, which may be
smaller than its sensing range: a deliberately small reaction area makes
the robot brake too late even against obstacles that honor the assumed
speed bound, which is exactly the degradation the sweep harness maps.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum

from .kinematics import collision_distance_meters
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
)
from .monitor import Feedback, new_monitor, observe_at


class SimOutcome(str, Enum):
    REACHED_GOAL = "ReachedGoal"
    STOPPED_SAFE = "StoppedSafe"
    ACTIVE_COLLISION = "ActiveCollision"
    TICK_BUDGET_EXHAUSTED = "TickBudgetExhausted"


@dataclass(frozen=True, slots=True)
class SimConfig:
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
        """Look-ahead distance at top speed under the assumed bound; also
        the reaction radius above which braking distance is guaranteed."""
        t_brake = self.robot_max_vel / self.robot_decel
        return collision_distance_meters(
            self.robot_max_vel, t_brake, self.assumed_obstacle_max_vel, self.buffer
        ).total


# Per mode, ``MODE_TABLE``'s far columns (calm, danger), dodge read as brake.
_FAR_ACTIONS = {mode: tuple(VelocityAction.BRAKE if a is VelocityAction.DODGE else a
                            for a in row[0::2]) for mode, row in MODE_TABLE.items()}


@dataclass(frozen=True, slots=True)
class SimState:
    t: float
    robot_x: float
    robot_v: float
    robot_mode: RobotMode
    obstacle_x: float
    obstacle_v: float        # current sample; 0.0 before the first draw
    monitor_tripped: bool


@dataclass(frozen=True, slots=True)
class CollisionEvent:
    t: float
    robot_v: float
    gap: float
    active: bool
    kind: str = "collision"


@dataclass(frozen=True, slots=True)
class ModeChangeEvent:
    t: float
    mode_before: RobotMode
    mode_after: RobotMode
    kind: str = "mode_change"


SimEvent = CollisionEvent | ModeChangeEvent | Feedback


@dataclass(frozen=True, slots=True)
class SimTrace:
    config: SimConfig
    states: tuple[SimState, ...]
    events: tuple[SimEvent, ...]
    outcome: SimOutcome
    ticks: int


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


def _approach(config: SimConfig) -> tuple[list, list, list]:
    """The robot's motion before the reaction area, on calm far actions
    (all accelerate or hold): each tick's ``(tick, x before, x after)``,
    ``(x, v, mode)`` after ticks 0..L and ``(tick, ModeChangeEvent)``
    pairs, up to the goal, the tick budget or the obstacle's start in
    reach."""
    x, dest, max_vel, dt = config.robot_start, config.robot_dest, config.robot_max_vel, config.dt
    v, mode, accel_dv = 0.0, RobotMode.IDLE, config.robot_accel * dt
    robot = [(x, v, mode)]
    while (len(robot) <= config.max_ticks and x < dest
           and config.obstacle_start - x > config.reaction_radius):
        if _FAR_ACTIONS[mode][0] is not VelocityAction.HOLD:
            v = min(v + accel_dv, max_vel)
            mode = RobotMode.DRIVE if v == max_vel else RobotMode.ACCELERATE
        x += v * dt
        robot.append((x, v, mode))
    steps = [(n, robot[n - 1][0], robot[n][0]) for n in range(1, len(robot))]
    mode_changes = [(n, ModeChangeEvent(n * dt, robot[n - 1][2], robot[n][2]))
                    for n in range(1, len(robot)) if robot[n][2] is not robot[n - 1][2]]
    return steps, robot, mode_changes


def _episode(
    config: SimConfig, seed: int, *, collect_states: bool, approach: tuple[list, list, list]
) -> tuple[list[SimState], list[SimEvent], SimOutcome, int]:
    """The episode of ``simulate`` on a config that has passed
    ``validate()``, drawn from ``seed`` instead of ``config.seed``, with
    ``approach`` as ``_approach(config)`` returned it, so a sweep cell
    validates its config and computes its approach once and runs it for
    each of its seeds.  Returns the states, events, outcome and tick
    count.

    Phase 1 runs the ticks before the first one whose observed gap is at
    most the reaction radius: without monitor calls or danger there, the
    robot moves as ``approach`` says, whose end
    bounds the phase at the goal and the tick budget, and the loop only
    draws, moves the obstacle and tests for entry and contact.  Phase 2,
    the full tick, runs from then on.  Phase 1 leaves out only what
    cannot happen before that tick, so the split is exact for any draws.

    Phase 2 reads only locals and allocates no object on a tick without
    an event.  ``observe_at`` alone decides when the assumption is
    violated, and it cannot fire while the observed gap lies outside
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
    steps, robot, mode_changes = approach
    obstacle_x = prev_obstacle_x = config.obstacle_start   # tick-0 convention
    obstacle_v = 0.0
    states: list[SimState] = []
    events: list[SimEvent] = []
    in_contact = False
    skipped_robot_x = skipped_seen = None   # the last tick's sample, if skipped

    if collect_states:
        states.append(SimState(0.0, *robot[0], obstacle_x, obstacle_v, False))

    # Phase 1, ticks 1..done.  The entry test reads nothing the draw sets,
    # so it comes first; a contact ends the phase with its tick.
    done = len(steps)
    for tick, robot_x, robot_x_after in steps:
        if prev_obstacle_x - robot_x <= reaction:
            done = tick - 1
            break
        obstacle_v = true_max * (1.0 - draw())
        skipped_robot_x, skipped_seen, prev_obstacle_x = robot_x, prev_obstacle_x, obstacle_x
        obstacle_x -= obstacle_v * dt
        if collect_states:
            states.append(SimState(tick * dt, *robot[tick], obstacle_x, obstacle_v, False))
        gap_after = obstacle_x - robot_x_after
        if gap_after <= threshold and (gap_after >= 0 or prev_obstacle_x - robot_x >= 0):
            done, in_contact = tick, True
            break
    robot_x, robot_v, mode = robot[done]
    events.extend(event for n, event in mode_changes if n <= done)
    if in_contact:
        events.append(CollisionEvent(done * dt, robot_v, gap_after, active=robot_v > 0))
        if robot_v > 0:
            return states, events, SimOutcome.ACTIVE_COLLISION, done
    if robot_x >= config.robot_dest:
        return states, events, SimOutcome.REACHED_GOAL, done
    if done == config.max_ticks:
        return states, events, SimOutcome.TICK_BUDGET_EXHAUSTED, done

    # Phase 2: the full tick, from the first tick in reach on.
    max_vel = config.robot_max_vel
    accel_dv = config.robot_accel * dt
    decel_dv = config.robot_decel * dt
    d_collision = config.derived_collision_distance()
    dest = config.robot_dest
    monitor = new_monitor(Assumptions(
        assumed_obstacle_max_vel=config.assumed_obstacle_max_vel,
        visual_radius=config.visual_range,
        buffer=config.buffer,
        reaction_radius=config.reaction_radius,
    ))
    observe = observe_at
    HOLD, BRAKING = VelocityAction.HOLD, VelocityAction.BRAKE
    ACCELERATE, DRIVE, BRAKE, STOP = (
        RobotMode.ACCELERATE, RobotMode.DRIVE, RobotMode.BRAKE, RobotMode.STOP)
    calm, alarmed = _FAR_ACTIONS[mode]
    latched = False
    outcome = SimOutcome.TICK_BUDGET_EXHAUSTED

    for tick in range(done + 1, config.max_ticks + 1):
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

        # (3) robot transition by the mode's far actions; the trigger
        # reads the delayed gap.  Only an action that is not hold can
        # change the mode, and only a new mode looks up a new pair.
        action = alarmed if latched or (in_reach and gap_observed <= d_collision) else calm
        if action is not HOLD:
            mode_before = mode
            if action is BRAKING:
                robot_v = max(robot_v - decel_dv, 0.0)
                mode = STOP if robot_v == 0.0 else BRAKE
            else:
                robot_v = min(robot_v + accel_dv, max_vel)
                mode = DRIVE if robot_v == max_vel else ACCELERATE
            if mode is not mode_before:
                events.append(ModeChangeEvent(tick * dt, mode_before, mode))
                calm, alarmed = _FAR_ACTIONS[mode]

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


def _event_to_dict(event: SimEvent) -> dict:
    if isinstance(event, CollisionEvent):
        return {
            "type": "event", "kind": event.kind, "t": event.t,
            "robotV": event.robot_v, "gap": event.gap, "active": event.active,
        }
    if isinstance(event, ModeChangeEvent):
        return {
            "type": "event", "kind": event.kind, "t": event.t,
            "modeBefore": event.mode_before.value, "modeAfter": event.mode_after.value,
        }
    return {
        "type": "event", "kind": event.kind, "t": event.t,
        "estimatedObstacleVel": event.estimated_obstacle_vel,
        "assumedMax": event.assumed_max,
    }


def trace_to_jsonl(trace: SimTrace) -> str:
    """Header line with the config echo, one line per recorded tick, one
    line per event (in time order after their tick), and a final outcome
    summary line."""
    lines = [json.dumps({"type": "config", **sim_config_to_dict(trace.config)})]
    pending = list(trace.events)
    for state in trace.states:
        lines.append(json.dumps({
            "type": "tick",
            "t": state.t,
            "robotX": state.robot_x,
            "robotV": state.robot_v,
            "robotMode": state.robot_mode.value,
            "obstacleX": state.obstacle_x,
            "obstacleV": state.obstacle_v,
            "monitorTripped": state.monitor_tripped,
        }))
        while pending and pending[0].t <= state.t:
            lines.append(json.dumps(_event_to_dict(pending.pop(0))))
    for event in pending:
        lines.append(json.dumps(_event_to_dict(event)))
    lines.append(json.dumps({
        "type": "outcome",
        "outcome": trace.outcome.value,
        "ticks": trace.ticks,
        "activeCollisions": sum(
            1 for e in trace.events if isinstance(e, CollisionEvent) and e.active
        ),
    }))
    return "\n".join(lines) + "\n"
