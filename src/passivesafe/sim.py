"""Continuous-valued, discrete-time runtime simulation.

One robot and one stochastic obstacle approach each other on a single
lane.  Every tick:

  1. the obstacle draws a fresh speed uniformly from (0, true max]
     using the run's seeded generator;
  2. the assumption monitor sees the robot state and the one-tick-delayed
     obstacle position;
  3. the robot transitions: it brakes while the monitor has latched a
     violation, or while the observed gap is inside its reaction area
     and below the look-ahead collision distance; otherwise it
     accelerates toward its top speed and drives;
  4. positions integrate the updated velocities over dt;
  5. contact is checked against the collision threshold; contact while
     the robot still moves is an active collision and ends the run.

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
from pathlib import Path

from .kinematics import collision_distance_meters
from .model import (
    Assumptions,
    RobotMode,
    ScenarioError,
    _as_int,
    _as_number,
    _as_object,
    _reject_unknown,
    parse_json,
)
from .monitor import Feedback, Observation, new_monitor, observe


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
        if self.dt <= 0:
            raise ScenarioError("dt must be > 0")
        for name in ("robot_max_vel", "robot_accel", "robot_decel",
                     "obstacle_true_max_vel", "assumed_obstacle_max_vel"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"{name} must be > 0")
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

    def derived_collision_distance(self) -> float:
        """Look-ahead distance at top speed under the assumed bound; also
        the reaction radius above which braking distance is guaranteed."""
        t_brake = self.robot_max_vel / self.robot_decel
        return collision_distance_meters(
            self.robot_max_vel, t_brake, self.assumed_obstacle_max_vel, self.buffer
        ).total


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


# ---------------------------------------------------------------------------
# JSON configuration and JSONL traces
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "dt": "dt",
    "trackLength": "track_length",
    "robotStart": "robot_start",
    "robotDest": "robot_dest",
    "robotMaxVel": "robot_max_vel",
    "robotAccel": "robot_accel",
    "robotDecel": "robot_decel",
    "obstacleStart": "obstacle_start",
    "obstacleTrueMaxVel": "obstacle_true_max_vel",
    "assumedObstacleMaxVel": "assumed_obstacle_max_vel",
    "visualRange": "visual_range",
    "reactionRadius": "reaction_radius",
    "buffer": "buffer",
    "collisionThreshold": "collision_threshold",
    "seed": "seed",
    "maxTicks": "max_ticks",
}
_FIELD_TO_KEY = {v: k for k, v in _CONFIG_KEYS.items()}


def sim_config_from_dict(data: dict) -> SimConfig:
    _as_object(data, "simulation config")
    _reject_unknown(data, set(_CONFIG_KEYS), "simulation config")
    config = SimConfig(**{_CONFIG_KEYS[key]: value for key, value in data.items()})
    config.validate()
    return config


def load_sim_config(source: str) -> SimConfig:
    return sim_config_from_dict(parse_json(source))


def sim_config_to_dict(config: SimConfig) -> dict:
    return {key: getattr(config, field) for key, field in _CONFIG_KEYS.items()}


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


def write_trace_jsonl(trace: SimTrace, path: str | Path) -> None:
    Path(path).write_text(trace_to_jsonl(trace))
