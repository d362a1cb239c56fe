"""Runtime assumption monitor.

Watches the robot's observations of the obstacle and raises feedback the
moment the estimated obstacle speed exceeds the assumed bound while the
obstacle is inside the robot's reaction area.  Estimation is a two-point
finite difference over consecutive observations: the fastest-reacting
estimator, and it errs toward safety.  Once tripped, the monitor stays
tripped for the rest of the episode; the calling system is expected to
brake to a standstill and end the run.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import Assumptions


class ObservationOrderError(ValueError):
    """Observations must arrive with strictly increasing timestamps."""


@dataclass(frozen=True, slots=True)
class Observation:
    """One sample of robot and (one-tick-delayed) obstacle state."""

    t: float
    robot_x: float
    robot_v: float
    obstacle_x: float


@dataclass(frozen=True, slots=True)
class Feedback:
    """Emitted when a design-time assumption is observed to be wrong."""

    t: float
    estimated_obstacle_vel: float
    assumed_max: float
    kind: str = "assumption_violated"


@dataclass(slots=True)
class MonitorState:
    """Mutable monitor record; ``observe`` updates it in place."""

    assumptions: Assumptions
    tolerance: float
    last_observation: Observation | None = None
    violation_latched: bool = False


def new_monitor(assumptions: Assumptions, tolerance: float | None = None) -> MonitorState:
    """Fresh monitor; default tolerance is 1% of the assumed bound, which
    keeps float noise from tripping it."""
    if tolerance is None:
        tolerance = 0.01 * assumptions.assumed_obstacle_max_vel
    return MonitorState(assumptions=assumptions, tolerance=tolerance)


def estimate_obstacle_velocity(prev: Observation, cur: Observation) -> float:
    """Approach speed of the obstacle between two observations.

    Positive while the obstacle's coordinate decreases (it approaches the
    robot head-on); negative means it is receding and can never trip the
    monitor.
    """
    dt = cur.t - prev.t
    if dt <= 0:
        raise ObservationOrderError(f"non-increasing timestamps: {prev.t} -> {cur.t}")
    return (prev.obstacle_x - cur.obstacle_x) / dt


def observe(monitor: MonitorState, obs: Observation) -> tuple[MonitorState, Feedback | None]:
    """Feed one observation; updates ``monitor`` in place and returns it
    with the feedback, if this very observation exposes a violated
    assumption.

    Feedback fires only when the speed estimate exceeds the assumed bound
    plus tolerance *and* the obstacle is ahead within the reaction
    radius.  A fast obstacle outside the reaction area is noted only once
    the gap has closed to the radius.  The first observation of a stream
    never fires (no estimate yet).
    """
    last = monitor.last_observation
    if last is not None and obs.t <= last.t:
        raise ObservationOrderError(f"non-increasing timestamps: {last.t} -> {obs.t}")

    feedback = None
    if last is not None:
        estimate = estimate_obstacle_velocity(last, obs)
        gap = obs.obstacle_x - obs.robot_x
        assumed = monitor.assumptions.assumed_obstacle_max_vel
        if (estimate > assumed + monitor.tolerance
                and 0 <= gap <= monitor.assumptions.reaction_radius):
            feedback = Feedback(t=obs.t, estimated_obstacle_vel=estimate, assumed_max=assumed)

    monitor.last_observation = obs
    if feedback is not None:
        monitor.violation_latched = True
    return monitor, feedback
