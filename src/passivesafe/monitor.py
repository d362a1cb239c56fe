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

from dataclasses import dataclass, field

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
    """Mutable monitor record; ``observe_at`` updates it in place.

    It keeps the time and obstacle position of the last observation
    (``last_t`` is None before the first) and the speed an estimate must
    exceed to trip, ``assumed_obstacle_max_vel + tolerance``.
    """

    assumptions: Assumptions
    tolerance: float
    last_t: float | None = None
    last_obstacle_x: float = 0.0
    violation_latched: bool = False
    trip_speed: float = field(init=False)

    def __post_init__(self) -> None:
        self.trip_speed = self.assumptions.assumed_obstacle_max_vel + self.tolerance


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
    monitor.  ``observe_at`` makes the same estimate from the scalars it
    keeps.
    """
    dt = cur.t - prev.t
    if dt <= 0:
        raise ObservationOrderError(f"non-increasing timestamps: {prev.t} -> {cur.t}")
    return (prev.obstacle_x - cur.obstacle_x) / dt


def observe_at(
    monitor: MonitorState, t: float, robot_x: float, obstacle_x: float
) -> Feedback | None:
    """Feed one observation, given as scalars; updates ``monitor`` in place
    and returns the feedback, if this very observation exposes a violated
    assumption.  This is the monitor's one trip rule.

    Feedback fires only when the speed estimate exceeds the assumed bound
    plus tolerance *and* the obstacle is ahead within the reaction
    radius.  A fast obstacle outside the reaction area is noted only once
    the gap has closed to the radius.  The first observation of a stream
    never fires (no estimate yet).  Timestamps must increase strictly.

    So an observation whose gap ``obstacle_x - robot_x`` lies outside
    ``[0, reaction_radius]`` never fires and leaves the latch as it was;
    it only becomes the sample the next estimate reads.  ``sim`` relies
    on this: it observes only inside the reaction area, plus the sample
    just before it.
    """
    last_t = monitor.last_t
    if last_t is None:
        monitor.last_t = t
        monitor.last_obstacle_x = obstacle_x
        return None
    if t <= last_t:
        raise ObservationOrderError(f"non-increasing timestamps: {last_t} -> {t}")
    estimate = (monitor.last_obstacle_x - obstacle_x) / (t - last_t)
    monitor.last_t = t
    monitor.last_obstacle_x = obstacle_x
    if (estimate > monitor.trip_speed
            and 0 <= obstacle_x - robot_x <= monitor.assumptions.reaction_radius):
        monitor.violation_latched = True
        return Feedback(t=t, estimated_obstacle_vel=estimate,
                        assumed_max=monitor.assumptions.assumed_obstacle_max_vel)
    return None


def observe(monitor: MonitorState, obs: Observation) -> tuple[MonitorState, Feedback | None]:
    """``observe_at`` on an ``Observation``; returns the monitor (the same
    object, updated in place) with the feedback, if any."""
    return monitor, observe_at(monitor, obs.t, obs.robot_x, obs.obstacle_x)
