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

from collections import namedtuple

from .model import Assumptions


class ObservationOrderError(ValueError):
    """Observations must arrive with strictly increasing timestamps."""


class Observation(namedtuple("Observation", "t robot_x robot_v obstacle_x")):
    """One sample of robot and (one-tick-delayed) obstacle state."""

    __slots__ = ()


class Feedback(namedtuple("Feedback", "t estimated_obstacle_vel assumed_max kind",
                          defaults=("assumption_violated",))):
    """Emitted when a design-time assumption is observed to be wrong."""

    __slots__ = ()


class MonitorState:
    """Mutable monitor record; ``observe_at`` updates it in place.

    It keeps the time and obstacle position of the last observation
    (``last_t`` is None before the first) and the speed an estimate must
    exceed to trip, ``assumed_obstacle_max_vel + tolerance``.
    """

    __slots__ = ("assumptions", "last_t", "last_obstacle_x", "violation_latched", "trip_speed")

    def __init__(self, assumptions: Assumptions, tolerance: float) -> None:
        self.assumptions = assumptions
        self.last_t = None
        self.last_obstacle_x = 0.0
        self.violation_latched = False
        self.trip_speed = assumptions.assumed_obstacle_max_vel + tolerance


def new_monitor(assumptions: Assumptions, tolerance: float | None = None) -> MonitorState:
    """Fresh monitor; default tolerance is 1% of the assumed bound, which
    keeps float noise from tripping it."""
    if tolerance is None:
        tolerance = 0.01 * assumptions.assumed_obstacle_max_vel
    return MonitorState(assumptions=assumptions, tolerance=tolerance)


def observe_at(
    monitor: MonitorState, t: float, robot_x: float, obstacle_x: float
) -> Feedback | None:
    """Feed one observation, given as scalars; updates ``monitor`` in place
    and returns the feedback, if this very observation exposes a violated
    assumption.  This is the monitor's one trip rule.

    The estimate is the approach speed since the last observation, so a
    stationary or receding obstacle never fires.  Feedback fires only
    when the estimate exceeds the assumed bound plus tolerance *and* the
    obstacle is ahead within the reaction radius.  A fast obstacle
    outside the reaction area is noted only once the gap has closed to
    the radius.  The first observation of a stream never fires (no
    estimate yet).  Timestamps must increase strictly.

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
