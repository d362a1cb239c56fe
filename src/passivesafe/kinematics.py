"""Distance and danger computations.

On the grid the robot brakes with unit deceleration: each tick it moves
at its current velocity, then sheds one cell/tick.  A robot at velocity v
therefore needs v ticks and v + (v-1) + ... + 1 = v(v+1)/2 cells to stop.
The runtime analogue, ``sim.SimConfig.derived_collision_distance``, works
in meters with a configurable deceleration.
"""
from __future__ import annotations

from .model import GridScenario, WorldState


def braking_distance_cells(v: int) -> int:
    """Cells covered by a robot braking from velocity v: v(v+1)/2."""
    return v * (v + 1) // 2


def collision_danger(world: WorldState, scenario: GridScenario) -> bool:
    """Look-ahead guard on the one-tick-delayed obstacle view
    (``prev_obstacles``); see ``collision_danger_at``."""
    robot = world.robot
    return collision_danger_at(robot.x, robot.lane, world.prev_obstacles, scenario)


def collision_danger_at(x: int, lane: int, seen: tuple, scenario: GridScenario) -> bool:
    """Is braking warranted for any obstacle of ``seen`` (the robot's
    view), for a robot on cell ``x`` of ``lane``?  See ``danger_from``."""
    return any(danger_from(x, lane, obs.x, obs.lane, obs.is_static, scenario) for obs in seen)


def danger_from(x: int, lane: int, obs_x: int, obs_lane: int, obs_static: bool,
                scenario: GridScenario) -> bool:
    """Does one obstacle the robot sees, on cell ``obs_x`` of ``obs_lane``,
    warrant braking for a robot on cell ``x`` of ``lane``?

    Only obstacles ahead of the robot on its own lane and inside the
    visual radius count.  Moving obstacles are checked against the full
    look-ahead distance at the robot's *maximum* velocity plus the
    buffer; static obstacles against the braking distance computed one
    velocity step above maximum, which builds in the margin without a
    separate buffer term.
    """
    a = scenario.assumptions
    if obs_lane != lane or not 0 <= obs_x - x <= a.visual_radius:
        return False
    vmax = scenario.robot_max_vel
    if obs_static:
        return x + braking_distance_cells(vmax + 1) >= obs_x
    # braking travel plus the assumed obstacle's travel in the vmax ticks of
    # braking, summed in this order: a folded bound rounds other floats differently
    return x + braking_distance_cells(vmax) + a.assumed_obstacle_max_vel * vmax >= obs_x - a.buffer


def blocks_lane(x: int, obs_x: int, visual_radius: float) -> bool:
    """Does an obstacle on cell ``obs_x`` keep a robot on cell ``x`` off
    its lane: is it ahead of the robot, within visual range?"""
    return x <= obs_x <= x + visual_radius


def stands_ahead(x: int, lane: int, obs_x: int, obs_lane: int) -> bool:
    """Does an obstacle on cell ``obs_x`` of ``obs_lane`` stand in the cell
    directly ahead of a robot on cell ``x`` of ``lane``?"""
    return obs_lane == lane and x < obs_x <= x + 1


def is_passive_safe(world: WorldState) -> bool:
    """Passive-safety predicate on the *true* world state; see
    ``is_passive_safe_at``."""
    robot = world.robot
    return is_passive_safe_at(robot.x, robot.lane, robot.v, world.obstacles)


def is_passive_safe_at(x: int, lane: int, v: int, obstacles: tuple) -> bool:
    """A state is unsafe exactly when some obstacle of ``obstacles``
    ``stands_ahead`` of the robot while the robot still has speed.
    Contact at zero velocity is admissible: the robot did not cause it.
    """
    return v == 0 or not any(stands_ahead(x, lane, obs.x, obs.lane) for obs in obstacles)
