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
    view), for a robot on cell ``x`` of ``lane``?

    Only obstacles ahead of the robot on its own lane and inside the
    visual radius count.  Moving obstacles are checked against the full
    look-ahead distance at the robot's *maximum* velocity plus the
    buffer; static obstacles against the braking distance computed one
    velocity step above maximum, which builds in the margin without a
    separate buffer term.
    """
    a = scenario.assumptions
    vmax = scenario.robot_max_vel
    for obs in seen:
        if obs.lane != lane or not 0 <= obs.x - x <= a.visual_radius:
            continue
        if obs.is_static:
            if x + braking_distance_cells(vmax + 1) >= obs.x:
                return True
        else:
            # braking travel plus the assumed obstacle's travel in the vmax ticks of braking
            reach = x + braking_distance_cells(vmax) + a.assumed_obstacle_max_vel * vmax
            if reach >= obs.x - a.buffer:
                return True
    return False


def is_passive_safe(world: WorldState) -> bool:
    """Passive-safety predicate on the *true* world state; see
    ``is_passive_safe_at``."""
    robot = world.robot
    return is_passive_safe_at(robot.x, robot.lane, robot.v, world.obstacles)


def is_passive_safe_at(x: int, lane: int, v: int, obstacles: tuple) -> bool:
    """A state is unsafe exactly when some obstacle sits on the robot's
    lane in the cell directly ahead while the robot still has speed.
    Contact at zero velocity is admissible: the robot did not cause it.
    """
    if v == 0:
        return True
    for obs in obstacles:
        if obs.lane == lane and x < obs.x <= x + 1:
            return False
    return True
