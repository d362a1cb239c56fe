"""Executable transition relations for the robot and its obstacles.

The robot is a five-mode machine (Idle, Accelerate, Drive, Brake, Stop)
run by ``model.MODE_TABLE``, with unit acceleration and deceleration and
its position capped at the destination cell.  Moving obstacles pick a
velocity from [1, max_vel] every tick; the set of those picks is the
only nondeterminism in a world step.  Robot and obstacles advance in
lockstep, and the robot decides on the one-tick-delayed obstacle view,
so a step reads ``world.prev_obstacles`` and writes the current
``world.obstacles`` into the successor's ``prev_obstacles``.  The robot
logic is the plain-value ``robot_step_at``, which observes the obstacles
it sees and hands what it observed to ``robot_decide``; ``robot_step``
wraps it.
"""
from __future__ import annotations

import itertools
from collections import namedtuple

from .kinematics import blocks_lane, braking_distance_cells, collision_danger_at
from .model import (
    MODE_TABLE,
    GridScenario,
    ObstacleSnapshot,
    RobotMode,
    RobotSnapshot,
    VelocityAction,
    WorldState,
)


class ChoiceError(ValueError):
    """Choice vector does not match the world it is applied to."""


class ObstacleChoice(namedtuple("ObstacleChoice", "obstacle_id velocity")):
    """One moving obstacle's velocity pick for a single tick."""

    __slots__ = ()


class TransitionLabel(namedtuple("TransitionLabel", "tick mode_before mode_after choices "
                                 "state_hash")):
    """Record of one world step, enough to replay and explain it: the
    tick, the robot's modes before and after, and the choices (a tuple of
    ``ObstacleChoice``).

    ``state_hash`` is the digest of the state the step produced; replay
    recomputes and compares it.
    """

    __slots__ = ()


def lane_change_possible_at(x: int, lane: int, seen: tuple, scenario: GridScenario) -> int | None:
    """Adjacent lane with no obstacle of ``seen`` ahead of cell ``x``
    within visual range (``blocks_lane``); see ``free_side_lane``."""
    visual = scenario.assumptions.visual_radius
    return free_side_lane(lane, {obs.lane for obs in seen if blocks_lane(x, obs.x, visual)},
                          scenario)


def free_side_lane(lane: int, blocked, scenario: GridScenario) -> int | None:
    """The lane next to ``lane`` that is not in ``blocked``; lower lane
    index wins ties, None when neither neighbor qualifies."""
    for side in (lane - 1, lane + 1):
        if 0 <= side < scenario.lane_count and side not in blocked:
            return side
    return None


def robot_step(
    robot: RobotSnapshot, world: WorldState, scenario: GridScenario
) -> RobotSnapshot:
    """Advance the robot one tick against the (old) world it observes;
    see ``robot_step_at``."""
    return RobotSnapshot(*robot_step_at(*robot, world.prev_obstacles, scenario))


def robot_step_at(x: int, lane: int, v: int, mode: RobotMode, seen: tuple,
                  scenario: GridScenario) -> tuple[int, int, int, RobotMode]:
    """The robot's (x, lane, v, mode) after one tick, deciding on the
    obstacles ``seen``: what it observes there, then ``robot_decide``."""
    danger = collision_danger_at(x, lane, seen, scenario)
    return (robot_decide(x, lane, v, mode, danger, _UNLOOKED, scenario)
            or robot_decide(x, lane, v, mode, danger,
                            lane_change_possible_at(x, lane, seen, scenario), scenario))


_UNLOOKED = object()    # a free lane not looked for yet
# On CPython 3.11 each read of an enum member as a class attribute costs a
# descriptor call, about 150 ns; the step reads these from module globals.
_ACCELERATE, _BRAKE, _PARK, _DODGE = (VelocityAction.ACCELERATE, VelocityAction.BRAKE,
                                      VelocityAction.PARK, VelocityAction.DODGE)


def robot_decide(x: int, lane: int, v: int, mode: RobotMode, danger: bool, free_lane,
                 scenario: GridScenario) -> tuple[int, int, int, RobotMode] | None:
    """The robot's (x, lane, v, mode) after one tick, given ``danger`` and
    ``free_lane``, the free side lane or None: its mode's ``MODE_TABLE``
    cell for (danger, near destination) picks the action, and dodge takes
    the free side lane with an acceleration, else brakes.  A dodge with
    ``_UNLOOKED`` returns None: the caller looks for the lane only then."""
    near_dest = scenario.robot_dest_cell - x <= braking_distance_cells(v)
    action = MODE_TABLE[mode][2 * danger + near_dest]
    if action is _DODGE:
        if free_lane is _UNLOOKED:
            return None
        if free_lane is None:
            action = _BRAKE
        else:
            lane, action = free_lane, _ACCELERATE
    return apply_action(x, lane, v, mode, action, scenario)


def apply_action(x: int, lane: int, v: int, mode: RobotMode, action: VelocityAction,
                 scenario: GridScenario) -> tuple[int, int, int, RobotMode]:
    """The robot's (x, lane, v, mode) after one tick of a velocity action
    other than dodge, driven on ``lane``: the action's update of v and
    mode, then the move at the new v, capped at the destination."""
    if action is _ACCELERATE:
        v = min(v + 1, scenario.robot_max_vel)
        mode = RobotMode.DRIVE if v == scenario.robot_max_vel else RobotMode.ACCELERATE
    elif action is _BRAKE:
        v = max(v - 1, 0)
        mode = RobotMode.STOP if v == 0 else RobotMode.BRAKE
    elif action is _PARK:
        mode = RobotMode.IDLE
    return min(x + v, scenario.robot_dest_cell), lane, v, mode


def enumerate_obstacle_choices(
    world: WorldState, scenario: GridScenario
) -> list[tuple[ObstacleChoice, ...]]:
    """All velocity pick vectors for the current tick.

    Cartesian product over the still-moving obstacles of [1, max_vel];
    static and arrived obstacles contribute nothing.  A world with no
    movers yields exactly one empty vector.
    """
    per_mover = [
        [ObstacleChoice(obs.id, v)
         for v in range(1, scenario.obstacle_by_id(obs.id).max_vel + 1)]
        for obs in world.obstacles
        if not obs.is_static
    ]
    return [tuple(combo) for combo in itertools.product(*per_mover)]


def _validate_choices(
    world: WorldState,
    choices: tuple[ObstacleChoice, ...],
    scenario: GridScenario,
) -> dict[int, int]:
    mover_ids = [obs.id for obs in world.obstacles if not obs.is_static]
    if [c.obstacle_id for c in choices] != mover_ids:
        raise ChoiceError(
            f"choice vector names obstacles {[c.obstacle_id for c in choices]}, "
            f"expected moving obstacles {mover_ids}"
        )
    picked = {}
    for choice in choices:
        max_vel = scenario.obstacle_by_id(choice.obstacle_id).max_vel
        if not 1 <= choice.velocity <= max_vel:
            raise ChoiceError(
                f"obstacle {choice.obstacle_id}: velocity {choice.velocity} "
                f"outside [1, {max_vel}]"
            )
        picked[choice.obstacle_id] = choice.velocity
    return picked


def world_step(
    world: WorldState,
    choices: tuple[ObstacleChoice, ...],
    scenario: GridScenario,
) -> WorldState:
    """One synchronous tick: obstacles move by their picks, the robot by
    its mode logic against the old world.  Movers clamp at their
    destination and become static there, for good."""
    picked = _validate_choices(world, choices, scenario)
    new_obstacles = []
    for obs in world.obstacles:
        if obs.is_static:
            new_obstacles.append(obs)
            continue
        x = max(obs.x - picked[obs.id], obs.dest_cell)
        new_obstacles.append(ObstacleSnapshot(
            id=obs.id, x=x, lane=obs.lane,
            is_static=x == obs.dest_cell, dest_cell=obs.dest_cell,
        ))
    robot = RobotSnapshot(*robot_step_at(*world.robot, world.prev_obstacles, scenario))
    return WorldState(
        tick=world.tick + 1,
        robot=robot,
        obstacles=tuple(new_obstacles),
        prev_obstacles=world.obstacles,
    )
