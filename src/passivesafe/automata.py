"""Executable transition relations for the robot and its obstacles.

The robot is a five-mode machine (Idle, Accelerate, Drive, Brake, Stop)
run by ``model.MODE_TABLE`` and ``velocity_step`` in unit speed steps,
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
    velocity_step,
)


class ChoiceError(ValueError):
    """Choice vector does not match the world it is applied to."""


class ObstacleChoice(namedtuple("ObstacleChoice", "obstacle_id velocity")):
    """One moving obstacle's velocity pick for a single tick."""

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
    obstacles ``seen``: danger there, the free side lane only for a mode
    of ``DODGING_MODES`` in danger, then one ``robot_decide``."""
    danger = collision_danger_at(x, lane, seen, scenario)
    free_lane = (lane_change_possible_at(x, lane, seen, scenario)
                 if danger and mode in DODGING_MODES else None)
    return robot_decide(x, lane, v, mode, danger, free_lane, scenario)


# On CPython 3.11 each read of an enum member as a class attribute costs a
# descriptor call, about 150 ns; the step reads these from module globals.
_ACCELERATE, _DODGE = VelocityAction.ACCELERATE, VelocityAction.DODGE
# The modes with a dodge in a danger column: only they need a free side lane.
DODGING_MODES = frozenset(mode for mode, row in MODE_TABLE.items() if _DODGE in row[2:])


def robot_decide(x: int, lane: int, v: int, mode: RobotMode, danger: bool, free_lane,
                 scenario: GridScenario) -> tuple[int, int, int, RobotMode]:
    """The robot's (x, lane, v, mode) after one tick, given ``danger`` and
    ``free_lane``, a side lane or None: its mode's ``MODE_TABLE`` cell for
    (danger, near destination) picks the action, and dodge takes the free
    side lane with an acceleration, else brakes.  ``free_lane`` is read
    only on a dodge cell."""
    near_dest = scenario.robot_dest_cell - x <= braking_distance_cells(v)
    action = MODE_TABLE[mode][2 * danger + near_dest]
    if action is _DODGE and free_lane is not None:
        lane, action = free_lane, _ACCELERATE
    return apply_action(x, lane, v, mode, action, scenario)


def apply_action(x: int, lane: int, v: int, mode: RobotMode, action: VelocityAction,
                 scenario: GridScenario) -> tuple[int, int, int, RobotMode]:
    """The robot's (x, lane, v, mode) after one tick of a velocity action
    on ``lane``: ``velocity_step`` in unit steps (a dodge brakes), then the
    move at the new v, capped at the destination."""
    v, mode = velocity_step(v, mode, action, 1, 1, 0, scenario.robot_max_vel)
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
