"""Transition relations: mode logic, obstacle choices, synchronous step."""
import random

import pytest

from passivesafe import (
    Assumptions,
    ChoiceError,
    GridScenario,
    ObstacleChoice,
    ObstacleSnapshot,
    ObstacleSpec,
    RobotMode,
    RobotSnapshot,
    WorldState,
    braking_distance_cells,
    collision_danger,
    enumerate_obstacle_choices,
    initial_world_state,
    lane_change_possible_at,
    robot_step,
    robot_step_at,
    world_step,
)
from passivesafe.automata import DODGING_MODES, robot_decide
from passivesafe.model import MODE_TABLE, VelocityAction
from helpers import (InvariantViolation, empty_scenario, head_on_scenario, single_lane_duel,
                     validate_world)


def make_world(scenario, robot=None, cells=None):
    world = initial_world_state(scenario)
    if cells:
        obs = tuple(
            ObstacleSnapshot(o.id, cells.get(o.id, o.x), o.lane, o.is_static, o.dest_cell)
            for o in world.obstacles
        )
        world = WorldState(world.tick, world.robot, obs, obs)
    if robot is not None:
        world = WorldState(world.tick, robot, world.obstacles, world.prev_obstacles)
    return world


def test_idle_robot_starts_driving():
    scenario = empty_scenario()
    world = initial_world_state(scenario)
    robot = robot_step(world.robot, world, scenario)
    assert robot.mode is RobotMode.ACCELERATE
    assert robot.v == 1
    assert robot.x == 1


def test_idle_robot_at_destination_stays_idle():
    scenario = empty_scenario(track_length=10)
    robot = RobotSnapshot(x=9, lane=0, v=0, mode=RobotMode.IDLE)
    world = make_world(scenario, robot=robot)
    assert robot_step(robot, world, scenario) == robot


def test_drive_into_danger_brakes_and_sheds_one():
    scenario = single_lane_duel(assumed_obstacle_max_vel=1)
    robot = RobotSnapshot(x=2, lane=0, v=3, mode=RobotMode.DRIVE)
    world = make_world(scenario, robot=robot, cells={0: 9})
    stepped = robot_step(robot, world, scenario)
    assert stepped.mode is RobotMode.BRAKE
    assert stepped.v == 2
    assert stepped.x == 4


def test_brake_at_one_with_danger_stops():
    scenario = single_lane_duel(assumed_obstacle_max_vel=1)
    robot = RobotSnapshot(x=4, lane=0, v=1, mode=RobotMode.BRAKE)
    world = make_world(scenario, robot=robot, cells={0: 9})
    stepped = robot_step(robot, world, scenario)
    assert stepped.mode is RobotMode.STOP
    assert stepped.v == 0
    assert stepped.x == 4


def test_brake_released_when_danger_clears():
    scenario = single_lane_duel(assumed_obstacle_max_vel=1)
    robot = RobotSnapshot(x=4, lane=0, v=2, mode=RobotMode.BRAKE)
    world = make_world(scenario, robot=robot, cells={0: 19})
    stepped = robot_step(robot, world, scenario)
    assert stepped.mode is RobotMode.DRIVE   # back to top speed right away
    assert stepped.v == 3


def test_acceleration_reaches_drive_at_max():
    scenario = empty_scenario()
    world = initial_world_state(scenario)
    modes, velocities = [], []
    for _ in range(3):
        world = world_step(world, (), scenario)
        modes.append(world.robot.mode)
        velocities.append(world.robot.v)
    assert velocities == [1, 2, 3]
    assert modes == [RobotMode.ACCELERATE, RobotMode.ACCELERATE, RobotMode.DRIVE]


def test_robot_parks_at_destination():
    scenario = empty_scenario(track_length=20)
    world = initial_world_state(scenario)
    for _ in range(40):
        world = world_step(world, (), scenario)
        validate_world(world, scenario)
    assert world.robot.x == scenario.robot_dest_cell
    assert world.robot.mode is RobotMode.IDLE
    assert world.robot.v == 0


def test_position_never_passes_destination():
    scenario = empty_scenario(track_length=12)
    world = initial_world_state(scenario)
    for _ in range(30):
        world = world_step(world, (), scenario)
        assert world.robot.x <= scenario.robot_dest_cell


def _accelerated(v: int, vmax: int) -> tuple[RobotMode, int]:
    v = min(v + 1, vmax)
    return (RobotMode.DRIVE if v == vmax else RobotMode.ACCELERATE), v


def _braked(v: int) -> tuple[RobotMode, int]:
    v = max(v - 1, 0)
    return (RobotMode.STOP if v == 0 else RobotMode.BRAKE), v


def reference_robot_step(
    robot: RobotSnapshot, world: WorldState, scenario: GridScenario
) -> RobotSnapshot:
    """The grid robot as a branch per mode, before ``MODE_TABLE``.

    The checker differential test runs the same controller on both of its
    sides (``robot_step_at``, which ``robot_step`` wraps), so only this
    copy can catch a wrong table cell."""
    danger = collision_danger(world, scenario)
    at_dest = robot.x == scenario.robot_dest_cell
    near_dest = scenario.robot_dest_cell - robot.x <= braking_distance_cells(robot.v)
    vmax = scenario.robot_max_vel
    mode, v, lane = robot.mode, robot.v, robot.lane

    if mode is RobotMode.IDLE:
        if not at_dest:
            mode, v = _accelerated(v, vmax)
    elif mode is RobotMode.ACCELERATE:
        if danger:
            mode, v = _braked(v)
        else:
            mode, v = _accelerated(v, vmax)
    elif mode is RobotMode.DRIVE:
        if danger or near_dest:
            mode, v = _braked(v)
    elif mode is RobotMode.BRAKE:
        if not danger and not near_dest:
            # The braking trigger has cleared: drive on at reduced speed.
            mode, v = _accelerated(v, vmax)
        else:
            free_lane = (lane_change_possible_at(robot.x, lane, world.prev_obstacles, scenario)
                         if danger else None)
            if free_lane is not None:
                lane = free_lane
                mode, v = _accelerated(v, vmax)
            else:
                mode, v = _braked(v)
    elif mode is RobotMode.STOP:
        if at_dest:
            mode = RobotMode.IDLE
        elif not danger:
            mode, v = _accelerated(v, vmax)

    x = min(robot.x + v, scenario.robot_dest_cell)
    return RobotSnapshot(x=x, lane=lane, v=v, mode=mode)


@pytest.mark.parametrize("danger", [False, True], ids=["calm", "danger"])
@pytest.mark.parametrize("sides_blocked", [False, True], ids=["sides-free", "sides-blocked"])
def test_robot_step_matches_reference(danger, sides_blocked):
    """Every mode, every velocity and the last eight cells before the
    destination (braking from 3 takes six), on the middle of three lanes.
    Danger is a parked obstacle in the next cell of the robot's lane; a
    blocked side is one in the next cell of that lane.  States that
    ``validate_world`` rejects (Idle or Stop with speed, Drive below top
    speed) are skipped: no step reaches them.  ``robot_step`` and the
    plain-value ``robot_step_at`` it wraps must both give the reference's
    robot."""
    dest, vmax = 20, 3
    checked = 0
    for x in range(dest - 7, dest + 1):
        lanes = [1] * danger + [0, 2] * sides_blocked
        scenario = GridScenario(
            track_length_cells=40, lane_count=3, robot_start_cell=0, robot_start_lane=1,
            robot_max_vel=vmax, robot_dest_cell=dest,
            obstacles=tuple(ObstacleSpec(i, x + 1, lane, True) for i, lane in enumerate(lanes)),
            assumptions=Assumptions(assumed_obstacle_max_vel=1, visual_radius=10, buffer=1),
        )
        for mode in RobotMode:
            for v in range(vmax + 1):
                world = make_world(scenario, robot=RobotSnapshot(x=x, lane=1, v=v, mode=mode))
                try:
                    validate_world(world, scenario)
                except InvariantViolation:
                    continue
                assert collision_danger(world, scenario) is danger
                free_lane = lane_change_possible_at(x, 1, world.prev_obstacles, scenario)
                assert (free_lane is None) is sides_blocked
                expected = reference_robot_step(world.robot, world, scenario)
                assert robot_step(world.robot, world, scenario) == expected, (mode, v, x)
                assert robot_step_at(x, 1, v, mode, world.prev_obstacles, scenario) == \
                    expected, (mode, v, x)
                checked += 1
    assert checked == 8 * (1 + 4 + 1 + 4 + 1)   # cells × admitted v of Idle .. Stop


# ---------------------------------------------------------------------------
# lane changes
# ---------------------------------------------------------------------------

def test_single_lane_has_no_change():
    scenario = single_lane_duel()
    world = initial_world_state(scenario)
    robot = world.robot
    assert lane_change_possible_at(robot.x, robot.lane, world.prev_obstacles, scenario) is None


def test_both_side_lanes_blocked():
    scenario = head_on_scenario()
    world = initial_world_state(scenario)
    robot = RobotSnapshot(x=10, lane=1, v=3, mode=RobotMode.DRIVE)
    assert lane_change_possible_at(robot.x, robot.lane, world.prev_obstacles, scenario) is None


def test_free_left_lane_preferred():
    scenario = GridScenario(
        track_length_cells=30, lane_count=3,
        robot_start_cell=0, robot_start_lane=1, robot_max_vel=3, robot_dest_cell=29,
        obstacles=(), assumptions=Assumptions(2, 10, 1),
    )
    world = initial_world_state(scenario)
    robot = world.robot
    assert lane_change_possible_at(robot.x, robot.lane, world.prev_obstacles, scenario) == 0


def test_blocked_left_falls_back_to_right():
    scenario = GridScenario(
        track_length_cells=30, lane_count=3,
        robot_start_cell=0, robot_start_lane=1, robot_max_vel=3, robot_dest_cell=29,
        obstacles=(ObstacleSpec(id=0, start_cell=5, lane=0, is_static=True),),
        assumptions=Assumptions(2, 10, 1),
    )
    world = initial_world_state(scenario)
    robot = world.robot
    assert lane_change_possible_at(robot.x, robot.lane, world.prev_obstacles, scenario) == 2


def test_obstacle_beyond_visual_radius_does_not_block():
    scenario = GridScenario(
        track_length_cells=30, lane_count=2,
        robot_start_cell=0, robot_start_lane=1, robot_max_vel=3, robot_dest_cell=29,
        obstacles=(ObstacleSpec(id=0, start_cell=15, lane=0, is_static=True),),
        assumptions=Assumptions(2, 10, 1),
    )
    world = initial_world_state(scenario)
    robot = world.robot
    assert lane_change_possible_at(robot.x, robot.lane, world.prev_obstacles, scenario) == 0


def test_braking_robot_takes_free_lane():
    # mover dead ahead, left lane clear: brake turns into a sideways escape
    scenario = GridScenario(
        track_length_cells=30, lane_count=2,
        robot_start_cell=0, robot_start_lane=1, robot_max_vel=3, robot_dest_cell=29,
        obstacles=(ObstacleSpec(id=0, start_cell=12, lane=1, is_static=False,
                                dest_cell=0, max_vel=2),),
        assumptions=Assumptions(2, 10, 1),
    )
    robot = RobotSnapshot(x=2, lane=1, v=2, mode=RobotMode.BRAKE)
    world = initial_world_state(scenario)
    world = WorldState(world.tick, robot, world.obstacles, world.prev_obstacles)
    stepped = robot_step(robot, world, scenario)
    assert stepped.lane == 0
    assert stepped.mode in (RobotMode.ACCELERATE, RobotMode.DRIVE)
    assert stepped.v == 3


def test_robot_decide_reads_the_free_lane_only_on_a_dodge_cell():
    """Every ``MODE_TABLE`` cell, reached from each (x, v) of a three-lane
    track at every lane, with every free lane of {None, 0, 1, 2}.  The
    decision is always a moved robot, and the free lane changes it only
    on a dodge cell.  Every dodge cell lies in a danger column of a mode
    of ``DODGING_MODES``, the only modes for which ``robot_step_at`` and
    the checker look for a free lane."""
    scenario = empty_scenario(track_length=12)._replace(lane_count=3)
    dest, cells = scenario.robot_dest_cell, set()
    for mode, row in MODE_TABLE.items():
        for column, action in enumerate(row):
            if action is VelocityAction.DODGE:
                assert column >= 2 and mode in DODGING_MODES, (mode, column)
    for mode in RobotMode:
        for danger in (False, True):
            for x in range(dest + 1):
                for v in range(scenario.robot_max_vel + 1):
                    near = dest - x <= braking_distance_cells(v)
                    dodge = MODE_TABLE[mode][2 * danger + near] is VelocityAction.DODGE
                    cells.add((mode, danger, near))
                    for lane in range(3):
                        braked = robot_decide(x, lane, v, mode, danger, None, scenario)
                        for free_lane in (None, 0, 1, 2):
                            moved = robot_decide(x, lane, v, mode, danger, free_lane, scenario)
                            assert type(moved) is tuple and len(moved) == 4
                            assert moved == braked or dodge, (mode, danger, x, v, free_lane)
    assert len(cells) == 4 * len(MODE_TABLE)


# ---------------------------------------------------------------------------
# obstacle choices and the synchronous step
# ---------------------------------------------------------------------------

def test_all_static_yields_single_empty_choice():
    scenario = head_on_scenario()
    world = initial_world_state(scenario)
    arrived = tuple(
        ObstacleSnapshot(o.id, o.dest_cell, o.lane, True, o.dest_cell)
        for o in world.obstacles
    )
    world = WorldState(0, world.robot, arrived, arrived)
    assert enumerate_obstacle_choices(world, scenario) == [()]


def test_single_mover_choice_range():
    scenario = single_lane_duel(true_obstacle_max_vel=2)
    world = initial_world_state(scenario)
    assert enumerate_obstacle_choices(world, scenario) == [
        (ObstacleChoice(0, 1),),
        (ObstacleChoice(0, 2),),
    ]


def test_two_movers_product_count():
    scenario = GridScenario(
        track_length_cells=40, lane_count=2,
        robot_start_cell=0, robot_start_lane=0, robot_max_vel=3, robot_dest_cell=39,
        obstacles=(
            ObstacleSpec(id=0, start_cell=30, lane=0, is_static=False, dest_cell=0, max_vel=2),
            ObstacleSpec(id=1, start_cell=35, lane=1, is_static=False, dest_cell=0, max_vel=3),
        ),
        assumptions=Assumptions(2, 10, 1),
    )
    world = initial_world_state(scenario)
    assert len(enumerate_obstacle_choices(world, scenario)) == 6


def test_world_step_advances_tick_and_delayed_view():
    scenario = single_lane_duel()
    world = initial_world_state(scenario)
    stepped = world_step(world, (ObstacleChoice(0, 2),), scenario)
    assert stepped.tick == 1
    assert stepped.prev_obstacles == world.obstacles
    assert stepped.obstacles[0].x == world.obstacles[0].x - 2


def test_mover_clamps_at_destination_and_absorbs():
    scenario = single_lane_duel()
    world = initial_world_state(scenario)
    cells = {0: 1}
    obs = tuple(ObstacleSnapshot(o.id, cells[o.id], o.lane, False, o.dest_cell)
                for o in world.obstacles)
    world = WorldState(0, world.robot, obs, obs)
    stepped = world_step(world, (ObstacleChoice(0, 2),), scenario)
    assert stepped.obstacles[0].x == 0
    assert stepped.obstacles[0].is_static
    # absorbed: no choices remain, and it never moves again
    assert enumerate_obstacle_choices(stepped, scenario) == [()]
    again = world_step(stepped, (), scenario)
    assert again.obstacles[0] == stepped.obstacles[0]


def test_wrong_arity_choice_rejected():
    scenario = single_lane_duel()
    world = initial_world_state(scenario)
    with pytest.raises(ChoiceError):
        world_step(world, (), scenario)
    with pytest.raises(ChoiceError):
        world_step(world, (ObstacleChoice(0, 1), ObstacleChoice(0, 1)), scenario)


def test_out_of_range_velocity_rejected():
    scenario = single_lane_duel(true_obstacle_max_vel=2)
    world = initial_world_state(scenario)
    with pytest.raises(ChoiceError, match="outside"):
        world_step(world, (ObstacleChoice(0, 3),), scenario)
    with pytest.raises(ChoiceError, match="outside"):
        world_step(world, (ObstacleChoice(0, 0),), scenario)


def test_world_step_pure():
    scenario = single_lane_duel()
    world = initial_world_state(scenario)
    choice = (ObstacleChoice(0, 3),)
    assert world_step(world, choice, scenario) == world_step(world, choice, scenario)


def test_random_walk_preserves_invariants():
    """Seeded random episodes: every produced state passes the validation
    hook, velocities stay bounded, obstacle positions never increase."""
    rng = random.Random(23)
    for episode in range(30):
        scenario = head_on_scenario(
            assumed_obstacle_max_vel=rng.randint(1, 4),
            true_obstacle_max_vel=rng.randint(1, 3),
            buffer=rng.randint(1, 6),
        )
        world = initial_world_state(scenario)
        last_positions = {o.id: o.x for o in world.obstacles}
        for _ in range(80):
            choices = tuple(
                ObstacleChoice(o.id, rng.randint(1, scenario.obstacle_by_id(o.id).max_vel))
                for o in world.obstacles if not o.is_static
            )
            world = world_step(world, choices, scenario)
            validate_world(world, scenario)
            for o in world.obstacles:
                assert o.x <= last_positions[o.id]
                last_positions[o.id] = o.x
