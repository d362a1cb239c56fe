"""Distance computations against independent step-by-step oracles."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivesafe import (
    Assumptions,
    GridScenario,
    ObstacleSnapshot,
    ObstacleSpec,
    RobotMode,
    RobotSnapshot,
    WorldState,
    braking_distance_cells,
    collision_danger,
    is_passive_safe,
)
from passivesafe.kinematics import (
    collision_danger_at,
    danger_from,
    is_passive_safe_at,
    stands_ahead,
)


def brake_oracle(v: int) -> int:
    """Tick-by-tick braking: move at the current velocity, then shed one.

    Returns the cells covered.  Independent of the closed form under
    test.
    """
    cells = 0
    while v > 0:
        cells += v
        v -= 1
    return cells


@pytest.mark.parametrize("v", range(21))
def test_braking_distance_matches_step_oracle(v):
    assert braking_distance_cells(v) == brake_oracle(v)


@pytest.mark.parametrize("v,expected", [(0, 0), (1, 1), (3, 6)])
def test_braking_distance_known_values(v, expected):
    assert braking_distance_cells(v) == expected


# ---------------------------------------------------------------------------
# collision_danger
# ---------------------------------------------------------------------------

def lane_scenario(assumed=2, visual=20, buffer=1, movers=(), statics=(), lanes=1):
    """One-robot scenario with obstacles placed for guard tests.

    movers/statics are (id, cell, lane) triples.
    """
    obstacles = tuple(
        [ObstacleSpec(id=i, start_cell=c, lane=ln, is_static=False, dest_cell=0, max_vel=3)
         for i, c, ln in movers]
        + [ObstacleSpec(id=i, start_cell=c, lane=ln, is_static=True)
           for i, c, ln in statics]
    )
    return GridScenario(
        track_length_cells=60,
        lane_count=lanes,
        robot_start_cell=0,
        robot_start_lane=0,
        robot_max_vel=3,
        robot_dest_cell=59,
        obstacles=obstacles,
        assumptions=Assumptions(assumed, visual, buffer),
    )


def world_with(robot, scenario, obstacle_cells=None):
    """World whose current and delayed obstacle views coincide, with
    obstacle positions optionally overridden by id."""
    snapshots = []
    for o in scenario.obstacles:
        x = obstacle_cells.get(o.id, o.start_cell) if obstacle_cells else o.start_cell
        snapshots.append(ObstacleSnapshot(o.id, x, o.lane, o.is_static, o.dest_cell))
    obs = tuple(snapshots)
    return WorldState(tick=0, robot=robot, obstacles=obs, prev_obstacles=obs)


def driving_robot(x=0, lane=0, v=3):
    return RobotSnapshot(x=x, lane=lane, v=v, mode=RobotMode.DRIVE)


def test_no_obstacles_no_danger():
    scenario = lane_scenario()
    world = world_with(driving_robot(), scenario)
    assert collision_danger(world, scenario) is False


def test_moving_obstacle_just_outside_visual_radius():
    # reach (6 + 15 + 1) comfortably covers the gap; only the range gates
    scenario = lane_scenario(assumed=5, visual=20, movers=[(0, 21, 0)])
    world = world_with(driving_robot(x=0), scenario)
    assert collision_danger(world, scenario) is False
    # one cell closer, the range guard passes and the reach test fires
    world = world_with(driving_robot(x=1), scenario)
    assert collision_danger(world, scenario) is True


def test_moving_obstacle_reach_boundary():
    # vmax 3, assumed 2, buffer 1: reach 6 + 6 covers a gap of 13 but not 14
    scenario = lane_scenario(assumed=2, visual=20, buffer=1, movers=[(0, 13, 0)])
    assert collision_danger(world_with(driving_robot(x=0), scenario), scenario) is True
    scenario = lane_scenario(assumed=2, visual=20, buffer=1, movers=[(0, 14, 0)])
    assert collision_danger(world_with(driving_robot(x=0), scenario), scenario) is False


def test_static_obstacle_uses_bumped_braking_distance():
    # static branch: reach is braking_distance(vmax + 1) = 10, no buffer
    scenario = lane_scenario(statics=[(0, 10, 0)])
    assert collision_danger(world_with(driving_robot(x=0), scenario), scenario) is True
    scenario = lane_scenario(statics=[(0, 11, 0)])
    assert collision_danger(world_with(driving_robot(x=0), scenario), scenario) is False


def test_obstacle_behind_never_dangerous():
    scenario = lane_scenario(movers=[(0, 5, 0)])
    world = world_with(driving_robot(x=6), scenario)
    assert collision_danger(world, scenario) is False


def test_other_lane_never_dangerous():
    scenario = lane_scenario(movers=[(0, 10, 1)], lanes=2)
    world = world_with(driving_robot(x=8, lane=0), scenario)
    assert collision_danger(world, scenario) is False


def test_danger_reads_delayed_view():
    scenario = lane_scenario(assumed=2, visual=20, buffer=1, movers=[(0, 13, 0)])
    world = world_with(driving_robot(x=0), scenario)
    # current position far away, delayed position close: danger fires
    far = (ObstacleSnapshot(0, 40, 0, False, 0),)
    world = WorldState(0, world.robot, far, world.obstacles)
    assert collision_danger(world, scenario) is True
    # and the other way around: close now, far in the delayed view
    world = WorldState(0, world.robot, world.prev_obstacles, far)
    assert collision_danger(world, scenario) is False


def test_danger_monotone_in_assumption_and_buffer():
    rng = random.Random(7)
    for _ in range(300):
        gap = rng.randint(0, 30)
        assumed = rng.randint(1, 4)
        buffer = rng.randint(1, 5)
        x = rng.randint(0, 20)
        base = lane_scenario(assumed=assumed, buffer=buffer, movers=[(0, min(x + gap, 59), 0)])
        world = world_with(driving_robot(x=x), base)
        fired = collision_danger(world, base)
        bigger_a = lane_scenario(assumed=assumed + 1, buffer=buffer,
                                 movers=[(0, min(x + gap, 59), 0)])
        bigger_b = lane_scenario(assumed=assumed, buffer=buffer + 1,
                                 movers=[(0, min(x + gap, 59), 0)])
        if fired:
            assert collision_danger(world_with(driving_robot(x=x), bigger_a), bigger_a)
            assert collision_danger(world_with(driving_robot(x=x), bigger_b), bigger_b)


# ---------------------------------------------------------------------------
# is_passive_safe
# ---------------------------------------------------------------------------

def test_passive_safe_stopped_robot_adjacent_obstacle():
    scenario = lane_scenario(movers=[(0, 6, 0)])
    robot = RobotSnapshot(x=5, lane=0, v=0, mode=RobotMode.STOP)
    assert is_passive_safe(world_with(robot, scenario)) is True


def test_passive_safe_adjacent_on_other_lane():
    scenario = lane_scenario(movers=[(0, 6, 1)], lanes=2)
    robot = RobotSnapshot(x=5, lane=0, v=2, mode=RobotMode.DRIVE)
    assert is_passive_safe(world_with(robot, scenario)) is True


def test_moving_robot_with_obstacle_one_ahead_is_unsafe():
    scenario = lane_scenario(movers=[(0, 6, 0)])
    robot = RobotSnapshot(x=5, lane=0, v=1, mode=RobotMode.BRAKE)
    assert is_passive_safe(world_with(robot, scenario)) is False


def test_passive_safe_checks_current_not_delayed_positions():
    scenario = lane_scenario(movers=[(0, 6, 0)])
    robot = RobotSnapshot(x=5, lane=0, v=1, mode=RobotMode.BRAKE)
    world = world_with(robot, scenario)
    # delayed view far away changes nothing: the property is about reality
    far = (ObstacleSnapshot(0, 40, 0, False, 0),)
    assert is_passive_safe(WorldState(0, robot, world.obstacles, far)) is False
    assert is_passive_safe(WorldState(0, robot, far, world.obstacles)) is True


def test_one_tick_head_on_swap_is_unflagged_on_the_grid():
    """Finding, pinned.  The grid predicate reads one state, so a robot
    and a head-on mover that pass each other within one tick are never
    in contact: the robot goes from cell 10 to 12 at v = 2 while the
    mover goes from 13 to 10, and neither state is unsafe.  The sim's
    contact test counts such a crossing
    (``test_sim.py::test_obstacle_jumping_past_moving_robot_is_active_collision``).
    ROADMAP item 1, the swept predicate, flags this tick and flips the test."""
    before = (ObstacleSnapshot(0, 13, 0, False, 0),)
    after = (ObstacleSnapshot(0, 10, 0, False, 0),)
    assert is_passive_safe_at(10, 0, 2, before) is True
    assert is_passive_safe_at(12, 0, 2, after) is True


def test_passive_safe_invariant_under_obstacle_permutation():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 5)
        cells = [rng.randint(0, 59) for _ in range(n)]
        movers = [(i, c, 0) for i, c in enumerate(cells)]
        scenario = lane_scenario(movers=movers)
        robot = RobotSnapshot(x=rng.randint(0, 59), lane=0, v=rng.randint(0, 3),
                              mode=RobotMode.DRIVE if rng.random() < 0.5 else RobotMode.BRAKE)
        world = world_with(robot, scenario)
        shuffled = list(world.obstacles)
        rng.shuffle(shuffled)
        permuted = WorldState(0, robot, tuple(shuffled), world.prev_obstacles)
        assert is_passive_safe(world) == is_passive_safe(permuted)


# ---------------------------------------------------------------------------
# Row rules against their per-obstacle rule
# ---------------------------------------------------------------------------

@st.composite
def rows(draw):
    """A scenario, a robot (x, lane, v) and a row of obstacles in any
    order, with obstacles on every lane near the robot's cell."""
    lanes = draw(st.integers(1, 4))
    scenario = lane_scenario(assumed=draw(st.integers(1, 5)), visual=draw(st.integers(1, 30)),
                             buffer=draw(st.integers(1, 5)), lanes=lanes)
    x = draw(st.integers(0, 50))
    row = [(lane, x + draw(st.integers(-2, 12)), draw(st.booleans()))
           for lane in range(lanes) for _ in range(draw(st.integers(1, 3)))]
    row = tuple(ObstacleSnapshot(i, cell, lane, static, 0)
                for i, (lane, cell, static) in enumerate(draw(st.permutations(row))))
    return scenario, x, draw(st.integers(0, lanes - 1)), draw(st.integers(0, 3)), row


@settings(max_examples=300, deadline=None)
@given(rows())
def test_row_rules_are_any_of_their_per_obstacle_rule(case):
    """``collision_danger_at`` and ``is_passive_safe_at`` put only the
    obstacles on the robot's lane to their rule; over a row with
    obstacles on every lane, that is ``any`` of the rule over the row."""
    scenario, x, lane, v, row = case
    assert collision_danger_at(x, lane, row, scenario) == any(
        danger_from(x, lane, o.x, o.lane, o.is_static, scenario) for o in row)
    assert is_passive_safe_at(x, lane, v, row) == (
        v == 0 or not any(stands_ahead(x, lane, o.x, o.lane) for o in row))
