"""Scenario configuration loading, validation, and initial states."""
from dataclasses import replace

import pytest

from passivesafe import (
    ScenarioError,
    check_safety,
    initial_world_state,
    load_scenario,
    serialize_scenario,
    validate_world,
)
from passivesafe.scenarios import empty_scenario, head_on_scenario

MINIMAL = """
{
  "trackLengthCells": 10,
  "laneCount": 1,
  "robotStartCell": 0,
  "robotStartLane": 0,
  "robotMaxVel": 3,
  "robotDestCell": 9,
  "obstacles": [],
  "assumptions": {"assumedObstacleMaxVel": 1, "visualRadius": 5, "buffer": 1}
}
"""


def test_minimal_config_loads():
    scenario = load_scenario(MINIMAL)
    assert scenario.track_length_cells == 10
    assert scenario.obstacles == ()
    assert scenario.assumptions.reaction_radius == 5  # defaults to visualRadius


def test_round_trip_preserves_every_field():
    scenario = head_on_scenario(assumed_obstacle_max_vel=2, buffer=3)
    assert load_scenario(serialize_scenario(scenario)) == scenario


def test_unknown_top_level_key_rejected():
    bad = MINIMAL.replace('"laneCount"', '"laneCout"')
    with pytest.raises(ScenarioError, match="laneCout"):
        load_scenario(bad)


def test_unknown_assumption_key_rejected():
    bad = MINIMAL.replace('"buffer"', '"bufer"')
    with pytest.raises(ScenarioError, match="bufer"):
        load_scenario(bad)


def test_parse_error_reports_line():
    with pytest.raises(ScenarioError, match="line"):
        load_scenario("{\n  \"trackLengthCells\": 10,\n}")


def test_obstacle_lane_out_of_range():
    bad = MINIMAL.replace(
        '"obstacles": []',
        '"obstacles": [{"id": 0, "startCell": 5, "lane": 1, "isStatic": true}]',
    )
    with pytest.raises(ScenarioError, match="lane out of range"):
        load_scenario(bad)


def test_mover_requires_dest_and_max_vel():
    bad = MINIMAL.replace(
        '"obstacles": []',
        '"obstacles": [{"id": 0, "startCell": 5, "lane": 0, "isStatic": false}]',
    )
    with pytest.raises(ScenarioError, match="destCell"):
        load_scenario(bad)


def test_mover_dest_beyond_start_rejected():
    bad = MINIMAL.replace(
        '"obstacles": []',
        '"obstacles": [{"id": 0, "startCell": 5, "lane": 0, "isStatic": false,'
        ' "destCell": 7, "maxVel": 1}]',
    )
    with pytest.raises(ScenarioError, match="destCell must be <="):
        load_scenario(bad)


def test_robot_start_dest_order_enforced():
    bad = MINIMAL.replace('"robotDestCell": 9', '"robotDestCell": 0')
    with pytest.raises(ScenarioError, match="robotStartCell < robotDestCell"):
        load_scenario(bad)


def test_head_on_scenario_is_valid_and_blocked_sideways():
    scenario = head_on_scenario()
    scenario.validate()
    lanes = {o.lane for o in scenario.obstacles if o.is_static}
    assert lanes == {0, 2}
    mover = scenario.obstacle_by_id(0)
    assert not mover.is_static and mover.lane == 1


def test_initial_state_empty_scenario():
    scenario = empty_scenario()
    world = initial_world_state(scenario)
    assert world.tick == 0
    assert world.robot.x == scenario.robot_start_cell
    assert world.robot.lane == scenario.robot_start_lane
    assert world.robot.v == 0
    assert world.robot.mode.value == "Idle"
    assert world.obstacles == ()


def test_initial_state_matches_obstacle_specs():
    scenario = head_on_scenario()
    world = initial_world_state(scenario)
    assert [o.id for o in world.obstacles] == [o.id for o in scenario.obstacles]
    assert world.prev_obstacles == world.obstacles
    validate_world(world, scenario)


def test_initial_state_deterministic():
    a = initial_world_state(head_on_scenario())
    b = initial_world_state(head_on_scenario())
    assert a == b


def test_mover_starting_on_destination_is_already_static():
    text = MINIMAL.replace(
        '"obstacles": []',
        '"obstacles": [{"id": 0, "startCell": 5, "lane": 0, "isStatic": false,'
        ' "destCell": 5, "maxVel": 2}]',
    )
    world = initial_world_state(load_scenario(text))
    assert world.obstacles[0].is_static


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_rejected_in_python_built_scenarios(value):
    with pytest.raises(ScenarioError, match="assumptions.buffer must be a finite number"):
        check_safety(head_on_scenario(buffer=value))
    scenario = head_on_scenario()
    with pytest.raises(ScenarioError, match="assumptions.visualRadius must be a finite"):
        replace(scenario, assumptions=replace(scenario.assumptions, visual_radius=value,
                                              reaction_radius=1)).validate()
    with pytest.raises(ScenarioError, match="trackLengthCells must be an integer"):
        replace(scenario, track_length_cells=value).validate()
