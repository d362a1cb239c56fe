"""Scenario configuration loading, validation, and initial states."""
import dataclasses
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivesafe import (
    Assumptions,
    ExplorationStats,
    GridScenario,
    ObstacleSpec,
    ScenarioError,
    SimConfig,
    SweepSpec,
    check_safety,
    initial_world_state,
    load_scenario,
    load_sim_config,
    load_sweep_spec,
    model,
    serialize_scenario,
    sim,
    sweep,
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
        scenario._replace(assumptions=scenario.assumptions._replace(visual_radius=value,
                                                                   reaction_radius=1)).validate()
    with pytest.raises(ScenarioError, match="trackLengthCells must be an integer"):
        scenario._replace(track_length_cells=value).validate()


def test_non_bool_is_static_rejected():
    scenario = head_on_scenario()
    mover = scenario.obstacles[0]._replace(is_static="false")
    scenario = scenario._replace(obstacles=(mover,) + scenario.obstacles[1:])
    with pytest.raises(ScenarioError, match=r"obstacles\[0\]\.isStatic must be a boolean"):
        check_safety(scenario)
    # A falsy isStatic does not make a mover that lacks destCell and maxVel.
    with pytest.raises(ScenarioError, match=r"obstacles\[0\]\.isStatic must be a boolean"):
        load_scenario(MINIMAL.replace(
            '"obstacles": []', '"obstacles": [{"id": 0, "startCell": 5, "lane": 0, "isStatic": 0}]'))


@pytest.mark.parametrize("field, key", [
    ("assumed_obstacle_max_vel", "assumedObstacleMaxVel"), ("visual_radius", "visualRadius"),
    ("buffer", "buffer"), ("reaction_radius", "reactionRadius"),
])
def test_assumptions_must_be_positive(field, key):
    assumptions = head_on_scenario().assumptions._replace(**{field: 0})
    with pytest.raises(ScenarioError, match=f"assumptions.{key} must be > 0"):
        assumptions.validate()


@pytest.mark.parametrize("record, keys", [
    (GridScenario, model._SCENARIO_KEYS),
    (ObstacleSpec, model._OBSTACLE_KEYS),
    (Assumptions, model._ASSUMPTION_KEYS),
    (SimConfig, sim._CONFIG_KEYS),
    (SweepSpec, sweep._SPEC_KEYS),
], ids=lambda value: getattr(value, "__name__", ""))
def test_key_table_maps_onto_exactly_the_record_fields(record, keys):
    """Each config record's table lists every field once, in field order,
    under the field's name in camelCase.  The nested fields (obstacles,
    assumptions, base) hold records with tables of their own, checked by
    the round trips."""
    if hasattr(record, "_fields"):      # a grid record: a named tuple
        names = list(record._fields)
    else:                               # a runtime record: a dataclass
        names = [field.name for field in dataclasses.fields(record)]
    assert list(keys.values()) == names
    for key, field in keys.items():
        first, *rest = field.split("_")
        assert key == first + "".join(word.capitalize() for word in rest)


def test_required_keys_are_the_fields_without_a_default():
    """``_record`` requires a grid record's fields outside
    ``_field_defaults``; the runtime records default every field."""
    assert Assumptions._field_defaults == {"reaction_radius": None}
    assert ObstacleSpec._field_defaults == {"dest_cell": None, "max_vel": None}
    assert list(GridScenario._field_defaults) == []
    with pytest.raises(ScenarioError, match="^missing required field assumptions.buffer$"):
        load_scenario(MINIMAL.replace(', "buffer": 1', ""))
    for record in (SimConfig, SweepSpec):
        assert all(field.default is not dataclasses.MISSING
                   for field in dataclasses.fields(record)), record
    assert sim.sim_config_from_dict({}) == SimConfig()
    assert model._record(SweepSpec, {}, sweep._SPEC_KEYS, "sweep spec") == SweepSpec()


@pytest.mark.parametrize("key", list(model._SCENARIO_KEYS))
def test_every_scenario_key_is_required(key):
    """No scenario field has a default, so a file is never checked against
    obstacles or assumptions its designer did not state."""
    data = json.loads(MINIMAL)
    del data[key]
    with pytest.raises(ScenarioError, match=rf"^missing required field scenario\.{key}$"):
        model.scenario_from_dict(data)


def test_python_built_records_keep_their_contracts():
    assert Assumptions(1, 10, 1).reaction_radius == 10
    assert Assumptions(1, 10, 1, 4).reaction_radius == 4
    static = ObstacleSpec(id=3, start_cell=7, lane=0, is_static=True)
    assert (static.dest_cell, static.max_vel) == (7, 1)
    document = json.loads(MINIMAL)
    for missing in ("destCell", "maxVel"):
        mover = {"id": 0, "startCell": 5, "lane": 0, "isStatic": False,
                 "destCell": 0, "maxVel": 2}
        del mover[missing]
        with pytest.raises(ScenarioError) as loaded:
            load_scenario(json.dumps({**document, "obstacles": [mover]}))
        with pytest.raises(ScenarioError) as built:
            ObstacleSpec(**{model._OBSTACLE_KEYS[key]: v for key, v in mover.items()})
        assert str(built.value) == str(loaded.value) == \
            f"obstacle 0: {missing} is required for moving obstacles"
    for record, field in ((static, "dest_cell"), (Assumptions(1, 10, 1), "buffer"),
                          (head_on_scenario(), "obstacles")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_exploration_stats_equality_ignores_wall_time():
    stats = ExplorationStats(10, 20, 3, 4, 0.5)
    same = ExplorationStats(10, 20, 3, 4, 9.0)
    assert stats == same and not stats != same
    assert hash(stats) == hash(same)
    assert len({stats, same}) == 1
    for counts in ((11, 20, 3, 4), (10, 21, 3, 4), (10, 20, 4, 4), (10, 20, 3, 5)):
        other = ExplorationStats(*counts, 0.5)
        assert stats != other and not stats == other, counts


def test_json_null_is_no_absent_field():
    """None marks an absent optional field; a JSON null is rejected."""
    with pytest.raises(ScenarioError, match="assumptions.reactionRadius must be a number"):
        load_scenario(MINIMAL.replace('"buffer": 1', '"buffer": 1, "reactionRadius": null'))
    with pytest.raises(ScenarioError, match=r"obstacles\[0\]\.destCell must be an integer"):
        load_scenario(MINIMAL.replace(
            '"obstacles": []',
            '"obstacles": [{"id": 0, "startCell": 5, "lane": 0, "isStatic": true,'
            ' "destCell": null}]'))


_positive = st.floats(1e-3, 10) | st.integers(1, 10)


@st.composite
def sim_configs(draw):
    start = draw(st.floats(0, 5))
    dest = start + draw(st.floats(0.1, 10))
    obstacle = start + draw(st.floats(0.1, 20))
    visual = draw(_positive)
    return SimConfig(
        dt=draw(_positive), track_length=max(dest, obstacle) + draw(st.floats(0, 5)),
        robot_start=start, robot_dest=dest, robot_max_vel=draw(_positive),
        robot_accel=draw(_positive), robot_decel=draw(_positive), obstacle_start=obstacle,
        obstacle_true_max_vel=draw(_positive), assumed_obstacle_max_vel=draw(_positive),
        visual_range=visual, reaction_radius=visual * draw(st.floats(0.01, 1)),
        buffer=draw(st.floats(0, 1)), collision_threshold=draw(_positive),
        seed=draw(st.integers(0, 2**63)), max_ticks=draw(st.integers(1, 10**6)),
    )


@settings(max_examples=100, deadline=None)
@given(config=sim_configs())
def test_sim_config_round_trip(config):
    assert load_sim_config(json.dumps(sim.sim_config_to_dict(config))) == config


@settings(max_examples=100, deadline=None)
@given(base=sim_configs(), vels=st.lists(_positive, min_size=1, max_size=4),
       radius_fractions=st.lists(st.floats(0.01, 1), min_size=1, max_size=4),
       runs=st.integers(1, 100), seed_base=st.integers(0, 10**6))
def test_sweep_spec_round_trip(base, vels, radius_fractions, runs, seed_base):
    # Loading validates every cell's config, so every radius is within visualRange.
    radii = tuple(base.visual_range * f for f in radius_fractions)
    spec = SweepSpec(base, tuple(vels), radii, runs, seed_base)
    text = json.dumps(model._to_dict(spec, sweep._SPEC_KEYS, base=sim.sim_config_to_dict))
    assert load_sweep_spec(text) == spec


def test_negative_seeds_rejected():
    """``random.Random`` seeds from ``abs(seed)``, so seed -3 would replay
    seed 3's stream and a negative seedBase would reuse other cells' runs."""
    config = replace(SimConfig(), seed=-1)
    with pytest.raises(ScenarioError, match="^seed must be >= 0$"):
        config.validate()
    with pytest.raises(ScenarioError, match="^seed must be >= 0$"):
        load_sim_config(json.dumps(sim.sim_config_to_dict(config)))
    spec = SweepSpec(SimConfig(), (0.2,), (1.0,), 1, -1)
    with pytest.raises(ScenarioError, match="^seedBase must be >= 0$"):
        spec.validate()
    with pytest.raises(ScenarioError, match="^seedBase must be >= 0$"):
        load_sweep_spec(json.dumps(model._to_dict(spec, sweep._SPEC_KEYS,
                                                  base=sim.sim_config_to_dict)))
