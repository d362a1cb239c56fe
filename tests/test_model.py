"""Scenario configuration loading, validation, initial states, and the
robot's velocity step."""
import dataclasses
import json
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passivesafe import (
    Assumptions,
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
    sim,
    sweep,
)
from passivesafe.model import RobotMode, VelocityAction, velocity_step
from helpers import CONFIGS, empty_scenario, head_on_scenario, serialize_scenario, validate_world
from test_automata import _accelerated as grid_accelerated, _braked as grid_braked
from test_sim_differential import _accelerated as sim_accelerated, _braked as sim_braked

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


def test_under_assumption_config_is_the_head_on_variant():
    """The file CI checks for ``Violated`` and the tests' variant of it are
    one scenario."""
    text = (CONFIGS / "head_on_under_assumption.json").read_text()
    assert load_scenario(text) == head_on_scenario(assumed_obstacle_max_vel=2)


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


def _reference_step(v, mode, action, accelerated, braked):
    """(v, mode) after ``action`` by one half's own references; a dodge
    that reaches the velocity step has no free lane, so it brakes."""
    if action is VelocityAction.ACCELERATE:
        mode, v = accelerated(v)
    elif action in (VelocityAction.BRAKE, VelocityAction.DODGE):
        mode, v = braked(v)
    elif action is VelocityAction.PARK:
        mode = RobotMode.IDLE
    return v, mode


@pytest.mark.parametrize("vmax", [1, 3])
def test_velocity_step_on_grid_ints(vmax):
    """Every mode, action and speed of the grid, in its steps (1, 1, 0,
    robotMaxVel), against ``test_automata``'s references.  Reprs are
    compared, so a speed that is an int must stay one."""
    for mode, action, v in product(RobotMode, VelocityAction, range(vmax + 1)):
        want = _reference_step(v, mode, action, lambda v: grid_accelerated(v, vmax), grid_braked)
        assert repr(velocity_step(v, mode, action, 1, 1, 0, vmax)) == repr(want)


@settings(max_examples=200, deadline=None)
@given(config=sim_configs(), fraction=st.floats(0, 1))
@example(config=replace(SimConfig(), dt=1, robot_accel=1, robot_decel=1, robot_max_vel=1.5),
         fraction=0.5)
def test_velocity_step_on_sim_floats(config, fraction):
    """Every mode and action in the sim's steps (robotAccel * dt,
    robotDecel * dt, 0.0, robotMaxVel), against ``test_sim_differential``'s
    references: at rest, one step up from rest, a speed between, one step
    down from top speed and at top speed.  Reprs are compared, so a robot
    that brakes to rest in int steps must stop at 0.0, not 0."""
    up, down = config.robot_accel * config.dt, config.robot_decel * config.dt
    top = config.robot_max_vel
    for mode, action, v in product(RobotMode, VelocityAction, [
            0.0, min(0.0 + up, top), top * fraction, max(top - down, 0.0), top]):
        want = _reference_step(v, mode, action, lambda v: sim_accelerated(v, config),
                               lambda v: sim_braked(v, config))
        assert repr(velocity_step(v, mode, action, up, down, 0.0, top)) == repr(want)
