"""Domain model for the passive-safety workbench.

The design-time world is an integer grid: positions are cells, velocities
are cells per tick, lanes are indexed from 0.  The robot drives toward a
destination cell while moving obstacles approach it on fixed lanes from
the opposite direction.  ``Assumptions`` doubles as the runtime record,
where the same fields are read in meters and meters per second.

Scenario files are JSON objects whose keys match the field names below in
camelCase.  Unknown keys are rejected so that a typo in an experiment
config fails loudly instead of silently falling back to a default.

Each config record has one table from JSON key to field, in serialization
order, here and in ``sim`` and ``sweep``.  Loaders check only a document's
shape (``_record``); types and values are the record's ``validate()``, so
a file and an object built in Python fail with the same message.  Trace
records have tables too: ``counterexample`` reads each counterexample
line record with its types checked, since a trace has no ``validate()``,
and ``sim`` writes its tick and event lines with ``_to_dict``.

Every record is a ``collections.namedtuple`` subclass with
``__slots__ = ()``, except the two configs that callers edit with
``dataclasses.replace`` (``sim.SimConfig``, ``sweep.SweepSpec``) and the
mutable ``monitor.MonitorState``.  The reason is start-up: importing
``dataclasses`` and running its class decorators took about 20 ms of each
``check`` process.  Edit such a record with ``_replace``, which skips the
record's ``__new__`` and so its defaulting.  Like any tuple, it equals a
tuple with the same items and iterates over its fields, so records of
different kinds are never compared or mixed in one set, unless a ``kind``
field tells them apart, as it does the sim's events.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from enum import Enum


# States ``checker.check_safety`` may count before it gives up as
# Inconclusive; kept here so the CLI can show it without loading the checker.
DEFAULT_STATE_BUDGET = 5_000_000


class ScenarioError(ValueError):
    """Invalid scenario configuration: bad syntax or a violated bound."""


class TraceError(ValueError):
    """A counterexample trace is malformed or failed validation during replay."""


class RobotMode(str, Enum):
    IDLE = "Idle"
    ACCELERATE = "Accelerate"
    DRIVE = "Drive"
    BRAKE = "Brake"
    STOP = "Stop"


class VelocityAction(str, Enum):
    """One tick's velocity update, a cell of ``MODE_TABLE``."""

    ACCELERATE = "accelerate"  # one step up, capped at top speed: Drive there, else Accelerate
    BRAKE = "brake"            # one step down, floored at 0: Stop there, else Brake
    HOLD = "hold"              # keep mode and velocity
    PARK = "park"              # enter Idle (reached only at v = 0, on the destination)
    DODGE = "dodge"            # move to a free side lane and accelerate, else brake


# The robot controller of both halves: ``automata.robot_decide`` on the grid
# and the sim's episode.  A mode's row is read at column
# ``2 * danger + near``.  Danger is ``kinematics.danger_from`` for some
# obstacle on the grid; in the sim, a latched monitor or an observed gap
# inside the reaction area and below the look-ahead distance.  Near: the
# destination lies within braking distance of the current velocity (at
# v = 0, "at the destination").  The sim's episode ends at its destination
# on a one-lane track, so it reads only the far columns.  Both halves apply
# the action with ``velocity_step``, in their own speed steps.
_A = VelocityAction
MODE_TABLE: dict[RobotMode, tuple[VelocityAction, ...]] = {
    #                      calm, far      calm, near     danger, far    danger, near
    RobotMode.IDLE:       (_A.ACCELERATE, _A.HOLD,       _A.ACCELERATE, _A.HOLD),
    RobotMode.ACCELERATE: (_A.ACCELERATE, _A.ACCELERATE, _A.BRAKE,      _A.BRAKE),
    RobotMode.DRIVE:      (_A.HOLD,       _A.BRAKE,      _A.BRAKE,      _A.BRAKE),
    RobotMode.BRAKE:      (_A.ACCELERATE, _A.BRAKE,      _A.DODGE,      _A.DODGE),
    RobotMode.STOP:       (_A.ACCELERATE, _A.PARK,       _A.HOLD,       _A.PARK),
}
del _A

# Module globals: an enum member read off its class costs a descriptor call.
_ACCELERATE, _HOLD, _PARK = VelocityAction.ACCELERATE, VelocityAction.HOLD, VelocityAction.PARK
_IDLE, _ACCELERATING, _DRIVE, _BRAKING, _STOP = (
    RobotMode.IDLE, RobotMode.ACCELERATE, RobotMode.DRIVE, RobotMode.BRAKE, RobotMode.STOP)


def velocity_step(v, mode: RobotMode, action: VelocityAction, up, down, low, top) -> tuple:
    """The robot's (v, mode) after one tick of ``action``, for speeds in
    [low, top]: accelerate by ``up`` (Drive at ``top``), brake by ``down``
    (Stop at ``low``), park in Idle, or hold.  A dodge here has no free
    lane, so it brakes.  Each half passes its own zero, 0 or 0.0, as low."""
    if action is _ACCELERATE:
        v = min(v + up, top)
        return v, _DRIVE if v == top else _ACCELERATING
    if action is _HOLD:
        return v, mode
    if action is _PARK:
        return v, _IDLE
    v = max(v - down, low)      # brake, or a dodge with no free lane
    return v, _STOP if v == low else _BRAKING


class Assumptions(namedtuple("Assumptions", "assumed_obstacle_max_vel visual_radius buffer "
                             "reaction_radius", defaults=(None,))):
    """What the robot believes about its environment.

    assumed_obstacle_max_vel: speed bound the robot assumes for moving
        obstacles.  The true bound lives on the obstacle itself; safety
        verdicts hinge on whether this assumption covers it.
    visual_radius: sensing range ahead of the robot.
    buffer: look-ahead margin added to the collision distance, absorbing
        the one-tick observation delay.
    reaction_radius: distance within which the robot acts on monitor
        feedback (runtime only; defaults to the visual radius).
    """

    __slots__ = ()

    def __new__(cls, assumed_obstacle_max_vel: float, visual_radius: float, buffer: float,
                reaction_radius: float | None = None):
        if reaction_radius is None:
            reaction_radius = visual_radius
        return super().__new__(cls, assumed_obstacle_max_vel, visual_radius, buffer,
                               reaction_radius)

    def validate(self) -> None:
        for key, field in _ASSUMPTION_KEYS.items():
            if _as_number(getattr(self, field), f"assumptions.{key}") <= 0:
                raise ScenarioError(f"assumptions.{key} must be > 0")
        if self.reaction_radius > self.visual_radius:
            raise ScenarioError(
                "assumptions.reactionRadius must not exceed visualRadius"
            )


class ObstacleSpec(namedtuple("ObstacleSpec", "id start_cell lane is_static dest_cell max_vel",
                              defaults=(None, None))):
    """Static description of one obstacle.

    Moving obstacles head toward decreasing cells (toward the robot), so
    ``dest_cell <= start_cell``.  ``dest_cell`` and ``max_vel`` are
    ignored for static obstacles and default to the start cell and 1.
    """

    __slots__ = ()

    def __new__(cls, id: int, start_cell: int, lane: int, is_static: bool,
                dest_cell: int | None = None, max_vel: int | None = None):
        # A non-bool is_static gets the defaults; validate() rejects it.
        if is_static is False and None in (dest_cell, max_vel):
            missing = "destCell" if dest_cell is None else "maxVel"
            raise ScenarioError(f"obstacle {id}: {missing} is required for moving obstacles")
        return super().__new__(cls, id, start_cell, lane, is_static,
                               start_cell if dest_cell is None else dest_cell,
                               1 if max_vel is None else max_vel)


class GridScenario(namedtuple("GridScenario", "track_length_cells lane_count robot_start_cell "
                              "robot_start_lane robot_max_vel robot_dest_cell obstacles "
                              "assumptions")):
    """A grid track, the robot's start and destination, the obstacles
    (a tuple of ``ObstacleSpec``) and the robot's ``Assumptions``."""

    __slots__ = ()

    def validate(self) -> None:
        # Cells and velocities are integers; this also keeps NaN and
        # infinities out of scenarios built in Python.
        for key, field in _SCENARIO_KEYS.items():
            if field not in ("obstacles", "assumptions"):
                _as_int(getattr(self, field), key)
        if self.track_length_cells < 2:
            raise ScenarioError("trackLengthCells must be >= 2")
        if self.lane_count < 1:
            raise ScenarioError("laneCount must be >= 1")
        if self.robot_max_vel < 1:
            raise ScenarioError("robotMaxVel must be >= 1")
        # Every cell lies below trackLengthCells.  Up to 2**53 a float holds
        # every integer, so the rules' mixed int/float arithmetic
        # (``kinematics.danger_from``, ``blocks_lane``) stays finite.
        for key, value in (("trackLengthCells", self.track_length_cells),
                           ("robotMaxVel", self.robot_max_vel)):
            if value > 2**53:
                raise ScenarioError(f"{key} must be <= 2**53 (9007199254740992)")
        if not 0 <= self.robot_start_cell < self.robot_dest_cell:
            raise ScenarioError(
                "robot start/destination out of order: need "
                "0 <= robotStartCell < robotDestCell"
            )
        if self.robot_dest_cell > self.track_length_cells - 1:
            raise ScenarioError("robotDestCell beyond end of track")
        if not 0 <= self.robot_start_lane < self.lane_count:
            raise ScenarioError("robotStartLane: lane out of range")
        seen: set[int] = set()
        for i, obs in enumerate(self.obstacles):
            for key, field in _OBSTACLE_KEYS.items():
                # The exact type passes at once; only another value builds
                # its name and goes to the reader, which accepts an int
                # subclass other than bool and rejects the rest.
                value = getattr(obs, field)
                if type(value) is not (bool if field == "is_static" else int):
                    read = _as_bool if field == "is_static" else _as_int
                    read(value, f"obstacles[{i}].{key}")
            if obs.id in seen:
                raise ScenarioError(f"duplicate obstacle id {obs.id}")
            seen.add(obs.id)
            if not 0 <= obs.lane < self.lane_count:
                raise ScenarioError(f"obstacle {obs.id}: lane out of range")
            if not 0 <= obs.start_cell < self.track_length_cells:
                raise ScenarioError(f"obstacle {obs.id}: startCell out of range")
            if not obs.is_static:
                if not 0 <= obs.dest_cell < self.track_length_cells:
                    raise ScenarioError(f"obstacle {obs.id}: destCell out of range")
                if obs.dest_cell > obs.start_cell:
                    raise ScenarioError(
                        f"obstacle {obs.id}: destCell must be <= startCell "
                        "(obstacles move toward the robot)"
                    )
                if obs.max_vel < 1:
                    raise ScenarioError(f"obstacle {obs.id}: maxVel must be >= 1")
        self.assumptions.validate()

    def obstacle_by_id(self, obstacle_id: int) -> ObstacleSpec:
        for obs in self.obstacles:
            if obs.id == obstacle_id:
                return obs
        raise KeyError(obstacle_id)


class RobotSnapshot(namedtuple("RobotSnapshot", "x lane v mode")):
    """The robot's cell, lane, velocity and ``RobotMode``."""

    __slots__ = ()


class ObstacleSnapshot(namedtuple("ObstacleSnapshot", "id x lane is_static dest_cell")):
    """One obstacle's id, cell, lane, whether it stands still, and destination."""

    __slots__ = ()


class WorldState(namedtuple("WorldState", "tick robot obstacles prev_obstacles")):
    """Full design-time state.

    ``prev_obstacles`` is the obstacle list of the predecessor state: the
    one-tick-delayed view the robot actually observes.  At tick 0 it
    equals ``obstacles``.
    """

    __slots__ = ()


def initial_world_state(scenario: GridScenario) -> WorldState:
    """Tick-0 state: robot idle at its start cell, obstacles at theirs.
    A mover that starts on its destination has already arrived."""
    robot = RobotSnapshot(scenario.robot_start_cell, scenario.robot_start_lane, 0, _IDLE)
    obstacles = tuple([
        ObstacleSnapshot(o.id, o.start_cell, o.lane, o.is_static or o.start_cell == o.dest_cell,
                         o.dest_cell)
        for o in scenario.obstacles
    ])
    return WorldState(0, robot, obstacles, obstacles)


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {
    "trackLengthCells": "track_length_cells", "laneCount": "lane_count",
    "robotStartCell": "robot_start_cell", "robotStartLane": "robot_start_lane",
    "robotMaxVel": "robot_max_vel", "robotDestCell": "robot_dest_cell",
    "obstacles": "obstacles", "assumptions": "assumptions",
}
_OBSTACLE_KEYS = {
    "id": "id", "startCell": "start_cell", "lane": "lane", "isStatic": "is_static",
    "destCell": "dest_cell", "maxVel": "max_vel",
}
_ASSUMPTION_KEYS = {
    "assumedObstacleMaxVel": "assumed_obstacle_max_vel", "visualRadius": "visual_radius",
    "buffer": "buffer", "reactionRadius": "reaction_radius",
}


class _Null:
    """A JSON null in a config record.  No type check accepts it, as none
    accepts None; but None would read as an absent optional field."""

    def __repr__(self) -> str:
        return "null"


def _record(cls, data, keys: dict[str, str], where: str, **nested):
    """Build ``cls`` from the JSON object ``data``, which must hold every
    field without a default and no key outside ``keys``.  A field named in
    ``nested`` goes through its loader first.  A grid record lists its
    defaults in ``_field_defaults``: only ``ObstacleSpec`` and
    ``Assumptions`` have any, so every scenario key is required.  The
    runtime records (``SimConfig``, ``SweepSpec``) are dataclasses with a
    default on every field, so none of their keys is required."""
    _as_object(data, where)
    if not keys.keys() >= data.keys():
        unknown = sorted(data.keys() - keys.keys())
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    defaults = getattr(cls, "_field_defaults", None)
    if defaults is not None and len(data) < len(keys):     # some key is absent
        for key, field in keys.items():
            if field not in defaults:
                _field(data, key, where)
    fields = {keys[key]: _Null() if value is None else value for key, value in data.items()}
    for field, load in nested.items():
        if field in fields:
            fields[field] = load(fields[field])
    return cls(**fields)


def _to_dict(record, keys: dict[str, str], **nested) -> dict:
    """Inverse of ``_record``: a field named in ``nested`` goes through its dumper."""
    data = {}
    for key, field in keys.items():
        value = getattr(record, field)
        data[key] = nested[field](value) if field in nested else value
    return data


def _field(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"missing required field {where}.{key}")
    return mapping[key]


def _as_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must be a JSON object")
    return value


def _as_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{name} must be a list")
    return value


def _as_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{name} must be a boolean")
    return value


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{name} must be an integer")
    return value


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name} must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:   # an integer too large for a float
        finite = False
    if not finite:
        raise ScenarioError(f"{name} must be a finite number")
    return value


def read_utf8(path) -> str:
    """A file's text.  JSON is UTF-8 (RFC 8259); other bytes raise
    ScenarioError, naming the file and the offset of the first bad byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ScenarioError(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from None


def parse_json(source: str):
    """Decode JSON text; a syntax error becomes a ScenarioError."""
    try:
        return json.loads(source)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except (ValueError, RecursionError) as e:   # over-long integer literal, deep nesting
        raise ScenarioError(f"parse error: {e}") from e


def scenario_from_dict(data: dict) -> GridScenario:
    """The scenario record of a JSON object, checked for shape only; its
    ``validate()`` checks types and values."""
    return _record(
        GridScenario, data, _SCENARIO_KEYS, "scenario",
        obstacles=lambda raw: tuple(
            _record(ObstacleSpec, obs, _OBSTACLE_KEYS, f"obstacles[{i}]")
            for i, obs in enumerate(_as_list(raw, "obstacles"))
        ),
        assumptions=lambda raw: _record(Assumptions, raw, _ASSUMPTION_KEYS, "assumptions"),
    )


def load_scenario(source: str) -> GridScenario:
    """Parse scenario JSON text, validating structure and invariants."""
    scenario = scenario_from_dict(parse_json(source))
    scenario.validate()
    return scenario
