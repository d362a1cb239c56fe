"""Domain model for the passive-safety workbench.

The design-time world is an integer grid: positions are cells, velocities
are cells per tick, lanes are indexed from 0.  The robot drives toward a
destination cell while moving obstacles approach it on fixed lanes from
the opposite direction.  ``Assumptions`` doubles as the runtime record,
where the same fields are read in meters and meters per second.

Scenario files are JSON objects whose keys match the field names below in
camelCase.  Unknown keys are rejected so that a typo in an experiment
config fails loudly instead of silently falling back to a default.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum


# States ``checker.check_safety`` may count before it gives up as
# Inconclusive; kept here so the CLI can show it without loading the checker.
DEFAULT_STATE_BUDGET = 5_000_000


class ScenarioError(ValueError):
    """Invalid scenario configuration: bad syntax or a violated bound."""


class TraceError(ValueError):
    """A counterexample trace is malformed or failed validation during replay."""


class InvariantViolation(AssertionError):
    """A world state broke a model invariant (see validate_world)."""


class RobotMode(str, Enum):
    IDLE = "Idle"
    ACCELERATE = "Accelerate"
    DRIVE = "Drive"
    BRAKE = "Brake"
    STOP = "Stop"


@dataclass(frozen=True, slots=True)
class Assumptions:
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

    assumed_obstacle_max_vel: float
    visual_radius: float
    buffer: float
    reaction_radius: float | None = None

    def __post_init__(self):
        if self.reaction_radius is None:
            object.__setattr__(self, "reaction_radius", self.visual_radius)

    def validate(self) -> None:
        for key, value in (("assumedObstacleMaxVel", self.assumed_obstacle_max_vel),
                           ("visualRadius", self.visual_radius),
                           ("buffer", self.buffer),
                           ("reactionRadius", self.reaction_radius)):
            _as_number(value, f"assumptions.{key}")
        if self.assumed_obstacle_max_vel <= 0:
            raise ScenarioError("assumptions.assumedObstacleMaxVel must be > 0")
        if self.visual_radius <= 0:
            raise ScenarioError("assumptions.visualRadius must be > 0")
        if self.buffer <= 0:
            raise ScenarioError("assumptions.buffer must be > 0")
        if self.reaction_radius <= 0:
            raise ScenarioError("assumptions.reactionRadius must be > 0")
        if self.reaction_radius > self.visual_radius:
            raise ScenarioError(
                "assumptions.reactionRadius must not exceed visualRadius"
            )


@dataclass(frozen=True, slots=True)
class ObstacleSpec:
    """Static description of one obstacle.

    Moving obstacles head toward decreasing cells (toward the robot), so
    ``dest_cell <= start_cell``.  ``dest_cell`` and ``max_vel`` are
    ignored for static obstacles and default to the start cell and 1.
    """

    id: int
    start_cell: int
    lane: int
    is_static: bool
    dest_cell: int | None = None
    max_vel: int | None = None

    def __post_init__(self):
        if self.dest_cell is None:
            if not self.is_static:
                raise ScenarioError(
                    f"obstacle {self.id}: destCell is required for moving obstacles"
                )
            object.__setattr__(self, "dest_cell", self.start_cell)
        if self.max_vel is None:
            if not self.is_static:
                raise ScenarioError(
                    f"obstacle {self.id}: maxVel is required for moving obstacles"
                )
            object.__setattr__(self, "max_vel", 1)


@dataclass(frozen=True, slots=True)
class GridScenario:
    track_length_cells: int
    lane_count: int
    robot_start_cell: int
    robot_start_lane: int
    robot_max_vel: int
    robot_dest_cell: int
    obstacles: tuple[ObstacleSpec, ...] = ()
    assumptions: Assumptions = Assumptions(1, 10, 1)

    def validate(self) -> None:
        # Cells and velocities are integers; this also keeps NaN and
        # infinities out of scenarios built in Python.
        for key, value in (("trackLengthCells", self.track_length_cells),
                           ("laneCount", self.lane_count),
                           ("robotStartCell", self.robot_start_cell),
                           ("robotStartLane", self.robot_start_lane),
                           ("robotMaxVel", self.robot_max_vel),
                           ("robotDestCell", self.robot_dest_cell)):
            _as_int(value, key)
        for i, obs in enumerate(self.obstacles):
            for key, value in (("id", obs.id), ("startCell", obs.start_cell),
                               ("lane", obs.lane), ("destCell", obs.dest_cell),
                               ("maxVel", obs.max_vel)):
                _as_int(value, f"obstacles[{i}].{key}")
        if self.track_length_cells < 2:
            raise ScenarioError("trackLengthCells must be >= 2")
        if self.lane_count < 1:
            raise ScenarioError("laneCount must be >= 1")
        if self.robot_max_vel < 1:
            raise ScenarioError("robotMaxVel must be >= 1")
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
        for obs in self.obstacles:
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


@dataclass(frozen=True, slots=True)
class RobotSnapshot:
    x: int
    lane: int
    v: int
    mode: RobotMode


@dataclass(frozen=True, slots=True)
class ObstacleSnapshot:
    id: int
    x: int
    lane: int
    is_static: bool
    dest_cell: int


@dataclass(frozen=True, slots=True)
class WorldState:
    """Full design-time state.

    ``prev_obstacles`` is the obstacle list of the predecessor state: the
    one-tick-delayed view the robot actually observes.  At tick 0 it
    equals ``obstacles``.
    """

    tick: int
    robot: RobotSnapshot
    obstacles: tuple[ObstacleSnapshot, ...]
    prev_obstacles: tuple[ObstacleSnapshot, ...]


def initial_world_state(scenario: GridScenario) -> WorldState:
    """Tick-0 state: robot idle at its start cell, obstacles at theirs."""
    robot = RobotSnapshot(
        x=scenario.robot_start_cell,
        lane=scenario.robot_start_lane,
        v=0,
        mode=RobotMode.IDLE,
    )
    obstacles = tuple(
        ObstacleSnapshot(
            id=o.id,
            x=o.start_cell,
            lane=o.lane,
            # A mover that starts on its destination has already arrived.
            is_static=o.is_static or o.start_cell == o.dest_cell,
            dest_cell=o.dest_cell,
        )
        for o in scenario.obstacles
    )
    return WorldState(tick=0, robot=robot, obstacles=obstacles, prev_obstacles=obstacles)


def validate_world(world: WorldState, scenario: GridScenario) -> None:
    """Assert every model invariant on a produced state (test hook)."""
    r = world.robot
    if world.tick < 0:
        raise InvariantViolation("negative tick")
    if not 0 <= r.x <= scenario.track_length_cells - 1:
        raise InvariantViolation(f"robot x {r.x} off track")
    if not 0 <= r.lane < scenario.lane_count:
        raise InvariantViolation(f"robot lane {r.lane} out of range")
    if not 0 <= r.v <= scenario.robot_max_vel:
        raise InvariantViolation(f"robot velocity {r.v} out of bounds")
    if r.mode in (RobotMode.IDLE, RobotMode.STOP) and r.v != 0:
        raise InvariantViolation(f"mode {r.mode.value} with nonzero velocity")
    if r.mode is RobotMode.DRIVE and r.v != scenario.robot_max_vel:
        raise InvariantViolation("Drive mode below max velocity")
    for label, snapshots in (("obstacles", world.obstacles),
                             ("prevObstacles", world.prev_obstacles)):
        for obs in snapshots:
            spec = scenario.obstacle_by_id(obs.id)
            if not 0 <= obs.x < scenario.track_length_cells:
                raise InvariantViolation(f"{label}[{obs.id}] x {obs.x} off track")
            if not spec.is_static:
                if not spec.dest_cell <= obs.x <= spec.start_cell:
                    raise InvariantViolation(
                        f"{label}[{obs.id}] x {obs.x} outside [dest, start]"
                    )
                if obs.x == obs.dest_cell and not obs.is_static:
                    raise InvariantViolation(
                        f"{label}[{obs.id}] arrived but not marked static"
                    )
    if [o.id for o in world.obstacles] != [o.id for o in world.prev_obstacles]:
        raise InvariantViolation("obstacles/prevObstacles id mismatch")


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {
    "trackLengthCells", "laneCount", "robotStartCell", "robotStartLane",
    "robotMaxVel", "robotDestCell", "obstacles", "assumptions",
}
_OBSTACLE_KEYS = {"id", "startCell", "lane", "isStatic", "destCell", "maxVel"}
_ASSUMPTION_KEYS = {
    "assumedObstacleMaxVel", "visualRadius", "buffer", "reactionRadius",
}


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) in {where}: {', '.join(unknown)}")


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


def _want_int(mapping: dict, key: str, where: str) -> int:
    return _as_int(_field(mapping, key, where), f"{where}.{key}")


def _want_number(mapping: dict, key: str, where: str) -> float:
    return _as_number(_field(mapping, key, where), f"{where}.{key}")


def _want_list(mapping: dict, key: str, where: str) -> list:
    return _as_list(_field(mapping, key, where), f"{where}.{key}")


def _want_bool(mapping: dict, key: str, where: str) -> bool:
    value = _field(mapping, key, where)
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}.{key} must be a boolean")
    return value


def _want_mode(mapping: dict, key: str, where: str) -> RobotMode:
    value = _field(mapping, key, where)
    try:
        return RobotMode(value)
    except ValueError:
        raise ScenarioError(f"{where}.{key}: unknown robot mode {value!r}") from None


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
    _as_object(data, "scenario")
    _reject_unknown(data, _SCENARIO_KEYS, "scenario")

    obstacles = []
    for i, raw in enumerate(_as_list(data.get("obstacles", []), "scenario.obstacles")):
        where = f"obstacles[{i}]"
        _reject_unknown(_as_object(raw, where), _OBSTACLE_KEYS, where)
        is_static = _want_bool(raw, "isStatic", where)
        obstacles.append(ObstacleSpec(
            id=_want_int(raw, "id", where),
            start_cell=_want_int(raw, "startCell", where),
            lane=_want_int(raw, "lane", where),
            is_static=is_static,
            dest_cell=_want_int(raw, "destCell", where) if "destCell" in raw else None,
            max_vel=_want_int(raw, "maxVel", where) if "maxVel" in raw else None,
        ))

    if "assumptions" in data:
        raw = _as_object(data["assumptions"], "scenario.assumptions")
        _reject_unknown(raw, _ASSUMPTION_KEYS, "assumptions")
        assumptions = Assumptions(
            assumed_obstacle_max_vel=_want_number(raw, "assumedObstacleMaxVel", "assumptions"),
            visual_radius=_want_number(raw, "visualRadius", "assumptions"),
            buffer=_want_number(raw, "buffer", "assumptions"),
            reaction_radius=(_want_number(raw, "reactionRadius", "assumptions")
                             if "reactionRadius" in raw else None),
        )
    else:
        assumptions = Assumptions(1, 10, 1)

    scenario = GridScenario(
        track_length_cells=_want_int(data, "trackLengthCells", "scenario"),
        lane_count=_want_int(data, "laneCount", "scenario"),
        robot_start_cell=_want_int(data, "robotStartCell", "scenario"),
        robot_start_lane=_want_int(data, "robotStartLane", "scenario"),
        robot_max_vel=_want_int(data, "robotMaxVel", "scenario"),
        robot_dest_cell=_want_int(data, "robotDestCell", "scenario"),
        obstacles=tuple(obstacles),
        assumptions=assumptions,
    )
    scenario.validate()
    return scenario


def load_scenario(source: str) -> GridScenario:
    """Parse scenario JSON text, validating structure and invariants."""
    return scenario_from_dict(parse_json(source))


def scenario_to_dict(scenario: GridScenario) -> dict:
    return {
        "trackLengthCells": scenario.track_length_cells,
        "laneCount": scenario.lane_count,
        "robotStartCell": scenario.robot_start_cell,
        "robotStartLane": scenario.robot_start_lane,
        "robotMaxVel": scenario.robot_max_vel,
        "robotDestCell": scenario.robot_dest_cell,
        "obstacles": [
            {
                "id": o.id,
                "startCell": o.start_cell,
                "lane": o.lane,
                "isStatic": o.is_static,
                "destCell": o.dest_cell,
                "maxVel": o.max_vel,
            }
            for o in scenario.obstacles
        ],
        "assumptions": {
            "assumedObstacleMaxVel": scenario.assumptions.assumed_obstacle_max_vel,
            "visualRadius": scenario.assumptions.visual_radius,
            "buffer": scenario.assumptions.buffer,
            "reactionRadius": scenario.assumptions.reaction_radius,
        },
    }


def serialize_scenario(scenario: GridScenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2)


# Snapshot <-> dict converters shared by trace serialization.

def robot_to_dict(robot: RobotSnapshot) -> dict:
    return {"x": robot.x, "lane": robot.lane, "v": robot.v, "mode": robot.mode.value}


def robot_from_dict(data: dict) -> RobotSnapshot:
    _as_object(data, "robot")
    return RobotSnapshot(
        _want_int(data, "x", "robot"), _want_int(data, "lane", "robot"),
        _want_int(data, "v", "robot"), _want_mode(data, "mode", "robot"),
    )


def obstacle_to_dict(obs: ObstacleSnapshot) -> dict:
    return {
        "id": obs.id, "x": obs.x, "lane": obs.lane,
        "isStatic": obs.is_static, "destCell": obs.dest_cell,
    }


def obstacle_from_dict(data: dict) -> ObstacleSnapshot:
    _as_object(data, "obstacle")
    return ObstacleSnapshot(
        _want_int(data, "id", "obstacle"), _want_int(data, "x", "obstacle"),
        _want_int(data, "lane", "obstacle"), _want_bool(data, "isStatic", "obstacle"),
        _want_int(data, "destCell", "obstacle"),
    )


def world_to_dict(world: WorldState) -> dict:
    return {
        "tick": world.tick,
        "robot": robot_to_dict(world.robot),
        "obstacles": [obstacle_to_dict(o) for o in world.obstacles],
        "prevObstacles": [obstacle_to_dict(o) for o in world.prev_obstacles],
    }


def world_from_dict(data: dict) -> WorldState:
    """Inverse of world_to_dict; a malformed record raises TraceError."""
    try:
        _as_object(data, "state")
        return WorldState(
            tick=_want_int(data, "tick", "state"),
            robot=robot_from_dict(_field(data, "robot", "state")),
            obstacles=tuple(map(obstacle_from_dict, _want_list(data, "obstacles", "state"))),
            prev_obstacles=tuple(
                map(obstacle_from_dict, _want_list(data, "prevObstacles", "state"))
            ),
        )
    except ScenarioError as e:
        raise TraceError(str(e)) from e
