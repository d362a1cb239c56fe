"""The counterexample format: its records, its JSONL lines and its replay.

A counterexample is a ``Trace``: the initial state and one
``TransitionLabel`` per step.  ``trace_to_jsonl`` writes it one JSON line
per state, ``trace_from_jsonl`` reads it back with every value's type
checked, and ``replay_trace`` re-executes it with the object-level
``world_step``, the reference semantics, checking each label.
``replay_jsonl`` does both and also checks what each step line shows.
``state_digest`` is the content hash a label carries.

The checker loads this module only when a search ends Violated, and
``replay`` loads no search: a Holds check compiles none of it and never
imports ``hashlib``.
"""
from __future__ import annotations

import hashlib
import json
import os
from collections import namedtuple

from .automata import ChoiceError, ObstacleChoice, world_step
from .model import (
    GridScenario,
    ObstacleSnapshot,
    RobotMode,
    RobotSnapshot,
    ScenarioError,
    TraceError,
    WorldState,
    _as_bool,
    _as_int,
    _as_list,
    _as_object,
    _field,
    initial_world_state,
)


class TransitionLabel(namedtuple("TransitionLabel", "tick mode_before mode_after choices "
                                 "state_hash")):
    """Record of one world step, enough to replay and explain it: the
    tick, the robot's modes before and after, and the choices (a tuple of
    ``ObstacleChoice``).

    ``state_hash`` is the digest of the state the step produced; replay
    recomputes and compares it.
    """

    __slots__ = ()


class Trace(namedtuple("Trace", "initial steps")):
    """Replayable counterexample: initial state plus one label per step."""

    __slots__ = ()


def state_digest(world: WorldState) -> str:
    """Content hash of the full state, stable across runs and processes:
    the SHA-256 of the state's JSON object (as in a trace's initial line,
    less its type) in compact JSON with sorted keys."""
    return _digests()(world)


class _ObstacleJson(dict):
    """ObstacleSnapshot -> its JSON object as ``form`` writes it, made on
    first use: one memo per trace, since a trace's obstacles recur."""

    __slots__ = ("form",)

    def __init__(self, form):
        super().__init__()
        self.form = form

    def __missing__(self, o: ObstacleSnapshot) -> str:
        text = self[o] = self.form(o)
        return text


def _digest_obstacle(o: ObstacleSnapshot) -> str:
    """An obstacle's JSON object in ``state_digest``'s payload: compact,
    keys sorted."""
    return '{"destCell":%d,"id":%d,"isStatic":%s,"lane":%d,"x":%d}' % (
        o.dest_cell, o.id, "true" if o.is_static else "false", o.lane, o.x)


def _line_obstacle(o: ObstacleSnapshot) -> str:
    """An obstacle's JSON object in a trace line, as ``json.dumps`` writes it."""
    return '{"id": %d, "x": %d, "lane": %d, "isStatic": %s, "destCell": %d}' % (
        o.id, o.x, o.lane, "true" if o.is_static else "false", o.dest_cell)


def _digests():
    """``state_digest`` for the states of one trace.  The payload is
    pieced together from the JSON of each obstacle, kept for the next
    state: the static obstacles recur in every state, and a state's
    ``obstacles`` are the next one's ``prev_obstacles``.  The bytes are
    those of ``json.dumps`` for fields of their declared types (ints, a
    bool and a ``RobotMode``), as ``world_step`` and every loader give
    them."""
    sha256 = hashlib.sha256
    obstacle = _ObstacleJson(_digest_obstacle).__getitem__

    def digest(world: WorldState) -> str:
        robot = world.robot
        payload = ('{"obstacles":[%s],"prevObstacles":[%s],"robot":{"lane":%d,"mode":"%s",'
                   '"v":%d,"x":%d},"tick":%d}' % (
                       ",".join(map(obstacle, world.obstacles)),
                       ",".join(map(obstacle, world.prev_obstacles)),
                       robot.lane, robot.mode.value, robot.v, robot.x, world.tick))
        return sha256(payload.encode()).hexdigest()

    return digest


def replay_trace(scenario: GridScenario, trace: Trace, shown=()) -> WorldState:
    """Deterministically re-execute a trace, validating every label.

    Independent check on counterexamples: each step's choices must be
    legal for the state they are applied to, and its tick, modes and
    stored state hash must match the replayed step.  ``shown`` holds the
    step lines of a trace read from JSONL, one ``(line number, JSON
    object)`` per step, as ``replay_jsonl`` passes them: once every label
    has passed, so that a label fault is reported first, each must show
    the robot and obstacles of its replayed step.  Returns the final
    state.
    """
    world = initial_world_state(scenario)
    if world != trace.initial:
        raise TraceError("trace initial state does not match the scenario")
    digest = _digests()
    worlds = []
    for k, label in enumerate(trace.steps):
        before = world.robot.mode
        try:
            world = world_step(world, label.choices, scenario)
        except ChoiceError as e:
            raise TraceError(f"invalid label at step {k}: {e}") from e
        stated = (label.tick, label.mode_before, label.mode_after)
        if stated != (world.tick, before, world.robot.mode):
            raise TraceError(f"invalid label at step {k}: tick {label.tick}, "
                             f"{label.mode_before.value} -> {label.mode_after.value}; replayed "
                             f"tick {world.tick}, {before.value} -> {world.robot.mode.value}")
        if digest(world) != label.state_hash:
            raise TraceError(f"invalid label at step {k}: state hash mismatch")
        if shown:
            worlds.append(world)
    for (lineno, record), replayed in zip(shown, worlds):
        _check_shown(lineno, record, replayed)
    return world


def _check_shown(lineno: int, record: dict, world: WorldState) -> None:
    """Raise TraceError unless the step line ``record``, line ``lineno``,
    shows ``world``'s robot and obstacles.  They are read through the
    initial line's tables, so a value of another JSON type (``1.0`` or
    ``true`` for ``1``) fails as it would there; the error names the
    first field that differs."""
    try:
        shown = _read(dict, record, _SHOWN_LINE, "step")
    except ScenarioError as e:
        raise TraceError(f"trace line {lineno}: {e}") from e
    robot, obstacles = shown["robot"], shown["obstacles"]
    if robot != world.robot:
        _name_field(lineno, "robot", _ROBOT_LINE, robot, world.robot)
    if obstacles != world.obstacles:
        if len(obstacles) != len(world.obstacles):
            raise TraceError(f"trace line {lineno}: obstacles shows {len(obstacles)} obstacles, "
                             f"replayed {len(world.obstacles)}")
        for i, (seen, replayed) in enumerate(zip(obstacles, world.obstacles)):
            if seen != replayed:
                _name_field(lineno, f"obstacles[{i}]", _OBSTACLE_LINE, seen, replayed)


def _name_field(lineno: int, where: str, table: dict, shown, replayed) -> None:
    """Raise the TraceError for the first field of ``table`` in which the
    records ``shown`` and ``replayed`` differ."""
    for key, (field, _, _) in table.items():
        value, expected = getattr(shown, field), getattr(replayed, field)
        if value != expected:
            raise TraceError(f"trace line {lineno}: {where}.{key} shows "
                             f"{json.dumps(value)}, replayed {json.dumps(expected)}")


def trace_to_jsonl(trace: Trace, scenario: GridScenario) -> str:
    """One JSON line per transition, preceded by the initial state.

    Step lines carry the resulting snapshots, which ``replay_jsonl``
    checks against the states it reaches.  The lines are pieced together
    as ``state_digest``'s payloads are, each obstacle's JSON kept for the
    trace, in the bytes of one ``json.dumps`` per line for fields of their
    declared types.
    """
    obstacle = _ObstacleJson(_line_obstacle).__getitem__

    def snapshots(world: WorldState) -> str:
        robot = world.robot
        return '"robot": {"x": %d, "lane": %d, "v": %d, "mode": "%s"}, "obstacles": [%s]' % (
            robot.x, robot.lane, robot.v, robot.mode.value,
            ", ".join(map(obstacle, world.obstacles)))

    world = trace.initial
    lines = ['{"type": "initial", "tick": %d, %s, "prevObstacles": [%s]}' % (
        world.tick, snapshots(world), ", ".join(map(obstacle, world.prev_obstacles)))]
    for label in trace.steps:
        world = world_step(world, label.choices, scenario)
        lines.append('{"type": "step", "tick": %d, "modeBefore": "%s", "modeAfter": "%s", '
                     '"choices": [%s], %s, "stateHash": %s}' % (
                         label.tick, label.mode_before.value, label.mode_after.value,
                         ", ".join(['{"id": %d, "velocity": %d}' % c for c in label.choices]),
                         snapshots(world), json.dumps(label.state_hash)))
    return "\n".join(lines) + "\n"


def write_trace_jsonl(trace: Trace, scenario: GridScenario, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(trace_to_jsonl(trace, scenario))


# Readers of ``trace_to_jsonl``'s lines.  Each record has one table from
# JSON key to (field, type, reader), in reading order; a malformed record
# raises ScenarioError, which ``trace_from_jsonl`` reports with its line
# number.

def _as_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{name} must be a string")
    return value


def _as_mode(value, name: str) -> RobotMode:
    try:
        return RobotMode(value)
    except ValueError:
        raise ScenarioError(f"{name}: unknown robot mode {value!r}") from None


def _read(cls, data, table: dict, where: str):
    """``cls`` from the JSON object ``data``: each key of ``table`` is
    required and its value read in table order, named ``where.key``, so
    the first fault in that order is the one reported.  As in
    ``GridScenario.validate``, a value of the exact type passes at once;
    only another value builds its name and goes to the reader."""
    _as_object(data, where)
    fields = {}
    for key, (field, exact, read) in table.items():
        value = data[key] if key in data else _field(data, key, where)
        fields[field] = value if type(value) is exact else read(value, f"{where}.{key}")
    return cls(**fields)


def _each(cls, table: dict, where: str | None = None):
    """The reader of a list of ``cls`` records, each named ``where``, or
    by its index in the list."""
    return lambda items, name: tuple([_read(cls, item, table, where or f"{name}[{i}]")
                                      for i, item in enumerate(_as_list(items, name))])


# A reader with no exact type (None) sees every value: a mode is read
# from its string, a record from its object.
_ROBOT_LINE = {"x": ("x", int, _as_int), "lane": ("lane", int, _as_int),
               "v": ("v", int, _as_int), "mode": ("mode", None, _as_mode)}
_OBSTACLE_LINE = {"id": ("id", int, _as_int), "x": ("x", int, _as_int),
                  "lane": ("lane", int, _as_int), "isStatic": ("is_static", bool, _as_bool),
                  "destCell": ("dest_cell", int, _as_int)}
_CHOICE_LINE = {"id": ("obstacle_id", int, _as_int), "velocity": ("velocity", int, _as_int)}
_INITIAL_LINE = {
    "tick": ("tick", int, _as_int),
    "robot": ("robot", None, lambda data, _: _read(RobotSnapshot, data, _ROBOT_LINE, "robot")),
    "obstacles": ("obstacles", None, _each(ObstacleSnapshot, _OBSTACLE_LINE, "obstacle")),
    "prevObstacles": ("prev_obstacles", None, _each(ObstacleSnapshot, _OBSTACLE_LINE,
                                                    "obstacle")),
}
_STEP_LINE = {      # written tick first; this order decides which of several faults is reported
    "choices": ("choices", None, _each(ObstacleChoice, _CHOICE_LINE)),
    "stateHash": ("state_hash", str, _as_str), "tick": ("tick", int, _as_int),
    "modeBefore": ("mode_before", None, _as_mode), "modeAfter": ("mode_after", None, _as_mode),
}
# A step line's snapshots, read by ``replay_trace`` once every label has passed.
_SHOWN_LINE = {key: _INITIAL_LINE[key] for key in ("robot", "obstacles")}


def trace_from_jsonl(text: str) -> Trace:
    """Parse counterexample JSONL; any malformed line raises TraceError.
    The first non-blank line is the one initial line; every later line is
    a step."""
    return _read_jsonl(text)[0]


def replay_jsonl(scenario: GridScenario, text: str) -> tuple[Trace, WorldState]:
    """Read counterexample JSONL and replay it: ``replay_trace`` with each
    step line's snapshots checked against the state its step reaches.
    Returns the trace and its final state."""
    trace, shown = _read_jsonl(text)
    return trace, replay_trace(scenario, trace, shown)


def _read_jsonl(text: str):
    """``trace_from_jsonl``'s trace, and each step line's number and JSON
    object for ``replay_trace`` to check what it shows."""
    initial = None
    steps, shown = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise TraceError(f"trace line {lineno}: {e.msg}") from e
        except (ValueError, RecursionError) as e:   # over-long integer literal, deep nesting
            raise TraceError(f"trace line {lineno}: {e}") from e
        try:
            kind = _as_object(record, "record").get("type")
            if kind != "initial" and kind != "step":
                raise TraceError(f"unknown record type {kind!r}")
            if initial is None and kind == "initial":
                initial = _read(WorldState, record, _INITIAL_LINE, "state")
            elif initial is None:
                raise TraceError("step line before the initial state line")
            elif kind == "step":
                steps.append(_read(TransitionLabel, record, _STEP_LINE, "step"))
                shown.append((lineno, record))
            else:
                raise TraceError("a trace has one initial state line")
        except (ScenarioError, TraceError) as e:
            raise TraceError(f"trace line {lineno}: {e}") from e
    if initial is None:
        raise TraceError("trace has no initial state line")
    return Trace(initial=initial, steps=tuple(steps)), tuple(shown)
