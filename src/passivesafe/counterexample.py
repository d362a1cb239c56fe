"""The counterexample format: its records, its JSONL lines and its replay.

A counterexample is a ``Trace``: the initial state and one
``TransitionLabel`` per step, which holds everything its JSONL line
shows.  ``trace_of`` builds one from a run's reached states,
``trace_to_jsonl`` writes it one JSON line per state, ``trace_from_jsonl``
reads it back with every value's type checked, and ``replay_trace``
re-executes it with the object-level ``world_step``, the reference
semantics, checking each label, its snapshots included, whoever built
the trace.  ``replay_jsonl`` does both and names a faulty snapshot's
line.  ``state_digest`` is the content hash a label carries.

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
                                 "state_hash robot obstacles")):
    """Record of one world step, enough to replay and explain it: the
    tick, the robot's modes before and after, and the choices (a tuple of
    ``ObstacleChoice``).

    ``state_hash`` is the digest of the state the step produced, and
    ``robot`` and ``obstacles`` are its snapshots; replay recomputes and
    compares all three.
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


def trace_of(initial: WorldState, steps) -> Trace:
    """The ``Trace`` of a run from ``initial``: ``steps`` holds one
    ``(choices, reached world)`` pair per step, each world the
    ``world_step`` of the one before under its choices.  Its digests keep
    their obstacle fragments for this trace only."""
    digest, before, labels = _digests(), initial.robot.mode, []
    for choices, world in steps:
        robot = world.robot
        labels.append(TransitionLabel(world.tick, before, robot.mode, choices, digest(world),
                                      robot, world.obstacles))
        before = robot.mode
    return Trace(initial, tuple(labels))


def replay_trace(scenario: GridScenario, trace: Trace, lines=()) -> WorldState:
    """Deterministically re-execute a trace, validating every label.

    Independent check on counterexamples: each step's choices must be
    legal for the state they are applied to; its tick, modes and stored
    state hash must match the replayed step; and then its robot and
    obstacles must be the replayed state's.  So each step fails at its
    first fault, in that order.  ``lines`` only names the faulty line of
    a trace read from JSONL, one line number per step, as
    ``replay_jsonl`` passes them: a snapshot fault reads ``trace line N:
    robot.x shows …``, and without them ``invalid label at step k: …``.
    Returns the final state.
    """
    world = initial_world_state(scenario)
    if world != trace.initial:
        raise TraceError("trace initial state does not match the scenario")
    digest = _digests()
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
        if label.robot != world.robot or label.obstacles != world.obstacles:
            _check_shown(f"trace line {lines[k]}" if lines else f"invalid label at step {k}",
                         label, world)
    return world


def _check_shown(where: str, label: TransitionLabel, world: WorldState) -> None:
    """Raise TraceError, prefixed ``where``, unless ``label`` shows
    ``world``'s robot and obstacles; the error names the first field that
    differs."""
    robot, obstacles = label.robot, label.obstacles
    if robot != world.robot:
        _name_field(where, "robot", _ROBOT_LINE, robot, world.robot)
    if obstacles != world.obstacles:
        if len(obstacles) != len(world.obstacles):
            raise TraceError(f"{where}: obstacles shows {len(obstacles)} obstacles, "
                             f"replayed {len(world.obstacles)}")
        for i, (seen, replayed) in enumerate(zip(obstacles, world.obstacles)):
            if seen != replayed:
                _name_field(where, f"obstacles[{i}]", _OBSTACLE_LINE, seen, replayed)


def _name_field(where: str, name: str, table: dict, shown, replayed) -> None:
    """Raise the TraceError for the first field of ``table`` in which the
    records ``shown`` and ``replayed`` differ."""
    for key, (field, _, _) in table.items():
        value, expected = getattr(shown, field), getattr(replayed, field)
        if value != expected:
            raise TraceError(f"{where}: {name}.{key} shows "
                             f"{json.dumps(value)}, replayed {json.dumps(expected)}")


def trace_to_jsonl(trace: Trace) -> str:
    """One JSON line per transition, preceded by the initial state: each
    record's fields, step lines with their labels' snapshots.  The lines
    are pieced together as ``state_digest``'s payloads are, each
    obstacle's JSON kept for the trace, in the bytes of one ``json.dumps``
    per line for fields of their declared types.
    """
    obstacle = _ObstacleJson(_line_obstacle).__getitem__

    def snapshots(robot: RobotSnapshot, obstacles: tuple) -> str:
        return '"robot": {"x": %d, "lane": %d, "v": %d, "mode": "%s"}, "obstacles": [%s]' % (
            robot.x, robot.lane, robot.v, robot.mode.value, ", ".join(map(obstacle, obstacles)))

    initial = trace.initial
    lines = ['{"type": "initial", "tick": %d, %s, "prevObstacles": [%s]}' % (
        initial.tick, snapshots(initial.robot, initial.obstacles),
        ", ".join(map(obstacle, initial.prev_obstacles)))]
    for label in trace.steps:
        lines.append('{"type": "step", "tick": %d, "modeBefore": "%s", "modeAfter": "%s", '
                     '"choices": [%s], %s, "stateHash": %s}' % (
                         label.tick, label.mode_before.value, label.mode_after.value,
                         ", ".join(['{"id": %d, "velocity": %d}' % c for c in label.choices]),
                         snapshots(label.robot, label.obstacles), json.dumps(label.state_hash)))
    return "\n".join(lines) + "\n"


def write_trace_jsonl(trace: Trace, scenario: GridScenario, path: str | os.PathLike) -> None:
    """Write ``trace_to_jsonl(trace)`` to ``path``.  ``scenario`` is unread:
    it stays for the benchmark's call, and ROADMAP item 18 deletes this
    function."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(trace_to_jsonl(trace))


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
# A step line is written tick first; this order decides which of several
# faults is reported.  Its snapshots are read last, through the initial
# line's readers, so a value of another JSON type (``1.0`` or ``true`` for
# ``1``) fails as it would there.
_STEP_LINE = {
    "choices": ("choices", None, _each(ObstacleChoice, _CHOICE_LINE)),
    "stateHash": ("state_hash", str, _as_str), "tick": ("tick", int, _as_int),
    "modeBefore": ("mode_before", None, _as_mode), "modeAfter": ("mode_after", None, _as_mode),
    "robot": _INITIAL_LINE["robot"], "obstacles": _INITIAL_LINE["obstacles"],
}


def trace_from_jsonl(text: str) -> Trace:
    """Parse counterexample JSONL; any malformed line raises TraceError,
    a step line's robot and obstacles included.  The first non-blank line
    is the one initial line; every later line is a step."""
    return _read_jsonl(text)[0]


def replay_jsonl(scenario: GridScenario, text: str) -> tuple[Trace, WorldState]:
    """Read counterexample JSONL and replay it, a snapshot fault named by
    its line.  Returns the trace and its final state."""
    trace, lines = _read_jsonl(text)
    return trace, replay_trace(scenario, trace, lines)


def _read_jsonl(text: str):
    """``trace_from_jsonl``'s trace, and each step line's number."""
    initial = None
    steps, lines = [], []
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
                lines.append(lineno)
            else:
                raise TraceError("a trace has one initial state line")
        except (ScenarioError, TraceError) as e:
            raise TraceError(f"trace line {lineno}: {e}") from e
    if initial is None:
        raise TraceError("trace has no initial state line")
    return Trace(initial=initial, steps=tuple(steps)), lines
