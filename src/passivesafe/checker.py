"""Exhaustive reachability check of the passive-safety invariant.

Breadth-first exploration of every state reachable under every obstacle
velocity pick.  BFS makes a found counterexample minimal in ticks, which
keeps replay and human inspection cheap.  State identity deliberately
excludes the tick counter (dynamics do not depend on it, and including
it would make the terminal idle loop look like fresh states forever) but
includes the delayed obstacle view: two states whose robots have seen
different histories must not be merged.

The search keys states by a flat int tuple (see ``check_safety``) and
merges states that differ only in where dead movers stand or by swapping
interchangeable movers; the object-level ``world_step``, ``state_key`` and ``replay_trace`` stay the
reference semantics that rebuilds, replays and tests compare against.
"""
from __future__ import annotations

import json
import random
import time
from collections import namedtuple
from enum import Enum
from itertools import product
from pathlib import Path

from .automata import (
    ChoiceError,
    ObstacleChoice,
    TransitionLabel,
    enumerate_obstacle_choices,
    robot_step,
    world_step,
)
from .kinematics import is_passive_safe
from .model import (
    DEFAULT_STATE_BUDGET,
    GridScenario,
    ObstacleSnapshot,
    RobotMode,
    RobotSnapshot,
    ScenarioError,
    TraceError,
    WorldState,
    _as_object,
    _want_int,
    _want_list,
    _want_mode,
    initial_world_state,
    obstacle_to_dict,
    read_utf8,
    robot_to_dict,
    world_from_dict,
    world_to_dict,
)

_MODES = tuple(RobotMode)
_MODE_CODE = {mode: i for i, mode in enumerate(_MODES)}


def _robot_key(robot: RobotSnapshot) -> tuple[int, int, int, int]:
    """The robot's part of a search key: x, lane, v and mode index."""
    return (robot.x, robot.lane, robot.v, _MODE_CODE[robot.mode])


class Outcome(str, Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


class Trace(namedtuple("Trace", "initial steps")):
    """Replayable counterexample: initial state plus one label per step."""

    __slots__ = ()


class ExplorationStats(namedtuple("ExplorationStats",
                                  "states transitions peak_frontier max_depth wall_time_s")):
    """Exploration bookkeeping.

    ``states`` counts states up to parking of dead movers and
    interchange of like movers (see ``check_safety``).  ``transitions`` counts explored edges whose
    target differs from the source; the terminal idle self-loop is not a
    transition.  When an expansion repeats one whose successors are all
    known, its transitions are counted, not walked, to the same number.
    Wall time is a measurement, not part of the identity of a run, so
    equality and the hash read the four counts only.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, ExplorationStats):
            return NotImplemented
        return self[:4] == other[:4]

    def __ne__(self, other):     # tuple's own would compare wall_time_s
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self[:4])


class SafetyVerdict(namedtuple("SafetyVerdict", "outcome stats counterexample depth_bound",
                               defaults=(None, None))):
    """An ``Outcome``, the ``ExplorationStats`` behind it, the ``Trace`` of
    a violation and the depth bound the search ran under."""

    __slots__ = ()

    @property
    def states_explored(self) -> int:
        return self.stats.states

    @property
    def max_depth(self) -> int:
        return self.stats.max_depth

    @property
    def reached_fixpoint(self) -> bool:
        """Holds with every reachable state expanded: the last level emptied
        and the depth bound cut no state (a state at the bound is never
        expanded, so reaching the bound counts as a cut)."""
        return self.outcome is Outcome.HOLDS and (
            self.depth_bound is None or self.max_depth < self.depth_bound
        )


def state_key(world: WorldState):
    """Hashable identity of a state: everything except the tick."""
    return (world.robot, world.obstacles, world.prev_obstacles)


def state_digest(world: WorldState) -> str:
    """Content hash of the full state, stable across runs and processes."""
    import hashlib     # loaded only when a trace is digested
    payload = json.dumps(world_to_dict(world), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _mover_groups(scenario: GridScenario, movers: list[ObstacleSnapshot]) -> list[tuple[int, ...]]:
    """Per mover, the indices of the movers interchangeable with it
    (same lane, destination and maxVel), itself included, ascending."""
    kinds: dict[tuple[int, int, int], list[int]] = {}
    for j, obs in enumerate(movers):
        kind = (obs.lane, obs.dest_cell, scenario.obstacle_by_id(obs.id).max_vel)
        kinds.setdefault(kind, []).append(j)
    groups = {j: tuple(members) for members in kinds.values() for j in members}
    return [groups[j] for j in range(len(movers))]


def check_safety(
    scenario: GridScenario,
    depth_bound: int | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SafetyVerdict:
    """Verify the passive-safety invariant over all reachable states.

    Holds when every reachable state (up to ``depth_bound`` ticks if
    given, else to fixpoint) is passive safe.  On a violation, returns
    the tick-minimal counterexample.  Blowing the state budget yields an
    Inconclusive verdict, never Holds.  Every verdict carries the
    statistics of the search that reached it.

    States are keyed by the int tuple ``(robot x, lane, v, mode index,
    mover xs..., mover prev xs...)``, which is ``state_key`` without the
    obstacles that are static from tick 0 (they live in the scenario) and
    with a mover's ``is_static`` read as ``x == dest``.

    Every guard and predicate reads only obstacles at or ahead of the
    robot (``collision_danger``, ``lane_change_possible``,
    ``is_passive_safe``), the robot's x never decreases and a mover's x
    never increases.  So a mover whose x and prev x are both behind the
    robot is dead: nothing reads it again.  The key parks it at (dest,
    dest), where it has no picks left (a live-variable reduction:
    Bozga, Fernandez & Ghirvu, SAS 1999).  Movers with the same lane,
    destination and maxVel are interchangeable: no guard or predicate
    reads an obstacle's id, so swapping two of them maps reachable
    states onto states with the same future.  After parking, the key
    sorts each such group's (x, prev x) pairs, and the search counts
    states up to both reductions (Ip & Dill, "Better verification
    through symmetry", FMSD 1996).  Within the budget, both keep the
    outcome and the counterexample length of the object-level BFS over
    ``world_step``; ``max_depth`` can be smaller, since the reduced
    search reaches its fixpoint sooner.

    ``robot_step`` reads the robot and the delayed view only, so it is
    memoised on ``key[:4] + prev xs``; ``is_passive_safe`` reads the
    robot and the current obstacles, so it is memoised on ``key[:4] +
    xs``.  The picks only move mover xs, in the order
    ``enumerate_obstacle_choices`` gives them; the successor tails
    (mover xs and prev xs) are memoised on the current xs, next to the
    lowest x of a mover not yet parked.  A successor's prev xs are the
    current xs, so a mover dies on a step exactly when that x is behind
    the moved robot: one int compare per state.  Only then are the
    tails parked, memoised on the xs and the robot's new x.  A
    ``WorldState`` is built only on a memo miss.

    So a state's successor keys are ``head + tail`` for each of its
    successor tails, where ``head`` is the robot after ``robot_step``:
    the successor set is a function of ``head`` and the mover xs alone.
    Most expansions repeat an earlier pair (86% on two movers, 95% on
    three), so each pair is recorded when its state is first expanded,
    and a repeat only counts its transitions: every tail, less those
    that lead back to the state itself.  This is exact.  The search
    returns at the first violation or budget overrun, so an expansion
    that finished left all of its successors in ``parents``; a state at
    the depth bound is never expanded, so it is never recorded.

    The search runs one level at a time, so a level's depth is its
    tick.  ``peak_frontier`` is the most states a FIFO queue would hold
    as the next one is taken: after each finished expansion, the rest
    of the level plus the next level so far.  An expansion cut short by
    a violation or the budget adds nothing, and the last one of a level
    counts the whole next level, so a level at the depth bound needs no
    count of its own.

    A counterexample is rebuilt with the object-level step.  Walking
    ``parents`` back from the violating key, each step takes the first
    vector of ``enumerate_obstacle_choices`` whose ``world_step``
    successor has the next key on the path; ``key_of`` encodes a state
    as ``init_key`` is encoded.  So the choices are legal for the real
    movers, whose order and dead cells the keys forget, and every state
    of the trace is a state of the reference model.
    """
    started = time.perf_counter()
    scenario.validate()
    init = initial_world_state(scenario)
    movers = [(i, obs) for i, obs in enumerate(init.obstacles) if not obs.is_static]
    n = len(movers)
    dests = tuple(obs.dest_cell for _, obs in movers)
    xs0 = tuple(obs.x for _, obs in movers)
    group_of = _mover_groups(scenario, [obs for _, obs in movers])
    groups = [g for g in dict.fromkeys(group_of) if len(g) > 1]
    # Per mover and cell: the cells its picks 1..maxVel lead to, in pick
    # order.  After a swap a mover may stand on any cell of its group.
    advance = []
    for j, (_, obs) in enumerate(movers):
        max_vel = scenario.obstacle_by_id(obs.id).max_vel
        d = obs.dest_cell
        advance.append({
            x: tuple(max(x - v, d) for v in range(1, max_vel + 1)) if x != d else (x,)
            for x in range(d, max(xs0[k] for k in group_of[j]) + 1)
        })

    def tail(new_xs: tuple[int, ...], xs: tuple[int, ...], robot_x: int) -> tuple[int, ...]:
        """A key's mover part: each mover whose prev x (its larger x) is
        behind ``robot_x`` parked at (dest, dest), then each group's
        (x, prev x) pairs sorted."""
        if xs and min(xs) < robot_x:
            new_xs = tuple(d if x < robot_x else v for v, x, d in zip(new_xs, xs, dests))
            xs = tuple(d if x < robot_x else x for x, d in zip(xs, dests))
        if not groups:
            return new_xs + xs
        new_xs, xs = list(new_xs), list(xs)
        for group in groups:
            for j, pair in zip(group, sorted([(new_xs[j], xs[j]) for j in group])):
                new_xs[j], xs[j] = pair
        return tuple(new_xs) + tuple(xs)

    def successor_tails(xs: tuple[int, ...], robot_x: int = -1) -> tuple[tuple[int, ...], ...]:
        return tuple(tail(new_xs, xs, robot_x)
                     for new_xs in product(*[steps[x] for steps, x in zip(advance, xs)]))

    rows = {xs0: init.obstacles}     # mover xs -> shared obstacle tuple

    def obstacles_at(xs: tuple[int, ...]) -> tuple[ObstacleSnapshot, ...]:
        row = rows.get(xs)
        if row is None:
            cells = list(init.obstacles)
            for (i, obs), x in zip(movers, xs):
                cells[i] = ObstacleSnapshot(obs.id, x, obs.lane, x == obs.dest_cell, obs.dest_cell)
            row = rows[xs] = tuple(cells)
        return row

    def world_at(key: tuple, tick: int) -> WorldState:
        robot = RobotSnapshot(key[0], key[1], key[2], _MODES[key[3]])
        return WorldState(tick, robot, obstacles_at(key[4:4 + n]), obstacles_at(key[4 + n:]))

    def key_of(world: WorldState) -> tuple:
        """The search key of an object-level state."""
        return _robot_key(world.robot) + tail(tuple(world.obstacles[i].x for i, _ in movers),
                                              tuple(world.prev_obstacles[i].x for i, _ in movers),
                                              world.robot.x)

    def trace_to(key: tuple) -> Trace:
        """The counterexample that ends in ``key``, rebuilt with the
        object-level step as described above."""
        path = []
        while key is not None:
            path.append(key)
            key = parents[key]
        world, steps = init, []
        for key in reversed(path[:-1]):
            before = world.robot.mode
            for choices in enumerate_obstacle_choices(world, scenario):
                successor = world_step(world, choices, scenario)
                if key_of(successor) == key:
                    break
            world = successor
            steps.append(TransitionLabel(world.tick, before, world.robot.mode, choices,
                                         state_digest(world)))
        return Trace(init, tuple(steps))

    init_key = key_of(init)
    parents: dict = {init_key: None}     # doubles as the visited set
    moved_robot: dict = {}      # key[:4] + prev xs -> (robot key after robot_step, expanded[it])
    safe: dict = {}             # key[:4] + xs -> is_passive_safe
    tails: dict = {}            # xs -> (successor tails in pick order, lowest unparked x)
    parked: dict = {}           # xs + (robot x,) -> successor tails with dead movers parked
    expanded: dict = {}         # robot key after robot_step -> {xs: successor tails}
    no_mover = scenario.track_length_cells      # above every robot x
    transitions = 0
    peak_frontier = 1
    max_depth = 0

    def verdict(outcome: Outcome, counterexample: Trace | None = None) -> SafetyVerdict:
        stats = ExplorationStats(len(parents), transitions, peak_frontier, max_depth,
                                 time.perf_counter() - started)
        return SafetyVerdict(outcome, stats, counterexample, depth_bound)

    # The initial state has zero velocity and cannot violate, but keep the
    # check total rather than relying on that.
    if not is_passive_safe(init):
        return verdict(Outcome.VIOLATED, Trace(init, ()))

    level = [init_key]
    depth = 0
    while level:
        if depth_bound is not None and depth >= depth_bound:
            break
        depth += 1
        next_level = []
        rest = len(level)
        for key in level:
            rest -= 1
            seen = key[:4] + key[4 + n:]
            moved = moved_robot.get(seen)
            if moved is None:
                world = world_at(key, depth - 1)
                head = _robot_key(robot_step(world.robot, world, scenario))
                moved = moved_robot[seen] = head, expanded.setdefault(head, {})
            head, known = moved
            xs = key[4:4 + n]
            succ_tails = known.get(xs)
            if succ_tails is not None:      # every successor is in parents already
                transitions += len(succ_tails)
                if head == key[:4]:
                    transitions -= succ_tails.count(key[4:])
                continue
            entry = tails.get(xs)
            if entry is None:
                lowest = min((x for x, d in zip(xs, dests) if x != d), default=no_mover)
                entry = tails[xs] = successor_tails(xs), lowest
            succ_tails, lowest = entry
            if lowest < head[0]:    # a mover dies: its prev x will be behind the robot
                dead = xs + head[:1]
                succ_tails = parked.get(dead)
                if succ_tails is None:
                    succ_tails = parked[dead] = successor_tails(xs, head[0])
            known[xs] = succ_tails
            for succ_tail in succ_tails:
                succ_key = head + succ_tail
                if succ_key != key:
                    transitions += 1
                if succ_key in parents:
                    continue
                parents[succ_key] = key
                max_depth = depth
                now = succ_key[:4 + n]
                ok = safe.get(now)
                if ok is None:
                    ok = safe[now] = is_passive_safe(world_at(succ_key, depth))
                if not ok:
                    return verdict(Outcome.VIOLATED, trace_to(succ_key))
                if len(parents) > state_budget:
                    return verdict(Outcome.INCONCLUSIVE)
                next_level.append(succ_key)
            peak_frontier = max(peak_frontier, rest + len(next_level))
        level = next_level

    return verdict(Outcome.HOLDS)


def state_space_stats(
    scenario: GridScenario,
    depth_bound: int | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ExplorationStats:
    """The statistics of ``check_safety``'s search; on a Violated
    scenario they describe the search up to the counterexample.  Raises
    RuntimeError when the state budget runs out."""
    verdict = check_safety(scenario, depth_bound, state_budget)
    if verdict.outcome is Outcome.INCONCLUSIVE:
        raise RuntimeError(
            f"state budget of {state_budget} exceeded after {verdict.states_explored} states"
        )
    return verdict.stats


def replay_trace(scenario: GridScenario, trace: Trace) -> WorldState:
    """Deterministically re-execute a trace, validating every label.

    Independent check on counterexamples: each step's choices must be
    legal for the state they are applied to, and its tick, modes and
    stored state hash must match the replayed step.  Returns the final
    state.
    """
    world = initial_world_state(scenario)
    if state_key(world) != state_key(trace.initial) or trace.initial.tick != 0:
        raise TraceError("trace initial state does not match the scenario")
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
        if label.state_hash and state_digest(world) != label.state_hash:
            raise TraceError(f"invalid label at step {k}: state hash mismatch")
    return world


def random_rollout(
    scenario: GridScenario, seed: int, max_ticks: int = 200
) -> int | None:
    """One seeded random obstacle policy through the world step.

    Every tick each moving obstacle draws uniformly from [1, max_vel].
    Returns the tick of the first passive-safety violation, or None.
    Stops early once the world is quiescent (robot idle at destination,
    nothing left moving).
    """
    rng = random.Random(seed)
    world = initial_world_state(scenario)
    for _ in range(max_ticks):
        choices = tuple(
            ObstacleChoice(obs.id, rng.randint(1, scenario.obstacle_by_id(obs.id).max_vel))
            for obs in world.obstacles
            if not obs.is_static
        )
        world = world_step(world, choices, scenario)
        if not is_passive_safe(world):
            return world.tick
        if not choices and world.robot.v == 0 and world.robot.x == scenario.robot_dest_cell:
            return None
    return None


# ---------------------------------------------------------------------------
# Serialization: verdict summary JSON and counterexample JSONL
# ---------------------------------------------------------------------------

def verdict_to_dict(verdict: SafetyVerdict, counterexample_path: str | None = None) -> dict:
    summary = {
        "outcome": verdict.outcome.value,
        "statesExplored": verdict.states_explored,
        "maxDepth": verdict.max_depth,
        "counterexampleLength": (
            len(verdict.counterexample.steps) if verdict.counterexample else None
        ),
    }
    if counterexample_path is not None:
        summary["counterexamplePath"] = counterexample_path
    summary["depthBound"] = verdict.depth_bound
    summary["reachedFixpoint"] = verdict.reached_fixpoint
    return summary


def trace_to_jsonl(trace: Trace, scenario: GridScenario) -> str:
    """One JSON line per transition, preceded by the initial state.

    Step lines carry the resulting snapshots for human inspection; only
    the choices and hashes are authoritative for replay.
    """
    lines = [json.dumps({"type": "initial", **world_to_dict(trace.initial)})]
    world = trace.initial
    for label in trace.steps:
        world = world_step(world, label.choices, scenario)
        lines.append(json.dumps({
            "type": "step",
            "tick": label.tick,
            "modeBefore": label.mode_before.value,
            "modeAfter": label.mode_after.value,
            "choices": [
                {"id": c.obstacle_id, "velocity": c.velocity} for c in label.choices
            ],
            "robot": robot_to_dict(world.robot),
            "obstacles": [obstacle_to_dict(o) for o in world.obstacles],
            "stateHash": label.state_hash,
        }))
    return "\n".join(lines) + "\n"


def write_trace_jsonl(trace: Trace, scenario: GridScenario, path: str | Path) -> None:
    Path(path).write_text(trace_to_jsonl(trace, scenario), encoding="utf-8")


def _label_from_dict(record: dict) -> TransitionLabel:
    choices = []
    for i, raw in enumerate(_want_list(record, "choices", "step")):
        where = f"step.choices[{i}]"
        _as_object(raw, where)
        choices.append(ObstacleChoice(_want_int(raw, "id", where),
                                      _want_int(raw, "velocity", where)))
    return TransitionLabel(
        tick=_want_int(record, "tick", "step"),
        mode_before=_want_mode(record, "modeBefore", "step"),
        mode_after=_want_mode(record, "modeAfter", "step"),
        choices=tuple(choices),
        state_hash=record.get("stateHash", ""),
    )


def trace_from_jsonl(text: str) -> Trace:
    """Parse counterexample JSONL; any malformed line raises TraceError."""
    initial = None
    steps = []
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
            if kind == "initial":
                initial = world_from_dict(record)
            elif kind == "step":
                steps.append(_label_from_dict(record))
            else:
                raise TraceError(f"unknown record type {kind!r}")
        except (ScenarioError, TraceError) as e:
            raise TraceError(f"trace line {lineno}: {e}") from e
    if initial is None:
        raise TraceError("trace has no initial state line")
    return Trace(initial=initial, steps=tuple(steps))


def read_trace_jsonl(path: str | Path) -> Trace:
    return trace_from_jsonl(read_utf8(path, TraceError))
