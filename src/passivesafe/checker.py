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

import gc
import json
import os
import time
from collections import defaultdict, namedtuple
from enum import Enum
from itertools import chain, product
from operator import itemgetter

from .automata import (
    ChoiceError,
    ObstacleChoice,
    TransitionLabel,
    enumerate_obstacle_choices,
    robot_step_at,
    world_step,
)
from .kinematics import is_passive_safe, is_passive_safe_at
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


class SafetyVerdict(namedtuple("SafetyVerdict", "outcome stats counterexample depth_bound")):
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
    x, prev x, x, prev x, ...)`` with one pair per mover: ``state_key``
    without the obstacles that are static from tick 0 (they live in the
    scenario) and with a mover's ``is_static`` read as ``x == dest``.

    Every guard and predicate reads only obstacles at or ahead of the
    robot (``collision_danger``, ``lane_change_possible_at``,
    ``is_passive_safe``), the robot's x never decreases and a mover's x
    never increases.  So a mover whose x and prev x are both behind the
    robot is dead: nothing reads it again.  The key parks it at (dest,
    dest), where it has no picks left (a live-variable reduction:
    Bozga, Fernandez & Ghirvu, SAS 1999).  Movers with the same lane,
    destination and maxVel are interchangeable: no guard or predicate
    reads an obstacle's id, so swapping two of them maps reachable
    states onto states with the same future.  So the key lists the pairs
    group by group, each group's sorted: one ``sorted`` over a (group
    tag, x, prev x) triple per mover, a group's tag being its first
    mover, flattened without the tags (Ip & Dill, "Better verification
    through symmetry", FMSD 1996).  Within the budget, both reductions
    keep the outcome and the counterexample length of the object-level
    BFS over ``world_step``; ``max_depth`` can be smaller, since the
    reduced search reaches its fixpoint sooner.

    A memo miss calls the robot controller and the safety predicate on
    key fields, with no ``WorldState`` built: ``robot_step_at`` reads
    the robot and the delayed view only, so it is memoised on ``key[:4]
    + key[5::2]``; ``is_passive_safe_at`` reads the robot's x, lane and
    v and the current obstacles, so it is memoised on ``key[:4] +
    key[4::2]``.  Each mover's options, (new x, x) for picks 1..maxVel in
    pick order, are built once per cell; a row of mover xs canonicalises
    each vector of their product over the movers in scenario order, the
    order of ``enumerate_obstacle_choices``.  These successor tails are
    memoised on the xs, next to the lowest x of a mover not yet parked.
    A mover dies on a step exactly when its x is behind the moved robot;
    only then is the row rebuilt with each dying mover's options all
    (dest, dest), one per pick, memoised on the xs and the robot's x.

    So a state's successor keys are ``head + tail`` for each of its
    successor tails, where ``head`` is the robot after ``robot_step_at``.
    Most expansions repeat an earlier (head, xs) pair (86% on two
    movers, 95% on three), so a repeat only counts its transitions:
    every tail, less those that lead back to the state itself.  This is
    exact: the search returns at the first violation or budget overrun,
    so a finished expansion left all of its successors in ``parents``.

    The search runs one level at a time, so a level's depth is its
    tick.  ``peak_frontier`` is the most states a FIFO queue would hold
    as the next one is taken: after each finished expansion, the rest
    of the level plus the next level so far; the last expansion of a
    level counts the whole next level, and a cut one adds nothing.

    A counterexample is rebuilt with the object-level step: walking
    ``parents`` back from the violating key, each step takes the first
    vector of ``enumerate_obstacle_choices`` whose ``world_step``
    successor has the next key on the path, so its choices are legal
    for the real movers.  The search makes no reference cycles, so the
    cycle collector is paused while it runs, as ``timeit`` does.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _search(scenario, depth_bound, state_budget)
    finally:
        if collecting:
            gc.enable()


def _search(scenario: GridScenario, depth_bound: int | None, state_budget: int) -> SafetyVerdict:
    started = time.perf_counter()
    scenario.validate()
    init = initial_world_state(scenario)
    movers = [(i, obs) for i, obs in enumerate(init.obstacles) if not obs.is_static]
    group_of = _mover_groups(scenario, [obs for _, obs in movers])
    at = sorted(range(len(movers)), key=group_of.__getitem__)    # key position -> mover
    untag = itemgetter(*[i for i in range(3 * len(at)) if i % 3]) if at else tuple  # no movers: ()

    def canonical(vectors):
        """The key tail of each vector of (group tag, x, prev x) triples."""
        return map(untag, map(tuple, map(chain.from_iterable, map(sorted, vectors))))

    # Per mover: its key position, obstacle index, parked (tag, dest,
    # dest) and, per cell, its (tag, new x, x) for picks 1..maxVel in pick
    # order.  After a swap a mover may stand on any cell of its group.
    pickers = []
    for j, (i, obs) in enumerate(movers):
        max_vel = scenario.obstacle_by_id(obs.id).max_vel
        tag, d = group_of[j][0], obs.dest_cell
        pickers.append((at.index(j), i, (tag, d, d), {
            x: tuple((tag, max(x - v, d), x) for v in range(1, max_vel + 1)) if x != d
            else ((tag, d, d),) for x in range(d, max(movers[k][1].x for k in group_of[j]) + 1)
        }))
    movers = [movers[j] for j in at]
    dests = tuple(obs.dest_cell for _, obs in movers)

    def successor_tails(xs: tuple[int, ...], robot_x: int = -1) -> tuple[tuple[int, ...], ...]:
        return tuple(canonical(product(*[
            (dead,) * len(options[xs[k]]) if xs[k] < robot_x else options[xs[k]]
            for k, _, dead, options in pickers])))

    rows = {}     # mover xs -> shared obstacle tuple

    def obstacles_at(xs: tuple[int, ...]) -> tuple[ObstacleSnapshot, ...]:
        row = rows.get(xs)
        if row is None:
            cells = list(init.obstacles)
            for (i, obs), x in zip(movers, xs):
                cells[i] = ObstacleSnapshot(obs.id, x, obs.lane, x == obs.dest_cell, obs.dest_cell)
            row = rows[xs] = tuple(cells)
        return row

    def key_of(world: WorldState) -> tuple:
        """The search key of an object-level state."""
        robot_x, now, prev = world.robot.x, world.obstacles, world.prev_obstacles
        return _robot_key(world.robot) + next(canonical([[
            dead if prev[i].x < robot_x else (dead[0], now[i].x, prev[i].x)
            for _, i, dead, _ in pickers]]))

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
    moved_robot: dict = {}      # key[:4] + prev xs -> (head, *expanded[head], head == key[:4])
    tails: dict = {}            # xs -> (successor tails in pick order, lowest unparked x)
    parked: dict = {}           # xs + (robot x,) -> successor tails with dead movers parked
    expanded = defaultdict(lambda: ({}, {}))   # head -> ({xs: successor tails}, {xs: safe})
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
            seen = key[:4] + key[5::2]
            moved = moved_robot.get(seen)
            if moved is None:
                *head, mode = robot_step_at(*key[:3], _MODES[key[3]], obstacles_at(key[5::2]),
                                            scenario)
                head = (*head, _MODE_CODE[mode])
                known, safe = expanded[head]
                moved = moved_robot[seen] = head, known, safe, head == seen[:4]
            head, known, safe, stays = moved
            xs = key[4::2]
            succ_tails = known.get(xs)
            if succ_tails is not None:      # every successor is in parents already
                transitions += len(succ_tails)
                if stays:
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
                now = succ_tail[::2]
                ok = safe.get(now)
                if ok is None:
                    ok = safe[now] = is_passive_safe_at(*head[:3], obstacles_at(now))
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
    if world != trace.initial:
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
    import random   # here, so that `check` does not pay for it
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


def write_trace_jsonl(trace: Trace, scenario: GridScenario, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(trace_to_jsonl(trace, scenario))


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


def read_trace_jsonl(path: str | os.PathLike) -> Trace:
    return trace_from_jsonl(read_utf8(path, TraceError))
