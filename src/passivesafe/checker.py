"""Exhaustive reachability check of the passive-safety invariant.

Breadth-first exploration of every state reachable under every obstacle
velocity pick.  BFS makes a found counterexample minimal in ticks, which
keeps replay and human inspection cheap.  State identity deliberately
excludes the tick counter (dynamics do not depend on it, and including
it would make the terminal idle loop look like fresh states forever) but
includes the delayed obstacle view: two states whose robots have seen
different histories must not be merged.

The search keys states by a flat int tuple (see ``check_safety``) and
merges states that differ only by swapping interchangeable movers; the
object-level ``world_step``, ``state_key`` and ``replay_trace`` stay the
reference semantics that rebuilds, replays and tests compare against.
"""
from __future__ import annotations

import hashlib
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import product
from pathlib import Path

from .automata import (
    ChoiceError,
    ObstacleChoice,
    TransitionLabel,
    robot_step,
    world_step,
)
from .kinematics import is_passive_safe
from .model import (
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
    robot_to_dict,
    world_from_dict,
    world_to_dict,
)

DEFAULT_STATE_BUDGET = 5_000_000

_MODES = tuple(RobotMode)
_MODE_CODE = {mode: i for i, mode in enumerate(_MODES)}


def _robot_key(robot: RobotSnapshot) -> tuple[int, int, int, int]:
    """The robot's part of a search key: x, lane, v and mode index."""
    return (robot.x, robot.lane, robot.v, _MODE_CODE[robot.mode])


class Outcome(str, Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, slots=True)
class Trace:
    """Replayable counterexample: initial state plus one label per step."""

    initial: WorldState
    steps: tuple[TransitionLabel, ...]


@dataclass(frozen=True, slots=True)
class ExplorationStats:
    """Exploration bookkeeping.

    ``states`` counts states up to interchange of like movers (see
    ``check_safety``).  ``transitions`` counts explored edges whose
    target differs from the source; the terminal idle self-loop is not a
    transition.  Wall time
    is a measurement, not part of the identity of a run, so it is left
    out of equality.
    """

    states: int
    transitions: int
    peak_frontier: int
    max_depth: int
    wall_time_s: float = field(compare=False)


@dataclass(frozen=True, slots=True)
class SafetyVerdict:
    outcome: Outcome
    stats: ExplorationStats
    counterexample: Trace | None = None
    depth_bound: int | None = None

    @property
    def states_explored(self) -> int:
        return self.stats.states

    @property
    def max_depth(self) -> int:
        return self.stats.max_depth

    @property
    def reached_fixpoint(self) -> bool:
        """Holds with every reachable state expanded: the queue emptied
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
    payload = json.dumps(world_to_dict(world), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _rebuild_trace(
    scenario: GridScenario,
    pick_path: list[tuple[int, ...]],
) -> Trace:
    """Re-execute a path of velocity picks from the initial state,
    naming each pick's mover and filling labels."""
    world = initial_world_state(scenario)
    initial = world
    steps = []
    for picks in pick_path:
        movers = [obs for obs in world.obstacles if not obs.is_static]
        choices = tuple(ObstacleChoice(obs.id, v) for obs, v in zip(movers, picks, strict=True))
        before = world.robot.mode
        world = world_step(world, choices, scenario)
        steps.append(TransitionLabel(
            tick=world.tick,
            mode_before=before,
            mode_after=world.robot.mode,
            choices=choices,
            state_hash=state_digest(world),
        ))
    return Trace(initial=initial, steps=tuple(steps))


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
    with a mover's ``is_static`` read as ``x == dest``.  Movers with the
    same lane, destination and maxVel are interchangeable: no guard or
    predicate reads an obstacle's id, so swapping two of them maps
    reachable states onto states with the same future.  The key sorts
    each such group's (x, prev x) pairs, and the search counts states up
    to that interchange (Ip & Dill, "Better verification through
    symmetry", FMSD 1996).  Without groups nothing is merged, and the
    search is the object-level BFS over ``world_step`` state for state.

    ``robot_step`` reads the robot and the delayed view only, so it is
    memoised on ``key[:4] + prev xs``; ``is_passive_safe`` reads the
    robot and the current obstacles, so it is memoised on ``key[:4] +
    xs``.  The picks only move mover xs, in the order
    ``enumerate_obstacle_choices`` gives them; the successor tails
    (mover xs and prev xs) are memoised on the current xs.  A
    ``WorldState`` is built only on a memo miss.
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

    def tail(new_xs: tuple[int, ...], xs: tuple[int, ...]) -> tuple[int, ...]:
        """A key's mover part, each group's (x, prev x) pairs sorted."""
        if not groups:
            return new_xs + xs
        new_xs, xs = list(new_xs), list(xs)
        for group in groups:
            for j, pair in zip(group, sorted([(new_xs[j], xs[j]) for j in group])):
                new_xs[j], xs[j] = pair
        return tuple(new_xs) + tuple(xs)

    def successor_tails(xs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(tail(new_xs, xs)
                     for new_xs in product(*[steps[x] for steps, x in zip(advance, xs)]))

    rows = {xs0: init.obstacles}     # mover xs -> shared obstacle tuple

    def obstacles_at(xs: tuple[int, ...]) -> tuple[ObstacleSnapshot, ...]:
        row = rows.get(xs)
        if row is None:
            cells = list(init.obstacles)
            for (i, obs), x in zip(movers, xs):
                cells[i] = replace(obs, x=x, is_static=x == obs.dest_cell)
            row = rows[xs] = tuple(cells)
        return row

    def pick_path(key: tuple) -> list[tuple[int, ...]]:
        """The velocity picks that lead from the initial state to ``key``:
        at each step, the first pick vector the search would try whose
        successor has the next key on the path.  Following the real
        movers, whose order the keys forget, keeps every pick legal."""
        chain = []
        while key is not None:
            chain.append(key)
            key = parents[key]
        xs = xs0
        path = []
        for key in reversed(chain[:-1]):
            for choice in product(*[enumerate(steps[x], 1) for steps, x in zip(advance, xs)]):
                new_xs = tuple(x for _, x in choice)
                if tail(new_xs, xs) == key[4:]:
                    break
            path.append(tuple(v for (v, _), x, d in zip(choice, xs, dests) if x != d))
            xs = new_xs
        return path

    def world_at(key: tuple, tick: int) -> WorldState:
        robot = RobotSnapshot(key[0], key[1], key[2], _MODES[key[3]])
        return WorldState(tick, robot, obstacles_at(key[4:4 + n]), obstacles_at(key[4 + n:]))

    init_key = _robot_key(init.robot) + tail(xs0, xs0)
    parents: dict = {init_key: None}     # doubles as the visited set
    queue = deque([(init_key, 0)])
    moved_robot: dict = {}      # key[:4] + prev xs -> robot key after robot_step
    safe: dict = {}             # key[:4] + xs -> is_passive_safe
    tails: dict = {}            # xs -> successor tails in pick order
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

    while queue:
        peak_frontier = max(peak_frontier, len(queue))
        key, tick = queue.popleft()
        if depth_bound is not None and tick >= depth_bound:
            continue
        seen = key[:4] + key[4 + n:]
        head = moved_robot.get(seen)
        if head is None:
            world = world_at(key, tick)
            head = moved_robot[seen] = _robot_key(robot_step(world.robot, world, scenario))
        xs = key[4:4 + n]
        succ_tails = tails.get(xs)
        if succ_tails is None:
            succ_tails = tails[xs] = successor_tails(xs)
        tick += 1
        for succ_tail in succ_tails:
            succ_key = head + succ_tail
            if succ_key != key:
                transitions += 1
            if succ_key in parents:
                continue
            parents[succ_key] = key
            max_depth = tick    # the queue pops ticks in order
            now = succ_key[:4 + n]
            ok = safe.get(now)
            if ok is None:
                ok = safe[now] = is_passive_safe(world_at(succ_key, tick))
            if not ok:
                return verdict(Outcome.VIOLATED, _rebuild_trace(scenario, pick_path(succ_key)))
            if len(parents) > state_budget:
                return verdict(Outcome.INCONCLUSIVE)
            queue.append((succ_key, tick))

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
    legal for the state they are applied to and each stored state hash
    must match the recomputed one.  Returns the final state.
    """
    world = initial_world_state(scenario)
    if state_key(world) != state_key(trace.initial) or trace.initial.tick != 0:
        raise TraceError("trace initial state does not match the scenario")
    for k, label in enumerate(trace.steps):
        try:
            world = world_step(world, label.choices, scenario)
        except ChoiceError as e:
            raise TraceError(f"invalid label at step {k}: {e}") from e
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
    Path(path).write_text(trace_to_jsonl(trace, scenario))


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
    return trace_from_jsonl(Path(path).read_text())
