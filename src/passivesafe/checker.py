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
from functools import lru_cache
from itertools import product, repeat
from operator import itemgetter

from .automata import (
    ChoiceError,
    ObstacleChoice,
    TransitionLabel,
    _UNLOOKED,
    enumerate_obstacle_choices,
    free_side_lane,
    robot_decide,
    world_step,
)
from .kinematics import blocks_lane, danger_from, is_passive_safe, stands_ahead
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
    world_from_dict,
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
    """Content hash of the full state, stable across runs and processes:
    the SHA-256 of the state's JSON object (as in a trace's initial line,
    less its type) in compact JSON with sorted keys."""
    return _digests()(world)


class _ObstacleJson(dict):
    """ObstacleSnapshot -> its JSON object, keys sorted, made on first use."""

    __slots__ = ()

    def __missing__(self, o: ObstacleSnapshot) -> str:
        text = self[o] = '{"destCell":%d,"id":%d,"isStatic":%s,"lane":%d,"x":%d}' % (
            o.dest_cell, o.id, "true" if o.is_static else "false", o.lane, o.x)
        return text


def _digests():
    """``state_digest`` for the states of one trace.  The payload is
    pieced together from the JSON of each obstacle, kept for the next
    state: the static obstacles recur in every state, and a state's
    ``obstacles`` are the next one's ``prev_obstacles``.  The bytes are
    those of ``json.dumps`` for fields of their declared types (ints, a
    bool and a ``RobotMode``), as ``world_step`` and every loader give
    them."""
    import hashlib     # loaded only when a trace is digested
    sha256 = hashlib.sha256
    obstacle = _ObstacleJson().__getitem__

    def digest(world: WorldState) -> str:
        robot = world.robot
        payload = ('{"obstacles":[%s],"prevObstacles":[%s],"robot":{"lane":%d,"mode":"%s",'
                   '"v":%d,"x":%d},"tick":%d}' % (
                       ",".join(map(obstacle, world.obstacles)),
                       ",".join(map(obstacle, world.prev_obstacles)),
                       robot.lane, robot.mode.value, robot.v, robot.x, world.tick))
        return sha256(payload.encode()).hexdigest()

    return digest


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
    robot (``danger_from``, ``blocks_lane``, ``stands_ahead``), the
    robot's x never decreases and a mover's x never increases.  So a
    mover whose x and prev x are both behind the robot is dead: nothing
    reads it again.  The key parks it at (dest, dest), where it has no
    picks left (a live-variable reduction: Bozga, Fernandez & Ghirvu,
    SAS 1999).  Movers with the same lane, destination and maxVel are
    interchangeable: no guard or predicate reads an obstacle's id, so
    swapping two of them maps reachable states onto states with the same
    future.  So the key lists the pairs group by group, each group's
    sorted: one ``sorted`` over a (group tag, x, prev x) triple per
    mover, a group's tag being its first mover, flattened without the
    tags (Ip & Dill, "Better verification through symmetry", FMSD 1996).
    With no two movers interchangeable, nothing is sorted: a key's tail
    concatenates the pairs in scenario order.  Within the budget, both
    reductions keep the outcome and the counterexample length of the
    object-level BFS over ``world_step``; ``max_depth`` can be smaller,
    since the reduced search reaches its fixpoint sooner.

    The search builds no obstacle rows and no ``WorldState``: it applies
    the per-obstacle rules of ``kinematics`` to the ints of the key, the
    static obstacles' part memoised on the robot's cell and lane.  The
    robot's step is memoised on what it reads, ``key[:4] + key[5::2]``;
    on a miss, ``robot_decide`` is memoised on the robot and danger, and
    for a dodge on the robot and the free side lane, looked for only
    then.  Safety is memoised on the moved robot and ``key[4::2]``.
    Each mover's options, (new x, x) for picks 1..maxVel in pick order,
    are built once per cell; a row of mover xs canonicalises each vector
    of their product over the movers in scenario order, the order of
    ``enumerate_obstacle_choices``.  These successor tails are memoised
    on the xs, next to the lowest x of a mover not yet parked.  A mover
    dies on a step exactly when its x is behind the moved robot; only
    then is the row rebuilt with each dying mover's options all (dest,
    dest), one per pick, memoised on the xs and the robot's x.

    So a state's successor keys are ``head + tail`` for each of its
    successor tails, where ``head`` is the moved robot.  Most expansions
    repeat an earlier (head, xs) pair (86% on two movers, 95% on three),
    so a repeat only counts its transitions: every tail, less those that
    lead back to the state itself.  This is
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
    tagged = any(len(group) > 1 for group in group_of)
    if tagged:      # sort each vector's (group tag, x, prev x) triples, then drop the tags
        untag = itemgetter(*[i for i in range(3 * len(at)) if i % 3])

        def canonical(vectors):
            return map(untag, map(sum, map(sorted, vectors), repeat(())))
    else:           # concatenate each vector's (x, prev x) pairs
        def canonical(vectors):
            return map(sum, vectors, repeat(()))

    # Per mover: its key position, obstacle index, tag and, per cell, its
    # options for picks 1..maxVel in pick order; on its destination, its
    # one parked option.  An option is (new x, x) after the tag: the
    # mover's group when some movers are interchangeable, else nothing.
    # After a swap a mover may stand on any cell of its group.
    pickers = []
    for j, (i, obs) in enumerate(movers):
        picks = range(1, scenario.obstacle_by_id(obs.id).max_vel + 1)
        tag, d = (group_of[j][0],) if tagged else (), obs.dest_cell
        options = {d: (tag + (d, d),)}
        for x in range(d + 1, max(movers[k][1].x for k in group_of[j]) + 1):
            options[x] = tuple([tag + (x - v if x - v > d else d, x) for v in picks])
        pickers.append((at.index(j), i, tag, options))
    movers = [movers[j] for j in at]
    lanes = tuple(obs.lane for _, obs in movers)
    dests = tuple(obs.dest_cell for _, obs in movers)

    no_mover = scenario.track_length_cells      # above every robot x

    def successor_tails(xs: tuple[int, ...], robot_x: int = -1) -> tuple[tuple, int]:
        """Successor tails in pick order, the movers behind ``robot_x``
        parked, and the lowest x of a mover not yet parked."""
        rows, lowest = [], no_mover
        for k, _, _, options in pickers:
            x, d = xs[k], dests[k]
            rows.append(options[d] * len(options[x]) if x < robot_x else options[x])
            if d != x < lowest:
                lowest = x
        return tuple(canonical(product(*rows))), lowest

    def key_of(world: WorldState) -> tuple:
        """The search key of an object-level state."""
        robot_x, now, prev = world.robot.x, world.obstacles, world.prev_obstacles
        return _robot_key(world.robot) + next(canonical([[
            options[dests[k]][0] if prev[i].x < robot_x else tag + (now[i].x, prev[i].x)
            for k, i, tag, options in pickers]]))

    def trace_to(key: tuple) -> Trace:
        """The counterexample that ends in ``key``, rebuilt with the
        object-level step as described above."""
        path = []
        while key is not None:
            path.append(key)
            key = parents[key]
        world, steps, digest = init, [], _digests()
        for key in reversed(path[:-1]):
            before = world.robot.mode
            for choices in enumerate_obstacle_choices(world, scenario):
                successor = world_step(world, choices, scenario)
                if key_of(successor) == key:
                    break
            world = successor
            steps.append(TransitionLabel(world.tick, before, world.robot.mode, choices,
                                         digest(world)))
        return Trace(init, tuple(steps))

    # What the robot observes of the static obstacles, memoised on its cell
    # and lane; of the movers, read off the key.
    visual = scenario.assumptions.visual_radius
    statics = [(obs.x, obs.lane) for obs in init.obstacles if obs.is_static]
    on_lane = {lane: [cell for cell, on in statics if on == lane] for _, lane in statics}

    @lru_cache(maxsize=None)
    def statics_at(x: int, lane: int) -> tuple[bool, bool, set]:
        """Danger, an obstacle on the cell ahead, the lanes blocked."""
        cells = on_lane.get(lane, ())
        return (any([danger_from(x, lane, cell, lane, True, scenario) for cell in cells]),
                any([stands_ahead(x, lane, cell, lane) for cell in cells]),
                {on for cell, on in statics if blocks_lane(x, cell, visual)})

    def passive_safe(head: tuple, now: tuple) -> bool:     # for a head with speed
        x, lane = head[:2]
        return not (lane in on_lane and statics_at(x, lane)[1] or any([
            stands_ahead(x, lane, cell, on) for cell, on in zip(now, lanes)]))

    expanded = defaultdict(lambda: ({}, {}))   # head -> ({xs: successor tails}, {xs: safe})

    @lru_cache(maxsize=None)
    def decide(x: int, lane: int, v: int, mode: int, danger: bool, free_lane=_UNLOOKED) -> tuple:
        """(head, *expanded[head] with no safety memo at rest, head ==
        robot), or () for a dodge without ``free_lane``."""
        head = robot_decide(x, lane, v, _MODES[mode], danger, free_lane, scenario)
        if head is None:
            return ()
        head = (*head[:3], _MODE_CODE[head[3]])
        known, safe = expanded[head]
        return head, known, safe if head[2] else None, head == (x, lane, v, mode)

    def dodge(seen: tuple) -> tuple:
        """The decision of a robot in danger that looks for a free lane."""
        x, lane = seen[:2]
        return decide(*seen[:4], True, free_side_lane(lane, statics_at(x, lane)[2].union([
            on for cell, on in zip(seen[4:], lanes) if blocks_lane(x, cell, visual)]), scenario))

    init_key = key_of(init)
    parents: dict = {init_key: None}     # doubles as the visited set
    moved_robot: dict = {}      # key[:4] + prev xs -> its decision
    tails: dict = {}            # xs -> (successor tails in pick order, lowest unparked x)
    parked: dict = {}           # xs + (robot x,) -> successor tails with dead movers parked
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
                x, lane = key[0], key[1]
                danger = lane in on_lane and statics_at(x, lane)[0]
                if not danger:
                    for cell, on, d in zip(seen[4:], lanes, dests):
                        if danger_from(x, lane, cell, on, cell == d, scenario):
                            danger = True
                            break
                moved = moved_robot[seen] = decide(*key[:4], danger) or dodge(seen)
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
                entry = tails[xs] = successor_tails(xs)
            succ_tails, lowest = entry
            if lowest < head[0]:    # a mover dies: its prev x will be behind the robot
                dead = xs + head[:1]
                succ_tails = parked.get(dead)
                if succ_tails is None:
                    succ_tails = parked[dead] = successor_tails(xs, head[0])[0]
            known[xs] = succ_tails
            for succ_tail in succ_tails:
                succ_key = head + succ_tail
                if succ_key != key:
                    transitions += 1
                if succ_key in parents:
                    continue
                parents[succ_key] = key
                max_depth = depth
                if safe is not None:
                    now = succ_tail[::2]
                    ok = safe.get(now)
                    if ok is None:
                        ok = safe[now] = passive_safe(head, now)
                    if not ok:
                        return verdict(Outcome.VIOLATED, trace_to(succ_key))
                if len(parents) > state_budget:
                    return verdict(Outcome.INCONCLUSIVE)
                next_level.append(succ_key)
            if rest + len(next_level) > peak_frontier:
                peak_frontier = rest + len(next_level)
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
        if label.state_hash and digest(world) != label.state_hash:
            raise TraceError(f"invalid label at step {k}: state hash mismatch")
    return world


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
    the choices and hashes are authoritative for replay.  The lines are
    pieced together as ``state_digest``'s payloads are, each obstacle's
    JSON kept for the trace, in the bytes of one ``json.dumps`` per line
    for fields of their declared types.
    """
    @lru_cache(maxsize=None)
    def obstacle(o: ObstacleSnapshot) -> str:
        return '{"id": %d, "x": %d, "lane": %d, "isStatic": %s, "destCell": %d}' % (
            o.id, o.x, o.lane, "true" if o.is_static else "false", o.dest_cell)

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
