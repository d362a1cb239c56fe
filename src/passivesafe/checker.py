"""Exhaustive reachability check of the passive-safety invariant.

Breadth-first exploration of every state reachable under every obstacle
velocity pick.  BFS makes a found counterexample minimal in ticks, which
keeps replay and human inspection cheap.  State identity deliberately
excludes the tick counter (dynamics do not depend on it, and including
it would make the terminal idle loop look like fresh states forever) but
includes the delayed obstacle view: two states whose robots have seen
different histories must not be merged.

The search runs on the int keys of a ``_Model`` compiled from the
scenario.  The object-level ``world_step``, ``state_key`` and
``replay_trace`` stay the reference semantics that counterexample
rebuilds, replays and tests compare against.
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
    _field,
    _want_int,
    _want_list,
    _want_mode,
    initial_world_state,
    world_from_dict,
)

_MODES = tuple(RobotMode)
_MODE_CODE = {mode: i for i, mode in enumerate(_MODES)}
_UNPARKED = (-1,)       # the robot x of successor tails with no mover parked


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
    interchange of like movers (see ``_Model``).  ``transitions`` counts explored edges whose
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

    The scenario is compiled into a ``_Model``, which ``_search``
    explores.  Neither makes reference cycles, so the cycle collector is
    paused while they run, as ``timeit`` does.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        model = _Model(scenario)
        outcome, parents, *counts = _search(model, depth_bound, state_budget)
        trace = model.trace_to(parents) if outcome is Outcome.VIOLATED else None
        stats = ExplorationStats(len(parents), *counts, time.perf_counter() - started)
        return SafetyVerdict(outcome, stats, trace, depth_bound)
    finally:
        if collecting:
            gc.enable()


class _Model:
    """The search model of one scenario, compiled once: state keys,
    successors, safety test and their memos; nothing of a search.

    A key is the int tuple ``(robot x, lane, v, mode index, x, prev x,
    x, prev x, ...)``, one pair per mover: ``state_key`` without the
    obstacles static from tick 0 (the scenario holds them) and with a
    mover's ``is_static`` read as ``x == dest``.  Guards and predicates
    read only obstacles at or ahead of the robot, whose x never
    decreases while a mover's never increases, so a mover whose x and
    prev x are both behind the robot is dead: the key parks it at (dest,
    dest), with no picks left (live-variable reduction: Bozga, Fernandez
    & Ghirvu, SAS 1999).  None reads an id, so swapping movers with the
    same lane, destination and maxVel maps states onto states with the
    same future: the key lists the pairs group by group, each sorted, by
    one ``sorted`` over (group tag, x, prev x) triples, a group's tag
    being its first mover, flattened without the tags (Ip & Dill, FMSD
    1996).  With no two movers interchangeable, the pairs stay unsorted
    in scenario order.  Both reductions keep the object-level BFS's
    outcome and counterexample length; ``max_depth`` can be smaller, as
    the reduced search reaches its fixpoint sooner.

    ``move`` applies the per-obstacle rules of ``kinematics`` to the ints
    the robot reads, building no obstacle row; a state's successor keys
    are ``head + tail`` over its successor tails, ``head`` the moved robot.
    """

    def __init__(self, scenario: GridScenario):
        scenario.validate()
        self.scenario = scenario
        self.init = init = initial_world_state(scenario)
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
        self.canonical = canonical
        # Per mover in scenario order: key position, obstacle index, tag
        # (its group when some movers are interchangeable), destination,
        # picks and options per cell, on its destination its one parked
        # option.
        self.pickers = []
        for j, (i, obs) in enumerate(movers):
            tag, d = (group_of[j][0],) if tagged else (), obs.dest_cell
            picks = range(1, scenario.obstacle_by_id(obs.id).max_vel + 1)
            self.pickers.append((at.index(j), i, tag, d, picks, {d: (tag + (d, d),)}))
        self.lanes = tuple(movers[j][1].lane for j in at)
        self.dests = tuple(movers[j][1].dest_cell for j in at)
        self.statics = statics = [(obs.x, obs.lane) for obs in init.obstacles if obs.is_static]
        self.on_lane = {lane: [cell for cell, on in statics if on == lane] for _, lane in statics}
        # The memos, each filled by the method named.
        self.seen_statics = {}      # (x, lane) -> statics_at
        self.decisions = {}         # robot + (danger, free lane) -> decide
        self.moves = {}             # key[:4] + prev xs -> move
        self.safety = {}            # head with speed -> {xs: is_safe}, filled by the search
        self.tails = {}             # xs + (robot x or -1,) -> successor_tails
        self.init_key = self.key_of(init)

    def key_of(self, world: WorldState) -> tuple:
        """The search key of an object-level state."""
        robot_x, now, prev = world.robot.x, world.obstacles, world.prev_obstacles
        return _robot_key(world.robot) + next(self.canonical([[
            tag + ((d, d) if prev[i].x < robot_x else (now[i].x, prev[i].x))
            for _, i, tag, d, _, _ in self.pickers]]))

    def trace_to(self, parents: dict) -> Trace:
        """The counterexample that ends in the last key of ``parents``, the
        one a violation stopped the search at.  Each step takes the first
        vector of ``enumerate_obstacle_choices`` whose ``world_step``
        successor has the next key on the path back, so its choices are
        legal for the real movers."""
        path, key = [], next(reversed(parents))
        while key is not None:
            path.append(key)
            key = parents[key]
        world, steps, digest = self.init, [], _digests()
        for key in reversed(path[:-1]):
            before = world.robot.mode
            for choices in enumerate_obstacle_choices(world, self.scenario):
                successor = world_step(world, choices, self.scenario)
                if self.key_of(successor) == key:
                    break
            world = successor
            steps.append(TransitionLabel(world.tick, before, world.robot.mode, choices,
                                         digest(world)))
        return Trace(self.init, tuple(steps))

    def statics_at(self, x: int, lane: int) -> tuple[bool, bool, set]:
        """What the robot sees of the static obstacles from ``x`` and
        ``lane``: danger, an obstacle on the cell ahead, the lanes blocked."""
        seen = self.seen_statics.get((x, lane))
        if seen is None:
            cells, scenario = self.on_lane.get(lane, ()), self.scenario
            visual = scenario.assumptions.visual_radius
            seen = self.seen_statics[x, lane] = (
                any([danger_from(x, lane, cell, lane, True, scenario) for cell in cells]),
                any([stands_ahead(x, lane, cell, lane) for cell in cells]),
                {on for cell, on in self.statics if blocks_lane(x, cell, visual)})
        return seen

    def decide(self, decision: tuple) -> tuple:
        """``robot_decide`` on the robot, danger and free lane, as ``move``
        gives it, or ``_UNLOOKED`` for a dodge whose lane is not looked for."""
        head = robot_decide(*decision[:3], _MODES[decision[3]], *decision[4:], self.scenario)
        move = _UNLOOKED
        if head is not None:
            head = (*head[:3], _MODE_CODE[head[3]])
            safe = self.safety.setdefault(head, {}) if head[2] else None
            move = (head, safe, head == decision[:4])
        self.decisions[decision] = move
        return move

    def move(self, seen: tuple) -> tuple:
        """The robot's step on what it reads, ``seen`` = ``key[:4] +
        key[5::2]``: the moved robot, its safety memo (None at rest) and
        whether it stays put.  A free side lane is looked for only for a
        dodge."""
        x, lane, scenario = seen[0], seen[1], self.scenario
        danger = lane in self.on_lane and self.statics_at(x, lane)[0]
        for cell, on, d in zip(seen[4:], self.lanes, self.dests):
            if danger:
                break
            danger = danger_from(x, lane, cell, on, cell == d, scenario)
        decision = seen[:4] + (danger, _UNLOOKED)
        move = self.decisions.get(decision) or self.decide(decision)
        if move is _UNLOOKED:   # a dodge: look for a free side lane
            visual = scenario.assumptions.visual_radius
            blocked = self.statics_at(x, lane)[2].union(
                [on for cell, on in zip(seen[4:], self.lanes) if blocks_lane(x, cell, visual)])
            decision = seen[:4] + (True, free_side_lane(lane, blocked, scenario))
            move = self.decisions.get(decision) or self.decide(decision)
        self.moves[seen] = move
        return move

    def is_safe(self, head: tuple, now: tuple) -> bool:
        """Whether the robot ``head``, with speed, is passive safe with
        the movers at ``now``."""
        x, lane = head[:2]
        return not (lane in self.on_lane and self.statics_at(x, lane)[1]
                    or any([stands_ahead(x, lane, cell, on) for cell, on in zip(now, self.lanes)]))

    def successor_tails(self, xs: tuple[int, ...], robot_x: int = -1) -> tuple[tuple, int]:
        """The successor tails of ``xs``, each vector of the movers' options
        canonicalised in the order of ``enumerate_obstacle_choices``, the
        movers behind ``robot_x`` parked; and the lowest x of a mover not
        yet parked.  A mover dies on a step when its x is behind the moved
        robot."""
        rows, lowest = [], self.scenario.track_length_cells     # above any robot x
        for k, _, tag, d, picks, options in self.pickers:
            x = xs[k]
            row = options.get(x)
            if row is None:     # (new x, x) for each pick, in pick order
                row = options[x] = tuple([tag + (x - v if x - v > d else d, x) for v in picks])
            rows.append(options[d] * len(row) if x < robot_x else row)
            if d != x < lowest:
                lowest = x
        entry = self.tails[xs + (robot_x,)] = tuple(self.canonical(product(*rows))), lowest
        return entry


def _search(model: _Model, depth_bound: int | None, state_budget: int) -> tuple:
    """The BFS over ``model``'s keys, one level of ticks at a time.  It keeps
    one search's own: ``parents`` (also the visited set), the (head, xs)
    pairs it expanded, the counters and the cuts, and calls the model only
    on a miss.  Returns the outcome, ``parents`` and the three counters.

    A state's successors depend only on its (head, xs) pair, and most
    expansions repeat one (86% on two movers, 95% on three).  A repeat
    only counts its transitions, every tail less those back to the state
    itself: its successors are all in ``parents``, since the search
    returns at the first violation or budget overrun.  ``peak_frontier``
    is the most states a FIFO queue would hold as the next is taken:
    after each finished expansion, the rest of the level plus the next
    level so far (after a level's last, the whole next level; a cut
    expansion adds nothing).
    """
    moves, move, tails = model.moves, model.move, model.tails
    successor_tails, is_safe = model.successor_tails, model.is_safe
    parents: dict = {model.init_key: None}
    expanded = defaultdict(dict)    # head -> {xs: successor tails}
    transitions = 0
    peak_frontier = 1
    max_depth = 0
    # The initial state has zero velocity and cannot violate, but keep the
    # check total rather than relying on that.
    if not is_passive_safe(model.init):
        return Outcome.VIOLATED, parents, transitions, peak_frontier, max_depth

    level = [model.init_key]
    depth = 0
    while level and (depth_bound is None or depth < depth_bound):
        depth += 1
        next_level = []
        rest = len(level)
        for key in level:
            rest -= 1
            seen = key[:4] + key[5::2]
            head, safe, stays = moves.get(seen) or move(seen)
            xs = key[4::2]
            known = expanded[head]
            succ_tails = known.get(xs)
            if succ_tails is not None:      # every successor is in parents already
                transitions += len(succ_tails)
                if stays:
                    transitions -= succ_tails.count(key[4:])
                continue
            succ_tails, lowest = tails.get(xs + _UNPARKED) or successor_tails(xs)
            if lowest < head[0]:    # a mover dies: its prev x will be behind the robot
                succ_tails = (tails.get(xs + head[:1]) or successor_tails(xs, head[0]))[0]
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
                        ok = safe[now] = is_safe(head, now)
                    if not ok:
                        return Outcome.VIOLATED, parents, transitions, peak_frontier, max_depth
                if len(parents) > state_budget:
                    return Outcome.INCONCLUSIVE, parents, transitions, peak_frontier, max_depth
                next_level.append(succ_key)
            if rest + len(next_level) > peak_frontier:
                peak_frontier = rest + len(next_level)
        level = next_level
    return Outcome.HOLDS, parents, transitions, peak_frontier, max_depth


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
        if digest(world) != label.state_hash:
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
    state_hash = _field(record, "stateHash", "step")
    if not isinstance(state_hash, str):
        raise TraceError("step.stateHash must be a string")
    return TransitionLabel(
        tick=_want_int(record, "tick", "step"),
        mode_before=_want_mode(record, "modeBefore", "step"),
        mode_after=_want_mode(record, "modeAfter", "step"),
        choices=tuple(choices),
        state_hash=state_hash,
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
