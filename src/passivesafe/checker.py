"""Exhaustive reachability check of the passive-safety invariant.

Breadth-first exploration of every state reachable under every obstacle
velocity pick.  BFS makes a found counterexample minimal in ticks, which
keeps replay and human inspection cheap.  State identity deliberately
excludes the tick counter (dynamics do not depend on it, and including
it would make the terminal idle loop look like fresh states forever) but
includes the delayed obstacle view: two states whose robots have seen
different histories must not be merged.

The search runs on the int keys of a ``_Model`` compiled from the
scenario.  The object-level ``world_step`` and ``state_key`` stay the
reference semantics that counterexample rebuilds and tests compare
against.  The counterexample format, its records, JSONL, digests and
replay, is ``counterexample``'s, loaded only when a search ends Violated;
the rebuild hands it the reached states through ``trace_of``.
"""
from __future__ import annotations

import gc
from collections import defaultdict, namedtuple
from enum import Enum
from itertools import product, repeat
from operator import itemgetter

from .automata import DODGING_MODES, ObstacleChoice, free_side_lane, robot_decide, world_step
from .kinematics import blocks_lane, danger_from, is_passive_safe, stands_ahead
from .model import (
    DEFAULT_STATE_BUDGET,
    GridScenario,
    ObstacleSnapshot,
    RobotMode,
    RobotSnapshot,
    WorldState,
    initial_world_state,
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


class ExplorationStats(namedtuple("ExplorationStats",
                                  "states transitions peak_frontier max_depth")):
    """Exploration bookkeeping.

    ``states`` counts states up to parking of dead movers and
    interchange of like movers (see ``_Model``).  ``transitions`` counts,
    for each expanded state, its velocity pick vectors (the product of
    maxVel over the movers off their destination) whose successor differs
    from the state; the terminal idle self-loop is not one.  A search cut
    short has counted every vector of the state it stopped in.
    """

    __slots__ = ()


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


def _mover_groups(specs: dict, movers: list[ObstacleSnapshot]) -> list[tuple[int, ...]]:
    """Per mover, the indices of the movers interchangeable with it
    (same lane, destination and maxVel, read from ``specs``, id ->
    ``ObstacleSpec``), itself included, ascending."""
    kinds: dict[tuple[int, int, int], list[int]] = {}
    for j, obs in enumerate(movers):
        kind = (obs.lane, obs.dest_cell, specs[obs.id].max_vel)
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
        model = _Model(scenario)
        outcome, parents, *counts = _search(model, depth_bound, state_budget)
        trace = model.trace_to(parents) if outcome is Outcome.VIOLATED else None
        stats = ExplorationStats(len(parents), *counts)
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
        specs = {obs.id: obs for obs in scenario.obstacles}
        movers = [(i, obs) for i, obs in enumerate(init.obstacles) if not obs.is_static]
        group_of = _mover_groups(specs, [obs for _, obs in movers])
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
        # maxVel and options per cell, on its destination its one parked
        # option.
        self.pickers = []
        for j, (i, obs) in enumerate(movers):
            tag, d = (group_of[j][0],) if tagged else (), obs.dest_cell
            self.pickers.append((at.index(j), i, tag, d, specs[obs.id].max_vel,
                                 {d: (tag + (d, d),)}))
        self.lanes = tuple(movers[j][1].lane for j in at)
        self.dests = tuple(movers[j][1].dest_cell for j in at)
        self.statics = statics = [(obs.x, obs.lane) for obs in init.obstacles if obs.is_static]
        self.on_lane = on_lane = {}     # lane -> the cells of its static obstacles
        for cell, lane in statics:
            on_lane.setdefault(lane, []).append(cell)
        # The memos, each filled by the method named.
        self.seen_statics = {}      # (x, lane) -> statics_at
        self.decisions = {}         # robot + (danger, free lane) -> move
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

    def trace_to(self, parents: dict):
        """The ``counterexample.Trace`` that ends in the last key of
        ``parents``, the one a violation stopped the search at.  Each step
        takes the first pick vector, in the order of
        ``enumerate_obstacle_choices``, whose ``world_step`` successor has
        the next key on the path back, so its choices are legal for the
        real movers.  A pick beyond a mover's distance to its destination
        lands where that distance does, so none is tried: the first match
        stays the same.  A step that no pick vector reaches raises
        RuntimeError: the search and ``world_step`` disagree."""
        path, key = [], next(reversed(parents))
        while key is not None:
            path.append(key)
            key = parents[key]
        from .counterexample import trace_of
        scenario, world, steps = self.scenario, self.init, []
        for key in reversed(path[:-1]):
            movers = [obs for obs in world.obstacles if not obs.is_static]
            ids = [obs.id for obs in movers]
            for picks in product(*[range(1, min(scenario.obstacle_by_id(obs.id).max_vel,
                                                obs.x - obs.dest_cell) + 1) for obs in movers]):
                choices = tuple(map(ObstacleChoice, ids, picks))
                successor = world_step(world, choices, scenario)
                if self.key_of(successor) == key:
                    break
            else:
                raise RuntimeError(f"counterexample rebuild: no pick vector reaches the state "
                                   f"the search found at step {len(steps)}")
            world = successor
            steps.append((choices, world))
        return trace_of(self.init, steps)

    def statics_at(self, x: int, lane: int) -> tuple[bool, bool, set]:
        """What the robot sees of the static obstacles from ``x`` and
        ``lane``: danger, an obstacle on the cell ahead, the lanes blocked."""
        cells, scenario = self.on_lane.get(lane, ()), self.scenario
        visual = scenario.assumptions.visual_radius
        seen = self.seen_statics[x, lane] = (
            any([danger_from(x, lane, cell, lane, True, scenario) for cell in cells]),
            any([stands_ahead(x, lane, cell, lane) for cell in cells]),
            {on for cell, on in self.statics if blocks_lane(x, cell, visual)})
        return seen

    def move(self, seen: tuple) -> tuple:
        """The robot's step on what it reads, ``seen`` = ``key[:4] +
        key[5::2]``: the moved robot, its safety memo (None at rest) and
        whether it stays put.  A free side lane is looked for only in
        danger, for a mode of ``DODGING_MODES``."""
        x, lane, v, mode = robot = seen[:4]
        scenario = self.scenario
        danger = lane in self.on_lane and (self.seen_statics.get((x, lane))
                                           or self.statics_at(x, lane))[0]
        if not danger:
            for cell, on, d in zip(seen[4:], self.lanes, self.dests):
                if danger_from(x, lane, cell, on, cell == d, scenario):
                    danger = True
                    break
        free_lane = None
        if danger and _MODES[mode] in DODGING_MODES:
            visual = scenario.assumptions.visual_radius
            blocked = (self.seen_statics.get((x, lane)) or self.statics_at(x, lane))[2].union(
                [on for cell, on in zip(seen[4:], self.lanes) if blocks_lane(x, cell, visual)])
            free_lane = free_side_lane(lane, blocked, scenario)
        decision = robot + (danger, free_lane)
        move = self.decisions.get(decision)
        if move is None:
            to_x, to_lane, to_v, to_mode = robot_decide(x, lane, v, _MODES[mode], danger,
                                                        free_lane, scenario)
            head = (to_x, to_lane, to_v, _MODE_CODE[to_mode])
            safe = self.safety.setdefault(head, {}) if to_v else None
            move = self.decisions[decision] = (head, safe, head == robot)
        self.moves[seen] = move
        return move

    def is_safe(self, head: tuple, now: tuple) -> bool:
        """Whether the robot ``head``, with speed, is passive safe with
        the movers at ``now``."""
        x, lane = head[0], head[1]
        if lane in self.on_lane and (self.seen_statics.get((x, lane))
                                     or self.statics_at(x, lane))[1]:
            return False
        for cell, on in zip(now, self.lanes):
            if stands_ahead(x, lane, cell, on):
                return False
        return True

    def successor_tails(self, xs: tuple[int, ...], robot_x: int = -1) -> tuple[tuple, int, int]:
        """The successor tails of ``xs``, each vector of the movers' options
        canonicalised in the order of ``enumerate_obstacle_choices``, the
        movers behind ``robot_x`` parked; the lowest x of a mover not yet
        parked; and the pick vectors the tails stand for, the product of
        maxVel over the movers off their destination.  A mover's options
        at x are its distinct successors in pick order, x - 1 down to
        max(x - maxVel, dest), or one, parked, once it dies: its x is
        behind the moved robot.  A lone mover's tails are its option row."""
        rows, lowest, vectors = [], self.scenario.track_length_cells, 1     # above any robot x
        for k, _, tag, d, max_vel, options in self.pickers:
            x = xs[k]
            row = options.get(x)
            if row is None:     # (new x, x) for each distinct new x, in pick order
                row = options[x] = tuple([tag + (to, x)
                                          for to in range(x - 1, max(x - max_vel, d) - 1, -1)])
            rows.append(options[d] if x < robot_x else row)
            if d != x:
                vectors *= max_vel
                if x < lowest:
                    lowest = x
        tails = rows[0] if len(rows) == 1 else tuple(self.canonical(product(*rows)))
        entry = self.tails[xs + (robot_x,)] = tails, lowest, vectors
        return entry


def _search(model: _Model, depth_bound: int | None, state_budget: int) -> tuple:
    """The BFS over ``model``'s keys, one level of ticks at a time.  It keeps
    one search's own: ``parents`` (also the visited set), the (head, xs)
    pairs it expanded, the counters and the cuts, and calls the model only
    on a miss.  Returns the outcome, ``parents`` and the three counters.

    An expansion counts its transitions before it walks anything: its
    pick vectors, less one when its one vector leads back to it (the
    robot stays put and every mover sits at (dest, dest)).  A state's
    successors depend only on its (head, xs) pair, and most expansions
    repeat one (86% on two movers, 95% on three).  A repeat only counts:
    its successors are all in ``parents``, since the search returns at
    the first violation or budget overrun.  ``peak_frontier``
    is the most states a FIFO queue would hold as the next is taken:
    after each finished expansion, the rest of the level plus the next
    level so far (after a level's last, the whole next level; a cut
    expansion adds nothing).
    """
    moves, move, tails = model.moves, model.move, model.tails
    successor_tails, is_safe = model.successor_tails, model.is_safe
    parents: dict = {model.init_key: None}
    expanded = defaultdict(dict)    # head -> {xs: pick vectors}
    settled = sum([(d, d) for d in model.dests], ())   # the tail of a state with no move left
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
            vectors = known.get(xs)
            if vectors is not None:     # every successor is in parents already
                transitions += vectors - (stays and key[4:] == settled)
                continue
            succ_tails, lowest, vectors = tails.get(xs + _UNPARKED) or successor_tails(xs)
            if lowest < head[0]:    # a mover dies: its prev x will be behind the robot
                succ_tails = (tails.get(xs + head[:1]) or successor_tails(xs, head[0]))[0]
            known[xs] = vectors
            transitions += vectors - (stays and key[4:] == settled)
            for succ_tail in succ_tails:
                succ_key = head + succ_tail
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


# ---------------------------------------------------------------------------
# Serialization: verdict summary JSON
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


# ``perfbench/layers.py`` calls these four through this module.  They are
# ``counterexample``'s, loaded on first use, and forwarded until ROADMAP
# item 10 points the benchmark at that module.
_FORWARDED = ("write_trace_jsonl", "trace_from_jsonl", "replay_trace", "state_digest")


def __getattr__(name: str):
    if name in _FORWARDED:
        from . import counterexample
        return getattr(counterexample, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
