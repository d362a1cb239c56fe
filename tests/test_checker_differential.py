"""``check_safety`` against a plain object-level BFS.

The reference below is the search over whole ``WorldState`` objects:
every choice vector from ``enumerate_obstacle_choices`` goes through
``world_step`` (choices validated, robot stepped per vector) and states
are identified by a key function, ``state_key`` unless told otherwise.

The checker parks every obstacle that stands wholly behind the robot
(``parked_key``): no guard or predicate reads it again.  Keyed by
``parked_key``, the reference must return the checker's verdict on
random small scenarios without interchangeable movers: outcome, states,
peak frontier, max depth, depth bound and an equal counterexample, which
must replay.  Only ``transitions`` may be lower in the checker, since a
parked mover has one pick where the reference still tries them all.  A
Holds search also counts exactly the image of the unreduced reachable
set under parking.

Movers with the same lane, destination and maxVel are interchangeable,
and the checker counts states up to their interchange.  There the
oracle works on orbits: the outcome and max depth are the parked
reference's, a Holds search counts exactly the image of the unreduced
reachable set under parking and then sorting, and a counterexample has
the reference's length and replays.

``reference_check_safety`` is the checker's own keyed search as it was
before repeated expansions were counted instead of walked and the
search ran level by level.  Against it the verdict must be equal in
full, ``transitions`` and ``peak_frontier`` included.

Both references count an expanded state's transitions from their own
enumeration, one per pick vector whose successor differs from the
state, before they walk any successor: so a search cut inside an
expansion has counted every vector of the state it stopped in.
"""
import json
from collections import deque
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from passivesafe import (
    Assumptions,
    ExplorationStats,
    GridScenario,
    ObstacleSpec,
    Outcome,
    SafetyVerdict,
    Trace,
    check_safety,
    enumerate_obstacle_choices,
    initial_world_state,
    is_passive_safe,
    load_scenario,
    replay_trace,
    world_step,
)
from passivesafe import automata, checker
from passivesafe.automata import ObstacleChoice, robot_step
from passivesafe.checker import _MODES, _mover_groups, _robot_key, state_key
from passivesafe.counterexample import (TransitionLabel, state_digest, trace_from_jsonl,
                                        trace_to_jsonl)
from passivesafe.model import DEFAULT_STATE_BUDGET, ObstacleSnapshot, RobotSnapshot, WorldState
from helpers import (head_on_scenario, reference_state_digest, reference_trace_jsonl,
                     serialize_scenario, world_to_dict)


def parked_key(key):
    """``state_key`` with every obstacle whose x and prev x are both
    behind the robot parked on its destination as a static obstacle."""
    robot, obstacles, prev_obstacles = key
    parked = [
        (o, p) if max(o.x, p.x) >= robot.x
        else 2 * (o._replace(x=o.dest_cell, is_static=True),)
        for o, p in zip(obstacles, prev_obstacles, strict=True)
    ]
    return robot, tuple(o for o, _ in parked), tuple(p for _, p in parked)


def reference_check(scenario, depth_bound, state_budget, key_of=lambda key: key):
    """Object-level BFS over states identified by ``key_of(state_key)``;
    returns the verdict, whether the bound cut a state, and the key of
    every state it reached."""
    init = initial_world_state(scenario)
    parents = {key_of(state_key(init)): None}
    queue = deque([init])
    transitions, peak_frontier, max_depth, cut = 0, 1, 0, False

    def verdict(outcome, counterexample=None):
        stats = ExplorationStats(len(parents), transitions, peak_frontier, max_depth)
        return SafetyVerdict(outcome, stats, counterexample, depth_bound), cut, parents.keys()

    def trace_to(key):
        path = []
        while parents[key] is not None:
            key, choices = parents[key]
            path.append(choices)
        world, steps = init, []
        for choices in reversed(path):
            before = world.robot.mode
            world = world_step(world, choices, scenario)
            steps.append(TransitionLabel(world.tick, before, world.robot.mode, choices,
                                         reference_state_digest(world), world.robot,
                                         world.obstacles))
        return Trace(init, tuple(steps))

    while queue:
        peak_frontier = max(peak_frontier, len(queue))
        world = queue.popleft()
        if depth_bound is not None and world.tick >= depth_bound:
            cut = True
            continue
        key = key_of(state_key(world))
        steps = [(choices, world_step(world, choices, scenario))
                 for choices in enumerate_obstacle_choices(world, scenario)]
        transitions += sum(key_of(state_key(successor)) != key for _, successor in steps)
        for choices, successor in steps:
            succ_key = key_of(state_key(successor))
            if succ_key in parents:
                continue
            parents[succ_key] = (key, choices)
            max_depth = max(max_depth, successor.tick)
            if not is_passive_safe(successor):
                return verdict(Outcome.VIOLATED, trace_to(succ_key))
            if len(parents) > state_budget:
                return verdict(Outcome.INCONCLUSIVE)
            queue.append(successor)
    return verdict(Outcome.HOLDS)


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
            state_hash=reference_state_digest(world),
            robot=world.robot,
            obstacles=world.obstacles,
        ))
    return Trace(initial=initial, steps=tuple(steps))


def reference_check_safety(scenario, depth_bound=None, state_budget=DEFAULT_STATE_BUDGET):
    """``check_safety``'s search before it recorded expansions: one queue
    of (key, tick) pairs, and every successor of every state walked.

    The object-level reference above lets the checker's transitions be
    lower; this copy pins every field of the verdict, so a repeated
    expansion that is counted wrong, or a peak frontier taken at the
    wrong moment, shows here."""
    scenario.validate()
    init = initial_world_state(scenario)
    movers = [(i, obs) for i, obs in enumerate(init.obstacles) if not obs.is_static]
    n = len(movers)
    dests = tuple(obs.dest_cell for _, obs in movers)
    xs0 = tuple(obs.x for _, obs in movers)
    group_of = _mover_groups({o.id: o for o in scenario.obstacles}, [obs for _, obs in movers])
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
                if tail(new_xs, xs, key[0]) == key[4:]:
                    break
            path.append(tuple(v for (v, _), x, d in zip(choice, xs, dests) if x != d))
            xs = new_xs
        return path

    def world_at(key: tuple, tick: int) -> WorldState:
        robot = RobotSnapshot(key[0], key[1], key[2], _MODES[key[3]])
        return WorldState(tick, robot, obstacles_at(key[4:4 + n]), obstacles_at(key[4 + n:]))

    init_key = _robot_key(init.robot) + tail(xs0, xs0, init.robot.x)
    parents: dict = {init_key: None}     # doubles as the visited set
    queue = deque([(init_key, 0)])
    moved_robot: dict = {}      # key[:4] + prev xs -> robot key after robot_step
    safe: dict = {}             # key[:4] + xs -> is_passive_safe
    tails: dict = {}            # xs -> (successor tails in pick order, lowest unparked x)
    parked: dict = {}           # xs + (robot x,) -> successor tails with dead movers parked
    no_mover = scenario.track_length_cells      # above every robot x
    transitions = 0
    peak_frontier = 1
    max_depth = 0

    def verdict(outcome: Outcome, counterexample: Trace | None = None) -> SafetyVerdict:
        stats = ExplorationStats(len(parents), transitions, peak_frontier, max_depth)
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
        tick += 1
        transitions += sum(head + succ_tail != key for succ_tail in succ_tails)
        for succ_tail in succ_tails:
            succ_key = head + succ_tail
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


@st.composite
def scenarios(draw):
    lanes = draw(st.integers(1, 3))
    # Robot near the start, destination near the end: most draws drive a while.
    track = draw(st.sampled_from([20, 12, 7, 5]))
    dest = track - 1 - draw(st.integers(0, 2))
    n_movers = draw(st.sampled_from([2, 1, 0]))
    n_static = draw(st.sampled_from([0, 1, 2, 3]))
    ids = draw(st.lists(st.integers(0, 50), min_size=n_movers + n_static,
                        max_size=n_movers + n_static, unique=True))
    obstacles = []
    for obstacle_id in ids[:n_movers]:
        start = track - 1 - draw(st.integers(0, track - 1))
        on_dest = draw(st.integers(0, 3)) == 0
        obstacles.append(ObstacleSpec(
            id=obstacle_id, start_cell=start, lane=draw(st.integers(0, lanes - 1)),
            is_static=False,
            dest_cell=start if on_dest else draw(st.integers(0, start)),
            max_vel=draw(st.sampled_from([3, 2, 1])),
        ))
    for obstacle_id in ids[n_movers:]:
        obstacles.append(ObstacleSpec(
            id=obstacle_id, start_cell=track - 1 - draw(st.integers(0, track - 1)),
            lane=draw(st.integers(0, lanes - 1)), is_static=True,
        ))
    visual = draw(st.integers(1, 24))
    return GridScenario(
        track_length_cells=track,
        lane_count=lanes,
        robot_start_cell=min(draw(st.integers(0, 2)), dest - 1),
        robot_start_lane=draw(st.integers(0, lanes - 1)),
        robot_max_vel=draw(st.sampled_from([3, 2, 1])),
        robot_dest_cell=dest,
        obstacles=tuple(draw(st.permutations(obstacles))),
        assumptions=Assumptions(
            # 2.3 and 1.1 are not dyadic: the moving danger rule's sum rounds.
            assumed_obstacle_max_vel=draw(st.sampled_from([1, 2, 3, 1.5, 2.3])),
            visual_radius=visual,
            buffer=draw(st.sampled_from([1, 2, 4, 0.5, 1.1])),
            reaction_radius=visual,
        ),
    )


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios())
def test_scenario_round_trip(scenario):
    assert load_scenario(serialize_scenario(scenario)) == scenario


def _kinds(scenario):
    """Obstacle id -> (lane, dest, maxVel) for every obstacle that moves at tick 0."""
    return {o.id: (o.lane, o.dest_cell, o.max_vel) for o in scenario.obstacles
            if not o.is_static and o.start_cell != o.dest_cell}


def has_interchangeable_movers(scenario):
    kinds = list(_kinds(scenario).values())
    return len(set(kinds)) < len(kinds)


def orbit_key(key, kinds):
    """``state_key`` with the movers' ids forgotten: the robot plus the
    sorted (kind, x, prev x) triples of the movers."""
    robot, obstacles, prev_obstacles = key
    return robot, tuple(sorted(
        (kinds[o.id], o.x, p.x)
        for o, p in zip(obstacles, prev_obstacles, strict=True) if o.id in kinds
    ))


def assert_counts_image(verdict, scenario, depth_bound, canonical):
    """A Holds search counts exactly the image of the unreduced
    reachable set (within the depth bound) under ``canonical``."""
    if verdict.outcome is Outcome.HOLDS:
        _, _, reached = reference_check(scenario, depth_bound, 10**6)
        assert verdict.states_explored == len({canonical(key) for key in reached})


def assert_orbit_equivalent(scenario, depth_bound, state_budget):
    """The orbit oracle for a scenario with interchangeable movers."""
    expected, _, _ = reference_check(scenario, depth_bound, 10**6, parked_key)
    full = check_safety(scenario, depth_bound)
    assert full.outcome is expected.outcome
    assert full.max_depth == expected.max_depth
    assert full.reached_fixpoint == expected.reached_fixpoint
    kinds = _kinds(scenario)
    assert_counts_image(full, scenario, depth_bound, lambda key: orbit_key(parked_key(key), kinds))
    if full.counterexample is not None:
        assert len(full.counterexample.steps) == len(expected.counterexample.steps)
        assert not is_passive_safe(replay_trace(scenario, full.counterexample))
    budgeted = check_safety(scenario, depth_bound, state_budget)
    if budgeted.outcome is Outcome.INCONCLUSIVE:
        assert budgeted.states_explored == state_budget + 1 <= full.states_explored
    else:
        assert budgeted == full


def assert_matches_reference(scenario, depth_bound, state_budget):
    if has_interchangeable_movers(scenario):
        assert_orbit_equivalent(scenario, depth_bound, state_budget)
        return
    expected, cut, _ = reference_check(scenario, depth_bound, state_budget, parked_key)
    verdict = check_safety(scenario, depth_bound, state_budget)
    # Parked movers have one pick, so transitions alone may drop.
    assert verdict.stats.transitions <= expected.stats.transitions
    assert verdict == expected._replace(
        stats=expected.stats._replace(transitions=verdict.stats.transitions))
    assert_counts_image(verdict, scenario, depth_bound, parked_key)
    assert verdict.reached_fixpoint == (expected.outcome is Outcome.HOLDS and not cut)
    if verdict.counterexample is not None:
        final = replay_trace(scenario, verdict.counterexample)
        assert not is_passive_safe(final)


depth_bounds = st.none() | st.integers(0, 8)
state_budgets = st.integers(1, 40) | st.just(3000)


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios(), depth_bound=depth_bounds, state_budget=state_budgets)
def test_checker_matches_object_level_bfs(scenario, depth_bound, state_budget):
    assert_matches_reference(scenario, depth_bound, state_budget)


def _cex_length(verdict):
    return None if verdict.counterexample is None else len(verdict.counterexample.steps)


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios(), data=st.data())
def test_verdict_ignores_obstacles_behind_the_robot_and_obstacle_order(scenario, data):
    """Metamorphic: an obstacle added wholly behind the robot start (a
    static one, or a mover, which can only fall further behind) and a
    permuted obstacle order change neither the outcome nor the
    counterexample length, in the checker or in the unreduced reference."""
    base = check_safety(scenario)
    variants = [scenario._replace(obstacles=tuple(data.draw(st.permutations(scenario.obstacles))))]
    if scenario.robot_start_cell > 0:
        cell = data.draw(st.integers(0, scenario.robot_start_cell - 1))
        behind = ObstacleSpec(id=51, start_cell=cell,    # scenarios() draws ids up to 50
                              lane=data.draw(st.integers(0, scenario.lane_count - 1)),
                              is_static=True)
        if data.draw(st.booleans()):
            behind = behind._replace(is_static=False,
                                     dest_cell=data.draw(st.integers(0, cell)),
                                     max_vel=data.draw(st.sampled_from([3, 2, 1])))
        obstacles = list(scenario.obstacles)
        obstacles.insert(data.draw(st.integers(0, len(obstacles))), behind)
        variants.append(scenario._replace(obstacles=tuple(obstacles)))
        reference, _, _ = reference_check(variants[-1], None, 10**6)
        assert reference.outcome is base.outcome
        assert _cex_length(reference) == _cex_length(base)
    for variant in variants:
        verdict = check_safety(variant)
        assert verdict.outcome is base.outcome
        assert _cex_length(verdict) == _cex_length(base)


@st.composite
def interchangeable_scenarios(draw):
    """A random scenario with two or three movers of one kind (lane,
    destination, maxVel) added; other movers are dropped so that at most
    three move, and only two on the longest track, to keep the reference
    cheap."""
    scenario = draw(scenarios())
    track = scenario.track_length_cells
    room = 2 if track > 12 else 3
    n_twins = draw(st.integers(2, room))
    others = [o for o in scenario.obstacles if not o.is_static][:room - n_twins]
    statics = [o for o in scenario.obstacles if o.is_static]
    ids = draw(st.lists(st.integers(51, 99),    # scenarios() draws ids up to 50
                        min_size=n_twins, max_size=n_twins, unique=True))
    dest = draw(st.integers(0, track - 2))
    lane = draw(st.integers(0, scenario.lane_count - 1))
    max_vel = draw(st.sampled_from([3, 2, 1]))
    # Starts at most two cells apart, so the twins can overtake each other.
    first = draw(st.integers(dest + 1, track - 1))
    twins = [
        ObstacleSpec(id=i, start_cell=min(first + draw(st.integers(0, 2)), track - 1),
                     lane=lane, is_static=False, dest_cell=dest, max_vel=max_vel)
        for i in ids
    ]
    if others and draw(st.booleans()):
        # A decoy: a mover like the twins but for one of lane, dest or maxVel.
        decoy = twins[0]._replace(id=others[0].id, **draw(st.sampled_from([
            {"lane": (lane + 1) % scenario.lane_count},
            {"dest_cell": dest + 1},
            {"max_vel": max_vel % 3 + 1},
        ])))
        if decoy.dest_cell <= decoy.start_cell:
            others[0] = decoy
    # Mixed in with the rest, so group members need not sit side by side.
    obstacles = draw(st.permutations(others + statics + twins))
    return scenario._replace(obstacles=tuple(obstacles))


@settings(max_examples=100, deadline=None)
@given(scenario=interchangeable_scenarios(), depth_bound=depth_bounds,
       state_budget=state_budgets)
def test_checker_matches_reference_up_to_interchange(scenario, depth_bound, state_budget):
    assert has_interchangeable_movers(scenario)
    assert_orbit_equivalent(scenario, depth_bound, state_budget)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(scenario=scenarios() | interchangeable_scenarios())
def test_checker_matches_parked_reference_on_many_draws(scenario):
    """A larger derandomized run of the reference comparison, unbounded:
    deselected by default, run with ``pytest -m slow``."""
    assert_matches_reference(scenario, None, 10**6)


def assert_matches_walked_search(scenario):
    """Equal verdicts in full (outcome, counterexample, depth bound and
    all four statistics) with the copied search: unbounded, at depth
    bounds 0-3 and at state budgets 1-50."""
    runs = [{}] + [{"depth_bound": d} for d in range(4)] + \
        [{"state_budget": b} for b in range(1, 51)]
    for run in runs:
        assert check_safety(scenario, **run) == reference_check_safety(scenario, **run), run


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios() | interchangeable_scenarios())
def test_checker_matches_walked_search(scenario):
    assert_matches_walked_search(scenario)


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios() | interchangeable_scenarios(), data=st.data())
def test_state_digest_matches_the_reference_json(scenario, data):
    """``state_digest`` hashes the bytes of one ``json.dumps`` of the
    state: on every state of a random walk, on the same state read back
    by ``trace_from_jsonl``, and in ``replay_trace``, whose digests keep
    their obstacle fragments from one state of the walk to the next."""
    world = initial_world_state(scenario)
    steps = []
    for _ in range(data.draw(st.integers(0, 12))):
        choices = data.draw(st.sampled_from(enumerate_obstacle_choices(world, scenario)))
        before = world.robot.mode
        world = world_step(world, choices, scenario)
        loaded = trace_from_jsonl(json.dumps({"type": "initial", **world_to_dict(world)})).initial
        assert loaded == world
        expected = reference_state_digest(world)
        assert state_digest(world) == state_digest(loaded) == expected
        steps.append(TransitionLabel(world.tick, before, world.robot.mode, choices, expected,
                                     world.robot, world.obstacles))
    assert replay_trace(scenario, Trace(initial_world_state(scenario), tuple(steps))) == world


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios() | interchangeable_scenarios(), data=st.data())
def test_trace_jsonl_matches_the_reference_json(scenario, data):
    """``trace_to_jsonl`` writes the bytes of one ``json.dumps`` per line,
    on a random walk whose obstacle fragments recur from line to line, and
    on the check's own counterexample."""
    world = initial_world_state(scenario)
    steps = []
    for _ in range(data.draw(st.integers(0, 12))):
        choices = data.draw(st.sampled_from(enumerate_obstacle_choices(world, scenario)))
        before = world.robot.mode
        world = world_step(world, choices, scenario)
        steps.append(TransitionLabel(world.tick, before, world.robot.mode, choices,
                                     data.draw(st.sampled_from(["", state_digest(world)])),
                                     world.robot, world.obstacles))
    traces = [Trace(initial_world_state(scenario), tuple(steps))]
    traces += [t for t in [check_safety(scenario).counterexample] if t is not None]
    for trace in traces:
        assert trace_to_jsonl(trace) == reference_trace_jsonl(trace, scenario)


def _two_movers(**unlike) -> GridScenario:
    """The head-on scenario with a second mover three cells behind the
    first; ``unlike`` sets the second mover's fields apart."""
    scenario = head_on_scenario(obstacle_start=20)
    second = ObstacleSpec(id=7, start_cell=23, lane=1, is_static=False, dest_cell=0, max_vel=3)
    second = second._replace(**unlike)
    return scenario._replace(obstacles=scenario.obstacles + (second,))


@pytest.mark.parametrize("scenario", [
    head_on_scenario(assumed_obstacle_max_vel=3),
    head_on_scenario(assumed_obstacle_max_vel=2),
    _two_movers(),
    _two_movers(max_vel=2),
    _two_movers(dest_cell=1),
    _two_movers(lane=0),
], ids=["head-on", "under-assumption", "two-movers", "two-movers-unlike-maxvel",
        "two-movers-unlike-dest", "two-movers-unlike-lane"])
def test_checker_matches_object_level_bfs_on_head_on_scenarios(scenario):
    assert_matches_reference(scenario, None, 10**6)
    assert_matches_walked_search(scenario)


def _dodge(side=None) -> GridScenario:
    """A 30-cell, two-lane track: the robot starts in lane 1 and meets a
    head-on mover there, brakes, and on the next tick in danger dodges to
    lane 0 if its delayed view shows no obstacle there from its cell up
    to the visual radius (12 cells) ahead.  ``side`` is the (start,
    maxVel) of a mover in lane 0, also bound for cell 0."""
    movers = [(24, 1, 2)] + ([(side[0], 0, side[1])] if side else [])
    return GridScenario(
        track_length_cells=30, lane_count=2, robot_start_cell=0, robot_start_lane=1,
        robot_max_vel=2, robot_dest_cell=29,
        obstacles=tuple(ObstacleSpec(id=k, start_cell=start, lane=lane, is_static=False,
                                     dest_cell=0, max_vel=max_vel)
                        for k, (start, lane, max_vel) in enumerate(movers)),
        assumptions=Assumptions(assumed_obstacle_max_vel=2, visual_radius=12, buffer=4),
    )


@pytest.mark.parametrize("side, dodge", [
    (None, (0, ())),
    ((20, 1), (None, (5,))),
    ((24, 1), (None, (12,))),
    ((25, 1), (0, (13,))),
], ids=["free-side-lane", "mover-inside-radius", "mover-at-radius-edge",
        "mover-past-radius-edge"])
def test_checker_matches_walked_search_on_dodges(side, dodge, monkeypatch):
    """The search reaches the named dodge, recorded as the side lane the
    robot takes (None: it brakes) and the distances ahead of the robot of
    the obstacles on other lanes it sees.  A mover at exactly the visual
    radius blocks the lane; one cell further on it does not.

    The search decides on key ints, so it is watched through the calls
    it makes to ``robot_decide``: a call under danger in a mode of
    ``DODGING_MODES`` is a dodge, and its dodges, as (robot, free lane),
    are those of the parked object-level reference, which also records
    what the robot saw on each.  The verdict is then equal in full to
    both references'."""
    scenario = _dodge(side)

    def dodges_of(decide, dodges):
        def spy(x, lane, v, mode, danger, free_lane, scenario):
            if danger and mode in automata.DODGING_MODES:
                dodges.add((x, lane, v, mode, free_lane))
            return decide(x, lane, v, mode, danger, free_lane, scenario)
        return spy

    searched, referenced, views = set(), set(), set()
    monkeypatch.setattr(checker, "robot_decide", dodges_of(checker.robot_decide, searched))
    assert check_safety(scenario).outcome is Outcome.HOLDS
    plain = automata.lane_change_possible_at

    def view(x, lane, seen, scenario):
        free_lane = plain(x, lane, seen, scenario)
        views.add((x, lane, free_lane,
                   tuple(sorted(o.x - x for o in seen if o.lane != lane and o.x >= x))))
        return free_lane

    monkeypatch.setattr(automata, "robot_decide", dodges_of(automata.robot_decide, referenced))
    monkeypatch.setattr(automata, "lane_change_possible_at", view)
    reference_check(scenario, None, 10**6, parked_key)
    assert searched == referenced
    assert any((f, distances) == dodge and (x, lane, f) == (d[0], d[1], d[4])
               for x, lane, f, distances in views for d in searched), views
    monkeypatch.undo()
    assert_matches_reference(scenario, None, 10**6)
    assert_matches_walked_search(scenario)


def _interleaved(movers, base=None) -> GridScenario:
    """``base`` (by default a 16-cell, two-lane track) with movers given in
    scenario order as (start, lane, maxVel), all bound for cell 0."""
    base = base or GridScenario(
        track_length_cells=16, lane_count=2, robot_start_cell=0, robot_start_lane=0,
        robot_max_vel=2, robot_dest_cell=15, obstacles=(),
        assumptions=Assumptions(assumed_obstacle_max_vel=2, visual_radius=8, buffer=2,
                                reaction_radius=8),
    )
    return base._replace(obstacles=tuple(
        ObstacleSpec(id=10 + k, start_cell=start, lane=lane, is_static=False, dest_cell=0,
                     max_vel=max_vel)
        for k, (start, lane, max_vel) in enumerate(movers)
    ) + tuple(o for o in base.obstacles if o.is_static))


@pytest.mark.parametrize("scenario, outcome", [
    (_interleaved([(9, 0, 2), (11, 0, 1), (12, 0, 2)]), Outcome.HOLDS),
    (_interleaved([(6, 0, 2), (7, 1, 2), (8, 0, 2), (9, 1, 2)]), Outcome.HOLDS),
    (_interleaved([(24, 1, 3), (25, 1, 2), (26, 1, 3)], head_on_scenario(assumed_obstacle_max_vel=2)),
     Outcome.VIOLATED),
], ids=["kinds-A-B-A", "kinds-A-B-A-B-in-two-lanes", "kinds-A-B-A-violated"])
def test_interleaved_groups_match_walked_search(scenario, outcome):
    """Movers of one kind alternate with another kind in scenario order,
    so the checker's key lists them in another order than its picks:
    a wrong permutation back to pick order changes the search order.
    Equal in full at the end of the search, at every depth bound up to
    it and at state budgets that cut across its widest level."""
    full = check_safety(scenario)
    assert full.outcome is outcome
    assert full == reference_check_safety(scenario)
    bounded = [check_safety(scenario, d) for d in range(full.max_depth + 1)]
    for d, verdict in enumerate(bounded):
        assert verdict == reference_check_safety(scenario, d), d
    sizes = [v.states_explored for v in bounded] + [full.states_explored]
    low, high = max(zip(sizes, sizes[1:]), key=lambda level: level[1] - level[0])
    for budget in range(low, high, max(1, (high - low) // 8)):
        verdict = check_safety(scenario, state_budget=budget)
        assert verdict == reference_check_safety(scenario, state_budget=budget), budget



@settings(max_examples=100, deadline=None)
@given(scenario=scenarios())
def test_holds_survives_a_larger_assumed_bound_or_buffer(scenario):
    """Metamorphic: a Holds verdict stays Holds when the assumed obstacle
    bound rises by 1 and when the buffer rises by 1."""
    assumptions = scenario.assumptions
    if check_safety(scenario).outcome is not Outcome.HOLDS:
        return
    for change in ({"assumed_obstacle_max_vel": assumptions.assumed_obstacle_max_vel + 1},
                   {"buffer": assumptions.buffer + 1}):
        variant = scenario._replace(assumptions=assumptions._replace(**change))
        assert check_safety(variant).outcome is Outcome.HOLDS, change


# One lane; the mover starts on its destination, so it is static from tick
# 0.  The robot reaches cell 15 at speed 2 with the obstacle on cell 17.
TUNNEL = GridScenario(
    track_length_cells=20, lane_count=1, robot_start_cell=0, robot_start_lane=0,
    robot_max_vel=2, robot_dest_cell=19,
    obstacles=(ObstacleSpec(id=0, start_cell=17, lane=0, is_static=False, dest_cell=17,
                            max_vel=3),),
    assumptions=Assumptions(assumed_obstacle_max_vel=1, visual_radius=1, buffer=1),
)


def test_robot_at_speed_moves_onto_a_static_obstacle_unflagged():
    """Finding, pinned.  With visual radius 1 the robot on cell 15 does not
    see the obstacle two cells ahead and moves onto its cell at speed 2.
    ``is_passive_safe`` looks only at the cell directly ahead, so no state
    is unsafe and the check says Holds.  With visual radius 2 the robot
    brakes onto cell 16 and the check says Violated."""
    world = initial_world_state(TUNNEL)
    while world.robot.x < 17:
        world = world_step(world, next(iter(enumerate_obstacle_choices(world, TUNNEL))), TUNNEL)
        assert is_passive_safe(world)
    assert (world.robot.x, world.robot.v, world.obstacles[0].x) == (17, 2, 17)
    assert check_safety(TUNNEL).outcome is Outcome.HOLDS
    seeing = TUNNEL._replace(assumptions=Assumptions(1, 2, 1))
    assert check_safety(seeing).outcome is Outcome.VIOLATED


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="fails on TUNNEL: see "
                   "test_robot_at_speed_moves_onto_a_static_obstacle_unflagged")
@settings(max_examples=100, deadline=None)
@example(scenario=TUNNEL, wider=1)
@given(scenario=scenarios(), wider=st.integers(1, 10))
def test_holds_survives_a_larger_visual_radius(scenario, wider):
    """Metamorphic: a Holds verdict stays Holds when the visual radius rises."""
    if check_safety(scenario).outcome is not Outcome.HOLDS:
        return
    assumptions = scenario.assumptions._replace(
        visual_radius=scenario.assumptions.visual_radius + wider)
    assert check_safety(scenario._replace(assumptions=assumptions)).outcome \
        is Outcome.HOLDS


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios(), data=st.data())
def test_verdict_ignores_lane_mirroring_and_obstacle_ids(scenario, data):
    """Metamorphic: mirroring every lane (``lane -> laneCount-1-lane``,
    the robot's included) and relabelling the obstacle ids change neither
    the outcome nor the counterexample length."""
    base = check_safety(scenario)
    top = scenario.lane_count - 1
    mirrored = scenario._replace(
        robot_start_lane=top - scenario.robot_start_lane,
        obstacles=tuple(o._replace(lane=top - o.lane) for o in scenario.obstacles))
    ids = data.draw(st.lists(st.integers(0, 99), min_size=len(scenario.obstacles),
                             max_size=len(scenario.obstacles), unique=True))
    relabelled = scenario._replace(obstacles=tuple(
        o._replace(id=i) for o, i in zip(scenario.obstacles, ids, strict=True)))
    for variant in (mirrored, relabelled):
        verdict = check_safety(variant)
        assert verdict.outcome is base.outcome
        assert _cex_length(verdict) == _cex_length(base)
