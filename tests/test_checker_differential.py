"""``check_safety`` against a plain object-level BFS.

The reference below is the search over whole ``WorldState`` objects:
every choice vector from ``enumerate_obstacle_choices`` goes through
``world_step`` (choices validated, robot stepped per vector) and states
are identified by ``state_key``.  On random small scenarios without
interchangeable movers the checker must return the same verdict:
outcome, statistics apart from wall time, depth bound and an equal
counterexample, which must replay.

Movers with the same lane, destination and maxVel are interchangeable,
and the checker counts states up to their interchange.  There the
oracle works on orbits: the outcome and max depth are the reference's,
a Holds search counts exactly the orbits of the reference's reachable
set, and a counterexample has the reference's length and replays.
"""
import dataclasses
from collections import deque

import pytest
from hypothesis import given, settings
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
    replay_trace,
    world_step,
)
from passivesafe.automata import TransitionLabel
from passivesafe.checker import state_digest, state_key
from passivesafe.scenarios import head_on_scenario


def reference_check(scenario, depth_bound, state_budget):
    """Object-level BFS; returns the verdict, whether the bound cut a
    state, and the ``state_key`` of every state it reached."""
    init = initial_world_state(scenario)
    parents = {state_key(init): None}
    queue = deque([init])
    transitions, peak_frontier, max_depth, cut = 0, 1, 0, False

    def verdict(outcome, counterexample=None):
        stats = ExplorationStats(len(parents), transitions, peak_frontier, max_depth, 0.0)
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
                                         state_digest(world)))
        return Trace(init, tuple(steps))

    while queue:
        peak_frontier = max(peak_frontier, len(queue))
        world = queue.popleft()
        if depth_bound is not None and world.tick >= depth_bound:
            cut = True
            continue
        key = state_key(world)
        for choices in enumerate_obstacle_choices(world, scenario):
            successor = world_step(world, choices, scenario)
            succ_key = state_key(successor)
            if succ_key != key:
                transitions += 1
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
            assumed_obstacle_max_vel=draw(st.sampled_from([1, 2, 3, 1.5])),
            visual_radius=visual,
            buffer=draw(st.sampled_from([1, 2, 4, 0.5])),
            reaction_radius=visual,
        ),
    )


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


def assert_orbit_equivalent(scenario, depth_bound, state_budget):
    """The orbit oracle for a scenario with interchangeable movers."""
    expected, _, reached = reference_check(scenario, depth_bound, 10**6)
    full = check_safety(scenario, depth_bound)
    assert full.outcome is expected.outcome
    assert full.max_depth == expected.max_depth
    assert full.reached_fixpoint == expected.reached_fixpoint
    if full.outcome is Outcome.HOLDS:
        kinds = _kinds(scenario)
        assert full.states_explored == len({orbit_key(key, kinds) for key in reached})
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
    expected, cut, _ = reference_check(scenario, depth_bound, state_budget)
    verdict = check_safety(scenario, depth_bound, state_budget)
    assert verdict == expected
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
        decoy = dataclasses.replace(twins[0], id=others[0].id, **draw(st.sampled_from([
            {"lane": (lane + 1) % scenario.lane_count},
            {"dest_cell": dest + 1},
            {"max_vel": max_vel % 3 + 1},
        ])))
        if decoy.dest_cell <= decoy.start_cell:
            others[0] = decoy
    # Mixed in with the rest, so group members need not sit side by side.
    obstacles = draw(st.permutations(others + statics + twins))
    return dataclasses.replace(scenario, obstacles=tuple(obstacles))


@settings(max_examples=100, deadline=None)
@given(scenario=interchangeable_scenarios(), depth_bound=depth_bounds,
       state_budget=state_budgets)
def test_checker_matches_reference_up_to_interchange(scenario, depth_bound, state_budget):
    assert has_interchangeable_movers(scenario)
    assert_orbit_equivalent(scenario, depth_bound, state_budget)


def _two_movers(**unlike) -> GridScenario:
    """The head-on scenario with a second mover three cells behind the
    first; ``unlike`` sets the second mover's fields apart."""
    scenario = head_on_scenario(obstacle_start=20)
    second = ObstacleSpec(id=7, start_cell=23, lane=1, is_static=False, dest_cell=0, max_vel=3)
    second = dataclasses.replace(second, **unlike)
    return dataclasses.replace(scenario, obstacles=scenario.obstacles + (second,))


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
