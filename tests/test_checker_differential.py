"""``check_safety`` against a plain object-level BFS.

The reference below is the search over whole ``WorldState`` objects:
every choice vector from ``enumerate_obstacle_choices`` goes through
``world_step`` (choices validated, robot stepped per vector) and states
are identified by ``state_key``.  On random small scenarios the checker
must return the same verdict: outcome, statistics apart from wall time,
depth bound and an equal counterexample, which must replay.
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
    """Object-level BFS; returns the verdict and whether the bound cut a state."""
    init = initial_world_state(scenario)
    parents = {state_key(init): None}
    queue = deque([init])
    transitions, peak_frontier, max_depth, cut = 0, 1, 0, False

    def verdict(outcome, counterexample=None):
        stats = ExplorationStats(len(parents), transitions, peak_frontier, max_depth, 0.0)
        return SafetyVerdict(outcome, stats, counterexample, depth_bound), cut

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


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios(),
       depth_bound=st.none() | st.integers(0, 8),
       state_budget=st.integers(1, 40) | st.just(3000))
def test_checker_matches_object_level_bfs(scenario, depth_bound, state_budget):
    expected, cut = reference_check(scenario, depth_bound, state_budget)
    verdict = check_safety(scenario, depth_bound, state_budget)
    assert verdict == expected
    assert verdict.reached_fixpoint == (expected.outcome is Outcome.HOLDS and not cut)
    if verdict.counterexample is not None:
        final = replay_trace(scenario, verdict.counterexample)
        assert not is_passive_safe(final)


def _two_movers() -> GridScenario:
    scenario = head_on_scenario(obstacle_start=20)
    second = ObstacleSpec(id=7, start_cell=23, lane=1, is_static=False, dest_cell=0, max_vel=3)
    return dataclasses.replace(scenario, obstacles=scenario.obstacles + (second,))


@pytest.mark.parametrize("scenario", [
    head_on_scenario(assumed_obstacle_max_vel=3),
    head_on_scenario(assumed_obstacle_max_vel=2),
    _two_movers(),
], ids=["head-on", "under-assumption", "two-movers"])
def test_checker_matches_object_level_bfs_on_head_on_scenarios(scenario):
    expected, _ = reference_check(scenario, None, 10**6)
    assert check_safety(scenario) == expected
