"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every tolerance is pinned here; nothing is deferred.
"""
import functools
import json
import time
from dataclasses import replace

from passivesafe import (
    Assumptions,
    CollisionEvent,
    Observation,
    Outcome,
    SimConfig,
    SimOutcome,
    SweepSpec,
    braking_distance_cells,
    check_safety,
    is_passive_safe,
    new_monitor,
    observe,
    replay_trace,
    run_sweep,
    simulate,
    sweep_result_to_csv,
)
from passivesafe.sim import trace_to_jsonl
from helpers import head_on_scenario, random_rollout

SWEEP_VELS = (0.15, 0.2, 0.25, 0.3)
SWEEP_RADII = (0.48, 0.55, 0.62, 0.7, 0.8, 1.0)
RUNS_PER_CELL = 30
SEED_BASE = 0


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL  {title}")
                raise
            print(f"[criterion {number}] PASS  {title}")
        return wrapper
    return decorate


@criterion(1, "checker soundness pair: Holds with covering assumption, "
              "Violated otherwise, violations replay; < 60 s, < 5e6 states")
def test_criterion_1_checker_soundness_pair():
    budget = 5_000_000

    started = time.perf_counter()
    holds = check_safety(head_on_scenario(assumed_obstacle_max_vel=3,
                                          true_obstacle_max_vel=3))
    holds_elapsed = time.perf_counter() - started
    assert holds.outcome is Outcome.HOLDS
    assert holds.states_explored < budget
    assert holds_elapsed < 60.0

    started = time.perf_counter()
    scenario = head_on_scenario(assumed_obstacle_max_vel=2, true_obstacle_max_vel=3)
    violated = check_safety(scenario)
    violated_elapsed = time.perf_counter() - started
    assert violated.outcome is Outcome.VIOLATED
    assert violated.states_explored < budget
    assert violated_elapsed < 60.0

    final = replay_trace(scenario, violated.counterexample)
    assert not is_passive_safe(final)


@criterion(2, "assumption threshold: exactly one Violated->Holds flip at "
              "assumed == 3, cross-validated by 1000-seed rollouts per level")
def test_criterion_2_assumption_threshold_monotonicity():
    verdicts = {}
    for assumed in range(1, 6):
        scenario = head_on_scenario(assumed_obstacle_max_vel=assumed,
                                    true_obstacle_max_vel=3)
        verdict = check_safety(scenario)
        assert verdict.outcome in (Outcome.HOLDS, Outcome.VIOLATED)
        if verdict.outcome is Outcome.VIOLATED:
            # the flaw is reachable well inside the rollout depth bound
            assert len(verdict.counterexample.steps) <= 200
        verdicts[assumed] = verdict.outcome

        hits = sum(
            1 for seed in range(1000)
            if random_rollout(scenario, seed, max_ticks=200) is not None
        )
        if verdict.outcome is Outcome.VIOLATED:
            assert hits >= 1, f"no rollout found the violation at assumed={assumed}"
        else:
            assert hits == 0, f"rollout violated a Holds verdict at assumed={assumed}"

    assert [verdicts[a] for a in range(1, 6)] == [
        Outcome.VIOLATED, Outcome.VIOLATED,
        Outcome.HOLDS, Outcome.HOLDS, Outcome.HOLDS,
    ]


@criterion(3, "braking closed form equals the tick-by-tick oracle for v in 0..20")
def test_criterion_3_braking_oracle():
    for v in range(21):
        cells, speed = 0, v
        while speed > 0:
            cells += speed
            speed -= 1
        assert braking_distance_cells(v) == cells


@criterion(4, "collision sweep shape: zero column at 0.15, zero above the "
              "derived radius, monotone degradation at the smallest radius; < 120 s")
def test_criterion_4_sweep_shape():
    spec = SweepSpec(
        base=SimConfig(),
        obstacle_vel_grid=SWEEP_VELS,
        reaction_radius_grid=SWEEP_RADII,
        runs_per_cell=RUNS_PER_CELL,
        seed_base=SEED_BASE,
    )
    threshold_radius = spec.base.derived_collision_distance()

    started = time.perf_counter()
    result = run_sweep(spec)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0

    cells = {(c.obstacle_vel, c.reaction_radius): c for c in result.cells}

    # (a) slowest obstacle never collides, at any radius
    for radius in SWEEP_RADII:
        assert cells[(0.15, radius)].active_collisions == 0

    # (b) obstacle within the assumption and radius at or above the derived
    # look-ahead distance: the verified-safe region stays clean
    for vel in (0.15, 0.2):
        for radius in SWEEP_RADII:
            if radius >= threshold_radius:
                assert cells[(vel, radius)].active_collisions == 0

    # (c) at the smallest radius the counts degrade monotonically with speed
    smallest = min(SWEEP_RADII)
    counts = [cells[(vel, smallest)].active_collisions for vel in (0.2, 0.25, 0.3)]
    assert counts[0] <= counts[1] <= counts[2]
    assert counts[2] > 0   # degradation is real, not an all-zero plateau


@criterion(5, "monitor latency and gating: feedback on the exact first "
              "exposing observation pair, gated by the reaction radius")
def test_criterion_5_monitor_latency_and_gating():
    dt = 0.1
    step_tick = 15

    def run_stream(start_gap, radius, ticks=150):
        monitor = new_monitor(Assumptions(0.2, 10.0, 0.1, radius))
        x = start_gap
        fired = []
        for tick in range(1, ticks):
            speed = 0.15 if tick < step_tick else 0.30
            x -= speed * dt
            monitor, feedback = observe(
                monitor, Observation(t=tick * dt, robot_x=0.0, robot_v=0.0, obstacle_x=x)
            )
            if feedback is not None:
                fired.append(tick)
        return fired

    # inside the reaction radius: the pair (step_tick - 1, step_tick)
    # exposes the step, so feedback lands exactly on step_tick
    fired = run_stream(start_gap=1.0, radius=1.5)
    assert fired and fired[0] == step_tick

    # outside: same injection, silence until the gap closes to the radius
    start_gap, radius = 4.0, 1.5
    fired = run_stream(start_gap=start_gap, radius=radius)
    gap = start_gap
    first_inside = None
    for tick in range(1, 150):
        gap -= (0.15 if tick < step_tick else 0.30) * dt
        if gap <= radius:
            first_inside = tick
            break
    assert first_inside > step_tick
    assert fired and fired[0] == first_inside


@criterion(6, "byte-identical simulate traces and sweep CSVs, sequential "
              "and concurrent")
def test_criterion_6_determinism():
    config = replace(SimConfig(), obstacle_true_max_vel=0.3,
                     reaction_radius=0.48, seed=2024)
    assert trace_to_jsonl(simulate(config)) == trace_to_jsonl(simulate(config))

    spec = SweepSpec(
        base=SimConfig(),
        obstacle_vel_grid=(0.2, 0.3),
        reaction_radius_grid=(0.48, 0.8),
        runs_per_cell=10,
        seed_base=SEED_BASE,
    )
    sequential = sweep_result_to_csv(run_sweep(spec, workers=1))
    concurrent = sweep_result_to_csv(run_sweep(spec, workers=4))
    assert sequential == concurrent


@criterion(7, "passive-safety guarantee: 500 seeds under a correct "
              "assumption and adequate radius, zero active collisions")
def test_criterion_7_guarantee_under_correct_assumptions():
    base = SimConfig()
    threshold_radius = base.derived_collision_distance()
    config = replace(base, obstacle_true_max_vel=base.assumed_obstacle_max_vel,
                     reaction_radius=threshold_radius)
    assert config.obstacle_true_max_vel <= config.assumed_obstacle_max_vel
    for seed in range(500):
        trace = simulate(replace(config, seed=seed))
        assert trace.outcome is not SimOutcome.ACTIVE_COLLISION
        for event in trace.events:
            if isinstance(event, CollisionEvent):
                assert event.robot_v == 0.0
