"""Assumption monitor: estimation, gating, latency, latching."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passivesafe import (
    Assumptions,
    Observation,
    ObservationOrderError,
    estimate_obstacle_velocity,
    new_monitor,
    observe,
    observe_at,
)


def obs(t, obstacle_x, robot_x=0.0, robot_v=0.0):
    return Observation(t=t, robot_x=robot_x, robot_v=robot_v, obstacle_x=obstacle_x)


def test_stationary_obstacle_estimates_zero():
    assert estimate_obstacle_velocity(obs(0.0, 5.0), obs(0.1, 5.0)) == 0.0


def test_approach_estimate_arithmetic():
    assert estimate_obstacle_velocity(obs(0.0, 5.0), obs(0.1, 4.97)) == pytest.approx(0.3)


def test_receding_obstacle_estimates_negative():
    assert estimate_obstacle_velocity(obs(0.0, 5.0), obs(0.1, 5.02)) == pytest.approx(-0.2)


def test_zero_time_delta_rejected():
    with pytest.raises(ObservationOrderError):
        estimate_obstacle_velocity(obs(0.5, 5.0), obs(0.5, 4.9))


def test_out_of_order_observation_rejected():
    monitor = new_monitor(Assumptions(0.2, 2.0, 0.1, 1.5))
    monitor, _ = observe(monitor, obs(0.2, 5.0))
    with pytest.raises(ObservationOrderError):
        observe(monitor, obs(0.1, 4.9))



def test_rejected_observation_leaves_monitor_unchanged():
    monitor = new_monitor(Assumptions(0.2, 2.0, 0.1, 1.5))
    assert observe_at(monitor, 0.2, 0.0, 1.0) is None
    with pytest.raises(ObservationOrderError, match="0.2 -> 0.2"):
        observe_at(monitor, 0.2, 0.0, 0.9)
    feedback = observe_at(monitor, 0.3, 0.0, 0.96)   # estimated against t=0.2, x=1.0
    assert feedback.estimated_obstacle_vel == pytest.approx(0.4)
    assert monitor.violation_latched


def test_trip_rule_boundaries():
    """An estimate exactly at the bound does not trip; gaps of exactly 0
    and exactly the reaction radius are inside the reaction area."""
    assumptions = Assumptions(0.5, 2.0, 0.1, 1.5)
    at_bound = new_monitor(assumptions, tolerance=0.0)
    observe_at(at_bound, 0.5, 0.0, 1.25)
    assert observe_at(at_bound, 1.0, 0.0, 1.0) is None     # estimate 0.5
    for robot_x in (1.0, -0.5):                               # gap 0, gap 1.5
        monitor = new_monitor(assumptions, tolerance=0.0)
        observe_at(monitor, 0.5, robot_x, 1.5)
        assert observe_at(monitor, 1.0, robot_x, 1.0) is not None   # estimate 1.0

def test_first_observation_never_fires():
    monitor = new_monitor(Assumptions(0.2, 2.0, 0.1, 1.5))
    monitor, feedback = observe(monitor, obs(0.1, 1.0))
    assert feedback is None
    assert not monitor.violation_latched


def test_fast_obstacle_inside_reaction_area_fires():
    monitor = new_monitor(Assumptions(0.2, 2.0, 0.1, 1.5))
    monitor, _ = observe(monitor, obs(0.1, 1.0))
    monitor, feedback = observe(monitor, obs(0.2, 0.97))
    assert feedback is not None
    assert feedback.estimated_obstacle_vel == pytest.approx(0.3)
    assert feedback.assumed_max == 0.2
    assert monitor.violation_latched
    assert feedback.kind == "assumption_violated"


def test_fast_obstacle_outside_reaction_area_waits():
    monitor = new_monitor(Assumptions(0.2, 5.0, 0.1, 1.5))
    monitor, _ = observe(monitor, obs(0.1, 3.0))
    monitor, feedback = observe(monitor, obs(0.2, 2.97))
    assert feedback is None   # estimate 0.3 but gap 2.97 > radius
    assert not monitor.violation_latched


def test_feedback_on_first_exposing_pair_after_speed_step():
    """Speed steps from 0.15 to 0.3 on the move into tick 21; the pair
    (tick 20, tick 21) exposes it, so feedback lands exactly at tick 21."""
    monitor = new_monitor(Assumptions(0.2, 2.0, 0.1, 1.5))
    x = 1.8
    fired_at = None
    for tick in range(1, 40):
        speed = 0.15 if tick <= 20 else 0.30
        x -= speed * 0.1
        monitor, feedback = observe(monitor, obs(round(tick * 0.1, 3), x))
        if feedback is not None:
            fired_at = tick
            break
    assert fired_at == 21


def test_gated_step_fires_when_gap_reaches_radius():
    """Same speed step but far away: no feedback until the obstacle has
    closed to the reaction radius, then it fires immediately."""
    monitor = new_monitor(Assumptions(0.2, 10.0, 0.1, 1.5))
    x = 3.0
    fired_at = None
    for tick in range(1, 100):
        x -= 0.03              # 0.3 m/s from the start
        monitor, feedback = observe(monitor, obs(round(tick * 0.1, 3), x))
        if feedback is not None:
            fired_at = tick
            break
    # first tick whose accumulated position is inside the radius
    x2, expected = 3.0, None
    for tick in range(1, 100):
        x2 -= 0.03
        if x2 <= 1.5:
            expected = tick
            break
    assert fired_at == expected


def test_obstacle_behind_never_fires():
    monitor = new_monitor(Assumptions(0.2, 2.0, 0.1, 1.5))
    monitor, _ = observe(monitor, obs(0.1, -0.5, robot_x=0.0))
    monitor, feedback = observe(monitor, obs(0.2, -0.53, robot_x=0.0))
    assert feedback is None


def test_latch_is_monotone():
    monitor = new_monitor(Assumptions(0.2, 2.0, 0.1, 1.5))
    monitor, _ = observe(monitor, obs(0.1, 1.0))
    monitor, feedback = observe(monitor, obs(0.2, 0.96))
    assert feedback is not None and monitor.violation_latched
    # obstacle slows right down; the latch stays
    monitor, feedback = observe(monitor, obs(0.3, 0.955))
    assert feedback is None
    assert monitor.violation_latched


def test_compliant_streams_never_fire():
    """Randomized streams whose estimates stay at or below the assumed
    bound produce no feedback, whatever the gap does."""
    rng = random.Random(99)
    for _ in range(100):
        assumed = rng.uniform(0.1, 0.5)
        monitor = new_monitor(Assumptions(assumed, 5.0, 0.1, rng.uniform(0.5, 5.0)))
        x = rng.uniform(1.0, 4.0)
        t = 0.0
        for _ in range(50):
            t += 0.1
            x -= rng.uniform(0.0, assumed) * 0.1
            updated, feedback = observe(monitor, obs(round(t, 3), x))
            assert updated is monitor
            assert feedback is None
            assert not monitor.violation_latched


@st.composite
def streams(draw):
    """A monitor and an observation stream with strictly increasing
    times, gaps on both sides of the reaction area and on its edges, and
    obstacle steps fast enough to trip the monitor."""
    radius = draw(st.sampled_from([1.0, 0.48]) | st.floats(0.01, 3.0))
    gaps = st.sampled_from([0.0, radius, -0.01, radius + 0.01]) | st.floats(-1.0, 2 * radius)
    samples, t = [], 0.0
    for dt, robot_x, gap in draw(st.lists(
            st.tuples(st.floats(0.01, 0.5), st.floats(-2.0, 2.0), gaps), max_size=40)):
        t += dt
        samples.append((t, robot_x, robot_x + gap))
    assumed = draw(st.sampled_from([0.2]) | st.floats(0.01, 3.0))
    return Assumptions(assumed, 2 * radius, 0.1, radius), samples


def in_reach(assumptions, robot_x, obstacle_x):
    return 0 <= obstacle_x - robot_x <= assumptions.reaction_radius


@settings(max_examples=200, deadline=None)
@given(streams())
def test_observation_outside_reaction_area_never_fires(stream):
    assumptions, samples = stream
    monitor = new_monitor(assumptions)
    for t, robot_x, obstacle_x in samples:
        latched = monitor.violation_latched
        feedback = observe_at(monitor, t, robot_x, obstacle_x)
        if not in_reach(assumptions, robot_x, obstacle_x):
            assert feedback is None
            assert monitor.violation_latched == latched


@settings(max_examples=200, deadline=None)
@given(streams())
def test_dropping_out_of_reach_samples_keeps_the_feedback(stream):
    """The simulator observes only inside the reaction area, and first
    feeds the sample just before, if that one was outside: the same
    feedback as observing every sample."""
    assumptions, samples = stream

    def feedback_of(kept):
        monitor = new_monitor(assumptions)
        return [observe_at(monitor, *sample) for sample in kept]

    kept = [sample for i, sample in enumerate(samples)
            if in_reach(assumptions, *sample[1:])
            or (i + 1 < len(samples) and in_reach(assumptions, *samples[i + 1][1:]))]
    fired = [f for f in feedback_of(samples) if f is not None]
    assert [f for f in feedback_of(kept) if f is not None] == fired
