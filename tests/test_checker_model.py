"""The checker's compiled model, one step at a time, against ``world_step``.

The whole-search differential in ``test_checker_differential.py`` stops
at the first violation, so states past it never meet the reference
there.  Here every state that the object-level BFS reaches (violating
ones included, up to a cap) is stepped both ways: by the model on its
key, and by ``world_step`` over ``enumerate_obstacle_choices`` on the
world.
"""
from collections import deque

from hypothesis import given, settings

from passivesafe import (
    enumerate_obstacle_choices,
    initial_world_state,
    is_passive_safe,
    world_step,
)
from passivesafe.checker import _Model, _robot_key, state_key
from test_checker_differential import interchangeable_scenarios, scenarios

STATE_CAP = 1000    # worlds stepped per scenario, to bound a draw's time


def reachable_worlds(scenario):
    """The worlds of the object-level BFS, not stopped by a violation,
    identified by ``state_key``, at most ``STATE_CAP`` of them."""
    init = initial_world_state(scenario)
    seen, queue, worlds = {state_key(init)}, deque([init]), []
    while queue and len(worlds) < STATE_CAP:
        world = queue.popleft()
        worlds.append(world)
        for choices in enumerate_obstacle_choices(world, scenario):
            successor = world_step(world, choices, scenario)
            if state_key(successor) not in seen:
                seen.add(state_key(successor))
                queue.append(successor)
    return worlds


def model_step(model, key):
    """The moved robot, its safety memo and the successor keys of ``key``,
    as the search expands a state: the robot's move on what it reads,
    then the successor tails of the mover xs, reread with the dying
    movers parked when a mover's x falls behind the moved robot."""
    seen = key[:4] + key[5::2]
    head, safe, _ = model.moves.get(seen) or model.move(seen)
    xs = key[4::2]
    tails, lowest = model.successor_tails(xs)
    if lowest < head[0]:
        tails = model.successor_tails(xs, head[0])[0]
    return head, safe, {head + tail for tail in tails}


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios() | interchangeable_scenarios())
def test_model_steps_as_world_step_does(scenario):
    model = _Model(scenario)
    assert model.init_key == model.key_of(initial_world_state(scenario))
    for world in reachable_worlds(scenario):
        head, safe, succ_keys = model_step(model, model.key_of(world))
        successors = [world_step(world, choices, scenario)
                      for choices in enumerate_obstacle_choices(world, scenario)]
        assert succ_keys == {model.key_of(successor) for successor in successors}
        for successor in successors:
            assert head == _robot_key(successor.robot)
            if safe is None:    # a robot at rest is safe
                assert is_passive_safe(successor)
                continue
            now = model.key_of(successor)[4::2]
            ok = safe[now] if now in safe else model.is_safe(head, now)
            assert ok == is_passive_safe(successor)
