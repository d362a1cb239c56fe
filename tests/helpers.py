"""Scenario builders and oracles that only the tests use.

The builders derive from the committed configs, so a test variant and
the file the CLI checks cannot drift apart.  The oracles are independent
of the search: a state-invariant check, a seeded random rollout, a trace
file reader, the state digest and the trace file as ``json.dumps`` of
the states' dicts, and a scenario serializer for round trips.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

from passivesafe import (Assumptions, GridScenario, ObstacleChoice, ObstacleSpec, RobotMode, Trace,
                         TraceError, WorldState, initial_world_state, is_passive_safe,
                         load_scenario, world_step)
from passivesafe.counterexample import trace_from_jsonl
from passivesafe.model import _ASSUMPTION_KEYS, _OBSTACLE_KEYS, _SCENARIO_KEYS, _to_dict, read_utf8

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Three lanes, the robot in the middle one, one mover approaching it
# head-on from cell 40, and parked obstacles every 8 cells along both side
# lanes so that a lane change never looks clear.
_HEAD_ON = load_scenario((CONFIGS / "head_on.json").read_text())


def head_on_scenario(assumed_obstacle_max_vel: int = 3, true_obstacle_max_vel: int = 3,
                     visual_radius: int = 30, buffer: int = 4,
                     obstacle_start: int = 40) -> GridScenario:
    """``configs/head_on.json`` with the mover's start and true speed and
    the robot's assumptions replaced.

    The default buffer of 4 cells is calibrated so that, at the robot's
    top speed of 3, an assumption that covers the true obstacle speed is
    exactly sufficient: the verdict flips from Violated to Holds at
    assumed == true, and under-assumption runs leave a violation window
    wide enough that random rollouts stumble into it.  The visual radius
    is generous enough that sensing never gates the look-ahead guard for
    assumptions up to 5.  The reaction radius follows the visual radius.
    """
    mover, *parked = _HEAD_ON.obstacles
    scenario = _HEAD_ON._replace(
        obstacles=(mover._replace(start_cell=obstacle_start, max_vel=true_obstacle_max_vel),
                   *parked),
        assumptions=Assumptions(assumed_obstacle_max_vel, visual_radius, buffer),
    )
    scenario.validate()
    return scenario


def empty_scenario(track_length: int = 50) -> GridScenario:
    """No obstacles at all: the robot just drives to the far end."""
    scenario = GridScenario(track_length_cells=track_length, lane_count=1, robot_start_cell=0,
                            robot_start_lane=0, robot_max_vel=3, robot_dest_cell=track_length - 1,
                            obstacles=(), assumptions=Assumptions(1, track_length, 1))
    scenario.validate()
    return scenario


def single_lane_duel(assumed_obstacle_max_vel: int = 1, true_obstacle_max_vel: int = 3,
                     obstacle_start: int = 14) -> GridScenario:
    """Small single-lane face-off, sized for brute-force cross-checks."""
    mover = ObstacleSpec(id=0, start_cell=obstacle_start, lane=0, is_static=False, dest_cell=0,
                         max_vel=true_obstacle_max_vel)
    scenario = GridScenario(track_length_cells=20, lane_count=1, robot_start_cell=0,
                            robot_start_lane=0, robot_max_vel=3, robot_dest_cell=19,
                            obstacles=(mover,),
                            assumptions=Assumptions(assumed_obstacle_max_vel, 20, 1))
    scenario.validate()
    return scenario


class InvariantViolation(AssertionError):
    """A world state broke a model invariant (see validate_world)."""


def validate_world(world: WorldState, scenario: GridScenario) -> None:
    """Assert every model invariant on a produced state (test hook)."""
    r = world.robot
    if world.tick < 0:
        raise InvariantViolation("negative tick")
    if not 0 <= r.x <= scenario.track_length_cells - 1:
        raise InvariantViolation(f"robot x {r.x} off track")
    if not 0 <= r.lane < scenario.lane_count:
        raise InvariantViolation(f"robot lane {r.lane} out of range")
    if not 0 <= r.v <= scenario.robot_max_vel:
        raise InvariantViolation(f"robot velocity {r.v} out of bounds")
    if r.mode in (RobotMode.IDLE, RobotMode.STOP) and r.v != 0:
        raise InvariantViolation(f"mode {r.mode.value} with nonzero velocity")
    if r.mode is RobotMode.DRIVE and r.v != scenario.robot_max_vel:
        raise InvariantViolation("Drive mode below max velocity")
    for label, snapshots in (("obstacles", world.obstacles),
                             ("prevObstacles", world.prev_obstacles)):
        for obs in snapshots:
            spec = scenario.obstacle_by_id(obs.id)
            if not 0 <= obs.x < scenario.track_length_cells:
                raise InvariantViolation(f"{label}[{obs.id}] x {obs.x} off track")
            if not spec.is_static:
                if not spec.dest_cell <= obs.x <= spec.start_cell:
                    raise InvariantViolation(
                        f"{label}[{obs.id}] x {obs.x} outside [dest, start]"
                    )
                if obs.x == obs.dest_cell and not obs.is_static:
                    raise InvariantViolation(
                        f"{label}[{obs.id}] arrived but not marked static"
                    )
    if [o.id for o in world.obstacles] != [o.id for o in world.prev_obstacles]:
        raise InvariantViolation("obstacles/prevObstacles id mismatch")


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


def read_trace_jsonl(path: str | os.PathLike) -> Trace:
    return trace_from_jsonl(read_utf8(path, TraceError))


def world_to_dict(world: WorldState) -> dict:
    """A state as a JSON object, keys in the order of the trace file."""
    return {
        "tick": world.tick,
        "robot": {"x": world.robot.x, "lane": world.robot.lane, "v": world.robot.v,
                  "mode": world.robot.mode.value},
        "obstacles": [obstacle_to_dict(o) for o in world.obstacles],
        "prevObstacles": [obstacle_to_dict(o) for o in world.prev_obstacles],
    }


def obstacle_to_dict(obs) -> dict:
    return {"id": obs.id, "x": obs.x, "lane": obs.lane, "isStatic": obs.is_static,
            "destCell": obs.dest_cell}


def reference_trace_jsonl(trace: Trace, scenario: GridScenario) -> str:
    """What ``counterexample.trace_to_jsonl`` writes, one ``json.dumps`` per line."""
    lines = [json.dumps({"type": "initial", **world_to_dict(trace.initial)})]
    world = trace.initial
    for label in trace.steps:
        world = world_step(world, label.choices, scenario)
        state = world_to_dict(world)
        lines.append(json.dumps({
            "type": "step",
            "tick": label.tick,
            "modeBefore": label.mode_before.value,
            "modeAfter": label.mode_after.value,
            "choices": [{"id": c.obstacle_id, "velocity": c.velocity} for c in label.choices],
            "robot": state["robot"],
            "obstacles": state["obstacles"],
            "stateHash": label.state_hash,
        }))
    return "\n".join(lines) + "\n"


def reference_state_digest(world: WorldState) -> str:
    """What ``counterexample.state_digest`` hashes, in one ``json.dumps``: the
    whole state as compact JSON with sorted keys."""
    payload = json.dumps(world_to_dict(world), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def scenario_to_dict(scenario: GridScenario) -> dict:
    return _to_dict(
        scenario, _SCENARIO_KEYS,
        obstacles=lambda obstacles: [_to_dict(obs, _OBSTACLE_KEYS) for obs in obstacles],
        assumptions=lambda assumptions: _to_dict(assumptions, _ASSUMPTION_KEYS),
    )


def serialize_scenario(scenario: GridScenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2)
