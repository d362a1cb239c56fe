"""Seeded inputs of the three workloads, and the oracles that check outputs.

The program under test only ever sees the JSON written here; the seed
stays with the benchmark.  Each workload keeps the geometry that sets its
cost fixed and lets the seed vary what must not change the cost
(obstacle ids, scenario order, simulation seeds), so that runs with
different seeds measure the same amount of work.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("check_fixpoint", "check_scan", "sweep_grid")
SIZES = ("full", "small")

# check_fixpoint: two interchangeable head-on movers in the middle lane.
# The pair at 30/33 explores 14,972 states (about 3 s through the CLI);
# the pair at 40/43 from ROADMAP.md takes three times as long, which
# leaves too few checks in one run for a steady median.
FIXPOINT_PAIR = {"full": (30, 33), "small": (20, 23)}
FIXPOINT_MAX_VEL = 3
FIXPOINT_ASSUMED = 3

# check_scan: the full design grid of single-mover scenarios, shuffled
# per pass.  Every run sees every design point equally often, so the
# latency distribution does not depend on which points a seed drew.
SCAN_STARTS = {"full": tuple(range(30, 47)), "small": (30, 38, 46)}
SCAN_TRUE_VELS = (1, 2, 3)
SCAN_ASSUMED_VELS = (1, 2, 3, 4, 5)

# sweep_grid: the grid of configs/sweep.json with more runs per cell.
SWEEP_RUNS_PER_CELL = {"full": 50, "small": 10}
SWEEP_BASE = {
    "dt": 0.1, "trackLength": 12.0, "robotStart": 0.0, "robotDest": 10.0,
    "robotMaxVel": 0.5, "robotAccel": 0.5, "robotDecel": 0.5,
    "obstacleStart": 12.0, "obstacleTrueMaxVel": 0.2,
    "assumedObstacleMaxVel": 0.2, "visualRange": 2.0, "reactionRadius": 1.0,
    "buffer": 0.1, "collisionThreshold": 0.05, "seed": 0, "maxTicks": 2000,
}
SWEEP_VELS = (0.15, 0.2, 0.25, 0.3)
SWEEP_RADII = (0.48, 0.55, 0.62, 0.7, 0.8, 1.0)
SWEEP_WORKERS = (1, 2)
CSV_HEADER = "obstacle_vel_mps,reaction_radius_m,runs,active_collisions,reached_goal,stopped_safe"

_TRACK = 50
_PARKED_CELLS = (6, 14, 22, 30, 38, 46)


def head_on(movers: list[tuple[int, int]], assumed: int, rng: random.Random) -> dict:
    """Three-lane head-on scenario as in configs/head_on.json.

    ``movers`` lists (startCell, maxVel) for the middle lane; both side
    lanes are blocked by parked obstacles.  Obstacle ids are drawn from
    ``rng``; the list order (movers first) is fixed because it sets the
    cost of id lookups.
    """
    parked = [(lane, cell) for lane in (0, 2) for cell in _PARKED_CELLS]
    ids = rng.sample(range(1, 10_000), len(movers) + len(parked))
    obstacles = [
        {"id": ids[i], "startCell": start, "lane": 1, "isStatic": False,
         "destCell": 0, "maxVel": max_vel}
        for i, (start, max_vel) in enumerate(movers)
    ]
    obstacles += [
        {"id": ids[len(movers) + i], "startCell": cell, "lane": lane,
         "isStatic": True, "destCell": cell, "maxVel": 1}
        for i, (lane, cell) in enumerate(parked)
    ]
    return {
        "trackLengthCells": _TRACK, "laneCount": 3,
        "robotStartCell": 0, "robotStartLane": 1, "robotMaxVel": 3,
        "robotDestCell": _TRACK - 1, "obstacles": obstacles,
        "assumptions": {"assumedObstacleMaxVel": assumed, "visualRadius": 30,
                        "buffer": 4, "reactionRadius": 30},
    }


def fixpoint_scenario(seed: int, size: str) -> dict:
    pair = FIXPOINT_PAIR[size]
    return head_on([(cell, FIXPOINT_MAX_VEL) for cell in pair], FIXPOINT_ASSUMED,
                   random.Random(seed))


def scan_scenarios(seed: int, size: str) -> list[tuple[dict, dict]]:
    """(design point, scenario) pairs for every (start, true maxVel,
    assumed bound) point in a fixed order; ids are drawn per scenario."""
    rng = random.Random(seed)
    points = [
        {"start": s, "true": t, "assumed": a}
        for s in SCAN_STARTS[size] for t in SCAN_TRUE_VELS for a in SCAN_ASSUMED_VELS
    ]
    return [(p, head_on([(p["start"], p["true"])], p["assumed"], rng)) for p in points]


def scan_order(seed: int, pass_index: int, n: int) -> list[int]:
    """Seeded order of the design points for one pass."""
    order = list(range(n))
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order


def expected_verdict(point: dict) -> str:
    """The head-on verdict flips exactly where the assumption covers the
    true speed (checked for starts 30-46, true 1-3, assumed 1-5, buffer 4)."""
    return "Holds" if point["assumed"] >= point["true"] else "Violated"


def sweep_spec(seed: int, size: str) -> dict:
    return {
        "base": dict(SWEEP_BASE),
        "obstacleVelGrid": list(SWEEP_VELS),
        "reactionRadiusGrid": list(SWEEP_RADII),
        "runsPerCell": SWEEP_RUNS_PER_CELL[size],
        "seedBase": seed * 100_000,
    }


def sweep_csv_problems(csv: str, runs: int) -> list[str]:
    """Shape checks on one sweep CSV: header, one row per cell, and the
    counts of every row adding up to its runs (no episode may exhaust
    the tick budget on this grid)."""
    lines = csv.split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header differs"]
    rows = lines[1:]
    problems = []
    if len(rows) != len(SWEEP_VELS) * len(SWEEP_RADII):
        problems.append(f"CSV has {len(rows)} rows")
    for row in rows:
        fields = row.split(",")
        if len(fields) != 6 or int(fields[2]) != runs or sum(map(int, fields[3:])) != runs:
            problems.append(f"CSV row does not add up to {runs} runs: {row}")
    return problems


def write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path
