"""Collision-count sweep over obstacle speeds and reaction radii.

Each grid cell runs a fixed number of seeded simulations and counts the
runs that end in an active collision.  Per-run seeds derive from the
cell index, so results are reproducible and independent of execution
order; cells may run in parallel worker processes without changing a
byte of the output.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .model import ScenarioError, _as_int, _as_number, _as_object, _reject_unknown, parse_json
from .sim import SimConfig, SimOutcome, sim_config_from_dict, simulate

CSV_HEADER = "obstacle_vel_mps,reaction_radius_m,runs,active_collisions,reached_goal,stopped_safe"


@dataclass(frozen=True, slots=True)
class SweepSpec:
    base: SimConfig
    obstacle_vel_grid: tuple[float, ...]
    reaction_radius_grid: tuple[float, ...]
    runs_per_cell: int = 10
    seed_base: int = 0

    def validate(self) -> None:
        self.base.validate()
        if not self.obstacle_vel_grid:
            raise ScenarioError("obstacleVelGrid must not be empty")
        if not self.reaction_radius_grid:
            raise ScenarioError("reactionRadiusGrid must not be empty")
        if self.runs_per_cell < 1:
            raise ScenarioError("runsPerCell must be >= 1")

    def cells(self) -> list[tuple[float, float]]:
        """Cell order is velocity-major; the cell index feeds seeding."""
        return [
            (vel, radius)
            for vel in self.obstacle_vel_grid
            for radius in self.reaction_radius_grid
        ]


@dataclass(frozen=True, slots=True)
class CellResult:
    obstacle_vel: float
    reaction_radius: float
    runs: int
    active_collisions: int
    reached_goal: int
    stopped_safe: int
    tick_budget_exhausted: int


@dataclass(frozen=True, slots=True)
class SweepResult:
    spec: SweepSpec
    cells: tuple[CellResult, ...]


def _run_cell(args: tuple[SweepSpec, int]) -> CellResult:
    spec, cell_index = args
    vel, radius = spec.cells()[cell_index]
    counts = {outcome: 0 for outcome in SimOutcome}
    for run_index in range(spec.runs_per_cell):
        config = replace(
            spec.base,
            obstacle_true_max_vel=vel,
            reaction_radius=radius,
            seed=spec.seed_base + cell_index * spec.runs_per_cell + run_index,
        )
        trace = simulate(config, collect_states=False)
        counts[trace.outcome] += 1
    return CellResult(
        obstacle_vel=vel,
        reaction_radius=radius,
        runs=spec.runs_per_cell,
        active_collisions=counts[SimOutcome.ACTIVE_COLLISION],
        reached_goal=counts[SimOutcome.REACHED_GOAL],
        stopped_safe=counts[SimOutcome.STOPPED_SAFE],
        tick_budget_exhausted=counts[SimOutcome.TICK_BUDGET_EXHAUSTED],
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Execute the full grid; cell results come back in grid order no
    matter how many worker processes ran them.  The pool gets at most one
    process per cell, and one process means running in this one."""
    spec.validate()
    jobs = [(spec, i) for i in range(len(spec.cells()))]
    workers = min(workers, len(jobs))
    if workers <= 1:
        cells = [_run_cell(job) for job in jobs]
    else:
        # Imported here: the process pool costs start-up time every other
        # command would pay for nothing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, jobs))
    return SweepResult(spec=spec, cells=tuple(cells))


def sweep_result_to_csv(result: SweepResult) -> str:
    """Fixed columns, LF line endings, '.' decimal separator."""
    lines = [CSV_HEADER]
    for cell in result.cells:
        lines.append(
            f"{cell.obstacle_vel},{cell.reaction_radius},{cell.runs},"
            f"{cell.active_collisions},{cell.reached_goal},{cell.stopped_safe}"
        )
    return "\n".join(lines) + "\n"


_SPEC_KEYS = {"base", "obstacleVelGrid", "reactionRadiusGrid", "runsPerCell", "seedBase"}


def sweep_spec_from_dict(data: dict) -> SweepSpec:
    _as_object(data, "sweep spec")
    _reject_unknown(data, _SPEC_KEYS, "sweep spec")
    base = sim_config_from_dict(data.get("base", {}))
    grids = {}
    for key in ("obstacleVelGrid", "reactionRadiusGrid"):
        values = data.get(key, [])
        if not isinstance(values, list):
            raise ScenarioError(f"{key} must be a list of numbers")
        grids[key] = tuple(_as_number(v, f"{key}[{i}]") for i, v in enumerate(values))
    spec = SweepSpec(
        base=base,
        obstacle_vel_grid=grids["obstacleVelGrid"],
        reaction_radius_grid=grids["reactionRadiusGrid"],
        runs_per_cell=_as_int(data.get("runsPerCell", 10), "runsPerCell"),
        seed_base=_as_int(data.get("seedBase", 0), "seedBase"),
    )
    spec.validate()
    return spec


def load_sweep_spec(source: str) -> SweepSpec:
    return sweep_spec_from_dict(parse_json(source))
