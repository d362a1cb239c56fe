"""Collision-count sweep over obstacle speeds and reaction radii.

Each grid cell runs a fixed number of seeded simulations and counts the
runs that end in an active collision.  Per-run seeds derive from the
cell index, so results are reproducible and independent of execution
order; cells may run in parallel worker processes without changing a
byte of the output.  Every worker, this process included, reports each
of its cells as one line of outcome counts, and ``run_sweep`` reads
every such line back the same way.
"""
from __future__ import annotations

import os
from collections import namedtuple
from dataclasses import dataclass, replace

from .model import ScenarioError, _as_int, _as_number, _record, parse_json
from .sim import SimConfig, SimOutcome, _approach, _episode, sim_config_from_dict

CSV_HEADER = "obstacle_vel_mps,reaction_radius_m,runs,active_collisions,reached_goal,stopped_safe"


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A grid of obstacle speeds by reaction radii over a base config,
    with the number of seeded runs per cell and the first seed."""

    base: SimConfig = SimConfig()
    obstacle_vel_grid: tuple[float, ...] = ()
    reaction_radius_grid: tuple[float, ...] = ()
    runs_per_cell: int = 10
    seed_base: int = 0

    def validate(self) -> None:
        self.cell_configs()

    def cell_configs(self) -> list[SimConfig]:
        """Checks the spec's own fields, then returns the base config with
        each cell's obstacle speed and reaction radius, in grid order, each
        validated."""
        self.base.validate()
        for key, field in _SPEC_KEYS.items():
            value = getattr(self, field)
            if field.endswith("_grid"):
                if not isinstance(value, (tuple, list)):
                    raise ScenarioError(f"{key} must be a list of numbers")
                for i, item in enumerate(value):
                    _as_number(item, f"{key}[{i}]")
                if not value:
                    raise ScenarioError(f"{key} must not be empty")
            elif field != "base":
                _as_int(value, key)
        if self.runs_per_cell < 1:
            raise ScenarioError("runsPerCell must be >= 1")
        if self.seed_base < 0:   # a negative seed would repeat a positive one's stream
            raise ScenarioError("seedBase must be >= 0")
        configs = [replace(self.base, obstacle_true_max_vel=vel, reaction_radius=radius)
                   for vel, radius in self.cells()]
        for config in configs:
            config.validate()
        return configs

    def cells(self) -> list[tuple[float, float]]:
        """Cell order is velocity-major; the cell index feeds seeding."""
        return [
            (vel, radius)
            for vel in self.obstacle_vel_grid
            for radius in self.reaction_radius_grid
        ]


class CellResult(namedtuple("CellResult", "obstacle_vel reaction_radius runs active_collisions "
                               "reached_goal stopped_safe tick_budget_exhausted")):
    __slots__ = ()


class SweepResult(namedtuple("SweepResult", "spec cells")):
    __slots__ = ()


def _cell_counts(job: tuple[SimConfig, int, int]) -> str:
    """Run one cell's seeds; its ``a,b,c,d`` line of outcome counts, in
    CellResult's field order."""
    config, first_seed, runs = job
    counts = {outcome: 0 for outcome in SimOutcome}
    approach = _approach(config)
    for seed in range(first_seed, first_seed + runs):
        _, _, outcome, _ = _episode(config, seed, collect_states=False, approach=approach)
        counts[outcome] += 1
    return "%d,%d,%d,%d\n" % (
        counts[SimOutcome.ACTIVE_COLLISION], counts[SimOutcome.REACHED_GOAL],
        counts[SimOutcome.STOPPED_SAFE], counts[SimOutcome.TICK_BUDGET_EXHAUSTED])


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Execute the full grid; cell results come back in grid order no
    matter how many processes ran them.  Every cell's config is validated
    before any episode runs.  N ``workers`` (at most one per cell; 1
    without ``os.fork``) are this process, worker 0, and N - 1 forked
    children; worker k runs cells k, k + N, k + 2N, …  Every worker
    replies with one ``_cell_counts`` line per cell, and one loop turns
    the replies, this process's first, into CellResults.  A child pipes
    its reply back and leaves only through ``os._exit`` (status 0 once
    its reply is written), so it never returns into the caller, flushes
    inherited stdio buffers or runs atexit handlers.  Every pipe is read
    to EOF and every child reaped before this returns or raises; a failed
    child makes it raise RuntimeError, with the text of the child's
    exception when it sent one."""
    runs = spec.runs_per_cell
    jobs = [(config, spec.seed_base + i * runs, runs)
            for i, config in enumerate(spec.cell_configs())]
    workers = min(workers, len(jobs)) if hasattr(os, "fork") else 1
    cells, pids, pipes = [None] * len(jobs), [], []
    try:
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end))
            with open(write_end, "w") as reply:
                pid = os.fork()
                if pid == 0:
                    _child(jobs[k::workers], reply)
            pids.append(pid)
        replies = ["".join(map(_cell_counts, jobs[0::workers]))]
        replies += [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [0] + [os.waitpid(pid, 0)[1] for pid in pids]
    for k, (status, reply) in enumerate(zip(statuses, replies)):
        if status:
            raise RuntimeError(f"sweep worker {k} failed: exit code "
                               f"{os.waitstatus_to_exitcode(status)}"
                               + (f": {reply.strip()}" if reply.strip() else ""))
        cells[k::workers] = [
            CellResult(config.obstacle_true_max_vel, config.reaction_radius, runs,
                       *map(int, line.split(",")))
            for (config, _, _), line in zip(jobs[k::workers], reply.splitlines())
        ]
    return SweepResult(spec=spec, cells=tuple(cells))


def _child(jobs: list[tuple[SimConfig, int, int]], reply):
    """A forked worker's whole life: one ``_cell_counts`` line per job,
    and exit 0; or, if a job raises, only its exception's text
    (``ValueError: boom``) and exit 1.  It never returns: every path ends
    in ``os._exit``."""
    code = 1
    try:
        try:
            status, text = 0, "".join(map(_cell_counts, jobs))
        except Exception as e:
            status, text = 1, f"{type(e).__name__}: {e}"
        reply.write(text)
        reply.flush()
        code = status
    finally:
        os._exit(code)


def sweep_result_to_csv(result: SweepResult) -> str:
    """Fixed columns, LF line endings, '.' decimal separator."""
    lines = [CSV_HEADER]
    for cell in result.cells:
        lines.append(
            f"{cell.obstacle_vel},{cell.reaction_radius},{cell.runs},"
            f"{cell.active_collisions},{cell.reached_goal},{cell.stopped_safe}"
        )
    return "\n".join(lines) + "\n"


_SPEC_KEYS = {
    "base": "base", "obstacleVelGrid": "obstacle_vel_grid",
    "reactionRadiusGrid": "reaction_radius_grid", "runsPerCell": "runs_per_cell",
    "seedBase": "seed_base",
}


def _grid(value):
    """A JSON list as a tuple; anything else is left for validate()."""
    return tuple(value) if isinstance(value, list) else value


def sweep_spec_from_dict(data: dict) -> SweepSpec:
    spec = _record(SweepSpec, data, _SPEC_KEYS, "sweep spec", base=sim_config_from_dict,
                   obstacle_vel_grid=_grid, reaction_radius_grid=_grid)
    spec.validate()
    return spec


def load_sweep_spec(source: str) -> SweepSpec:
    return sweep_spec_from_dict(parse_json(source))
