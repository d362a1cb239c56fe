"""Traced run: per-layer metrics of every module.

The run replays each workload in process by calling the program's
public functions in the order the CLI calls them:

  check_fixpoint  load_scenario -> check_safety
  check_scan      load_scenario -> check_safety -> write_trace_jsonl
                  -> trace_from_jsonl -> replay_trace   (per scenario)
  sweep_grid      load_sweep_spec -> run_sweep -> sweep_result_to_csv
                  (at 1 and 2 workers), then run_sweep on each cell alone

and records a span around every call.  Spans live in memory and are
written out as JSONL when the run ends; self time (duration minus the
children's) is derived from them.  Timings of single functions run on
inputs sampled from the workloads: states from seeded random walks over
the check_fixpoint scenario, and observation streams rebuilt from
sweep_grid episodes.  ``checker.explore_s`` is the median of in-process
check_safety calls, each run next to a `check` of the CLI, so that
``cli.overhead_s`` (what `check` spends beyond set-up and exploration)
compares like with like.  Exploration counts and memory come from
separate, untimed explorations.  Every layer is measured in every traced
run; ``bench.trace_overhead_ratio`` compares the named workload's replay
with spans against the same replay without them.
"""
from __future__ import annotations

import dataclasses
import json
import random
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import workloads as wl
from harness import Run, SetupProbe, cli, metric, parse_json, quantile, run_child

sys.path.insert(0, str(wl.SRC))
from passivesafe import automata, checker, kinematics, model, monitor, sim, sweep  # noqa: E402

WALK_STATES = 4000        # sampled states for the single-function timings
DIGEST_STATES = 1000      # state_digest is ~60 us, so fewer of them
WALK_TICKS = 31           # max BFS depth of the check_fixpoint scenario
TIMING_REPS = 5
EPISODES_PER_CELL = {"full": 50, "small": 5}    # sim.episode_us samples
STREAMS_PER_CELL = {"full": 5, "small": 1}      # monitor streams rebuilt
CLI_REPS = 5
EXPLORE_REPS = 3          # `check` and in-process check_safety, alternately


class Tracer:
    """In-memory spans: name, start, end, parent span and request id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        span = {"id": len(self.spans), "name": name,
                "parent": parent["id"] if parent else None,
                "request": parent["request"] if parent else len(self.spans),
                **attrs, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, **attrs) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name.  Children of one span run one
        after another, so their durations add up without overlap."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s, inner in zip(self.spans, child_time):
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"] - inner
        return totals

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class NoTracer:
    """Same interface, no spans: the untraced side of the overhead ratio."""

    def span(self, name: str, **attrs):
        return nullcontext({})


class Checks:
    """Output checks of the traced run, counted like operations."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def per_call_us(fn, items) -> float:
    """Median over repetitions of the mean time of ``fn`` per item."""
    means = []
    for _ in range(TIMING_REPS):
        started = time.perf_counter()
        for item in items:
            fn(item)
        means.append((time.perf_counter() - started) / len(items))
    return statistics.median(means) * 1e6


def traced_run(run: Run, spans_path: Path):
    checks = Checks()
    tracer = Tracer()
    values: dict[str, float] = {}

    fix_text = json.dumps(wl.fixpoint_scenario(run.seed, run.size))
    scan = wl.scan_scenarios(run.seed, run.size)
    scan_texts = [json.dumps(s) for _, s in scan]
    scan_traces = [run.workdir / f"scan-{i}.trace.jsonl" for i in range(len(scan))]
    order = wl.scan_order(run.seed, 0, len(scan))
    sweep_text = json.dumps(wl.sweep_spec(run.seed, run.size))

    replays = {
        "check_fixpoint": lambda t: replay_fixpoint(t, fix_text, checks),
        "check_scan": lambda t: replay_scan(t, scan, scan_texts, scan_traces, order, checks),
        "sweep_grid": lambda t: replay_sweep(t, sweep_text, checks),
    }
    # Each untraced replay runs right before its traced twin, because the
    # machine's speed drifts over tens of seconds.
    cli_walls = cli_probe(run, fix_text, checks)
    outputs = {}
    for name, replay in replays.items():
        if name == run.workload:
            started = time.perf_counter()
            replay(NoTracer())
            untraced_s = time.perf_counter() - started
        with tracer.span(name) as root:
            outputs[name] = replay(tracer)
        if name == run.workload:
            values["bench.trace_overhead_ratio"] = (root["end"] - root["start"]) / untraced_s

    scenario, verdict = outputs["check_fixpoint"]
    explore_s = cli_walls["explore"]
    values.update(explore_metrics(scenario, verdict, explore_s))
    values.update(scan_metrics(tracer, outputs["check_scan"], scan_texts))
    values.update(sweep_metrics(tracer, outputs["sweep_grid"]))
    values.update(state_metrics(scenario, run.seed))
    values.update(sim_metrics(outputs["sweep_grid"][0], run.size, checks))
    values.update({
        "cli.interpreter_s": cli_walls["interpreter"],
        "cli.import_s": cli_walls["import"] - cli_walls["interpreter"],
        "cli.overhead_s": cli_walls["verdict"] - explore_s - cli_walls["setup"],
    })

    tracer.write(spans_path)
    named = {
        f"self_s.{name}": metric(seconds, "s")
        for name, seconds in sorted(tracer.self_seconds().items())
    }
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    sizes = {
        "fixpoint_movers": list(wl.FIXPOINT_PAIR[run.size]),
        "scan_design_points": len(scan),
        "sweep_runs_per_cell": wl.SWEEP_RUNS_PER_CELL[run.size],
        "walk_states": WALK_STATES,
        "sim_episodes": EPISODES_PER_CELL[run.size] * len(outputs["sweep_grid"][0].cells()),
        "spans": len(tracer.spans),
        "spans_path": str(spans_path.relative_to(wl.ROOT)),
    }
    return values, named, checks.attempted, len(checks.failures), sizes


# ---------------------------------------------------------------------------
# Workload replays (the same code runs with and without spans)
# ---------------------------------------------------------------------------

def replay_fixpoint(tracer, text: str, checks: Checks):
    with tracer.span("model.load_scenario"):
        scenario = model.load_scenario(text)
    with tracer.span("checker.check_safety"):
        verdict = checker.check_safety(scenario)
    checks.expect(verdict.outcome.value == "Holds", "check_fixpoint verdict is not Holds")
    return scenario, verdict


def replay_scan(tracer, scan, texts, trace_paths, order, checks: Checks) -> dict:
    violated = steps = 0
    for i in order:
        point = scan[i][0]
        with tracer.span("scenario", index=i):
            with tracer.span("model.load_scenario"):
                scenario = model.load_scenario(texts[i])
            with tracer.span("checker.check_safety"):
                verdict = checker.check_safety(scenario)
            ok = verdict.outcome.value == wl.expected_verdict(point)
            if verdict.counterexample is not None:
                with tracer.span("checker.write_trace_jsonl"):
                    checker.write_trace_jsonl(verdict.counterexample, scenario, trace_paths[i])
                with tracer.span("checker.trace_from_jsonl"):
                    trace = checker.trace_from_jsonl(Path(trace_paths[i]).read_text())
                with tracer.span("checker.replay_trace"):
                    final = checker.replay_trace(scenario, trace)
                ok = ok and not checker.is_passive_safe(final)
                violated += 1
                steps += len(trace.steps)
        checks.expect(ok, f"check_scan scenario {point}")
    return {"violated": violated, "steps": steps}


def replay_sweep(tracer, text: str, checks: Checks):
    with tracer.span("sweep.load_sweep_spec"):
        spec = sweep.load_sweep_spec(text)
    results, csvs = {}, {}
    for workers in wl.SWEEP_WORKERS:
        with tracer.span("sweep.run_sweep", workers=workers):
            results[workers] = sweep.run_sweep(spec, workers=workers)
        with tracer.span("sweep.sweep_result_to_csv", workers=workers):
            csvs[workers] = sweep.sweep_result_to_csv(results[workers])
    checks.expect(csvs[1] == csvs[2], "sweep CSV differs between 1 and 2 workers")
    checks.expect(not wl.sweep_csv_problems(csvs[1], spec.runs_per_cell), "sweep CSV shape")
    # Run seeds are seedBase + cell_index*runsPerCell + run_index, so a
    # one-cell spec with a shifted seedBase reruns exactly that cell.
    for i, (vel, radius) in enumerate(spec.cells()):
        one = dataclasses.replace(spec, obstacle_vel_grid=(vel,), reaction_radius_grid=(radius,),
                                  seed_base=spec.seed_base + i * spec.runs_per_cell)
        with tracer.span("sweep.run_sweep", cell=i):
            cell = sweep.run_sweep(one, workers=1).cells[0]
        checks.expect(cell == results[1].cells[i], f"sweep cell {i} rerun differs")
    return spec, results[1]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def explore_metrics(scenario, verdict, explore_s: float) -> dict:
    """Counts of the check_fixpoint exploration.  Transitions and the peak
    frontier come from state_space_stats, which explores the same space
    without the property; memory from a third, tracemalloc'd run."""
    stats = checker.state_space_stats(scenario)
    tracemalloc.start()
    try:
        checker.check_safety(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    states = verdict.states_explored
    return {
        "checker.explore_s": explore_s,
        "checker.states": states,
        "checker.transitions": stats.transitions,
        "checker.peak_frontier": stats.peak_frontier,
        "checker.max_depth": verdict.max_depth,
        "checker.states_per_s": states / explore_s,
        "checker.transitions_per_s": stats.transitions / explore_s,
        "checker.new_state_ratio": states / stats.transitions,
        "checker.bytes_per_state": peak / states,
    }


def scan_metrics(tracer: Tracer, scan: dict, texts: list[str]) -> dict:
    steps = max(scan["steps"], 1)
    per_step = {
        name: sum(tracer.durations(f"checker.{name}")) / steps * 1e6
        for name in ("write_trace_jsonl", "trace_from_jsonl", "replay_trace")
    }
    return {
        "model.load_scenario_us": per_call_us(model.load_scenario, texts),
        "checker.trace_write_us_per_step": per_step["write_trace_jsonl"],
        "checker.trace_read_us_per_step": per_step["trace_from_jsonl"],
        "checker.replay_us_per_step": per_step["replay_trace"],
        "checker.violated": scan["violated"],
        "checker.cex_steps": scan["steps"],
    }


def sweep_metrics(tracer: Tracer, sweep_output) -> dict:
    _, result = sweep_output
    cells = [d for i in range(len(result.cells))
             for d in tracer.durations("sweep.run_sweep", cell=i)]
    w1 = tracer.durations("sweep.run_sweep", workers=1)[0]
    w2 = tracer.durations("sweep.run_sweep", workers=2)[0]
    return {
        "sweep.cell_s.p50": statistics.median(cells),
        "sweep.cell_s.max": max(cells),
        "sweep.speedup_w2": w1 / w2,
        "sweep.pool_overhead_s": w2 - sum(cells) / 2,
        "sweep.outcomes.active_collision": sum(c.active_collisions for c in result.cells),
        "sweep.outcomes.reached_goal": sum(c.reached_goal for c in result.cells),
        "sweep.outcomes.stopped_safe": sum(c.stopped_safe for c in result.cells),
        "sweep.outcomes.tick_budget_exhausted": sum(c.tick_budget_exhausted for c in result.cells),
    }


def walk_samples(scenario, seed: int) -> list:
    """(state, choice vector) pairs from seeded random walks through
    enumerate_obstacle_choices + world_step."""
    rng = random.Random(seed)
    samples = []
    while len(samples) < WALK_STATES:
        world = model.initial_world_state(scenario)
        for _ in range(WALK_TICKS):
            choices = rng.choice(automata.enumerate_obstacle_choices(world, scenario))
            samples.append((world, choices))
            world = automata.world_step(world, choices, scenario)
    return samples[:WALK_STATES]


def state_metrics(scenario, seed: int) -> dict:
    samples = walk_samples(scenario, seed)
    states = [world for world, _ in samples]
    n_choices = [len(automata.enumerate_obstacle_choices(w, scenario)) for w in states]
    return {
        "model.state_key_hash_us": per_call_us(lambda w: hash(checker.state_key(w)), states),
        "kinematics.collision_danger_us": per_call_us(
            lambda w: kinematics.collision_danger(w, scenario), states),
        "kinematics.is_passive_safe_us": per_call_us(kinematics.is_passive_safe, states),
        "automata.world_step_us": per_call_us(
            lambda s: automata.world_step(s[0], s[1], scenario), samples),
        "automata.robot_step_us": per_call_us(
            lambda w: automata.robot_step(w.robot, w, scenario), states),
        "automata.enumerate_choices_us": per_call_us(
            lambda w: automata.enumerate_obstacle_choices(w, scenario), states),
        "automata.choices_per_state": statistics.fmean(n_choices),
        "checker.state_digest_us": per_call_us(checker.state_digest, states[:DIGEST_STATES]),
    }


def episode_configs(spec, runs: int) -> list:
    """The sweep's own per-run configs for the first ``runs`` runs of
    every cell (seed = seedBase + cell_index*runsPerCell + run_index)."""
    return [
        dataclasses.replace(spec.base, obstacle_true_max_vel=vel, reaction_radius=radius,
                            seed=spec.seed_base + i * spec.runs_per_cell + r)
        for i, (vel, radius) in enumerate(spec.cells())
        for r in range(runs)
    ]


def observations(trace) -> list:
    """The observation stream simulate fed its monitor, rebuilt from the
    recorded states: at tick k the monitor sees the robot as it was
    after tick k-1 and the obstacle one tick later still (tick-0
    convention: the start position)."""
    s = trace.states
    return [
        monitor.Observation(t=s[k].t, robot_x=s[k - 1].robot_x, robot_v=s[k - 1].robot_v,
                               obstacle_x=s[max(k - 2, 0)].obstacle_x)
        for k in range(1, len(s))
    ]


def feed(config, stream) -> list[float]:
    """Feedback times of a fresh monitor fed ``stream``."""
    state = monitor.new_monitor(model.Assumptions(
        assumed_obstacle_max_vel=config.assumed_obstacle_max_vel,
        visual_radius=config.visual_range, buffer=config.buffer,
        reaction_radius=config.reaction_radius,
    ))
    times = []
    for obs in stream:
        state, feedback = monitor.observe(state, obs)
        if feedback is not None:
            times.append(feedback.t)
    return times


def sim_metrics(spec, size: str, checks: Checks) -> dict:
    episode_us, ticks = [], 0
    for config in episode_configs(spec, EPISODES_PER_CELL[size]):
        started = time.perf_counter()
        trace = sim.simulate(config, collect_states=False)
        episode_us.append((time.perf_counter() - started) * 1e6)
        ticks += trace.ticks

    streams, trips = [], 0
    for config in episode_configs(spec, STREAMS_PER_CELL[size]):
        trace = sim.simulate(config, collect_states=True)
        stream = observations(trace)
        expected = [e.t for e in trace.events if isinstance(e, monitor.Feedback)]
        checks.expect(feed(config, stream) == expected,
                      f"rebuilt monitor stream of seed {config.seed} differs")
        streams.append((config, stream))
        trips += len(expected)

    n_obs = sum(len(stream) for _, stream in streams)
    means = []
    for _ in range(TIMING_REPS):
        started = time.perf_counter()
        for config, stream in streams:
            feed(config, stream)
        means.append((time.perf_counter() - started) / n_obs)
    observe_us = statistics.median(means) * 1e6
    total_us = sum(episode_us)
    return {
        "monitor.observe_us": observe_us,
        "monitor.trips": trips,
        "sim.episode_us.p50": statistics.median(episode_us),
        "sim.episode_us.p99": quantile(episode_us, 99),
        "sim.ticks": ticks,
        "sim.ticks_per_s": ticks / total_us * 1e6,
        "sim.observe_share": observe_us * ticks / total_us,
    }


def cli_probe(run: Run, fix_text: str, checks: Checks) -> dict:
    """Wall times of a bare interpreter, of importing the CLI, of set-up,
    and of `check` on the check_fixpoint scenario next to the same
    exploration in process (medians; the two alternate, so that both see
    the same machine)."""
    def median_wall(argv):
        return statistics.median(run_child(argv, run.workdir).wall_s for _ in range(CLI_REPS))

    path = run.workdir / "fixpoint.json"
    path.write_text(fix_text)
    scenario = model.load_scenario(fix_text)
    verdict_walls, explore_walls = [], []
    for _ in range(EXPLORE_REPS):
        res = run_child(cli("check", str(path)), run.workdir)
        checks.expect(res.code == 0 and parse_json(res.stdout).get("outcome") == "Holds",
                      "check_fixpoint CLI verdict is not Holds")
        verdict_walls.append(res.wall_s)
        started = time.perf_counter()
        checker.check_safety(scenario)
        explore_walls.append(time.perf_counter() - started)
    return {
        "interpreter": median_wall([sys.executable, "-c", "pass"]),
        "import": median_wall([sys.executable, "-c", "import passivesafe.cli"]),
        "setup": SetupProbe("scenario", [path], run.workdir).median(CLI_REPS, scale=False),
        "verdict": statistics.median(verdict_walls),
        "explore": statistics.median(explore_walls),
    }
