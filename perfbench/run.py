"""passivesafe benchmark: one command, three workloads, checked outputs.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|small]

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src`` directory.  With ``--trace 0`` the run drives
the user-facing CLI in child processes and reports the end-to-end
metrics; with ``--trace 1`` it replays every workload in process, with a
span around each call into a public function, and reports the per-layer
metrics (see layers.py).  The metric names and units are those declared
in BENCHMARK.json.

Standard output ends with three JSON lines: the context of the result
(machine, interpreter, source revision, seed, sizes), the metrics of
the workload under the names of its definition (README.md), and the
result object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every output check passed, 1 when one failed and 2
when the benchmark could not run.  ``--size small`` shrinks every input
for the self-test (selftest.py).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from harness import (CHILD, Run, SetupProbe, metric, parse_json, quantile, run_child,
                     run_sampled)
from speed import REFERENCE_S, scaled

# ---------------------------------------------------------------------------
# End-to-end workloads (tracing off)
#
# Each returns (metrics, workload_metrics, attempted, failed, sizes).  The
# four metrics declared in BENCHMARK.json are kept uniform across
# workloads; an "operation" is what a user of the CLI waits for:
#   check_fixpoint  one `check` process, launch to exit
#   check_scan      one scenario: `check`, plus `replay` when violated
#   sweep_grid      one `sweep` process (latency at 1 worker,
#                   throughput at 2 workers)
# Times are scaled to the reference speed of speed.py (the machine's
# speed drifts by up to half for seconds to minutes at a time, and the
# scaling cancels most of it) and are medians over the run's operations,
# which ignore what drift is left in a minority of them.
# ``machine_speed`` on the workload_metrics line is REFERENCE_S over the
# median loop time: the wall time of an operation is its scaled time
# divided by it.
# ---------------------------------------------------------------------------

def e2e_check_fixpoint(run: Run):
    path = wl.write_json(run.workdir / "fixpoint.json", wl.fixpoint_scenario(run.seed, run.size))
    setup = SetupProbe("scenario", [path], run.workdir)
    walls, loops, rss, failed = [], [], [], 0
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < run.seconds:
        setup.sample()
        res = run_sampled(["cli", "check", str(path)], run.workdir)
        walls.append(res.scaled_s)
        loops.append(res.loop_s)
        rss.append(res.rss_mb)
        if res.code != 0 or parse_json(res.stdout).get("outcome") != "Holds":
            failed += 1
    setup_s = setup.median()
    verdict_s = statistics.median(walls)
    peak_rss = statistics.fmean(rss)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "latency_ms.p50": verdict_s * 1e3,
        "ops_per_s": 1 / verdict_s,
    }
    named = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "failed_ratio": metric(failed / len(walls), "1"),
        "verdict_s": metric(verdict_s, "s"),
        "machine_speed": metric(REFERENCE_S / statistics.median(loops), "1"),
    }
    sizes = {"movers": list(wl.FIXPOINT_PAIR[run.size]), "checks": len(walls)}
    return metrics, named, len(walls), failed, sizes


def scan_inputs(run: Run) -> tuple[list[dict], list[Path]]:
    points, files = [], []
    for i, (point, scenario) in enumerate(wl.scan_scenarios(run.seed, run.size)):
        points.append(point)
        files.append(wl.write_json(run.workdir / f"scan-{i}.json", scenario))
    return points, files


def scan_record_ok(point: dict, record: dict) -> bool:
    """A scenario passes when its verdict is the one the assumption
    predicts, the exit code matches the verdict, and a violated check's
    trace replays to a violation with exit code 0."""
    verdict = wl.expected_verdict(point)
    outcome = parse_json(record["check"]).get("outcome")
    if outcome != verdict or record["checkRc"] != {"Holds": 0, "Violated": 2}[verdict]:
        return False
    if verdict == "Violated":
        return (record["replayRc"] == 0
                and parse_json(record["replay"]).get("violatesPassiveSafety") is True)
    return record["replayRc"] is None


def e2e_check_scan(run: Run):
    points, files = scan_inputs(run)
    setup = SetupProbe("scenario", files, run.workdir)
    manifest = wl.write_json(run.workdir / "scan-manifest.json", {
        "seed": run.seed,
        "scenarios": [str(f) for f in files],
        "traces": [str(run.workdir / f"scan-{i}.trace.jsonl") for i in range(len(files))],
    })
    out = run.workdir / "scan-out.json"
    records, rss = [], []
    started = time.perf_counter()
    while not rss or time.perf_counter() - started < run.seconds:
        setup.sample()
        res = run_child([sys.executable, str(CHILD), "scan", str(manifest), str(len(rss)),
                         str(out)], run.workdir)
        if res.code != 0:
            raise RuntimeError(f"scan batch failed: {res.stderr.strip()}")
        records += json.loads(out.read_text())
        rss.append(res.rss_mb)
    setup_s = setup.median()
    peak_rss = statistics.fmean(rss)
    failed = sum(not scan_record_ok(points[r["index"]], r) for r in records)
    # A design point's time is its median over the passes, so that a burst
    # of machine speed covering a minority of the passes moves nothing.
    by_point = [[] for _ in points]
    for r in records:
        by_point[r["index"]].append(scaled(r["ms"], r["loopS"]))
    point_ms = [statistics.median(ms) for ms in by_point]
    p50, p90 = statistics.median(point_ms), quantile(point_ms, 90)
    per_s = len(point_ms) / sum(point_ms) * 1e3
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "latency_ms.p50": p50,
        "ops_per_s": per_s,
    }
    named = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "failed_ratio": metric(failed / len(records), "1"),
        "latency_ms.p50": metric(p50, "ms"),
        "latency_ms.p90": metric(p90, "ms"),
        "scenarios_per_s": metric(per_s, "1/s"),
        "machine_speed": metric(REFERENCE_S / statistics.median(r["loopS"] for r in records), "1"),
    }
    sizes = {"design_points": len(points), "passes": len(rss), "scenarios": len(records)}
    return metrics, named, len(records), failed, sizes


def e2e_sweep_grid(run: Run):
    spec = wl.sweep_spec(run.seed, run.size)
    path = wl.write_json(run.workdir / "sweep.json", spec)
    setup = SetupProbe("sweep", [path], run.workdir)
    csv_path = run.workdir / "sweep.csv"
    walls = {w: [] for w in wl.SWEEP_WORKERS}
    loops, rss, failed, reference = [], [], 0, None
    started = time.perf_counter()
    while not walls[1] or time.perf_counter() - started < run.seconds:
        for workers in wl.SWEEP_WORKERS:
            setup.sample()
            res = run_sampled(["cli", "sweep", str(path), "--out", str(csv_path),
                               "--workers", str(workers)], run.workdir)
            walls[workers].append(res.scaled_s)
            loops.append(res.loop_s)
            rss.append(res.rss_mb)
            csv = csv_path.read_text() if res.code == 0 else ""
            reference = reference if reference is not None else csv
            if (res.code != 0 or csv != reference
                    or wl.sweep_csv_problems(csv, spec["runsPerCell"])):
                failed += 1
            csv_path.unlink(missing_ok=True)
    setup_s = setup.median()
    w1, w2 = statistics.median(walls[1]), statistics.median(walls[2])
    peak_rss = statistics.fmean(rss)
    attempted = len(walls[1]) + len(walls[2])
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "latency_ms.p50": w1 * 1e3,
        "ops_per_s": 1 / w2,
    }
    named = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "failed_ratio": metric(failed / attempted, "1"),
        "sweep_s.w1": metric(w1, "s"),
        "sweep_s.w2": metric(w2, "s"),
        "machine_speed": metric(REFERENCE_S / statistics.median(loops), "1"),
    }
    sizes = {"cells": len(wl.SWEEP_VELS) * len(wl.SWEEP_RADII),
             "runs_per_cell": spec["runsPerCell"], "seed_base": spec["seedBase"],
             "sweeps_per_worker_count": len(walls[1])}
    return metrics, named, attempted, failed, sizes


E2E = {
    "check_fixpoint": e2e_check_fixpoint,
    "check_scan": e2e_check_scan,
    "sweep_grid": e2e_sweep_grid,
}


# ---------------------------------------------------------------------------
# Context of a result
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of a git checkout at the root, read without leaving it."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "passivesafe").rglob("*.py")):
        digest.update(path.relative_to(wl.SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def context(args, sizes: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "sizes": sizes,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=wl.SIZES, default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (wl.SRC / "passivesafe" / "cli.py").is_file():
        print(f"no passivesafe sources under {wl.SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    wl.OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=tag + "-", dir=wl.OUT))
    run = Run(args.workload, args.seed, args.seconds, args.size, workdir)
    try:
        if args.trace:
            import layers
            spans = wl.OUT / f"{tag}.spans.jsonl"
            values, named, attempted, failed, sizes = layers.traced_run(run, spans)
        else:
            values, named, attempted, failed, sizes = E2E[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(values[name], unit) for name, unit in declared.items()},
    }
    record = {"context": context(args, sizes), "workload_metrics": named, "result": result}
    wl.write_json(wl.OUT / f"{tag}.json", record)
    print(json.dumps({"context": record["context"]}))
    print(json.dumps({"workload_metrics": named}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
