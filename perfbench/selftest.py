"""Self-test of the benchmark at small size.

  python3 perfbench/selftest.py

Runs every workload once with tracing off and once with tracing on,
with ``--size small``, and checks that

  * the run exits 0 and its last line has exactly the keys ``correct``,
    ``attempted``, ``failed`` and ``metrics``;
  * every metric declared in BENCHMARK.json comes out with its declared
    unit and a finite value, and no other metric does;
  * the workload's own metrics (verdict_s, latency_ms.p90, sweep_s.w2,
    failed_ratio and the rest) come out by name and unit;
  * every output check passed (``correct``, ``failed`` is 0).

It also runs the benchmark in a directory that holds only BENCHMARK.json
and the benchmark's files, where it must fail without a result.  Takes
about a minute.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as wl

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_ratio": "1"}
WORKLOAD_METRICS = {
    "check_fixpoint": {**COMMON, "verdict_s": "s"},
    "check_scan": {**COMMON, "latency_ms.p50": "ms", "latency_ms.p90": "ms",
                   "scenarios_per_s": "1/s"},
    "sweep_grid": {**COMMON, "sweep_s.w1": "s", "sweep_s.w2": "s"},
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)


def problems_of(workload: str, trace: int, proc, declared: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    named = json.loads(lines[-2])["workload_metrics"]
    context = json.loads(lines[-3])["context"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{result['failed']} of {result['attempted']} output checks failed")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
            problems.append(f"metric {name}: {m}")
    if not trace:
        for name, unit in WORKLOAD_METRICS[workload].items():
            if named.get(name, {}).get("unit") != unit:
                problems.append(f"workload metric {name}: {named.get(name)}")
        if named["failed_ratio"]["value"] != 0:
            problems.append("failed_ratio is not 0")
    for key in ("nproc", "python", "git_commit", "source_sha256", "seed", "sizes"):
        if key not in context:
            problems.append(f"context lacks {key}")
    return problems


def bare_directory_fails() -> list[str]:
    """Without the program's sources the benchmark must fail, quickly and
    without printing a result."""
    wl.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=wl.OUT) as tmp:
        root = Path(tmp)
        shutil.copy(wl.ROOT / "BENCHMARK.json", root)
        shutil.copytree(wl.ROOT / "perfbench", root / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_benchmark(root, "check_fixpoint", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if [w["name"] for w in bench["workloads"]] != list(wl.WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1
    failures = 0
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            problems = problems_of(workload, trace, run_benchmark(wl.ROOT, workload, trace),
                                   declared[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
    problems = bare_directory_fails()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} bare directory fails without a result")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
