"""Process and statistics helpers shared by the untraced and traced runs."""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl
from speed import REFERENCE_S, scaled

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150.0

@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    size: str
    workdir: Path


@dataclass
class ChildResult:
    wall_s: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float
    loop_s: float = REFERENCE_S

    @property
    def scaled_s(self) -> float:
        return scaled(self.wall_s, self.loop_s)


def run_child(argv: list[str], workdir: Path) -> ChildResult:
    """Run ``argv`` to its exit and return its wall time and peak RSS.

    The wall time spans launch to exit.  The peak RSS comes from the
    child's own rusage (``os.wait4``), which also covers the worker
    processes it waited for.
    """
    with tempfile.TemporaryFile("w+", dir=workdir) as out, \
            tempfile.TemporaryFile("w+", dir=workdir) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=wl.ROOT,
                                env=dict(os.environ, PYTHONPATH=str(wl.SRC)))
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(wall, proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024)


def run_sampled(args: list[str], workdir: Path) -> ChildResult:
    """Run the child.py command ``args`` and return its wall time, peak RSS
    and the time of the reference loop it sampled as it worked, so that
    ``scaled_s`` is its wall time at reference speed.  The loop time is
    the harmonic mean of the samples: work done is speed integrated over
    time, and the samples are evenly spaced in time."""
    loops = workdir / "loops.txt"
    loops.unlink(missing_ok=True)
    res = run_child([sys.executable, str(CHILD), args[0], str(loops), *args[1:]], workdir)
    if loops.exists():
        res.loop_s = statistics.harmonic_mean(map(float, loops.read_text().split()))
    return res


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "passivesafe.cli", *args]


class SetupProbe:
    """Set-up time: a fresh interpreter that imports the CLI and parses the
    workload's inputs, and does nothing else.

    Samples are taken between the run's operations, so that their median
    sees the same machine as the operations do.  Each is scaled to the
    reference speed.
    """

    def __init__(self, kind: str, files: list[Path], workdir: Path):
        self.args = ["setup", kind, *map(str, files)]
        self.workdir = workdir
        self.samples: list[ChildResult] = []

    def sample(self) -> None:
        res = run_sampled(self.args, self.workdir)
        if res.code != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        self.samples.append(res)

    def median(self, minimum: int = SETUP_REPS, scale: bool = True) -> float:
        """Median set-up time, at reference speed unless ``scale`` is off."""
        while len(self.samples) < minimum:
            self.sample()
        return statistics.median(r.scaled_s if scale else r.wall_s for r in self.samples)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method of statistics.quantiles)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def parse_json(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return value if isinstance(value, dict) else {}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
