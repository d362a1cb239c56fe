"""Child-process entry points of the benchmark.

  python3 perfbench/child.py setup LOOPS scenario FILE...  import the CLI and parse scenarios
  python3 perfbench/child.py setup LOOPS sweep FILE        import the CLI and parse a sweep spec
  python3 perfbench/child.py cli LOOPS ARGS...             run `passivesafe ARGS`
  python3 perfbench/child.py scan MANIFEST PASS OUT        run one pass of the check_scan batch

All run with ``src`` on PYTHONPATH.  ``setup`` is the work every CLI
call pays before it explores or simulates anything.  ``cli`` is what the
``passivesafe`` command does: ``sys.exit(passivesafe.cli.main(ARGS))``.
Both sample the reference loop of speed.py as they work, and write the
samples to the file LOOPS, one a line.  ``scan`` drives
``passivesafe.cli.main`` in one interpreter over every scenario of the
manifest, in the seeded order of the pass, times each scenario between
two runs of the reference loop, and leaves the oracles and
the scaling to the parent.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import time
from pathlib import Path

from speed import SAMPLE_EVERY_S, SAMPLE_ITERATIONS, reference_loop


@contextlib.contextmanager
def sampling(loops_path: str):
    """Time the reference loop before and after the body, and from a
    SIGALRM handler every SAMPLE_EVERY_S while it runs, in this process
    and in every process it forks (the workers of `sweep`): the samples
    see the CPUs and the moments that the work sees.  Each sample is
    appended to LOOPS as one line; together they cost about 1% of the
    work's time."""
    fd = os.open(loops_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def sample(*_) -> None:
        os.write(fd, f"{reference_loop(SAMPLE_ITERATIONS)!r}\n".encode())

    def start() -> None:
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    os.register_at_fork(after_in_child=start)
    sample()
    start()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sample()
        os.close(fd)


def setup(kind: str, files: list[str]) -> None:
    import passivesafe.cli  # noqa: F401  (the import is part of the measured set-up)
    from passivesafe.model import load_scenario
    from passivesafe.sweep import load_sweep_spec

    load = load_scenario if kind == "scenario" else load_sweep_spec
    for name in files:
        load(Path(name).read_text())


def scan(manifest_path: str, pass_index: str, out_path: str) -> None:
    from passivesafe.cli import main

    from workloads import scan_order

    manifest = json.loads(Path(manifest_path).read_text())
    files = manifest["scenarios"]
    traces = manifest["traces"]
    records = []
    loop_before = reference_loop()
    for i in scan_order(manifest["seed"], int(pass_index), len(files)):
        check_out, replay_out = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(check_out):
            check_rc = main(["check", files[i], "--trace", traces[i]])
        replay_rc = None
        if check_rc == 2:
            with contextlib.redirect_stdout(replay_out):
                replay_rc = main(["replay", files[i], traces[i]])
        t1 = time.perf_counter()
        loop_after = reference_loop()
        records.append({
            "index": i, "ms": (t1 - t0) * 1e3, "loopS": (loop_before + loop_after) / 2,
            "checkRc": check_rc, "check": check_out.getvalue(),
            "replayRc": replay_rc, "replay": replay_out.getvalue(),
        })
        loop_before = loop_after
    Path(out_path).write_text(json.dumps(records))


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    if command == "setup":
        with sampling(rest[0]):
            setup(rest[1], rest[2:])
    elif command == "cli":
        with sampling(rest[0]):
            from passivesafe.cli import main
            code = main(rest[1:])
        sys.exit(code)
    elif command == "scan":
        scan(*rest)
    else:
        raise SystemExit(f"unknown command {command!r}")
