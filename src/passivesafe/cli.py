"""Command-line front end.

Subcommands:
  check     verify a grid scenario; prints the verdict as JSON and, on a
            violation, writes the counterexample trace as JSONL
  simulate  run one seeded runtime episode, optionally writing its trace
  sweep     run the collision-count grid and write a CSV
  replay    re-execute a counterexample trace against its scenario

Exit codes: 0 safe/holds, 2 violated/active collision, 3 inconclusive
(state budget or tick budget exhausted), 64 usage error, 65 malformed
input data (a file that is not UTF-8 included), 66 a file that is
missing, cannot be read or cannot be written.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .model import (DEFAULT_STATE_BUDGET, ScenarioError, TraceError, load_scenario, parse_json,
                    read_utf8, scenario_from_dict)

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


class _FileError(Exception):
    pass


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _read(path: str) -> str:
    try:
        return read_utf8(path)
    except OSError as e:
        raise _FileError(f"cannot read {path}: {e.strerror}")


def _write(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as out:
            out.write(text)
    except OSError as e:
        raise _FileError(f"cannot write {path}: {e.strerror}")


def _cmd_check(args) -> int:
    from . import checker
    # Shape only: check_safety validates the scenario.
    scenario = scenario_from_dict(parse_json(_read(args.scenario)))
    verdict = checker.check_safety(
        scenario, depth_bound=args.depth, state_budget=args.budget
    )
    trace_path = None
    if verdict.counterexample is not None:
        trace_path = args.trace
        if trace_path is None:
            from pathlib import PurePath   # only here: `check --trace` loads no pathlib
            trace_path = PurePath(args.scenario).stem + ".counterexample.jsonl"
        from .counterexample import trace_to_jsonl     # only here: a Holds check loads none of it
        _write(trace_path, trace_to_jsonl(verdict.counterexample, scenario))
    print(json.dumps(checker.verdict_to_dict(verdict, trace_path)))
    if verdict.outcome is checker.Outcome.INCONCLUSIVE:
        stats = verdict.stats
        print(f"inconclusive: state budget {args.budget} exceeded: {stats.states} states, "
              f"{stats.transitions} transitions, peak frontier {stats.peak_frontier}, "
              f"max depth {stats.max_depth}", file=sys.stderr)
    return {
        checker.Outcome.HOLDS: 0,
        checker.Outcome.VIOLATED: 2,
        checker.Outcome.INCONCLUSIVE: 3,
    }[verdict.outcome]


def _cmd_simulate(args) -> int:
    from .sim import SimOutcome, load_sim_config, simulate, trace_to_jsonl
    config = load_sim_config(_read(args.config))
    if args.seed is not None:
        from dataclasses import replace
        config = replace(config, seed=args.seed)
    trace = simulate(config, collect_states=args.trace is not None)
    if args.trace:
        _write(args.trace, trace_to_jsonl(trace))
    print(json.dumps({
        "outcome": trace.outcome.value,
        "ticks": trace.ticks,
        "seed": config.seed,
    }))
    if trace.outcome is SimOutcome.ACTIVE_COLLISION:
        return 2
    if trace.outcome is SimOutcome.TICK_BUDGET_EXHAUSTED:
        return 3
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import load_sweep_spec, run_sweep, sweep_result_to_csv
    spec = load_sweep_spec(_read(args.spec))   # validates every cell's config
    # Fail on an unwritable --out before any episode runs; appending
    # nothing keeps an existing file's bytes until the CSV is ready.
    created = not os.path.lexists(args.out)
    _write(args.out, "", mode="a")
    try:
        result = run_sweep(spec, workers=args.workers)
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    _write(args.out, sweep_result_to_csv(result))
    print(json.dumps({
        "cells": len(result.cells),
        "runsPerCell": spec.runs_per_cell,
        "out": args.out,
    }))
    return 0


def _cmd_replay(args) -> int:
    from .counterexample import replay_jsonl
    from .kinematics import is_passive_safe
    scenario = load_scenario(_read(args.scenario))
    trace, final = replay_jsonl(scenario, _read(args.trace))
    violating = not is_passive_safe(final)
    print(json.dumps({
        "steps": len(trace.steps),
        "finalTick": final.tick,
        "violatesPassiveSafety": violating,
    }))
    return 0 if violating else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="passivesafe", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a grid scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--depth", type=_int_at_least(0), default=None,
                   help="tick bound (default: to fixpoint)")
    p.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_STATE_BUDGET,
                   help="state budget before giving up as inconclusive (default "
                        "%(default)s; at the ~260 B per state measured on three and four "
                        "movers, a search that runs into it needs about 1.3 GB)")
    p.add_argument("--trace", default=None, help="counterexample output path")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="run one runtime episode")
    p.add_argument("config", help="simulation config JSON file")
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="override the config seed")
    p.add_argument("--trace", default=None, help="trace JSONL output path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run the collision-count grid")
    p.add_argument("spec", help="sweep spec JSON file")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--workers", type=_int_at_least(1), default=1, metavar="N",
                   help="worker processes, this one included: N - 1 are forked, with at "
                        "most one process per grid cell; without os.fork the sweep runs "
                        "in this process (default 1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("replay", help="validate a counterexample trace")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("trace", help="counterexample JSONL file")
    p.set_defaults(func=_cmd_replay)

    return parser


# Built by the first main() call and reused by every later one in the
# process: parse_args leaves the parser as it was, and building it (five
# parsers, each with its own formatter and message lookups) takes about
# a quarter of a short `check`.
_parser: _Parser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except _FileError as e:
        print(str(e), file=sys.stderr)
        return EX_NOINPUT
    except (ScenarioError, TraceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EX_DATAERR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
