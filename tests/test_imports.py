"""The package's import surface: each half loads only what it needs.

``passivesafe check`` must not pay for the runtime half, and a sweep must
not pay for the checker.  Each case runs in a fresh interpreter, since
this test process has imported everything already.
"""
import importlib
import subprocess
import sys
from pathlib import Path

import passivesafe

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = str(Path(passivesafe.__file__).resolve().parent.parent)


def _last_line(statement: str, flags: tuple[str, ...] = ()) -> list[str]:
    """The words of the last line ``statement`` prints, run in a fresh
    interpreter started with ``flags`` that imports this package."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", f"import sys; sys.path.insert(0, {SRC!r}); {statement}"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _loaded_after(statement: str, names: list[str], flags: tuple[str, ...] = ()) -> list[str]:
    """The modules of ``names`` loaded once ``statement`` has run; what
    the statement prints comes before the last line and is ignored."""
    return _last_line(f"{statement}; print(*[m for m in {names!r} if m in sys.modules])", flags)


def test_cli_loads_no_runtime_half_and_no_hashlib():
    names = ["passivesafe.sim", "passivesafe.monitor", "passivesafe.sweep", "hashlib"]
    assert _loaded_after("import passivesafe.cli", names) == []


def test_check_and_replay_load_no_dataclasses(tmp_path):
    """The grid half's records are named tuples: a `check` that writes a
    counterexample and its `replay` import neither ``dataclasses`` nor
    the ``inspect`` it pulls in."""
    scenario, trace = str(CONFIGS / "head_on_under_assumption.json"), str(tmp_path / "cex.jsonl")
    statement = (f"from passivesafe import cli; "
                 f"assert cli.main(['check', {scenario!r}, '--trace', {trace!r}]) == 2; "
                 f"assert cli.main(['replay', {scenario!r}, {trace!r}]) == 0")
    assert _loaded_after(statement, ["dataclasses", "inspect"]) == []


def test_check_and_replay_load_no_pathlib_or_random(tmp_path):
    """Under ``-S``, as a site ``.pth`` file may load both beforehand."""
    scenario, trace = str(CONFIGS / "head_on_under_assumption.json"), str(tmp_path / "cex.jsonl")
    statement = (f"from passivesafe import cli; "
                 f"assert cli.main(['check', {scenario!r}, '--trace', {trace!r}]) == 2; "
                 f"assert cli.main(['replay', {scenario!r}, {trace!r}]) == 0")
    assert _loaded_after(statement, ["pathlib", "random"], flags=("-S",)) == []


def test_sweep_loads_no_typing():
    """Under ``-S``, as a site ``.pth`` file may load it beforehand."""
    assert _loaded_after("import passivesafe.sweep", ["typing"], flags=("-S",)) == []


def test_runtime_records_are_named_tuples_except_the_configs():
    """Only the two configs that callers edit with ``dataclasses.replace``
    are dataclasses; ``MonitorState`` is a plain class."""
    statement = ("import dataclasses, passivesafe.sweep; "
                 "print(*[name for module in ('sim', 'monitor', 'sweep') "
                 "for name, value in vars(sys.modules['passivesafe.' + module]).items() "
                 "if dataclasses.is_dataclass(value) "
                 "and value.__module__ == 'passivesafe.' + module])")
    assert _last_line(statement) == ["SimConfig", "SweepSpec"]


def test_sweep_loads_no_checker():
    assert _loaded_after("import passivesafe.sweep", [
        "passivesafe.checker", "passivesafe.automata", "passivesafe.kinematics"]) == []


def test_parallel_sweep_loads_no_process_pool():
    statement = ("from passivesafe import SweepSpec, run_sweep; "
                 "run_sweep(SweepSpec(obstacle_vel_grid=(0.2, 0.3), reaction_radius_grid=(0.8,), "
                 "runs_per_cell=1), workers=2)")
    assert _loaded_after(statement, ["concurrent.futures", "multiprocessing", "pickle"]) == []


def test_every_export_is_its_submodules_object():
    for name in passivesafe.__all__:
        value = getattr(passivesafe, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(passivesafe, "no_such_name")


def test_submodules_import_from_the_package():
    assert _loaded_after(
        "from passivesafe import automata, checker, kinematics, model, monitor, sim, sweep; "
        "import passivesafe; assert passivesafe.sim is sim",
        ["passivesafe.checker", "passivesafe.sim"],
    ) == ["passivesafe.checker", "passivesafe.sim"]
    # A submodule is also an attribute of the bare package, loaded on first use.
    assert _loaded_after("import passivesafe; passivesafe.checker.check_safety",
                         ["passivesafe.checker", "passivesafe.sim"]) == ["passivesafe.checker"]
