"""The package's import surface: each half loads only what it needs.

``passivesafe check`` must not pay for the runtime half, and a sweep must
not pay for the checker.  Each case runs in a fresh interpreter, since
this test process has imported everything already.
"""
import ast
import contextlib
import importlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_holds_check_loads_no_hashlib():
    """Only a counterexample's states are digested, and only a Violated
    check loads the counterexample format.  Under ``-S``, as a site
    ``.pth`` file may load ``hashlib`` beforehand."""
    scenario = str(CONFIGS / "head_on.json")
    statement = f"from passivesafe import cli; assert cli.main(['check', {scenario!r}]) == 0"
    assert _loaded_after(statement, ["passivesafe.counterexample", "hashlib"],
                         flags=("-S",)) == []


def test_replay_loads_no_search(tmp_path):
    """``replay`` needs the counterexample format and the reference step,
    not the checker."""
    from passivesafe import cli
    scenario, trace = str(CONFIGS / "head_on_under_assumption.json"), str(tmp_path / "cex.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", scenario, "--trace", trace]) == 2
    statement = (f"from passivesafe import cli; "
                 f"assert cli.main(['replay', {scenario!r}, {trace!r}]) == 0")
    assert _loaded_after(statement, ["passivesafe.checker"], flags=("-S",)) == []


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


def test_every_export_is_named_by_the_package_or_the_benchmark():
    """Each name in ``__all__`` is named by the CLI, the runtime or the
    benchmark: by a top-level statement of a submodule or of
    ``perfbench/``, not counting its own ``def`` or ``class``, nor the
    body of another export that nothing names.  Code that only tests call
    lives in ``tests/helpers.py``."""
    exports = set(passivesafe.__all__)
    package = Path(passivesafe.__file__).resolve().parent
    statements = []     # (the name a top-level statement defines, the names it mentions)
    for path in [*package.glob("*.py"), *(CONFIGS.parent / "perfbench").glob("*.py")]:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            mentioned = {getattr(n, "id", None) or getattr(n, "attr", None)
                         or getattr(n, "name", None) for n in ast.walk(node)}
            statements.append((getattr(node, "name", None), mentioned))
    named, grown = set(), True
    while grown:
        before = len(named)
        for defined, mentioned in statements:
            if defined not in exports or defined in named:
                named |= (mentioned & exports) - {defined}
        grown = len(named) > before
    assert [name for name in passivesafe.__all__ if name not in named] == []


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


def test_every_name_the_benchmark_reads_resolves():
    """``perfbench/`` reads names off the package's submodules, as
    attributes of a submodule it imports from ``passivesafe`` or by a
    ``from passivesafe.<module> import``.  Each must resolve, forwarded
    ones included, so that no edit to a submodule's own imports takes a
    name the benchmark still reads."""
    read = set()    # (submodule, name)
    for path in (CONFIGS.parent / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        submodules = {}     # local name -> submodule
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "passivesafe":
                submodules.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").startswith("passivesafe."):
                read.update((node.module.split(".", 1)[1], alias.name) for alias in node.names)
        read.update((submodules[node.value.id], node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in submodules)
    assert {("checker", "is_passive_safe"), ("checker", "replay_trace"), ("cli", "main")} <= read
    missing = [f"{module}.{name}" for module, name in sorted(read)
               if not hasattr(importlib.import_module(f"passivesafe.{module}"), name)]
    assert missing == []


def _names_read_of(owner: str) -> dict[str, set[str]]:
    """Per module of the package other than ``owner``, the names it reads
    of ``owner``: by ``from .<owner> import`` or as attributes of the
    module itself, imported from the package."""
    read = {}
    for path in Path(passivesafe.__file__).resolve().parent.glob("*.py"):
        if path.stem == owner:
            continue
        tree = ast.parse(path.read_text())
        names, bound = set(), set()     # bound: local names of the module itself
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = ("passivesafe." if node.level else "") + (node.module or "")
            if module == f"passivesafe.{owner}":
                names.update(alias.name for alias in node.names)
            elif module in ("passivesafe", "passivesafe."):
                bound.update(alias.asname or alias.name for alias in node.names
                             if alias.name == owner)
        names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id in bound)
        read[path.stem] = names
    return read


def _private(read: dict[str, set[str]]) -> dict[str, list[str]]:
    return {module: sorted(name for name in names if name.startswith("_"))
            for module, names in read.items() if any(n.startswith("_") for n in names)}


def test_no_module_reads_a_private_name_of_the_counterexample_format():
    """Only ``counterexample`` builds, writes, reads and replays a trace:
    every other module of the package reads public names of it alone.
    The checker's rebuild hands it the reached states through
    ``trace_of``."""
    read = _names_read_of("counterexample")
    assert _private(read) == {}
    assert "trace_of" in read["checker"] and "trace_to_jsonl" in read["cli"]


@pytest.mark.parametrize("owner, called", [
    ("automata", {"robot_decide", "DODGING_MODES", "free_side_lane"}),
    ("kinematics", {"danger_from", "stands_ahead", "blocks_lane"}),
])
def test_no_module_reads_a_private_name_of_the_grid_rules(owner, called):
    """The robot's rules are public functions of plain values: the checker
    calls ``robot_decide`` and the per-obstacle rules on the ints of its
    keys, and no module reads a private name of their modules, no
    sentinel included."""
    read = _names_read_of(owner)
    assert _private(read) == {}
    assert called <= read["checker"]
