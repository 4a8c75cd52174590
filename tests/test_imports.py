"""gmlu loads its submodules lazily: a command executes only the modules it
reads, and the package's names resolve on first access.

A lazy module sits in ``sys.modules`` before it is executed; its type is
a subclass of ``types.ModuleType`` until then, and reading any of its
attributes (``__class__`` too) executes it.  So a module counts as
executed here when ``type(module) is types.ModuleType``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmlu

ROOT = Path(__file__).parent.parent

# the package's public names by defining module
HOMES = {
    "classes": ["AdmissibleTuple", "class_size", "enumerate_admissible", "tuple_of_profile"],
    "config": ["ScaleCapError", "SearchCaps"],
    "formulas": ["Formula", "counting_depth", "format_formula", "size"],
    "models": ["ModelProfile", "PointedProfile", "evaluate"],
    "vocab": ["Vocabulary"],
}

# run in a fresh interpreter: import gmlu.cli, run the command in argv (if
# any) with its output dropped, and report what sys.modules then holds
PROBE = """
import contextlib, io, json, sys, types
import gmlu.cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert gmlu.cli.main(argv) == 0
gmlu_modules = [k for k in sys.modules if k == "gmlu" or k.startswith("gmlu.")]
print(json.dumps({
    "registered": gmlu_modules,
    "executed": [k for k in gmlu_modules if type(sys.modules[k]) is types.ModuleType],
    "stdlib": [k for k in ("csv", "fractions") if k in sys.modules],
}))
"""


# run under ``python -S`` (so that ``site`` imports nothing) with the
# command as argv: which of the stdlib modules only some reports need are
# then imported, space-separated
BARE_PROBE = """
import contextlib, io, sys
import gmlu.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert gmlu.cli.main(sys.argv[1:]) == 0
print(" ".join(m for m in ("json", "fractions", "decimal") if m in sys.modules))
"""


def _output(*args: str) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMLU_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _probe(code: str, *args: str) -> dict:
    return json.loads(_output("-c", code, *args))


def _run(argv) -> dict:
    return _probe(PROBE, json.dumps(argv))


def _traced_modules() -> set:
    """The modules named in ``SPANS`` of perfbench/tracer.py, read without
    importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return {module for module, _, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def test_importing_the_cli_executes_only_what_parsing_needs():
    got = _run([])
    assert sorted(got["executed"]) == ["gmlu", "gmlu.cli", "gmlu.config", "gmlu.vocab"]
    assert got["stdlib"] == []


def test_every_traced_module_is_registered_by_importing_the_cli():
    # the tracer reads sys.modules[...] for each of them right after
    # ``import gmlu.cli``
    assert _traced_modules() <= set(_run([])["registered"])


@pytest.mark.parametrize("argv, unused", [
    (["game", "solve", "--tau", "p", "--d", "1", "--r", "3",
      "--left", "2,0@0", "--right", "1,1@1"],
     ["classes", "combinatorics", "complexity", "distribution"]),
    (["entropy", "--tau", "p", "--n", "3", "--d", "1"],
     ["game", "complexity", "formulas", "models"]),
    (["complexity", "--tau", "p", "--n", "3", "--d", "2", "--exact"],
     ["game", "distribution"]),
], ids=["game-solve", "entropy", "complexity-exact"])
def test_a_command_executes_none_of_the_modules_it_does_not_use(argv, unused):
    executed = set(_run(argv)["executed"])
    assert "gmlu.cli" in executed
    assert executed.isdisjoint(f"gmlu.{name}" for name in unused)


@pytest.mark.parametrize("argv", [
    ["complexity", "--tau", "p", "--n", "3", "--d", "2", "--exact"],
    ["verify", "monotone", "--tau", "p", "--n", "8", "--d", "2", "--mode", "exact"],
    ["entropy-sweep", "--tau", "p,q", "--n", "6"],
], ids=["complexity-exact", "monotone-exact", "entropy-sweep"])
def test_a_text_report_imports_neither_json_nor_fractions(argv):
    assert _output("-S", "-c", BARE_PROBE, *argv) == "\n"


@pytest.mark.parametrize("argv, modules", [
    (["entropy", "--tau", "p", "--n", "3", "--d", "1", "--format", "json"], "json"),
    (["phase", "majority", "--tau", "p", "--n", "8", "--d", "1"], "fractions decimal"),
    (["phase", "constants", "--tau", "p", "--format", "json"], "json"),
], ids=["json-report", "majority", "json-scalars"])
def test_a_report_imports_json_or_fractions_where_it_prints_them(argv, modules):
    assert _output("-S", "-c", BARE_PROBE, *argv) == modules + "\n"


def test_importing_the_package_executes_no_submodule():
    got = _probe("import json, sys, types, gmlu; print(json.dumps("
                 "[k for k, m in sys.modules.items() if k.startswith('gmlu') "
                 "and type(m) is types.ModuleType]))")
    assert got == ["gmlu"]


def test_package_names_are_the_defining_modules_objects():
    assert sorted(gmlu.__all__) == sorted(
        [name for names in HOMES.values() for name in names] + ["__version__"]
    )
    for module, names in HOMES.items():
        home = importlib.import_module(f"gmlu.{module}")
        for name in names:
            assert getattr(gmlu, name) is getattr(home, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from gmlu import *", namespace)
    assert set(gmlu.__all__) <= namespace.keys()
    assert namespace["__version__"] == gmlu.__version__
    assert set(gmlu.__all__) <= set(dir(gmlu))


def test_an_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gmlu.no_such_name  # noqa: B018
    assert not hasattr(gmlu, "__no_such_dunder__")



def test_every_import_of_a_module_is_read_in_it():
    """Each name a ``src/gmlu`` module imports, at any level, is read
    somewhere in it (an annotation counts); ``__future__`` imports bind
    no name."""
    unread = {}
    for path in sorted((ROOT / "src" / "gmlu").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.setdefault(path.name, []).append(name)
    assert unread == {}
