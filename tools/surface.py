"""Print the size of the package and of its command-line surface.

Usage, from the root of a checkout::

    python3 tools/surface.py

It lists every (action, option) pair of ``gmlu``'s argument parser, one
a line, then four totals: the lines of the ``src/gmlu`` modules, the
number of pairs, the number of ``GMLU_*`` environment overrides (the
``SearchCaps`` fields), each as settable as an option, and the number of
``gmlu`` modules that ``import gmlu.cli`` executes, counted in a fresh
interpreter (a module that is loaded lazily but not yet read does not
count).  An action is a
leaf of the parser, with each choice of a positional argument counted as
its own action (``game solve`` and ``game trace`` are two); an option is
a flag of that leaf other than ``--help`` and ``--format``, which every
leaf has.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from gmlu.cli import build_parser  # noqa: E402
from gmlu.config import SearchCaps  # noqa: E402

SHARED = {"--help", "--format"}


def action_options(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """(action, option) pairs under ``parser``, in parser order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from action_options(sub, (*path, name))
            return
    options = [max(a.option_strings, key=len) for a in parser._actions
               if a.option_strings and SHARED.isdisjoint(a.option_strings)]
    actions = [path]
    for positional in parser._actions:
        if not positional.option_strings and positional.choices:
            actions = [(*a, choice) for a in actions for choice in positional.choices]
    for action in actions:
        for option in options:
            yield " ".join(action), option


# a lazy module not yet executed is of a subclass of ModuleType
_EXECUTED_AT_IMPORT = (
    "import sys, types, gmlu.cli; print(sum(type(m) is types.ModuleType "
    "for k, m in sys.modules.items() if k == 'gmlu' or k.startswith('gmlu.')))"
)


def modules_at_import() -> int:
    """The number of gmlu modules that ``import gmlu.cli`` executes."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _EXECUTED_AT_IMPORT], env=env,
                          capture_output=True, text=True, check=True)
    return int(proc.stdout)


def main() -> int:
    pairs = list(action_options(build_parser()))
    for action, option in pairs:
        print(f"{action} {option}")
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "gmlu").glob("*.py"))
    print(f"src/gmlu lines: {lines}")
    print(f"(action, option) pairs: {len(pairs)}")
    print(f"GMLU_* overrides: {len(SearchCaps._fields)}")
    print(f"modules run by import gmlu.cli: {modules_at_import()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
