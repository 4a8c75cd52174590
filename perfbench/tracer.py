"""Run one gmlu command in-process with spans around each layer's public calls.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/tracer.py entropy --tau p --n 3 --d 1

The command's standard output is written unchanged; the last line of
standard error is one JSON object:
``{"exit": <code>, "spans": {...}, "counts": {...}}``.

Each wrapped function is replaced in its defining module and in every
loaded ``gmlu`` module that bound it with ``from ... import``, so calls
through an alias are counted too; every replacement is undone on exit.
Spans are aggregated as they close: per name, the number of calls, the
inclusive time and the self time (inclusive time minus the time of the
spans directly nested in it).  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time

# (module, attribute, span name).  Several functions may share one span
# name; their calls and times are summed.
SPANS = (
    ("gmlu.cli", "main", "cli.main"),
    ("gmlu.classes", "enumerate_admissible", "classes.enumerate_admissible"),
    ("gmlu.classes", "class_size", "classes.class_size"),
    ("gmlu.combinatorics", "stirling_r_assoc", "combinatorics.stirling_r_assoc"),
    ("gmlu.distribution", "build_distribution", "distribution.build_distribution"),
    ("gmlu.distribution", "shannon_entropy", "distribution.entropy"),
    ("gmlu.distribution", "boltzmann_entropy", "distribution.entropy"),
    ("gmlu.distribution", "majority_report", "distribution.reduce"),
    ("gmlu.distribution", "dominating_class_sweep", "distribution.reduce"),
    ("gmlu.distribution", "exact_separation_probability", "distribution.reduce"),
    ("gmlu.distribution", "entropy_vs_depth", "distribution.reduce"),
    ("gmlu.distribution", "estimate_separation_probability", "distribution.sample"),
    ("gmlu.complexity", "exact_complexity", "complexity.exact_complexity"),
    ("gmlu.complexity", "minimal_separating_size", "complexity.minimal_separating_size"),
    ("gmlu.complexity", "FormulaSearch.first_outer_match", "complexity.first_outer_match"),
    ("gmlu.game", "solve", "game.solve"),
    ("gmlu.game", "strategy_trace", "game.strategy_trace"),
    ("gmlu.game", "legal_moves", "game.legal_moves"),
    ("gmlu.game", "apply_move", "game.apply_move"),
)


class Tracer:
    """Span and count aggregation for one traced command."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.tuples = 0
        self.searches: dict[int, object] = {}
        # one [child time] cell per open span
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - cell[0]
            if name == "classes.enumerate_admissible":
                self.tuples += len(result)
            elif name == "complexity.first_outer_match":
                self.searches[id(args[0])] = args[0]
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target and all its aliases; undo it all on exit."""
        modules = [
            m for k, m in sys.modules.items()
            if m is not None and (k == "gmlu" or k.startswith("gmlu."))
        ]
        undo = []
        try:
            for module_name, attr, name in SPANS:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    targets = [owner]
                else:
                    targets = modules
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                for target in targets:
                    if target.__dict__.get(attr) is original:
                        undo.append((target, attr, original))
                        setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def counts(self) -> dict:
        searches = self.searches.values()
        return {
            "classes.tuples": self.tuples,
            "complexity.search_levels": sum(s.max_built for s in searches),
            "complexity.inner_signatures": sum(
                len(level) for s in searches for level in s.inner_levels
            ),
            "complexity.outer_signatures": sum(
                len(level) for s in searches for level in s.outer_levels
            ),
        }

    def spans(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "time_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in self.calls
        }


def run(argv: list[str]) -> tuple[int, str, Tracer]:
    """Run ``gmlu.cli.main(argv)`` traced; return exit code, stdout, tracer."""
    import gmlu.cli

    tracer = Tracer()
    out = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out):
        try:
            code = gmlu.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), tracer


def main() -> int:
    code, text, tracer = run(sys.argv[1:])
    sys.stdout.write(text)
    print(json.dumps({"exit": code, "spans": tracer.spans(), "counts": tracer.counts()}),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
