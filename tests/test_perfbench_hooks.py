"""The per-layer tracer in ``perfbench/`` wraps gmlu functions by name
and reads ``FormulaSearch`` attributes.  A rename or a bypassed call
there breaks the benchmark's traced run; these tests make it fail here
first, on the tracer's own self-test commands and expected call counts.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def _self_test() -> tuple:
    """``SELF_TEST`` of perfbench/run.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SELF_TEST" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no SELF_TEST")


SELF_TEST = _self_test()


@pytest.mark.parametrize("argv, want", SELF_TEST, ids=[" ".join(a) for a, _ in SELF_TEST])
def test_tracer_self_test_counts(argv, want):
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMLU_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stderr.rstrip("\n").rsplit("\n", 1)[-1])
    assert trace["exit"] == 0
    got = {name: trace["spans"].get(name, {}).get("calls", 0) for name in want}
    assert got == want
