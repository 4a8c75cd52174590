"""Paired end-to-end benchmark of a change against its base revision.

Usage, from the root of a checkout::

    git add -A
    python3 tools/bench_pairs.py --base HEAD --seed 101 --out BENCH.json

The change is the tree staged in the index of this checkout (``git
write-tree``), so the report names exactly the files it measured.  Both
the base revision and that tree are exported with ``git archive`` into
sibling directories of a temporary directory, named ``base`` and
``tree``: names of one length, since a process's peak RSS moves with the
length of its source paths when no bytecode is cached.  For every
workload named in ``BENCHMARK.json``, each side runs its own
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds``, in
ten pairs that alternate which side runs first and share one seed per
pair (``--seed`` is the first pair's).  The output file holds, per
workload and end-to-end metric, each side's median, quartiles and runs,
how many pairs the change won (ties count for neither side), whether a
gain may be claimed (at least nine tenths of the pairs won and the
medians further apart than the base's interquartile range) and whether
the change stays within the benchmark's bound.  It also records failed
invocations, the Python version and the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
# each side's checkout directory; the names have one length (see above)
CHECKOUT_DIRS = {"base": "base", "change": "tree"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def export_tree(sha: str, dest: Path) -> None:
    """Write the files of the commit or tree ``sha`` under ``dest``."""
    archive = dest.parent / f"{dest.name}.tar"
    subprocess.run(["git", "archive", "--output", str(archive), sha], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run; its last stdout line parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: perfbench/run.py failed in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (b - c) < 0 for b, c in zip(base, change))
    b, c = summarize(base), summarize(change)
    gain = sign * (b["median"] - c["median"])
    return {
        "base": b,
        "change": c,
        "change_wins": wins,
        "change_losses": losses,
        "gain_claimable": wins >= 0.9 * len(base) and gain > b["q3"] - b["q1"],
        "within_bound": -gain <= bound * b["median"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="revision to compare the staged tree against")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    shas = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
            "change": git("write-tree")}

    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / CHECKOUT_DIRS[side] for side in shas}
        for side, root in sides.items():
            export_tree(shas[side], root)
        results = {}
        for w in spec["workloads"]:
            workload = w["name"]
            runs = {"base": [], "change": []}
            for i in range(PAIRS):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run_side(sides[side], workload, seed, seconds))
                    m = runs[side][-1]["metrics"]
                    print(f"{workload} pair {i + 1} {side:6s} " + " ".join(
                        f"{x['name']}={m[x['name']]['value']:.4g}" for x in metrics),
                        flush=True)
            results[workload] = {
                x["name"]: compare(
                    [r["metrics"][x["name"]]["value"] for r in runs["base"]],
                    [r["metrics"][x["name"]]["value"] for r in runs["change"]],
                    x["better"], x["bound"],
                )
                for x in metrics
            }
            for side, side_runs in runs.items():
                for key in ("failed", "attempted"):
                    results[workload][f"{side}_{key}"] = sum(r[key] for r in side_runs)

    report = {
        "base": shas["base"],
        "change_tree": shas["change"],
        "pairs": PAIRS,
        "first_seed": args.seed,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for workload, res in results.items():
        for x in metrics:
            r = res[x["name"]]
            print(f"{workload:13s} {x['name']:12s} base {r['base']['median']:.4g} "
                  f"change {r['change']['median']:.4g} wins {r['change_wins']}/"
                  f"{PAIRS} claimable {r['gain_claimable']} "
                  f"within bound {r['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
