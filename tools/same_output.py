"""Check that a change prints what its base revision prints.

Usage, from the root of a checkout::

    python3 tools/same_output.py --base HEAD

The base revision is exported with ``bench_pairs.export_tree`` into a
temporary directory; the change is this working tree.  Each side runs
every command below as ``python -m gmlu ...`` from its own ``src``, with
no ``GMLU_*`` variable inherited, and the two exit codes, stdouts and
stderrs are compared:

- the commands of README.md's "Command line" block;
- every command of the four ``perfbench`` workloads for seeds 1-8
  (``perfbench/run.workload_commands``, with their environment);
- ``game solve`` and ``game trace`` at r = 5 and 7 on each benchmark
  game position under its four symmetries (swap the sides, swap p with
  !p, both, neither);
- the n=5 and n=6 game grids, ``verify game-theorem --tau p --n 5 --d 2
  --max-r 5 --max-side 2`` under ``GMLU_GAME_MAX_N=5`` and the same at
  ``--n 6`` under ``GMLU_GAME_MAX_N=6``, and the |tau|=2 grids, whose
  memo keys take the least of three literal-flip images, ``verify
  game-theorem --tau p,q --n 2 --d 1 --max-r 5 --max-side 2`` and the
  same at ``--max-r 7``, under ``GMLU_GAME_MAX_SYMBOLS=2``;
- a |tau|=2 strategy trace whose "<>==" move labels three selections
  with their "P" or "N" set over four point types, ``game trace --tau
  p,q --d 2 --r 4 --left 0,0,1,1@2 --right 0,0,0,2@3 --right 1,0,1,0@0
  --format json`` under ``GMLU_GAME_MAX_SYMBOLS=2``;
- exact search beyond the benchmark's n=12: ``complexity --tau p --n 14
  --d 7 --exact`` and ``verify monotone --tau p --n 14 --d 7 --mode
  exact``, the same two at n=16, d=8 (where the canonical level, which
  the search leaves to evaluation, is the costliest), the same two at
  n=40, d=6 (past n = t*d, where the classes and their complexities no
  longer change with n), ``complexity --tau p,q --n 2 --d 2 --exact``
  and ``complexity --tau p,q --n 3 --d 1 --exact`` (whose hardest class
  is found below its canonical size), and ``complexity --tau p,q,r --n
  1 --d 1 --exact``;
- exact search where classes are far fewer than profiles (the search
  keeps one profile per class): ``verify monotone --tau p --n 64 --d 6
  --mode exact`` and ``verify monotone --tau p --n 32 --d 9 --mode
  exact``.  These run under the environment that lets a base revision
  from before the cells cap run them (``GMLU_EXACT_MAX_N``,
  ``GMLU_EXACT_MAX_D``, ``GMLU_EXACT_MAX_SYMBOLS``), and under
  ``GMLU_SEARCH_MAX_CELLS`` where they store more than its default 2^15
  cells (d=8, d=9, and |tau|=2 at n=3); each side ignores the
  variables it does not read;
- exact search at the default caps: ``complexity --tau p,q --n 2 --d 1
  --exact``, ``complexity --tau p --n 3 --d 1000000 --exact`` (built at
  d = n), ``verify game-theorem --tau p --n 4 --d 1000 --max-r 5
  --max-side 1``, and ``complexity --tau p,q --n 4 --d 1 --exact``, which
  the cells cap refuses;
- the monotone connection in bounds mode at |tau|=2 over 288,288
  comparable pairs, ``verify monotone --tau p,q --n 48 --d 12``;
- each row report in all three formats at small scale: ``tuples``,
  ``class-size`` (also with ``--tuple``), ``entropy``, ``complexity``
  (also with ``--exact --max-size 2``, whose ``exact`` column mixes
  ``2`` and ``"not-found"``), ``cover`` (also with no edge, so no row),
  ``verify counting`` and ``verify stirling`` (no vocabulary, bool
  columns).
- minimum covers with tied cheapest subsets, whose printed
  ``min_cover`` is the tie-break: ``cover --tau p,q --n 4 --d 3 --tuple
  1,1,1,1`` (four tied, none capped), ``cover --tau p,q --n 3 --d 2
  --tuple 0,1,1,1``, ``cover --tau p,q --n 5 --d 2 --tuple 1,2,1,1`` (one
  capped), ``cover --tau p,q --n 6 --d 2 --tuple 2,0,2,1`` (two capped)
  and ``cover --tau p,q,r --n 8 --d 3 --tuple 1,1,1,1,1,1,1,1 --format
  json``, with ``complexity --tau p,q --n 4 --d 2`` for the ``cover_cost``
  column at |tau|=2;
- row reports with two-digit entries, or with d far above n: ``tuples
  --tau p --n 24 --d 12 --format json``, ``class-size --tau p --n 24 --d
  12 --format json`` and ``entropy --tau p --n 3 --d 1000000``;
- ``phase separation`` beyond the benchmark's |tau|=2: at |tau|=1 with
  n=1, at |tau|=3, at |tau|=8 (t = 256, the largest t whose type is a
  top byte of a Mersenne Twister word), at |tau|=9 (the ``choices``
  fallback), and at n=70,000, which spans many of the sampler's blocks;
- ``phase separation --tau p,q --d 500 --trials 7 --seed 3`` at ``--n
  2048``, whose trial fills one block of 2^12 points, and at ``--n
  2049``, where each model is drawn alone, and ``phase separation --tau
  p,q --n 63 --d 16 --trials 33 --seed 3``, whose last trial starts a
  second block;
- the pruned orbit enumeration at t = 8 and with d > n: ``verify
  counting --tau p,q,r --max-n 10``, ``entropy-sweep --tau p,q,r --n
  12``, ``entropy --tau p,q --n 6 --d 9 --format json``, ``phase majority
  --tau p,q,r --n 24 --d 2`` and ``phase sweep --tau p,q --rule
  below-sqrt --a 1 --n-values 16,64,128``, and the n=512 sweep ``phase
  sweep --tau p,q --rule below-sqrt --a 2 --n-values 512`` (98,770
  orbits);
- commands that leave options to a ``phase`` or ``verify`` action's own
  defaults: bare ``verify monotone``, ``verify monotone --mode exact``,
  bare ``verify stirling``, ``verify counting --max-n 6`` (no ``--tau``)
  and ``phase sweep --tau p --rule below-quarter --n-values 16,64`` (no
  ``--a``);
- inputs that a record's validation rejects, whose ``error:`` lines are
  compared: tuples with an entry above d or that are not admissible,
  vocabularies with a duplicate or a bad symbol, a pointed model at an
  unrealized type or with no point, and a game position whose models
  differ in size;
- usage errors and help, which build the whole parser or one leaf of it:
  ``--help``, ``-h entropy``, ``bogus``, ``phase``, ``phase bogus``,
  ``verify``, ``entropy -h``, ``phase majority -h``, ``game solve -h``,
  ``phase --format json constants --tau p``, ``entropy --tau p --n 3``
  and ``entropy --tau p --n 3 --d 1 --bogus 1``.

Two commands run at a time.  It prints each command whose output
differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench_pairs import ROOT, export_tree, git

sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402

Command = tuple[tuple[tuple[str, str], ...], tuple[str, ...]]  # (env, argv)


def readme_commands() -> list[Command]:
    """The README commands, extracted as tests/test_cli.py extracts them."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```sh")[1].split("```")[0]
    return [((), tuple(line.split("#")[0].split()[1:]))
            for line in block.strip().splitlines()]


def workload_commands() -> list[Command]:
    return [(cmd.env, cmd.argv)
            for name in perfbench.WORKLOADS for seed in range(1, 9)
            for cmd in perfbench.workload_commands(name, seed)]


def game_commands() -> list[Command]:
    out = []
    for left, right in perfbench.GAME_SOLVE + perfbench.GAME_TRACE:
        for swap in (False, True):
            for flip in (False, True):
                sides = (right, left) if swap else (left, right)
                if flip:
                    sides = tuple([perfbench._flip(m) for m in s] for s in sides)
                models = []
                for flag, side in zip(("--left", "--right"), sides):
                    for m in side:
                        models += [flag, m]
                out += [((), ("game", action, "--tau", "p", "--d", "2", "--r", r,
                              "--format", "json", *models))
                        for action in ("solve", "trace") for r in ("5", "7")]
    return out


GRIDS: list[Command] = [
    ((("GMLU_GAME_MAX_N", n),),
     ("verify", "game-theorem", "--tau", "p", "--n", n, "--d", "2",
      "--max-r", "5", "--max-side", "2"))
    for n in ("5", "6")
] + [
    ((("GMLU_GAME_MAX_SYMBOLS", "2"),),
     ("verify", "game-theorem", "--tau", "p,q", "--n", "2", "--d", "1",
      "--max-r", r, "--max-side", "2"))
    for r in ("5", "7")
] + [
    ((("GMLU_GAME_MAX_SYMBOLS", "2"),),
     ("game", "trace", "--tau", "p,q", "--d", "2", "--r", "4", "--left", "0,0,1,1@2",
      "--right", "0,0,0,2@3", "--right", "1,0,1,0@0", "--format", "json")),
]

def _exact_env(n: int, d: int) -> tuple[tuple[str, str], ...]:
    """The old n and d caps for a base revision that reads them, and the
    cells cap where d stores more than its default."""
    cells = {8: (("GMLU_SEARCH_MAX_CELLS", str(1 << 16)),),
             9: (("GMLU_SEARCH_MAX_CELLS", str(1 << 17)),)}
    return (("GMLU_EXACT_MAX_N", str(n)), ("GMLU_EXACT_MAX_D", str(d)), *cells.get(d, ()))


EXACT: list[Command] = [
    (_exact_env(n, d), argv)
    for n, d in ((14, 7), (16, 8), (40, 6))
    for argv in (("complexity", "--tau", "p", "--n", str(n), "--d", str(d), "--exact"),
                 ("verify", "monotone", "--tau", "p", "--n", str(n), "--d", str(d),
                  "--mode", "exact"))
]
EXACT += [
    ((("GMLU_EXACT_MAX_SYMBOLS", "2"),),
     ("complexity", "--tau", "p,q", "--n", "2", "--d", "2", "--exact")),
    ((("GMLU_EXACT_MAX_SYMBOLS", "2"), ("GMLU_SEARCH_MAX_CELLS", str(1 << 17))),
     ("complexity", "--tau", "p,q", "--n", "3", "--d", "1", "--exact")),
    ((("GMLU_EXACT_MAX_SYMBOLS", "3"),),
     ("complexity", "--tau", "p,q,r", "--n", "1", "--d", "1", "--exact")),
]
EXACT += [
    (_exact_env(n, d), ("verify", "monotone", "--tau", "p", "--n", str(n), "--d", str(d),
                        "--mode", "exact"))
    for n, d in ((64, 6), (32, 9))
]
EXACT += [((), argv) for argv in (
    ("complexity", "--tau", "p,q", "--n", "2", "--d", "1", "--exact"),
    ("complexity", "--tau", "p", "--n", "3", "--d", "1000000", "--exact"),
    ("verify", "game-theorem", "--tau", "p", "--n", "4", "--d", "1000", "--max-r", "5",
     "--max-side", "1"),
    ("complexity", "--tau", "p,q", "--n", "4", "--d", "1", "--exact"),
)]

MONOTONE: list[Command] = [
    ((), ("verify", "monotone", "--tau", "p,q", "--n", "48", "--d", "12")),
]


ROW_REPORTS = [
    ("tuples", "--tau", "p,q", "--n", "4", "--d", "2"),
    ("class-size", "--tau", "p,q", "--n", "4", "--d", "2"),
    ("class-size", "--tau", "p,q", "--n", "4", "--d", "2", "--tuple", "2,1,0,1"),
    ("entropy", "--tau", "p,q", "--n", "4", "--d", "2"),
    ("complexity", "--tau", "p", "--n", "4", "--d", "2"),
    ("cover", "--tau", "p", "--n", "5", "--d", "2", "--tuple", "2,2"),
    ("cover", "--tau", "p", "--n", "1", "--d", "1", "--tuple", "1,0"),
    ("verify", "counting", "--tau", "p,q", "--max-n", "6"),
    ("complexity", "--tau", "p", "--n", "4", "--d", "2", "--exact", "--max-size", "2"),
    ("verify", "stirling", "--max-m", "3", "--max-r", "2", "--max-n", "8"),
]
ROWS: list[Command] = [((), (*argv, "--format", fmt))
                       for argv in ROW_REPORTS for fmt in ("json", "csv", "text")]
ROWS += [((), argv) for argv in (
    ("tuples", "--tau", "p", "--n", "24", "--d", "12", "--format", "json"),
    ("class-size", "--tau", "p", "--n", "24", "--d", "12", "--format", "json"),
    ("entropy", "--tau", "p", "--n", "3", "--d", "1000000"),
)]

TIES: list[Command] = [((), argv) for argv in (
    ("cover", "--tau", "p,q", "--n", "4", "--d", "3", "--tuple", "1,1,1,1"),
    ("cover", "--tau", "p,q", "--n", "3", "--d", "2", "--tuple", "0,1,1,1"),
    ("cover", "--tau", "p,q", "--n", "5", "--d", "2", "--tuple", "1,2,1,1"),
    ("cover", "--tau", "p,q", "--n", "6", "--d", "2", "--tuple", "2,0,2,1"),
    ("cover", "--tau", "p,q,r", "--n", "8", "--d", "3", "--tuple", "1,1,1,1,1,1,1,1",
     "--format", "json"),
    ("complexity", "--tau", "p,q", "--n", "4", "--d", "2"),
)]


SEPARATION = [("p", 1, 1, 500), ("p,q,r", 12, 3, 3000),
              ("a,b,c,d,e,f,g,h", 2000, 1, 200), ("a,b,c,d,e,f,g,h,i", 4000, 1, 200),
              ("p,q", 70_000, 17_500, 3)]
SAMPLING: list[Command] = [((), ("phase", "separation", "--tau", tau, "--n", str(n),
                                 "--d", str(d), "--trials", str(trials), "--seed", "5",
                                 "--format", "json"))
                           for tau, n, d, trials in SEPARATION]
SAMPLING += [((), ("phase", "separation", "--tau", "p,q", "--n", str(n), "--d", str(d),
                   "--trials", str(trials), "--seed", "3"))
             for n, d, trials in ((2048, 500, 7), (2049, 500, 7), (63, 16, 33))]


ORBITS: list[Command] = [((), argv) for argv in (
    ("verify", "counting", "--tau", "p,q,r", "--max-n", "10"),
    ("entropy-sweep", "--tau", "p,q,r", "--n", "12"),
    ("entropy", "--tau", "p,q", "--n", "6", "--d", "9", "--format", "json"),
    ("phase", "majority", "--tau", "p,q,r", "--n", "24", "--d", "2"),
    ("phase", "sweep", "--tau", "p,q", "--rule", "below-sqrt", "--a", "1",
     "--n-values", "16,64,128"),
    ("phase", "sweep", "--tau", "p,q", "--rule", "below-sqrt", "--a", "2",
     "--n-values", "512"),
)]


DEFAULTS: list[Command] = [((), argv) for argv in (
    ("verify", "monotone"),
    ("verify", "monotone", "--mode", "exact"),
    ("verify", "stirling"),
    ("verify", "counting", "--max-n", "6"),
    ("phase", "sweep", "--tau", "p", "--rule", "below-quarter", "--n-values", "16,64"),
)]


GAME_P = ("game", "solve", "--tau", "p", "--d", "1", "--r", "3")
REJECTED: list[Command] = [((), argv) for argv in (
    ("class-size", "--tau", "p,q", "--n", "4", "--d", "2", "--tuple", "3,0,0,0"),
    ("class-size", "--tau", "p,q", "--n", "4", "--d", "2", "--tuple", "1,0,0,0"),
    ("tuples", "--tau", "p,p", "--n", "2", "--d", "1"),
    ("tuples", "--tau", "1x", "--n", "2", "--d", "1"),
    (*GAME_P, "--left", "2,0@1", "--right", "1,1@0"),
    (*GAME_P, "--left", "0,0@0", "--right", "1,1@0"),
    (*GAME_P, "--left", "2,0@0", "--right", "2,1@0"),
    ("cover", "--tau", "p", "--n", "3", "--d", "1", "--tuple", "2,0"),
)]


USAGE: list[Command] = [((), tuple(text.split())) for text in (
    "--help", "-h entropy", "bogus", "phase", "phase bogus", "verify",
    "entropy -h", "phase majority -h", "game solve -h",
    "phase --format json constants --tau p", "entropy --tau p --n 3",
    "entropy --tau p --n 3 --d 1 --bogus 1",
)]


def run_command(root: Path, command: Command) -> tuple[int, str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMLU_")}
    env["PYTHONPATH"] = str(root / "src")
    env.update(command[0])
    proc = subprocess.run([sys.executable, "-m", "gmlu", *command[1]], cwd=root,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def describe(command: Command) -> str:
    return " ".join([f"{k}={v}" for k, v in command[0]] + ["gmlu", *command[1]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against")
    args = parser.parse_args(argv)
    sha = git("rev-parse", "--verify", args.base + "^{commit}")
    commands = list(dict.fromkeys(
        readme_commands() + workload_commands() + game_commands() + GRIDS + EXACT
        + MONOTONE + ROWS + TIES + SAMPLING + ORBITS + DEFAULTS + REJECTED + USAGE
    ))
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        export_tree(sha, base)
        with ThreadPoolExecutor(2) as pool:
            results = pool.map(
                lambda c: (run_command(base, c), run_command(ROOT, c)), commands
            )
            for command, (want, got) in zip(commands, results):
                if want != got:
                    differ += 1
                    print(f"DIFFERS (exit {want[0]} -> {got[0]}): {describe(command)}",
                          flush=True)
    print(f"{len(commands)} commands, {differ} differences against {sha[:12]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
