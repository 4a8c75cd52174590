"""End-to-end and per-layer benchmark of the gmlu command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dist-reduce --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of ``python -m gmlu ...`` invocations,
run one after another as fresh processes: a closed loop with one
client, interpreter start included.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every command in-process under
``perfbench/tracer.py`` and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("dist-reduce", "dist-rows", "game", "exact-search")

# Documented overrides that lift the exact-search caps to n=12, d=6.
EXACT_ENV = (("GMLU_EXACT_MAX_D", "6"), ("GMLU_EXACT_MAX_N", "12"))

# Game positions at the solver's caps (n=4, r=7, 2+2 models, d=2), as
# (left, right) pointed models "counts@point type" over tau={p}.  The
# seed applies one of the game's four symmetries to each (swap the
# sides, swap p with !p, both, neither) and orders the models.  Across
# all 2+2 positions a cold solve takes from 1 ms to 4 s, so uniform
# draws would make the run-to-run spread a property of the seed; these
# positions cost about the same under every symmetry.  Each list has a
# D win (the solver explores every move), an S win with a search of
# about 0.2 s, and a cheap S win whose trace is a few moves deep.
GAME_SOLVE = (
    (("0,4@1", "1,3@1"), ("1,3@0", "2,2@0")),
    (("0,4@1", "2,2@0"), ("1,3@0", "4,0@0")),
    (("0,4@1", "1,3@0"), ("2,2@0", "3,1@1")),
)
GAME_TRACE = (
    (("0,4@1", "1,3@1"), ("1,3@0", "2,2@1")),
    (("0,4@1", "2,2@0"), ("1,3@0", "4,0@0")),
    (("0,4@1", "1,3@1"), ("2,2@1", "3,1@1")),
)

SETUP_PROBES = 7


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()
    # "digest": stdout must match perfbench/digests.json; "separation"
    # and "game": seed-dependent, checked by an independent route.
    check: str = "digest"

    @property
    def key(self) -> str:
        env = " ".join(f"{k}={v}" for k, v in self.env)
        return (env + " " if env else "") + " ".join(self.argv)


def _flip(model: str) -> str:
    counts, point = model.split("@")
    a, b = counts.split(",")
    return f"{b},{a}@{1 - int(point)}"


def _game_command(action: str, left, right, rng: random.Random) -> Command:
    if rng.random() < 0.5:
        left, right = right, left
    if rng.random() < 0.5:
        left, right = [_flip(m) for m in left], [_flip(m) for m in right]
    left, right = list(left), list(right)
    rng.shuffle(left)
    rng.shuffle(right)
    argv = ["game", action, "--tau", "p", "--d", "2", "--r", "7", "--format", "json"]
    for m in left:
        argv += ["--left", m]
    for m in right:
        argv += ["--right", m]
    return Command(tuple(argv), check="game")


def workload_commands(name: str, seed: int) -> list[Command]:
    """The invocations of one pass; the seed picks only the seeded inputs."""
    rng = random.Random(seed)
    if name == "dist-reduce":
        sep_seed = rng.randrange(1, 1 << 31)
        return [
            Command(("entropy-sweep", "--tau", "p,q", "--n", "32")),
            Command(("verify", "counting", "--tau", "p,q", "--max-n", "24")),
            Command(
                ("phase", "separation", "--tau", "p,q", "--n", "64", "--d", "16",
                 "--trials", "10000", "--exact", "--seed", str(sep_seed),
                 "--format", "json"),
                check="separation",
            ),
            Command(("phase", "majority", "--tau", "p,q", "--n", "64", "--d", "16")),
            Command(("phase", "sweep", "--tau", "p", "--rule", "below-sqrt", "--a", "2",
                     "--n-values", "16,36,64,144,256")),
        ]
    if name == "dist-rows":
        return [
            Command(("entropy", "--tau", "p,q,r", "--n", "12", "--d", "3",
                     "--format", "json")),
            Command(("class-size", "--tau", "p,q", "--n", "64", "--d", "16",
                     "--format", "csv")),
            Command(("entropy", "--tau", "p,q", "--n", "64", "--d", "16")),
            Command(("tuples", "--tau", "p,q,r", "--n", "12", "--d", "3",
                     "--format", "json")),
        ]
    if name == "game":
        cmds = [Command(("verify", "game-theorem", "--tau", "p", "--n", "4", "--d", "2",
                         "--max-r", "5", "--max-side", "2"))]
        cmds += [_game_command("solve", l, r, rng) for l, r in GAME_SOLVE]
        cmds += [_game_command("trace", l, r, rng) for l, r in GAME_TRACE]
        return cmds
    if name == "exact-search":
        return [
            Command(("complexity", "--tau", "p", "--n", "12", "--d", "6", "--exact"),
                    EXACT_ENV),
            Command(("verify", "monotone", "--tau", "p", "--n", "12", "--d", "6",
                     "--mode", "exact"), EXACT_ENV),
        ]
    raise ValueError(f"unknown workload {name!r}")


def _unseeded(argv: tuple[str, ...]) -> str:
    """Command text with the value after ``--seed`` written as ``*``."""
    return " ".join("*" if prev == "--seed" else arg
                    for prev, arg in zip(("",) + argv, argv))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Oracle:
    """Checks one invocation's stdout; returns a problem text or None.

    Seed-independent outputs must match the SHA-256 recorded in
    ``digests.json``.  Seeded outputs are checked by an independent
    route: the exact separation probability against its recorded
    digest, with the sampled value within SEPARATION_SIGMAS standard
    errors of it; and every game verdict against the brute-force
    formula search (a separating formula of size <= r exists iff S wins).
    """

    SEPARATION_SIGMAS = 6

    def __init__(self, digests: dict[str, str], cmds, launcher: Launcher):
        self.digests = digests
        positions = sorted({_game_position(c) for c in cmds if c.check == "game"})
        self._game_verdicts = {}
        if positions:
            inv = launcher.run([sys.executable, str(HERE / "game_oracle.py"),
                                json.dumps(positions)])
            if inv.exit_code == 0:
                self._game_verdicts = dict(zip(positions, json.loads(inv.stdout)))

    def check(self, cmd: Command, inv: Invocation) -> str | None:
        if cmd.check == "digest":
            want = self.digests.get(cmd.key)
            if want is None:
                return "no recorded digest"
            return None if inv.stdout_sha256 == want else "stdout differs from its digest"
        if inv.stdout is None:
            return "report too large to be a seeded report"
        try:
            report = json.loads(inv.stdout)
            if cmd.check == "separation":
                return self._check_separation(cmd, report)
            return self._check_game(cmd, report)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed report ({exc!r})"

    def _check_separation(self, cmd: Command, report: dict) -> str | None:
        exact_text = report["exact_probability_fraction"]
        want = self.digests.get("exact_probability_fraction " + _unseeded(cmd.argv))
        if _sha256(exact_text.encode()) != want:
            return "exact separation probability differs from its digest"
        exact = float(Fraction(exact_text))
        trials = report["trials"]
        tolerance = self.SEPARATION_SIGMAS * math.sqrt(exact * (1 - exact) / trials)
        # both printed values carry six significant digits
        tolerance += 1e-5
        if abs(report["sampled_probability"] - exact) > tolerance:
            return f"sampled probability is {report['sampled_probability']}, exact {exact}"
        return None

    def _check_game(self, cmd: Command, report: dict) -> str | None:
        position = _game_position(cmd)
        r, _, left, right = position
        # reports print counts as 2|0@0 where the command line has 2,0@0
        if [report["left"], report["right"]] != [
            sorted(m.replace(",", "|") for m in side) for side in (left, right)
        ]:
            return "report names other models than were asked for"
        if position not in self._game_verdicts:
            return "the formula search gave no verdict"
        verdict, agree = self._game_verdicts[position]
        if not agree:
            return "game solver and formula search disagree"
        if report["winner"] != verdict:
            return f"winner {report['winner']}, formula search says {verdict}"
        if cmd.argv[1] == "trace" and verdict == "S":
            root = report["trace"]
            if root.get("resource") != r or "move" not in root:
                return "trace does not start with a move at the full budget"
        return None


def _game_position(cmd: Command) -> tuple:
    """(r, d, left models, right models) of a game command, sides sorted."""
    sides = {"--left": [], "--right": []}
    for flag, value in zip(cmd.argv, cmd.argv[1:]):
        if flag in sides:
            sides[flag].append(value)
    r = int(cmd.argv[cmd.argv.index("--r") + 1])
    d = int(cmd.argv[cmd.argv.index("--d") + 1])
    return r, d, tuple(sorted(sides["--left"])), tuple(sorted(sides["--right"]))


@dataclass
class Invocation:
    """One finished process, as launcher.py reports it."""

    seconds: float
    rss_mb: float
    exit_code: int
    stdout_sha256: str
    stdout_bytes: int
    stdout: str | None  # None when longer than launcher.KEEP_STDOUT_BYTES
    stderr: str
    launcher_mb: float


def _child_env(extra) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMLU_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


class Launcher:
    """Runs processes through launcher.py, a small helper process.

    A child's ``ru_maxrss`` starts from the peak resident size of the
    process that forks it.  This process's own peak (about 21 MB) is as
    large as a whole gmlu run, so children are forked by launcher.py
    instead, which stays near 15 MB.  Use as a context manager: leaving
    it ends the helper and waits for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def run(self, argv: list[str], extra_env=()) -> Invocation:
        """Run one process to completion; time it and read its peak RSS."""
        request = {"argv": argv, "env": _child_env(extra_env)}
        self._proc.stdin.write(json.dumps(request).encode() + b"\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise SystemExit("error: launcher.py ended unexpectedly")
        return Invocation(**json.loads(reply))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, cmd: Command, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{cmd.key}: {problem}")


@dataclass
class PassResult:
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    launcher_mb: float = 0.0
    spans: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    stdout_bytes: int = 0


def _trace_stats(inv: Invocation) -> dict:
    """The tracer's JSON line, the last line of its stderr."""
    return json.loads(inv.stderr.rstrip("\n").rsplit("\n", 1)[-1])


def run_pass(launcher: Launcher, cmds, oracle: Oracle, tally: Tally,
             stick: Yardstick, traced: bool) -> PassResult:
    result = PassResult()
    for cmd in cmds:
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "gmlu", *cmd.argv]
        inv = launcher.run(argv, cmd.env)
        result.wall_s += stick.scale(inv.seconds)
        result.raw_wall_s += inv.seconds
        result.peak_rss_mb = max(result.peak_rss_mb, inv.rss_mb)
        result.launcher_mb = max(result.launcher_mb, inv.launcher_mb)
        problem = None
        if inv.exit_code != 0:
            problem = f"exit code {inv.exit_code}"
        elif "Traceback" in inv.stderr:
            problem = "traceback on stderr"
        elif traced:
            trace = _trace_stats(inv)
            if trace["exit"] != 0:
                problem = f"exit code {trace['exit']}"
            for name, span in trace["spans"].items():
                acc = result.spans.setdefault(name, dict.fromkeys(span, 0))
                for k, v in span.items():
                    acc[k] += v
            for name, v in trace["counts"].items():
                result.counts[name] = result.counts.get(name, 0) + v
        if problem is None:
            problem = oracle.check(cmd, inv)
        result.stdout_bytes += inv.stdout_bytes
        tally.record(cmd, problem)
    return result


def host_reference() -> float:
    """Seconds for a fixed pure-Python job: a yardstick for host speed.

    It mixes the kinds of work gmlu's layers do: small-int arithmetic,
    big-integer Fractions, and short-lived tuples, strings and dicts.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    big = 3**200
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(big // (i + 1), big)
    for _ in range(10):  # small tables, to keep this process small
        table = {}
        for i in range(4_000):
            table[(i, i % 13)] = str(i)
    return time.perf_counter() - start


# The speed of a shared 2-core host drifts by up to 2x within minutes,
# and host_reference() slows with it.  Reported times are therefore
# rescaled to a host on which host_reference() takes REF_S, a fixed
# nominal value (it took 55-89 ms on the machine in README.md).
REF_S = 0.065


class Yardstick:
    """Rescales measured seconds to the nominal host speed REF_S.

    The reference job runs once at creation and again after every timed
    invocation; an invocation is scaled by the mean of the two readings
    around it.
    """

    def __init__(self):
        self.readings = [host_reference()]

    def scale(self, seconds: float) -> float:
        self.readings.append(host_reference())
        return seconds * 2 * REF_S / (self.readings[-2] + self.readings[-1])


def measure_setup(launcher: Launcher, stick: Yardstick) -> float:
    """Median time to start an interpreter, import gmlu.cli and exit."""
    argv = [sys.executable, "-c", "import gmlu.cli"]
    times = []
    for _ in range(SETUP_PROBES):
        inv = launcher.run(argv)
        if inv.exit_code != 0:
            raise SystemExit(f"error: cannot import gmlu.cli:\n{inv.stderr.decode()}")
        times.append(stick.scale(inv.seconds))
    return statistics.median(times)


def warm_up(launcher: Launcher) -> None:
    """Write the bytecode caches, as any earlier use of the checkout would."""
    launcher.run([sys.executable, "-c", "import gmlu.cli"])


def measure_end_to_end(launcher: Launcher, cmds, seconds: int, oracle: Oracle,
                       tally: Tally) -> dict:
    warm_up(launcher)
    stick = Yardstick()
    setup_s = measure_setup(launcher, stick)
    passes = []
    start = time.perf_counter()
    # stop before a pass that would not fit in the measured time
    while not passes or time.perf_counter() - start + passes[-1].raw_wall_s <= seconds:
        passes.append(run_pass(launcher, cmds, oracle, tally, stick, traced=False))
    peak_rss_mb = max(p.peak_rss_mb for p in passes)
    launcher_mb = max(p.launcher_mb for p in passes)
    print(f"passes: {len(passes)}; raw pass s: "
          f"{' '.join(f'{p.raw_wall_s:.3f}' for p in passes)}; host_reference() "
          f"median {statistics.median(stick.readings):.4f} s; launcher peak RSS "
          f"{launcher_mb:.1f} MB")
    if launcher_mb >= peak_rss_mb:
        print("warning: peak_rss_mb is no larger than the launcher's own peak RSS, "
              "so it may be the launcher's", file=sys.stderr)
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# Tiny commands with exact expected call counts: a wrapper that misses a
# ``from ... import`` alias undercounts here.  entropy reaches class_size
# through distribution's alias and stirling_r_assoc through classes';
# verify monotone reaches class_size and exact_complexity through
# distribution's; verify game-theorem reaches minimal_separating_size
# through game's (9 instances, 8 with a nonempty side).
SELF_TEST = (
    (("entropy", "--tau", "p", "--n", "3", "--d", "1"), {
        "classes.enumerate_admissible": 1, "classes.class_size": 3,
        "combinatorics.stirling_r_assoc": 3, "distribution.build_distribution": 1,
        "distribution.entropy": 2, "cli.main": 1,
    }),
    (("verify", "monotone", "--tau", "p", "--n", "3", "--d", "1", "--mode", "exact"), {
        "classes.enumerate_admissible": 1, "classes.class_size": 3,
        "complexity.exact_complexity": 3, "complexity.first_outer_match": 3,
    }),
    (("verify", "game-theorem", "--tau", "p", "--n", "1", "--d", "1", "--max-r", "1"), {
        "game.solve": 9, "complexity.minimal_separating_size": 8,
    }),
)


def tracer_self_test(launcher: Launcher) -> None:
    for argv, want in SELF_TEST:
        inv = launcher.run([sys.executable, str(HERE / "tracer.py"), *argv])
        if inv.exit_code != 0:
            raise SystemExit(f"error: tracer failed on {' '.join(argv)}:\n"
                             f"{inv.stderr.decode()}")
        spans = _trace_stats(inv)["spans"]
        got = {name: spans.get(name, {}).get("calls", 0) for name in want}
        if got != want:
            raise SystemExit(f"error: tracer self-test on {' '.join(argv)}: "
                             f"calls {got}, expected {want}")


# Per-layer metric -> (span name, field) or (None, count name).
PER_LAYER = {
    "classes.enumerate_admissible.calls": ("classes.enumerate_admissible", "calls"),
    "classes.enumerate_admissible.time_s": ("classes.enumerate_admissible", "time_s"),
    "classes.tuples": (None, "classes.tuples"),
    "classes.class_size.calls": ("classes.class_size", "calls"),
    "classes.class_size.self_s": ("classes.class_size", "self_s"),
    "combinatorics.stirling_r_assoc.calls": ("combinatorics.stirling_r_assoc", "calls"),
    "combinatorics.stirling_r_assoc.time_s": ("combinatorics.stirling_r_assoc", "time_s"),
    "distribution.build_distribution.calls": ("distribution.build_distribution", "calls"),
    "distribution.build_distribution.self_s": ("distribution.build_distribution", "self_s"),
    "distribution.entropy.time_s": ("distribution.entropy", "time_s"),
    "distribution.reduce.self_s": ("distribution.reduce", "self_s"),
    "distribution.sample.time_s": ("distribution.sample", "time_s"),
    "cli.main.time_s": ("cli.main", "time_s"),
    "cli.self_s": ("cli.main", "self_s"),
    "complexity.exact_complexity.calls": ("complexity.exact_complexity", "calls"),
    "complexity.exact_complexity.time_s": ("complexity.exact_complexity", "time_s"),
    "complexity.minimal_separating_size.calls":
        ("complexity.minimal_separating_size", "calls"),
    "complexity.minimal_separating_size.time_s":
        ("complexity.minimal_separating_size", "time_s"),
    "complexity.first_outer_match.calls": ("complexity.first_outer_match", "calls"),
    "complexity.first_outer_match.time_s": ("complexity.first_outer_match", "time_s"),
    "complexity.search_levels": (None, "complexity.search_levels"),
    "complexity.inner_signatures": (None, "complexity.inner_signatures"),
    "complexity.outer_signatures": (None, "complexity.outer_signatures"),
    "game.solve.calls": ("game.solve", "calls"),
    "game.solve.time_s": ("game.solve", "time_s"),
    "game.strategy_trace.self_s": ("game.strategy_trace", "self_s"),
    "game.legal_moves.calls": ("game.legal_moves", "calls"),
    "game.apply_move.calls": ("game.apply_move", "calls"),
}


def _layer_value(res: PassResult, span: str | None, name: str):
    if span is None:
        return res.counts.get(name, 0)
    return res.spans.get(span, {}).get(name, 0)


def measure_traced(launcher: Launcher, cmds, seconds: int, oracle: Oracle,
                   tally: Tally) -> dict:
    """Alternate untraced and traced passes; per-layer sums of one pass."""
    warm_up(launcher)
    tracer_self_test(launcher)
    stick = Yardstick()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or (
        time.perf_counter() - start + plain[-1].raw_wall_s + traced[-1].raw_wall_s
        <= seconds
    ):
        plain.append(run_pass(launcher, cmds, oracle, tally, stick, traced=False))
        traced.append(run_pass(launcher, cmds, oracle, tally, stick, traced=True))
    metrics = {}
    for metric, (span, name) in PER_LAYER.items():
        if name == "calls" or span is None:
            # work counts repeat exactly from pass to pass
            metrics[metric] = (_layer_value(traced[0], span, name), "count")
        else:
            values = [_layer_value(res, span, name) for res in traced]
            metrics[metric] = (statistics.median(values), "s")
    metrics["cli.stdout_bytes"] = (traced[0].stdout_bytes, "bytes")
    metrics["host.ref_s"] = (statistics.median(stick.readings), "s")
    metrics["host.raw_wall_s"] = (statistics.median(p.raw_wall_s for p in plain), "s")
    traced_wall = statistics.median(p.wall_s for p in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    print(f"passes: {len(traced)} traced, {len(plain)} untraced")
    return metrics


def load_digests() -> dict[str, str]:
    with open(HERE / "digests.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gmlu" / "cli.py").is_file():
        print(f"error: no gmlu sources at {SRC}; run from a checkout", file=sys.stderr)
        return 1
    cmds = workload_commands(args.workload, args.seed)
    tally = Tally()
    measure = measure_traced if args.trace else measure_end_to_end
    with Launcher() as launcher:
        oracle = Oracle(load_digests(), cmds, launcher)
        metrics = measure(launcher, cmds, args.seconds, oracle, tally)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(f"  {'failed_frac':44s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted} invocations)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
