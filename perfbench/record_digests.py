"""Record the output oracle: SHA-256 of every seed-independent stdout.

Run from the root of a checkout of the commit whose outputs are the
reference (output must stay byte-identical from then on)::

    python3 perfbench/record_digests.py

It rewrites ``perfbench/digests.json``.  For ``phase separation`` only
the exact probability is seed-independent, so its digest is recorded
under ``exact_probability_fraction <command without the seed>``.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, Launcher, _sha256, _unseeded, workload_commands


def main() -> int:
    digests = {}
    with Launcher() as launcher:
        for name in WORKLOADS:
            for cmd in workload_commands(name, seed=1):
                if cmd.check == "game":
                    continue
                inv = launcher.run([sys.executable, "-m", "gmlu", *cmd.argv], cmd.env)
                if inv.exit_code != 0:
                    print(f"error: {cmd.key} exited {inv.exit_code}", file=sys.stderr)
                    return 1
                if cmd.check == "separation":
                    exact = json.loads(inv.stdout)["exact_probability_fraction"]
                    key = "exact_probability_fraction " + _unseeded(cmd.argv)
                    digests[key] = _sha256(exact.encode())
                else:
                    digests[cmd.key] = inv.stdout_sha256
    with open(HERE / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
