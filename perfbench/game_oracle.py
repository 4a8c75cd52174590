"""Game verdicts from the separating-formula search, for the output oracle.

Usage, from the root of a checkout with ``PYTHONPATH=src``::

    python3 perfbench/game_oracle.py '[[7, 2, ["0,4@1", "1,3@1"], ["1,3@0", "2,2@0"]]]'

For each position ``[r, d, left, right]`` over tau={p} it prints, in one
JSON list, ``[winner, agree]``: winner is "S" exactly when some formula
of size at most r is true on every left and false on every right
pointed model, and agree is ``check_game_formula_equivalence(...).agree``.
It runs in its own process so that the benchmark process stays smaller
than every process it measures (a child's ``ru_maxrss`` starts from the
peak resident size of the process that spawned it).
"""

from __future__ import annotations

import json
import sys

from gmlu import game
from gmlu.models import ModelProfile, PointedProfile
from gmlu.vocab import Vocabulary


def _pointed(text: str) -> PointedProfile:
    counts, point = text.split("@")
    return PointedProfile(ModelProfile(tuple(int(c) for c in counts.split(","))), int(point))


def verdict(r: int, d: int, left, right) -> list:
    chk = game.check_game_formula_equivalence(
        r, [_pointed(m) for m in left], [_pointed(m) for m in right], d,
        Vocabulary.from_csv("p"),
    )
    return ["S" if chk.separating_size is not None else "D", chk.agree]


if __name__ == "__main__":
    print(json.dumps([verdict(*position) for position in json.loads(sys.argv[1])]))
