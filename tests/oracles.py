"""Independent brute-force oracles for the test suite.

The brute-force oracles work on fully labeled models (an explicit type
per point) and explicit point sets, never on count profiles or type
subvectors, so agreement with the library is a genuine two-route check.
Past the sizes brute force reaches, slow reference formulas stand in:
the step-by-step multinomial and the class size built from it.
``representative_profile`` names one model of a class, for tests that
need a member rather than a count.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, product

from gmlu.combinatorics import stirling_r_assoc
from gmlu.formulas import And, BoxLt, BoxNeq, DiamondEq, DiamondGeq, Lit, Or
from gmlu.models import ModelProfile
from gmlu.vocab import Vocabulary


def labeled_models(n: int, t: int):
    """All type assignments for points 0..n-1."""
    return product(range(t), repeat=n)


def eval_labeled(f, assignment, point: int, vocab: Vocabulary) -> bool:
    """Pointwise truth on a labeled model, counting points one by one."""
    if isinstance(f, Lit):
        return assignment[point] in vocab.literal_types(f.symbol, f.positive)
    if isinstance(f, And):
        return eval_labeled(f.left, assignment, point, vocab) and eval_labeled(
            f.right, assignment, point, vocab
        )
    if isinstance(f, Or):
        return eval_labeled(f.left, assignment, point, vocab) or eval_labeled(
            f.right, assignment, point, vocab
        )
    count = sum(
        1
        for w in range(len(assignment))
        if eval_labeled(f.sub, assignment, w, vocab)
    )
    if isinstance(f, DiamondGeq):
        return count >= f.grade
    if isinstance(f, BoxLt):
        return len(assignment) - count < f.grade
    if isinstance(f, DiamondEq):
        return count == f.grade
    if isinstance(f, BoxNeq):
        return len(assignment) - count != f.grade
    raise TypeError(f"not a formula: {f!r}")


def eval_labeled_global(f, assignment, vocab: Vocabulary) -> bool:
    return all(
        eval_labeled(f, assignment, w, vocab) for w in range(len(assignment))
    )


def counts_of(assignment, t: int) -> tuple[int, ...]:
    c = Counter(assignment)
    return tuple(c.get(i, 0) for i in range(t))


def brute_class_counts(n: int, d: int, vocab: Vocabulary) -> dict:
    """Group all t^n labeled models by their capped type-count vector."""
    out: Counter = Counter()
    for assignment in labeled_models(n, vocab.t):
        counts = counts_of(assignment, vocab.t)
        out[tuple(min(c, d) for c in counts)] += 1
    return dict(out)


def multinomial(n: int, parts: list[int] | tuple[int, ...]) -> int:
    """Exact multinomial coefficient n! / (parts_1! ... parts_k!)."""
    if min(parts, default=0) < 0:
        raise ValueError(f"negative part in {parts}")
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def reference_class_size(tup) -> int:
    """Class size as multinomial x k_d! x r-associated Stirling number:
    the points of each entry below d, the m points left over, split into
    one block of at least d points per capped entry."""
    exact = [e for e in tup.entries if e < tup.d]
    k_d = tup.t - len(exact)
    m = tup.n - sum(exact)
    base = multinomial(tup.n, exact + [m])
    if k_d == 0:
        return base
    return base * math.factorial(k_d) * stirling_r_assoc(m, k_d, tup.d)


def representative_profile(tup) -> ModelProfile:
    """The class member whose surplus points all take the first type with
    the largest entry."""
    counts = list(tup.entries)
    j = counts.index(max(counts))
    counts[j] += tup.n - sum(counts)
    return ModelProfile(tuple(counts))


def choices_counts(rng, n: int, t: int) -> list[int]:
    """Per-type counts of a uniform labeled model on n points, each type
    drawn with one random() call through rng.choices: the reference draw
    for the library's sampler, which reads the Mersenne Twister words
    directly and must consume the same ones."""
    counts = Counter(rng.choices(range(t), k=n))
    return [counts[i] for i in range(t)]


def choices_separation(n: int, d: int, t: int, trials: int, rng) -> float:
    """The separation estimate over reference draws: model a's points,
    then model b's, in each trial."""
    separable = 0
    for _ in range(trials):
        a = choices_counts(rng, n, t)
        b = choices_counts(rng, n, t)
        separable += [min(c, d) for c in a] != [min(c, d) for c in b]
    return separable / trials


def set_partitions(items: list):
    """All partitions of a list into nonempty blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [head]] + partition[i + 1 :]
        yield partition + [[head]]


def brute_stirling(n: int, m: int, r: int) -> int:
    """Count partitions of an n-set into m blocks each of size >= r."""
    return sum(
        1
        for partition in set_partitions(list(range(n)))
        if len(partition) == m and all(len(block) >= r for block in partition)
    )


class LabeledGame:
    """The formula-size game played on labeled models with explicit point
    sets, exactly as defined, including overlapping or-splits.

    Cycles (free grade-0 moves) are handled with an in-progress guard:
    a revisited position is treated as not-winnable along that line.
    Wins are cached unconditionally; losses only when they did not rely
    on the guard.
    """

    def __init__(self, n: int, d: int, vocab: Vocabulary):
        self.n = n
        self.d = d
        self.vocab = vocab
        self.literals = [
            Lit(sym, pos) for sym in vocab.symbols for pos in (True, False)
        ]
        self.memo: dict = {}

    def _assignments(self, side, chooser):
        """Product of per-model point-set choices; chooser gives the options."""
        out = [[]]
        for model in sorted(side):
            opts = chooser(model)
            if not opts:
                return []
            out = [a + [(model, o)] for a in out for o in opts]
        return out

    def spoiler_wins(self, r: int, A: frozenset, B: frozenset, modal_made: bool):
        value, _ = self._wins(r, A, B, modal_made, set())
        return value

    def _wins(self, r, A, B, modal_made, in_progress):
        key = (r, A, B, modal_made)
        if key in self.memo:
            return self.memo[key], False
        if key in in_progress:
            return False, True
        if r == 0:
            self.memo[key] = False
            return False, False
        in_progress = in_progress | {key}
        tainted = False

        def attempt(successors, budget):
            nonlocal tainted
            good = True
            for (A2, B2) in successors:
                value, t2 = self._wins(budget, A2, B2, True, in_progress)
                tainted = tainted or t2
                if not value:
                    good = False
                    break
            return good

        result = False
        if modal_made:
            for lit in self.literals:
                if all(
                    eval_labeled(lit, m, w, self.vocab) for (m, w) in A
                ) and all(not eval_labeled(lit, m, w, self.vocab) for (m, w) in B):
                    result = True
                    break
        n = self.n
        if not result:
            for k in range(0, min(self.d, r - 1) + 1):
                for sela in self._assignments(
                    A, lambda mw: list(combinations(range(n), k))
                ):
                    for selb in self._assignments(
                        B, lambda mw: list(combinations(range(n), n - k + 1))
                    ):
                        A2 = frozenset((m, v) for (m, w), vs in sela for v in vs)
                        B2 = frozenset((m, v) for (m, w), vs in selb for v in vs)
                        if attempt([(A2, B2)], r - k):
                            result = True
                            break
                    if result:
                        break
                if result:
                    break
                for selb in self._assignments(
                    B, lambda mw: list(combinations(range(n), k))
                ):
                    for sela in self._assignments(
                        A, lambda mw: list(combinations(range(n), n - k + 1))
                    ):
                        A2 = frozenset((m, v) for (m, w), vs in sela for v in vs)
                        B2 = frozenset((m, v) for (m, w), vs in selb for v in vs)
                        if attempt([(A2, B2)], r - k):
                            result = True
                            break
                    if result:
                        break
                if result:
                    break
        if not result:
            for k in range(0, min(self.d - 1, r - 1) + 1):
                # exact-count move with picks on the left
                for sela in self._assignments(
                    A, lambda mw: list(combinations(range(n), k))
                ):
                    opts = [("P", c) for c in combinations(range(n), k + 1)]
                    opts += [("N", c) for c in combinations(range(n), n - k + 1)]
                    for selb in self._assignments(B, lambda mw: opts):
                        A2 = set()
                        B2 = set()
                        for (m, w), vs in sela:
                            A2.update((m, v) for v in vs)
                            B2.update((m, v) for v in set(range(n)) - set(vs))
                        for (m, w), (label, vs) in selb:
                            (A2 if label == "P" else B2).update((m, v) for v in vs)
                        if attempt([(frozenset(A2), frozenset(B2))], r - k - 1):
                            result = True
                            break
                    if result:
                        break
                if result:
                    break
                # dual move with picks on the right
                for selb in self._assignments(
                    B, lambda mw: list(combinations(range(n), k))
                ):
                    opts = [("P", c) for c in combinations(range(n), k + 1)]
                    opts += [("N", c) for c in combinations(range(n), n - k + 1)]
                    for sela in self._assignments(A, lambda mw: opts):
                        A2 = set()
                        B2 = set()
                        for (m, w), vs in selb:
                            B2.update((m, v) for v in vs)
                            A2.update((m, v) for v in set(range(n)) - set(vs))
                        for (m, w), (label, vs) in sela:
                            (B2 if label == "P" else A2).update((m, v) for v in vs)
                        if attempt([(frozenset(A2), frozenset(B2))], r - k - 1):
                            result = True
                            break
                    if result:
                        break
                if result:
                    break
        if not result and r >= 3:
            result, t2 = self._split_wins(r, A, B, modal_made, in_progress)
            tainted = tainted or t2

        if result or not tainted:
            self.memo[key] = result
        return result, tainted

    def _split_wins(self, r, A, B, modal_made, in_progress):
        tainted = False
        # every way of covering a side with two subsets, overlaps included
        for side, is_or in ((A, True), (B, False)):
            items = sorted(side)
            for marks in product((1, 2, 3), repeat=len(items)):
                p1 = frozenset(m for m, mk in zip(items, marks) if mk & 1)
                p2 = frozenset(m for m, mk in zip(items, marks) if mk & 2)
                for r1 in range(1, r - 1):
                    r2 = r - 1 - r1
                    if is_or:
                        v1, t1 = self._wins(r1, p1, B, modal_made, in_progress)
                        v2, t2 = self._wins(r2, p2, B, modal_made, in_progress)
                    else:
                        v1, t1 = self._wins(r1, A, p1, modal_made, in_progress)
                        v2, t2 = self._wins(r2, A, p2, modal_made, in_progress)
                    tainted = tainted or t1 or t2
                    if v1 and v2:
                        return True, tainted
        return False, tainted
