"""Independent brute-force oracles for the test suite.

The brute-force oracles work on fully labeled models (an explicit type
per point) and explicit point sets, never on count profiles or type
subvectors, so agreement with the library is a genuine two-route check.
Past the sizes brute force reaches, slow reference formulas stand in:
the step-by-step multinomial and the class size built from it.
``representative_profile`` names one model of a class, for tests that
need a member rather than a count.  ``exact_complexity_by_search`` is
the exact description complexity as the formula search alone decides
it, level by level up to the canonical size, over every size-n profile
rather than the library's one profile per class.  ``min_cover_by_search``
tries every subset of a class's realized types for the minimum cover
that the library writes in closed form.  ``read_formula`` reads the
text that ``format_formula`` prints, with its own table of tokens, and
``negate`` is the formula's complement in negation normal form.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from itertools import combinations, product

from gmlu.classes import tuple_of_profile
from gmlu.combinatorics import stirling_r_assoc
from gmlu.complexity import FormulaSearch, upper_bound
from gmlu.formulas import And, BoxLt, BoxNeq, DiamondEq, DiamondGeq, Lit, Or
from gmlu.models import ModelProfile, enumerate_profiles
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


# written out here rather than read off the formula classes, so that a
# round trip through the printer also checks the printer's tokens
_MODALS = {"<>=": DiamondGeq, "[]<": BoxLt, "<>==": DiamondEq, "[]!=": BoxNeq}
_CONNECTIVES = (("|", Or), ("&", And))  # the loosest binding first
_TOKEN = re.compile(r"\s*(?:(<>==|<>=|\[\]<|\[\]!=)\s*(\d+)|([A-Za-z_]\w*)|(\S))")


def read_formula(text: str):
    """The formula whose printed text is ``text``: ``&`` binds tighter than
    ``|``, both left-associative, and a modality binds tightest.  Raises
    ``ValueError`` on text it cannot read whole."""
    # (modal token, grade, symbol, character); "end" is no one character
    tokens = [m.groups() for m in _TOKEN.finditer(text)] + [(None, None, None, "end")]
    pos = 0

    def take(expected=None):
        nonlocal pos
        token = tokens[pos]
        if expected is not None and token[3] != expected:
            raise ValueError(f"expected {expected!r} at token {pos} of {text!r}")
        pos += 1
        return token

    def connective(level: int):
        if level == len(_CONNECTIVES):
            return operand()
        char, kind = _CONNECTIVES[level]
        f = connective(level + 1)
        while tokens[pos][3] == char:
            take()
            f = kind(f, connective(level + 1))
        return f

    def operand():
        modal, grade, symbol, char = take()
        if modal:
            return _MODALS[modal](int(grade), operand())
        if symbol:
            return Lit(symbol)
        if char == "!" and tokens[pos][2]:
            return Lit(take()[2], False)
        if char == "(":
            f = connective(0)
            take(")")
            return f
        raise ValueError(f"unexpected {char!r} at token {pos - 1} of {text!r}")

    f = connective(0)
    take("end")
    return f


def negate(f):
    """The complement of f with negation pushed to the literals: ``And``
    and ``Or`` swap, and each modality turns into its ``dual``."""
    if isinstance(f, Lit):
        return Lit(f.symbol, not f.positive)
    if isinstance(f, (And, Or)):
        return (Or if isinstance(f, And) else And)(negate(f.left), negate(f.right))
    return f.dual(f.grade, negate(f.sub))


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


@functools.lru_cache(maxsize=8)
def profile_search(vocab: Vocabulary, n: int, d: int) -> FormulaSearch:
    """A formula search over every size-n profile, in enumeration order."""
    return FormulaSearch(vocab, d, list(enumerate_profiles(n, vocab)))


def exact_complexity_by_search(tup, vocab: Vocabulary, max_size: int | None = None):
    """Smallest size of a formula defining the class, searching every level
    up to max_size (default: the canonical size) over every size-n profile,
    or None; the canonical formula itself is never evaluated."""
    search = profile_search(vocab, tup.n, tup.d)
    target = sum(1 << i for i, p in enumerate(search.profiles)
                 if tuple_of_profile(p, tup.d) == tup)
    limit = max_size if max_size is not None else upper_bound(tup, vocab).value
    hit = search.first_outer_match(target.__eq__, limit)
    return hit[0] if hit else None


def min_cover_by_search(tup) -> tuple[int, frozenset[int]]:
    """Least (cost, sorted subset) over every subset of the realized types
    that covers the cover graph.  The edges join every ordered pair of
    distinct realized types, except from the first type with the largest
    entry to a target below the cap d; a subset covers edge (i, j) when it
    holds i, or holds j and j's entry is below d."""
    e, d = tup.entries, tup.d
    realized = [i for i, x in enumerate(e) if x > 0]
    designated = e.index(max(e))
    edges = [(i, j) for i in realized for j in realized
             if i != j and (i != designated or e[j] == d)]
    cost, subset = min(
        (sum(e[i] for i in subset), subset)
        for k in range(len(realized) + 1)
        for subset in combinations(realized, k)
        if all(i in subset or (j in subset and e[j] < d) for i, j in edges)
    )
    return cost, frozenset(subset)


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
