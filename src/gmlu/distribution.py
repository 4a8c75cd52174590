"""Class-size distributions, their entropies, and phase-transition reports.

The probability of a class is its exact size over t^n.  Class size
depends only on the multiset of the tuple's entries, so every reduction
over all classes (entropies, the largest class, majority, collision
probability) runs over permutation orbits, each weighted by its number
of distinct permutations, with sizes kept as exact integers over the one
denominator t^n: threshold comparisons (majority, dominance) never hinge
on rounding, and Fractions are built only for report fields.  Entropies
are the only floating-point quantities: base-2 logs of exact integers,
summed with math.fsum, whose correctly rounded result does not depend on
the order or grouping of the terms.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from . import _lazy
from .classes import (
    AdmissibleTuple,
    FactorialMemo,
    SlotRecord,
    check_enumeration_cap,
    class_size,
    enumerate_admissible,
    enumerate_orbits,
)
from .config import DEFAULT_CAPS, SearchCaps
from .vocab import Vocabulary

if TYPE_CHECKING:
    from fractions import Fraction

complexity = _lazy("complexity")  # only the monotone check reads complexities


class ClassEntry(SlotRecord):
    """One class and its exact size; an immutable slot record like
    AdmissibleTuple."""

    __slots__ = ("tup", "size")
    tup: AdmissibleTuple
    size: int

    def __init__(self, tup: AdmissibleTuple, size: int):
        set_tup, set_size = self._setters
        set_tup(self, tup)
        set_size(self, size)

    @property
    def probability(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.size, self.tup.t**self.tup.n)


class _ClassDistributionFields(NamedTuple):
    n: int
    d: int
    vocab: Vocabulary
    entries: tuple[ClassEntry, ...]


class ClassDistribution(_ClassDistributionFields):
    """All classes of one (n, d) pair with exact sizes and probabilities.

    Its instances keep a ``__dict__``, where ``entropies`` is cached."""

    @cached_property
    def entropies(self) -> tuple[float, float]:
        """Shannon and Boltzmann entropies, summed over the classes once."""
        return _entropies(((1, e.size) for e in self.entries), self.vocab.t**self.n)


def build_distribution(n: int, d: int, vocab: Vocabulary) -> ClassDistribution:
    denom = vocab.t**n
    entries = []
    total = 0
    factorials = FactorialMemo()
    for tup in enumerate_admissible(n, d, vocab):
        sz = class_size(tup, factorials)
        total += sz
        entries.append(ClassEntry(tup, sz))
    if total != denom:
        raise AssertionError(
            f"class sizes sum to {total}, expected {denom}; counting bug"
        )
    return ClassDistribution(n, d, vocab, tuple(entries))


def _orbit_table(
    n: int, d: int, vocab: Vocabulary
) -> list[tuple[AdmissibleTuple, int, int]]:
    """(representative, multiplicity, class size) for every permutation
    orbit of (n, d)-admissible tuples; see classes.enumerate_orbits."""
    factorials = FactorialMemo()
    table = [(rep, w, class_size(rep, factorials))
             for rep, w in enumerate_orbits(n, d, vocab)]
    total = sum(w * size for _, w, size in table)
    if total != vocab.t**n:
        raise AssertionError(
            f"class sizes sum to {total}, expected {vocab.t**n}; counting bug"
        )
    return table


def _entropies(
    weighted_sizes: Iterable[tuple[int, int]], denom: int
) -> tuple[float, float]:
    """Shannon and Boltzmann entropies of classes given as (multiplicity,
    size) pairs over the model count ``denom``.

    Each term depends only on its pair, and fsum is correctly rounded, so
    the same multiset of pairs gives the same floats in any order.  Equal
    pairs give equal terms, so each distinct pair's terms are computed
    once and fed to fsum as often as the pair occurs, not stored per class.
    """
    log_denom = math.log2(denom)
    terms = []
    for (w, size), count in Counter(weighted_sizes).items():
        p = w * size / denom
        log_size = math.log2(size)
        terms.append((p * (log_denom - log_size), p * log_size, count))
    return (math.fsum(chain.from_iterable(repeat(s, c) for s, _, c in terms)),
            math.fsum(chain.from_iterable(repeat(b, c) for _, b, c in terms)))


def boltzmann_entropy(dist: ClassDistribution) -> float:
    """Expected log2 class size over the distribution."""
    return dist.entropies[1]


def shannon_entropy(dist: ClassDistribution) -> float:
    """Expected -log2 class probability over the distribution."""
    return dist.entropies[0]


class DepthEntropyRow(NamedTuple):
    d: int
    class_count: int
    shannon: float
    boltzmann: float

    @property
    def entropy_sum(self) -> float:
        return self.shannon + self.boltzmann


def entropy_vs_depth(n: int, vocab: Vocabulary) -> list[DepthEntropyRow]:
    """Both entropies for every depth 1..n.

    The Shannon entropy strictly grows and the Boltzmann entropy
    strictly falls while 2d < n; from d >= n/2 on, classes are plain
    isomorphism classes and both stay constant.
    """
    rows = []
    for d in range(1, n + 1):
        table = _orbit_table(n, d, vocab)
        shannon, boltzmann = _entropies(
            ((w, size) for _, w, size in table), vocab.t**n
        )
        rows.append(
            DepthEntropyRow(d, sum(w for _, w, _ in table), shannon, boltzmann)
        )
    return rows


class _PhaseConstantsFields(NamedTuple):
    c1: float
    c2: float
    t: int


class PhaseConstants(_PhaseConstantsFields):
    """Explicit majority-threshold constants for the type count t."""

    __slots__ = ()

    def __new__(cls, c1: float, c2: float, t: int):
        if not c2 < c1:
            raise ValueError(f"expected c2 < c1, got {c2} >= {c1}")
        return super().__new__(cls, c1, c2, t)


def phase_constants(vocab: Vocabulary) -> PhaseConstants:
    """c1 = (1/t) sqrt(2t ln 2t); c2 = sqrt(pi / (2 t^3 (4t)^(1/(t-1))))."""
    t = vocab.t
    c1 = math.sqrt(2 * t * math.log(2 * t)) / t
    c2 = math.sqrt(math.pi / (2 * t**3 * (4 * t) ** (1.0 / (t - 1))))
    return PhaseConstants(c1, c2, t)


class MajorityReport(NamedTuple):
    n: int
    d: int
    candidate: AdmissibleTuple | None
    candidate_probability: Fraction
    max_tuple: AdmissibleTuple
    max_probability: Fraction
    has_majority: bool
    regime: str | None


def _candidate_and_max(
    n: int, d: int, vocab: Vocabulary
) -> tuple[AdmissibleTuple | None, int, AdmissibleTuple, int]:
    """The all-capped tuple (d, ..., d), or None when it is not
    admissible, and the largest class's tuple, each with its class size.

    Among equally large classes the lexicographically first tuple wins:
    the smallest tuple of an orbit is its representative sorted ascending.
    """
    all_capped = (d,) * vocab.t
    candidate, candidate_size = None, 0
    max_entries, max_size = None, 0
    for rep, _, size in _orbit_table(n, d, vocab):
        if rep.entries == all_capped:
            candidate, candidate_size = rep, size
        first = tuple(sorted(rep.entries))
        if size > max_size or (size == max_size and first < max_entries):
            max_entries, max_size = first, size
    return candidate, candidate_size, AdmissibleTuple(max_entries, n, d), max_size


def majority_report(n: int, d: int, vocab: Vocabulary) -> MajorityReport:
    """Exact majority check, annotated with the threshold regime.

    The candidate is the all-capped tuple (d, ..., d) when admissible;
    the true maximum class is reported either way, and majority means
    exact probability above one half.
    """
    from fractions import Fraction

    candidate, candidate_size, max_tuple, max_size = _candidate_and_max(n, d, vocab)
    t = vocab.t
    denom = t**n
    consts = phase_constants(vocab)
    if d <= n / t - consts.c1 * math.sqrt(n):
        regime = "majority (d <= n/t - c1*sqrt(n))"
    elif d >= n / t - consts.c2 * math.sqrt(n):
        regime = "no-majority (d >= n/t - c2*sqrt(n))"
    else:
        regime = None
    return MajorityReport(
        n,
        d,
        candidate,
        Fraction(candidate_size, denom),
        max_tuple,
        Fraction(max_size, denom),
        2 * max_size > denom,
        regime,
    )


# For t = 2^k <= 256, floor(random() * t) is the top k bits of the first of the
# two 32-bit Mersenne Twister words random() consumes; getrandbits(64 * m) takes
# the same 2m words, lowest first, so that word's top byte is byte 3 of 8.
# The word stream does not depend on how it is chunked into calls.
_TOP_BITS = {1 << k: bytes(b >> (8 - k) for b in range(256)) for k in range(1, 9)}
_BLOCK = 1 << 12  # points per getrandbits call, so memory stays fixed in n


def _draw_types(rng: random.Random, m: int, table: bytes) -> bytes:
    """The types of the next m uniform points, one byte each."""
    return rng.getrandbits(64 * m).to_bytes(8 * m, "little")[3::8].translate(table)


def _draw_counts(rng: random.Random, n: int, t: int) -> list[int]:
    """Per-type point counts of one uniform model on n points: the draws of
    rng.choices(range(t), k=n), leaving rng in the same state."""
    table = _TOP_BITS.get(t)
    if table is None:
        counts = Counter(rng.choices(range(t), k=n))
        return [counts[i] for i in range(t)]
    counts = [0] * t
    for start in range(0, n, _BLOCK):
        types = _draw_types(rng, min(_BLOCK, n - start), table)
        for i in range(t):
            counts[i] += types.count(i)
    return counts


def estimate_separation_probability(
    n: int, d: int, vocab: Vocabulary, trials: int, seed: int
) -> float:
    """Sampled probability that two independent uniform models land in
    different classes, decided by tuple equality (the class bijection
    makes this exact per pair).

    Each trial draws model a's n points, then model b's.  When a trial's
    2n points fit in a block, whole trials are drawn a block at a time and
    each model's counts are read off its slice of the block."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(seed)
    t = vocab.t
    table = _TOP_BITS.get(t)
    separable = 0
    if table is None or not 0 < n <= _BLOCK // 2:
        for _ in range(trials):
            a = _draw_counts(rng, n, t)
            b = _draw_counts(rng, n, t)
            separable += [min(c, d) for c in a] != [min(c, d) for c in b]
        return separable / trials
    per_block = _BLOCK // (2 * n)
    for first in range(0, trials, per_block):
        m = 2 * n * min(per_block, trials - first)
        types = _draw_types(rng, m, table)
        for a in range(0, m, 2 * n):
            b = a + n
            for i in range(t):
                ca, cb = types.count(i, a, b), types.count(i, b, b + n)
                # the capped counts min(ca, d) and min(cb, d) differ
                if ca != cb and min(ca, cb) < d:
                    separable += 1
                    break
    return separable / trials


def exact_separation_probability(n: int, d: int, vocab: Vocabulary) -> Fraction:
    """Exact probability that two independent uniform models differ as
    classes: one minus the collision probability."""
    from fractions import Fraction

    collisions = sum(w * size**2 for _, w, size in _orbit_table(n, d, vocab))
    return 1 - Fraction(collisions, vocab.t ** (2 * n))


def dominating_class_sweep(
    d_rule: Callable[[int], int], vocab: Vocabulary, n_values: Iterable[int]
) -> list[MajorityReport]:
    """Exact candidate and maximum class probabilities along a depth rule.

    The trend over n (toward one, bounded away, or toward zero) is what
    the table exhibits; no limit claim is asserted.
    """
    return [majority_report(n, d_rule(n), vocab) for n in n_values]


_DEPTH_RULES = {
    "below-sqrt": lambda n, t, a: n / t - a * math.sqrt(n),
    "below-quarter": lambda n, t, a: n / t - a * n**0.25,
    "above-sqrt": lambda n, t, a: n / t + a * math.sqrt(n),
}


def make_depth_rule(kind: str, a: float, vocab: Vocabulary) -> Callable[[int], int]:
    """Built-in depth rules d(n) = max(1, floor(n/t -/+ a*n^e)); the rule
    raises ValueError at an n where n/t -/+ a*n^e is not finite."""
    if kind not in _DEPTH_RULES:
        raise ValueError(
            f"unknown depth rule {kind!r}; choose from {tuple(_DEPTH_RULES)}"
        )
    center, t = _DEPTH_RULES[kind], vocab.t

    def rule(n: int) -> int:
        if not math.isfinite(x := center(n, t, a)):
            raise ValueError(f"depth rule {kind!r} with a={a} is not finite at n={n}")
        return max(1, math.floor(x))

    return rule


def comparability_constant(vocab: Vocabulary) -> int:
    """Gap a coordinatewise-ordered tuple pair must exceed to be
    comparable for the monotone connection: t(2|tau|+1) - 1."""
    return vocab.t * (2 * len(vocab.symbols) + 1) - 1


class MonotonePair(NamedTuple):
    """One comparable pair with the values its check compared.

    In exact mode the complexity fields hold exact complexities; in
    bounds mode they hold the canonical upper bound of the smaller
    tuple and the closed-form lower bound of the larger one.
    """

    smaller: AdmissibleTuple
    larger: AdmissibleTuple
    smaller_size: int
    larger_size: int
    smaller_complexity: int
    larger_complexity: int


class MonotoneConnectionReport(NamedTuple):
    n: int
    d: int
    mode: str
    pair_count: int
    failures: tuple[MonotonePair, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_monotone_connection(
    n: int,
    d: int,
    vocab: Vocabulary,
    mode: str = "bounds",
    caps: SearchCaps = DEFAULT_CAPS,
) -> MonotoneConnectionReport:
    """Check the monotone connection on all comparable distinct pairs.

    Pairs are comparable when coordinatewise ordered with entry-sum gap
    above t(2|tau|+1) - 1.  In bounds mode the check is
    upper(smaller) < lower(larger) and |smaller| < |larger|; in exact
    mode (tiny scale) it is the biconditional between the exact size
    and exact complexity orders.  Like the row reports, it refuses past
    ``caps.enumerate_max_entries`` before it lists the tuples.
    """
    if mode not in ("bounds", "exact"):
        raise ValueError(f"mode must be 'bounds' or 'exact', not {mode!r}")
    check_enumeration_cap(n, d, vocab, caps)
    c_tau = comparability_constant(vocab)
    tuples = enumerate_admissible(n, d, vocab)
    factorials = FactorialMemo()
    sizes = [class_size(tup, factorials) for tup in tuples]
    if mode == "exact":
        his = los = [complexity.exact_complexity(tup, vocab, caps=caps)
                     for tup in tuples]
    else:
        los = [complexity.lower_bound(tup) for tup in tuples]
        his = [complexity.upper_bound(tup, vocab).value for tup in tuples]
    # bucket by entry sum so only pairs with a large enough gap are walked
    by_sum: dict[int, list[int]] = {}
    for i, tup in enumerate(tuples):
        by_sum.setdefault(sum(tup.entries), []).append(i)
    pair_count = 0
    failures = []
    for s1, idx1 in by_sum.items():
        for s2, idx2 in by_sum.items():
            if s2 - s1 <= c_tau:
                continue
            for i in idx1:
                ei = tuples[i].entries
                for j in idx2:
                    if not all(a <= b for a, b in zip(ei, tuples[j].entries)):
                        continue
                    pair_count += 1
                    if mode == "exact":
                        ok = (sizes[i] < sizes[j]) == (his[i] < los[j])
                    else:
                        ok = his[i] < los[j] and sizes[i] < sizes[j]
                    if not ok:
                        failures.append(MonotonePair(
                            tuples[i], tuples[j], sizes[i], sizes[j],
                            his[i], los[j],
                        ))
    return MonotoneConnectionReport(n, d, mode, pair_count, tuple(failures))
