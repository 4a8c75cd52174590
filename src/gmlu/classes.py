"""Equivalence classes of depth-d counting equivalence over size-n models.

A class is named by its admissible tuple: per-type point counts, with
counts of d standing for "at least d".  A tuple is (n, d)-admissible
when every entry is at most d, the entries sum to at most n, and either
some entry equals d or the entries sum to exactly n.  Admissible tuples
and equivalence classes correspond one to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import multinomial, stirling_r_assoc
from .models import ModelProfile
from .vocab import Vocabulary


@dataclass(frozen=True, slots=True)
class AdmissibleTuple:
    """An (n, d)-admissible tuple naming one equivalence class."""

    entries: tuple[int, ...]
    n: int
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("counting depth must be at least 1")
        if min(self.entries, default=0) < 0 or max(self.entries, default=0) > self.d:
            raise ValueError(f"entries {self.entries} not within 0..{self.d}")
        total = sum(self.entries)
        if total > self.n:
            raise ValueError(f"entries sum {total} exceeds n={self.n}")
        if total < self.n and self.d not in self.entries:
            raise ValueError(
                f"{self.entries} is not ({self.n},{self.d})-admissible: "
                "no entry reaches the cap and the sum falls short of n"
            )

    @property
    def t(self) -> int:
        return len(self.entries)

    @property
    def k_d(self) -> int:
        """How many entries sit at the cap d."""
        return self.entries.count(self.d)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.entries) if e > 0)

    def determined_count(self, i: int) -> int | None:
        """The exact number of points of type i in every model of the class,
        or None when the class leaves it open (several capped entries)."""
        if self.entries[i] < self.d:
            return self.entries[i]
        if self.k_d == 1:
            return self.n - (sum(self.entries) - self.entries[i])
        return None

    def max_index(self) -> int:
        """Index of a type with the most realizing points (lowest index wins).

        With at most one capped entry this is the type whose count the
        tuple leaves implicit; with several capped entries, the first
        capped index."""
        best = max(self.entries)
        return self.entries.index(best)

    def to_json(self) -> dict:
        return {"entries": list(self.entries), "n": self.n, "d": self.d}


def tuple_of_profile(profile: ModelProfile, d: int) -> AdmissibleTuple:
    """The class of the model: counts capped at d."""
    if d < 1:
        raise ValueError("counting depth must be at least 1")
    return AdmissibleTuple(
        tuple(min(c, d) for c in profile.counts), profile.n, d
    )


def _admissible_entries(
    n: int, d: int, t: int, non_increasing: bool
) -> list[tuple[int, ...]]:
    """Entry tuples of all (n, d)-admissible length-t tuples in lexicographic
    order; with ``non_increasing``, only those whose entries never rise."""
    if d < 1:
        raise ValueError("counting depth must be at least 1")
    out: list[tuple[int, ...]] = []
    # (entries so far, their sum, whether one is d, the largest next entry);
    # a stack, not recursion, since t = 2^|tau| may pass the recursion limit
    stack: list[tuple[tuple[int, ...], int, bool, int]] = [((), 0, False, d)]
    while stack:
        prefix, total, capped, hi = stack.pop()
        top = min(hi, n - total)
        if top == 0:
            # every later entry is 0, and some entry is d or the sum is n
            if capped or total == n:
                out.append(prefix + (0,) * (t - len(prefix)))
        elif len(prefix) < t - 1:
            # pushed in reverse, so the smallest entry comes off first
            for e in range(top, -1, -1):
                stack.append(((*prefix, e), total + e, capped or e == d,
                              e if non_increasing else d))
        elif capped:
            out.extend([(*prefix, e) for e in range(top + 1)])
        elif min(d, n - total) <= top:
            # admissible means some entry reaches the cap d or the sum
            # reaches n; with no capped entry yet, the last one must
            out.append((*prefix, min(d, n - total)))
    return out


def enumerate_admissible(n: int, d: int, vocab: Vocabulary) -> list[AdmissibleTuple]:
    """All (n, d)-admissible tuples in lexicographic entry order."""
    return [AdmissibleTuple(e, n, d) for e in _admissible_entries(n, d, vocab.t, False)]


def enumerate_orbits(
    n: int, d: int, vocab: Vocabulary
) -> list[tuple[AdmissibleTuple, int]]:
    """One representative per permutation orbit of the admissible tuples.

    Permuting a tuple's entries keeps it admissible and keeps its class
    size, so reductions over all classes can run over orbits.  Each
    representative has non-increasing entries and comes with its number
    of distinct permutations, t! / prod(multiplicity of each value)!,
    divided out along each run of equal entries.
    """
    out = []
    t_factorial = math.factorial(vocab.t)
    for e in _admissible_entries(n, d, vocab.t, True):
        weight, run = t_factorial, 1
        for a, b in zip(e, e[1:]):
            run = run + 1 if a == b else 1
            weight //= run
        out.append((AdmissibleTuple(e, n, d), weight))
    return out


def class_size(tup: AdmissibleTuple) -> int:
    """Exact number of size-n models in the class.

    Pick the points for each exactly-specified type (a multinomial),
    split the rest into one block of size >= d per capped type, and
    assign capped types to blocks.  With no capped entry both partition
    factors degenerate to 1.
    """
    exact = [e for e in tup.entries if e < tup.d]
    k_d = tup.t - len(exact)
    m = tup.n - sum(exact)
    base = multinomial(tup.n, exact + [m])
    if k_d == 0:
        return base
    return base * math.factorial(k_d) * stirling_r_assoc(m, k_d, tup.d)


@dataclass(frozen=True)
class ComparisonRecord:
    """Exact class sizes of a tuple and a coordinatewise-larger variant."""

    base: AdmissibleTuple
    other: AdmissibleTuple
    base_size: int
    other_size: int

    @property
    def strictly_increases(self) -> bool:
        return self.base_size < self.other_size


def check_one_more_element(tup: AdmissibleTuple, i: int) -> ComparisonRecord:
    """Compare against the tuple with one more point of a type that stays
    below d-1.  The strict increase is reported, not assumed: it needs n
    large compared to d and the vocabulary."""
    if not tup.entries[i] < tup.d - 1:
        raise ValueError(f"entry {i} of {tup.entries} is not below d-1={tup.d - 1}")
    entries = list(tup.entries)
    entries[i] += 1
    other = AdmissibleTuple(tuple(entries), tup.n, tup.d)
    return ComparisonRecord(tup, other, class_size(tup), class_size(other))


def check_one_more_d(tup: AdmissibleTuple, i: int) -> ComparisonRecord:
    """Compare against the tuple whose i-th entry is raised to the cap d."""
    if not tup.entries[i] < tup.d:
        raise ValueError(f"entry {i} of {tup.entries} is already at the cap")
    entries = list(tup.entries)
    entries[i] = tup.d
    other = AdmissibleTuple(tuple(entries), tup.n, tup.d)
    return ComparisonRecord(tup, other, class_size(tup), class_size(other))


@dataclass(frozen=True)
class MonotonicityReport:
    n: int
    d: int
    pairs: tuple[ComparisonRecord, ...]
    minimal_all_pass_n: int | None

    @property
    def failures(self) -> tuple[ComparisonRecord, ...]:
        return tuple(rec for rec in self.pairs if not rec.strictly_increases)

    @property
    def all_pass(self) -> bool:
        return not self.failures


def _immediate_successor_pairs(n: int, d: int, vocab: Vocabulary):
    for tup in enumerate_admissible(n, d, vocab):
        for i in range(tup.t):
            if tup.entries[i] < d and sum(tup.entries) < n:
                entries = list(tup.entries)
                entries[i] += 1
                succ = AdmissibleTuple(tuple(entries), n, d)
                yield ComparisonRecord(tup, succ, class_size(tup), class_size(succ))


def check_class_size_monotonicity(
    n: int, d: int, vocab: Vocabulary, sweep_limit: int | None = None
) -> MonotonicityReport:
    """Check |class| strictly grows along every immediate coordinatewise
    step between admissible tuples, and sweep n upward to report the
    first n from which all steps pass."""
    pairs = tuple(_immediate_successor_pairs(n, d, vocab))
    limit = sweep_limit if sweep_limit is not None else max(n, 4 * vocab.t * d)
    # minimal n such that every n' from there to the sweep limit passes
    minimal = None
    for n2 in range(limit, d - 1, -1):
        if all(
            rec.strictly_increases for rec in _immediate_successor_pairs(n2, d, vocab)
        ):
            minimal = n2
        else:
            break
    return MonotonicityReport(n, d, pairs, minimal)
