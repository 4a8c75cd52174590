"""Equivalence classes of depth-d counting equivalence over size-n models.

A class is named by its admissible tuple: per-type point counts, with
counts of d standing for "at least d".  A tuple is (n, d)-admissible
when every entry is at most d, the entries sum to at most n, and either
some entry equals d or the entries sum to exactly n.  Admissible tuples
and equivalence classes correspond one to one.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

from .combinatorics import stirling_r_assoc
from .config import SearchCaps, check_cap
from .vocab import Vocabulary

if TYPE_CHECKING:
    from .models import ModelProfile


class SlotRecord:
    """Base of the immutable ``__slots__`` records built once per class row.

    A subclass lists its fields as ``__slots__`` and sets them in its
    ``__init__`` through ``_setters``, the ``__set__`` of each slot's
    descriptor in ``__slots__`` order.  Records of one type
    compare and hash by their field tuple, print as ``Name(field=value,
    ...)``, and copy and pickle by calling the type with that tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = operator.attrgetter(*cls.__slots__)
        cls._setters = tuple(vars(cls)[f].__set__ for f in cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class AdmissibleTuple(SlotRecord):
    """An (n, d)-admissible tuple naming one equivalence class.

    One is built per class, so its fields are slots: smaller than a
    dict, and faster to read than a NamedTuple's fields.
    """

    __slots__ = ("entries", "n", "d")
    entries: tuple[int, ...]
    n: int
    d: int

    def __init__(self, entries: tuple[int, ...], n: int, d: int):
        if d < 1:
            raise ValueError("counting depth must be at least 1")
        if entries and (min(entries) < 0 or max(entries) > d):
            raise ValueError(f"entries {entries} not within 0..{d}")
        total = sum(entries)
        if total > n:
            raise ValueError(f"entries sum {total} exceeds n={n}")
        if total < n and d not in entries:
            raise ValueError(
                f"{entries} is not ({n},{d})-admissible: "
                "no entry reaches the cap and the sum falls short of n"
            )
        set_entries, set_n, set_d = self._setters
        set_entries(self, entries)
        set_n(self, n)
        set_d(self, d)

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

    def max_index(self) -> int:
        """Index of a type with the most realizing points (lowest index wins).

        With at most one capped entry this is the type whose count the
        tuple leaves implicit; with several capped entries, the first
        capped index."""
        best = max(self.entries)
        return self.entries.index(best)


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
            low = 0
            if non_increasing and not capped:
                # no later entry reaches d unless e does, so the sum must
                # reach n with t - len(prefix) entries of at most e
                low = min(d, -((total - n) // (t - len(prefix))))
            # pushed in reverse, so the smallest entry comes off first
            for e in range(top, low - 1, -1):
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


def _count_within(c: int, s: int, t: int) -> int:
    """Length-t vectors with entries in 0..c and sum at most s, by
    inclusion-exclusion over the entries forced above c."""
    if s >= t * c:
        return (c + 1) ** t
    return sum(
        (-1) ** j * math.comb(t, j) * math.comb(s - j * (c + 1) + t, t)
        for j in range(min(t, s // (c + 1)) + 1)
    )


def admissible_count(n: int, d: int, t: int) -> int:
    """The number of (n, d)-admissible length-t tuples, without listing
    them: sum at most n with some entry d, or sum exactly n with none."""
    if d < 1:
        raise ValueError("counting depth must be at least 1")
    uncapped_sum_n = _count_within(d - 1, n, t) - _count_within(d - 1, n - 1, t)
    return _count_within(d, n, t) - _count_within(d - 1, n, t) + uncapped_sum_n


def check_enumeration_cap(n: int, d: int, vocab: Vocabulary, caps: SearchCaps) -> None:
    """Raise a ScaleCapError when the (n, d)-admissible tuples would store
    more entries (tuples times t) than ``caps.enumerate_max_entries``.

    A lower bound on the count comes first: the nonzero 0/1 tuples with at
    most n ones (d = 1), or d followed by 0s and 1s with at most n - d ones.
    Past both the cap and 2^64 it settles the refusal, whose message then
    names only a power of two, and the slow exact count is skipped."""
    t = vocab.t
    if d == 1:
        entries = (2 ** min(t, n) - 1) * t
    else:
        entries = 2 ** min(t - 1, n - d) * t if n >= d else 0
    if entries <= max(caps.enumerate_max_entries, 2**64):
        entries = admissible_count(n, d, t) * t
    check_cap(caps, "enumerate_max_entries", entries, "admissible-tuple entries")


def enumerate_orbits(
    n: int, d: int, vocab: Vocabulary, factorials: FactorialMemo | None = None
) -> list[tuple[tuple[int, ...], int, int]]:
    """(entries, weight, size) for each permutation orbit of the admissible
    tuples.

    Permuting a tuple's entries keeps it admissible and keeps its class
    size, so reductions over all classes can run over orbits.  Each
    orbit is named by its non-increasing entries.  Its weight is its
    number of distinct permutations, t! / prod(multiplicity of each
    value)!, divided out along each run of equal entries.  Its size, that
    of each of its classes, is read from the entries with no record
    built, with factorials from ``factorials`` or a memo of this call's own.
    """
    if factorials is None:
        factorials = FactorialMemo()
    out = []
    t_factorial = math.factorial(vocab.t)
    for e in _admissible_entries(n, d, vocab.t, True):
        weight, run = t_factorial, 1
        for a, b in zip(e, e[1:]):
            run = run + 1 if a == b else 1
            weight //= run
        out.append((e, weight, _entries_size(e, n, d, factorials)))
    return out


class FactorialMemo(dict):
    """k! for each k asked for, computed once on first use.

    A report that sizes many classes of one n makes one and passes it to
    every class_size call, so n! and each entry's factorial are computed
    once per report, and only for the k the report reads."""

    def __missing__(self, k: int) -> int:
        self[k] = value = math.factorial(k)
        return value


def _entries_size(
    entries: tuple[int, ...], n: int, d: int, factorials: FactorialMemo
) -> int:
    """Exact number of size-n models in the class of the (n, d)-admissible
    ``entries``.

    Pick the points for each exactly-specified type, leaving m points to
    the capped types: n! / (m! * prod of e! over the entries e < d).
    Split those m into one block of size >= d per capped type, and assign
    capped types to blocks.  With no capped entry m is 0 and both
    partition factors degenerate to 1.
    """
    k_d = entries.count(d)
    m = n - sum(entries) + k_d * d
    denominator = 1
    for e in entries:
        if e < d:
            denominator *= factorials[e]
    # m! is the largest factor, so it multiplies in last
    size = factorials[n] // (denominator * factorials[m])
    if k_d == 0:
        return size
    return size * factorials[k_d] * stirling_r_assoc(m, k_d, d)


def class_size(tup: AdmissibleTuple, factorials: FactorialMemo | None = None) -> int:
    """Exact number of size-n models in the class; see _entries_size.  The
    factorials come from ``factorials``, or from a memo of this call's own
    when none is given."""
    if factorials is None:
        factorials = FactorialMemo()
    return _entries_size(tup.entries, tup.n, tup.d, factorials)
