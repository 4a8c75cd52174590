"""Finite models as type-count profiles, and global formula evaluation.

Truth of a depth-bounded counting formula depends only on how many
points realize each propositional type, so a model is kept up to
isomorphism as a count vector of length t.  A pointed model adds the
type of its evaluation point; for well-formed formulas (every literal
under a modality) the point is irrelevant.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple

from .formulas import And, Formula, Lit, Or
from .vocab import Vocabulary


class VocabularyMismatchError(ValueError):
    pass


class _ModelProfileFields(NamedTuple):
    counts: tuple[int, ...]


class ModelProfile(_ModelProfileFields):
    """A model of size n up to isomorphism: counts[i] points of type i.

    Its instances keep a ``__dict__``, where ``n`` is cached on first
    read.  Attributes stay read-only, and pickling leaves the cache out,
    so a profile pickles as its counts alone."""

    def __new__(cls, counts: tuple[int, ...]):
        if not counts or any(c < 0 for c in counts):
            raise ValueError(f"bad counts {counts}")
        if sum(counts) < 1:
            raise ValueError("a model needs at least one point")
        return super().__new__(cls, counts)

    @cached_property
    def n(self) -> int:
        return sum(self.counts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __getstate__(self):
        return None

    def realized_types(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.counts) if c > 0)


class _PointedProfileFields(NamedTuple):
    profile: ModelProfile
    point_type: int


class PointedProfile(_PointedProfileFields):
    """A profile together with the type of the evaluation point."""

    __slots__ = ()

    def __new__(cls, profile: ModelProfile, point_type: int):
        if not 0 <= point_type < len(profile.counts):
            raise ValueError(f"point type {point_type} out of range")
        if profile.counts[point_type] < 1:
            raise ValueError(f"point type {point_type} not realized")
        return super().__new__(cls, profile, point_type)

    def sort_key(self):
        return (self.profile.counts, self.point_type)


def _check_vocab(profile: ModelProfile, vocab: Vocabulary):
    if len(profile.counts) != vocab.t:
        raise VocabularyMismatchError(
            f"profile has {len(profile.counts)} type counts, vocabulary has {vocab.t}"
        )


def sat_types(f: Formula, profile: ModelProfile, vocab: Vocabulary) -> frozenset[int]:
    """Types whose points satisfy f in this model.

    Modal subformulas are point-independent, so they contribute either
    every type or none; literals and their boolean combinations select
    types directly.
    """
    _check_vocab(profile, vocab)
    all_types = frozenset(range(vocab.t))

    def rec(g: Formula) -> frozenset[int]:
        if isinstance(g, Lit):
            try:
                return vocab.literal_types(g.symbol, g.positive)
            except KeyError:
                raise VocabularyMismatchError(f"unknown symbol {g.symbol!r}") from None
        if isinstance(g, And):
            return rec(g.left) & rec(g.right)
        if isinstance(g, Or):
            return rec(g.left) | rec(g.right)
        count = sum(profile.counts[i] for i in rec(g.sub))
        return all_types if g.holds(count, profile.n, g.grade) else frozenset()

    return rec(f)


def evaluate(profile: ModelProfile, f: Formula, vocab: Vocabulary) -> bool:
    """Global truth: f holds at every point of the model."""
    sat = sat_types(f, profile, vocab)
    return all(i in sat for i in profile.realized_types())


def bounded_compositions(
    bounds: tuple[int, ...], total: int
) -> Iterator[tuple[int, ...]]:
    """All vectors v <= bounds (entrywise) with sum(v) = total, in
    lexicographic order."""
    if len(bounds) == 1:
        if 0 <= total <= bounds[0]:
            yield (total,)
        return
    for c in range(min(bounds[0], total) + 1):
        for rest in bounded_compositions(bounds[1:], total - c):
            yield (c,) + rest


def enumerate_profiles(n: int, vocab: Vocabulary) -> Iterator[ModelProfile]:
    """All size-n profiles over the vocabulary, in lexicographic count order."""
    for counts in bounded_compositions((n,) * vocab.t, n):
        yield ModelProfile(counts)


def pointed_profiles(n: int, vocab: Vocabulary) -> list[PointedProfile]:
    """All pointed size-n profiles, ordered by (counts, point type)."""
    out = []
    for profile in enumerate_profiles(n, vocab):
        for i in profile.realized_types():
            out.append(PointedProfile(profile, i))
    return out
