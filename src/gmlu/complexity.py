"""Description complexity of equivalence classes.

Upper bounds come from explicit canonical defining formulas.  Lower
bounds come from minimum-cost covers of a directed graph built from the
class tuple; the cover cost is a certified obstruction in the formula
size game.  A brute-force search over all depth-bounded formulas,
deduplicated by semantic signature, supplies exact values at tiny scale
and doubles as the separating-formula oracle for the game tests.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import NamedTuple

from .classes import AdmissibleTuple, tuple_of_profile
from .config import DEFAULT_CAPS, SearchCaps, check_cap
from .formulas import (
    MODAL_TYPES,
    And,
    BoxLt,
    DiamondEq,
    DiamondGeq,
    Formula,
    Lit,
    Or,
    format_formula,
    size,
)
from .models import ModelProfile, enumerate_profiles
from .vocab import Vocabulary


def _conjunction(parts: list[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def type_formula(vocab: Vocabulary, type_index: int) -> Formula:
    """Conjunction of the literals of one propositional type."""
    return _conjunction([Lit(sym, pos) for sym, pos in vocab.type_literals(type_index)])


def canonical_formula(tup: AdmissibleTuple, vocab: Vocabulary) -> Formula:
    """A formula defining the class among size-n models.

    With two or more capped entries, every type count is stated: exact
    counts for entries below d, thresholds for capped ones.  With at
    most one capped entry the type with the most points can be left
    implicit, since all other counts pin it down.
    """
    if vocab.t != tup.t:
        raise ValueError("tuple length does not match vocabulary")
    d = tup.d
    if tup.k_d >= 2:
        parts = [
            DiamondEq(e, type_formula(vocab, i))
            for i, e in enumerate(tup.entries)
            if e < d
        ] + [
            DiamondGeq(d, type_formula(vocab, i))
            for i, e in enumerate(tup.entries)
            if e == d
        ]
    else:
        j = tup.max_index()
        parts = [
            DiamondEq(e, type_formula(vocab, i))
            for i, e in enumerate(tup.entries)
            if i != j
        ]
    return _conjunction(parts)


class UpperBoundReport(NamedTuple):
    """Size of the canonical formula, with the printed closed form.

    ``value`` (the size function applied to the formula) is the
    authoritative bound.  For the all-but-largest variant the closed
    form is systematically one less than the actual size; both are
    reported rather than silently reconciled.
    """

    value: int
    closed_form: int
    matches: bool
    variant: str
    formula: Formula

    @property
    def formula_text(self) -> str:
        return format_formula(self.formula)


def upper_bound(tup: AdmissibleTuple, vocab: Vocabulary) -> UpperBoundReport:
    """size(canonical_formula(tup)) plus the closed-form cross-check."""
    f = canonical_formula(tup, vocab)
    value = size(f)
    t = tup.t
    ntau = len(vocab.symbols)
    if tup.k_d >= 2:
        closed = sum(tup.entries) + t * (2 * ntau + 1) - tup.k_d - 1
        variant = "all-types"
    else:
        j = tup.max_index()
        closed = (sum(tup.entries) - tup.entries[j]) + (t - 1) * (2 * ntau + 1) - 2
        variant = "all-but-largest"
    return UpperBoundReport(value, closed, closed == value, variant, f)


def lower_bound(tup: AdmissibleTuple) -> int:
    """Closed-form lower bound on the description complexity.

    Sum of all entries when at least two entries are capped; otherwise
    the sum without the type holding the most points.
    """
    if tup.k_d >= 2:
        return sum(tup.entries)
    return sum(tup.entries) - tup.entries[tup.max_index()]


class CoverGraph(NamedTuple):
    """Directed graph over the support of a tuple.

    Vertices are the realized type indices.  Edges (i, j) exist for
    every ordered pair of distinct support indices, except from the
    designated largest-coordinate index to targets below the cap; each
    edge records an adjacent class obtained by retyping one point.
    """

    tup: AdmissibleTuple
    designated: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def build_cover_graph(tup: AdmissibleTuple) -> CoverGraph:
    supp = tup.support
    if not supp:
        raise ValueError("tuple has empty support")
    jhat = tup.max_index()
    edges = tuple(
        (i, j)
        for i in supp
        for j in supp
        if i != j and (i != jhat or tup.entries[j] == tup.d)
    )
    return CoverGraph(tup, jhat, supp, edges)


def is_cover(graph: CoverGraph, subset: frozenset[int]) -> bool:
    """A subset covers edge (i, j) through i, or through j when the
    j-entry sits below the cap."""
    entries, d = graph.tup.entries, graph.tup.d
    return all(
        i in subset or (j in subset and entries[j] < d) for i, j in graph.edges
    )


def cover_cost(graph: CoverGraph, subset: frozenset[int]) -> int:
    return sum(graph.tup.entries[i] for i in subset)


def find_min_cover(
    graph: CoverGraph, caps: SearchCaps = DEFAULT_CAPS
) -> tuple[int, frozenset[int]]:
    """Exhaustive minimum-cost cover; deterministic tie-break by subset order."""
    supp = graph.vertices
    check_cap(caps, "cover_max_support", len(supp), "cover search support")
    best: tuple[int, tuple[int, ...]] | None = None
    for k in range(len(supp) + 1):
        for combo in combinations(supp, k):
            subset = frozenset(combo)
            if is_cover(graph, subset):
                cand = (cover_cost(graph, subset), combo)
                if best is None or cand < best:
                    best = cand
    assert best is not None  # the full support always covers
    return best[0], frozenset(best[1])


def min_cover_cost(graph: CoverGraph, caps: SearchCaps = DEFAULT_CAPS) -> int:
    return find_min_cover(graph, caps)[0]


class FormulaSearch:
    """Size-ordered enumeration of depth-bounded formulas over a fixed
    profile family, deduplicated by semantic signature.

    Each candidate carries a pointwise signature, one int with t bits
    per profile: bit j of block i (bits i*t .. i*t+t-1) is set when
    type j's points of profile i satisfy it, so And and Or are one int
    operation each, and their formulas are built only for new
    signatures.  The signature is a congruence for all connectives, so
    keeping only the smallest formula per signature preserves minimal
    sizes.  Formulas whose literals are all covered by a modality
    additionally get a global signature (one bit per profile); those
    are the candidates that can define or separate classes.  A counting
    modality's global signature is read from tables, one byte of the
    pointwise signature at a time.

    Grade-0 threshold modalities are semantically constant, so they are
    seeded once as size-1 constants instead of being re-derived at
    every size.
    """

    def __init__(self, vocab: Vocabulary, d: int, profiles: list[ModelProfile]):
        if d < 1:
            raise ValueError("counting depth must be at least 1")
        self.vocab = vocab
        self.d = d
        self.profiles = tuple(profiles)
        self.index = {p.counts: i for i, p in enumerate(self.profiles)}
        if len(self.index) != len(self.profiles):
            raise ValueError("profiles must be distinct")
        self.t = vocab.t
        self._full = (1 << self.t) - 1
        self._all_profiles_mask = (1 << len(self.profiles)) - 1
        # block i of a signature starts at bit _shifts[i]; literal signatures
        # repeat one type mask in every block
        self._shifts = [i * self.t for i in range(len(self.profiles))]
        self._every_block = sum(1 << sh for sh in self._shifts)
        # per profile, the number of points of each subset of the types
        self._point_tables = [
            [sum(c for j, c in enumerate(p.counts) if (m >> j) & 1)
             for m in range(1 << self.t)]
            for p in self.profiles
        ]
        # chunk c is `per` whole blocks (one byte while t <= 8) from bit
        # shift, profile first; _modal_tables[cls, k][c][v] holds the global
        # bits of cls(k, f) on those profiles when f's chunk c bits are v, for
        # the grades _build_next reads (counting depth k + exact in 1..d)
        per = max(1, 8 // self.t)
        self._chunk_mask = (1 << per * self.t) - 1
        self._chunks = [(i * self.t, i) for i in range(0, len(self.profiles), per)]
        self._modal_tables = {
            (cls, k): [self._chunk_table(cls.holds, k, i, per) for _, i in self._chunks]
            for cls in MODAL_TYPES for k in range(1 - cls.exact, d + 1 - cls.exact)
        }
        # level s holds the signatures first reached at size s; searches are
        # shared and extend lazily
        self.inner_levels: list[dict] = [{}]
        self.outer_levels: list[dict] = [{}]
        self._inner_seen: set = set()
        self._outer_seen: set = set()
        self.max_built = 0

    # -- signature helpers ------------------------------------------------

    def _chunk_table(self, holds, k: int, first: int, per: int) -> bytes:
        """Entry v has bit j set when the modality holds in profile
        first+j for a formula whose types there are block j of v."""
        table = [0]
        for i in range(first, min(first + per, len(self.profiles))):
            n = self.profiles[i].n
            bit = [holds(c, n, k) << i - first for c in range(n + 1)]
            table = [bit[c] | low for c in self._point_tables[i] for low in table]
        return bytes(table)

    def _add_inner(self, sig: int, formula, level) -> None:
        if sig not in self._inner_seen:
            self._inner_seen.add(sig)
            level[sig] = formula

    def _add_outer(self, mask: int, formula, outer_level, inner_level) -> None:
        # a known mask already put its spread signature in the inner seen set
        if mask in self._outer_seen:
            return
        self._outer_seen.add(mask)
        outer_level[mask] = formula
        sig = sum(
            self._full << sh for i, sh in enumerate(self._shifts) if mask >> i & 1
        )
        self._add_inner(sig, formula, inner_level)

    # -- enumeration -------------------------------------------------------

    def _build_next(self) -> None:
        s = self.max_built + 1
        inner_new: dict = {}
        outer_new: dict = {}
        inner_seen, outer_seen = self._inner_seen, self._outer_seen
        if s == 1:
            for sym in self.vocab.symbols:
                for pos in (True, False):
                    mask = sum(1 << j for j in self.vocab.literal_types(sym, pos))
                    self._add_inner(mask * self._every_block, Lit(sym, pos), inner_new)
            anchor = Lit(self.vocab.symbols[0], True)
            self._add_outer(
                self._all_profiles_mask, DiamondGeq(0, anchor), outer_new, inner_new
            )
            self._add_outer(0, BoxLt(0, anchor), outer_new, inner_new)
        # boolean combinations of smaller pieces
        for s1 in range(1, s - 1):
            s2 = s - 1 - s1
            if s2 < s1:
                break
            for sig1, f1 in self.inner_levels[s1].items():
                for sig2, f2 in self.inner_levels[s2].items():
                    sig = sig1 & sig2
                    if sig not in inner_seen:
                        inner_seen.add(sig)
                        inner_new[sig] = And(f1, f2)
                    sig = sig1 | sig2
                    if sig not in inner_seen:
                        inner_seen.add(sig)
                        inner_new[sig] = Or(f1, f2)
            for m1, f1 in self.outer_levels[s1].items():
                for m2, f2 in self.outer_levels[s2].items():
                    if m1 & m2 not in outer_seen:
                        self._add_outer(m1 & m2, And(f1, f2), outer_new, inner_new)
                    if m1 | m2 not in outer_seen:
                        self._add_outer(m1 | m2, Or(f1, f2), outer_new, inner_new)
        # modal atoms over smaller inner pieces: a modality of counting
        # depth k + exact reads level s - k - exact
        depths = range(1, min(self.d, s - 1) + 1)
        modal = [(depth - dia.exact, s - depth, dia, dia.dual)
                 for dia in (DiamondGeq, DiamondEq) for depth in depths]
        cm = self._chunk_mask
        for k, s_inner, pos, neg in modal:
            chunks = list(zip(self._chunks, self._modal_tables[pos, k],
                              self._modal_tables[neg, k]))
            for sig, f in self.inner_levels[s_inner].items():
                pos_mask = neg_mask = 0
                for (shift, first), pos_table, neg_table in chunks:
                    v = sig >> shift & cm
                    pos_mask |= pos_table[v] << first
                    neg_mask |= neg_table[v] << first
                if pos_mask not in outer_seen:
                    self._add_outer(pos_mask, pos(k, f), outer_new, inner_new)
                if neg_mask not in outer_seen:
                    self._add_outer(neg_mask, neg(k, f), outer_new, inner_new)
        self.inner_levels.append(inner_new)
        self.outer_levels.append(outer_new)
        self.max_built = s

    def first_outer_match(self, predicate, max_size: int):
        """Smallest (size, formula) whose global signature satisfies the
        predicate, or None when nothing matches up to max_size."""
        for s in range(1, max_size + 1):
            while s > self.max_built:
                self._build_next()
            for mask, formula in self.outer_levels[s].items():
                if predicate(mask):
                    return s, formula
        return None


@functools.lru_cache(maxsize=8)
def _search_for(vocab: Vocabulary, n: int, d: int) -> FormulaSearch:
    return FormulaSearch(vocab, d, list(enumerate_profiles(n, vocab)))


def exact_complexity(
    tup: AdmissibleTuple,
    vocab: Vocabulary,
    max_size: int | None = None,
    caps: SearchCaps = DEFAULT_CAPS,
) -> int | None:
    """Exact description complexity by brute-force search, or None when no
    defining formula exists within max_size.

    The search runs over all size-n profiles, so a hit is a formula that
    is true on exactly the class members.  Enforced tiny scale.
    """
    check_cap(caps, "exact_max_symbols", len(vocab.symbols), "exact-search |tau|")
    check_cap(caps, "exact_max_n", tup.n, "exact-search n")
    check_cap(caps, "exact_max_d", tup.d, "exact-search d")
    search = _search_for(vocab, tup.n, tup.d)
    target = 0
    for i, p in enumerate(search.profiles):
        if tuple_of_profile(p, tup.d) == tup:
            target |= 1 << i
    limit = max_size if max_size is not None else upper_bound(tup, vocab).value
    hit = search.first_outer_match(lambda mask: mask == target, limit)
    return hit[0] if hit else None


def minimal_separating_size(
    vocab: Vocabulary,
    d: int,
    n: int,
    true_profiles,
    false_profiles,
    max_size: int,
) -> tuple[int, Formula] | None:
    """Smallest formula of the depth-d fragment true on every profile of
    the first family and false on every profile of the second, or None.

    Shares one cached size-n search per (vocabulary, d); families that
    overlap are unseparable and return None immediately.
    """
    true_counts = {p.counts for p in true_profiles}
    false_counts = {p.counts for p in false_profiles}
    if true_counts & false_counts:
        return None
    search = _search_for(vocab, n, d)
    need = avoid = 0
    for c in true_counts:
        need |= 1 << search.index[c]
    for c in false_counts:
        avoid |= 1 << search.index[c]
    return search.first_outer_match(
        lambda mask: (mask & need) == need and not (mask & avoid), max_size
    )
