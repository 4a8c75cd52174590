"""Description complexity of equivalence classes.

Upper bounds come from explicit canonical defining formulas.  Lower
bounds come from minimum-cost covers of a directed graph built from the
class tuple, which have a closed form; the cover cost is a certified
obstruction in the formula size game.  A brute-force search over all
depth-bounded formulas over one profile per class, deduplicated by
semantic signature, supplies exact values at tiny scale and doubles as
the separating-formula oracle for the game tests.  The exact value is
decided below the canonical size by the search alone; the canonical size
itself is settled by evaluating the canonical formula on each class's
representative, so the search never builds that level just to find it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .classes import AdmissibleTuple, _admissible_entries, admissible_count, tuple_of_profile
from .config import DEFAULT_CAPS, SearchCaps, check_cap
from .formulas import (
    And,
    BoxLt,
    DiamondEq,
    DiamondGeq,
    Formula,
    Lit,
    Or,
    counting_depth,
    format_formula,
    size,
)
from .models import ModelProfile, evaluate
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
    edge records an adjacent class obtained by retyping one point.  A
    subset of the vertices covers edge (i, j) when it holds i, or holds
    j and j's entry sits below the cap.
    """

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
    return CoverGraph(jhat, supp, edges)


def find_min_cover(tup: AdmissibleTuple) -> tuple[int, frozenset[int]]:
    """Minimum-cost cover of the tuple's cover graph, with its cost
    ``lower_bound(tup)``.

    A vertex left out of a cover needs every out-edge to reach an
    uncapped vertex of the cover, and two left-out vertices share an
    edge that neither covers.  With two or more capped entries every
    vertex has an edge to a capped vertex, so the cover is the whole
    support.  Otherwise it is the support without the last index that
    holds the largest entry (the capped one, if any): among the
    cheapest covers, the least in sorted order.
    """
    keep = tup.support
    if tup.k_d < 2:
        e = tup.entries
        last = len(e) - 1 - e[::-1].index(max(e))
        keep = tuple(i for i in keep if i != last)
    return lower_bound(tup), frozenset(keep)


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
    diamond's global signature and its dual box's are read together
    from one table, one byte of the pointwise signature at a time.

    Each signature is stored once, in ``inner_formulas`` or
    ``outer_formulas`` with its smallest formula; ``inner_levels[s]`` and
    ``outer_levels[s]`` list those first reached at size s.  Outer level
    s reads only inner levels below it, so the And/Or products of inner
    level s are built when level s + 1 is, and a search never builds the
    products of its largest level.

    Grade-0 threshold modalities are constant, so they are seeded once at
    size 1.  A level is refused while the cells stored (table entries and
    signatures) pass ``caps.search_max_cells``.
    """

    def __init__(self, vocab: Vocabulary, d: int, profiles: list[ModelProfile]):
        if d < 1:
            raise ValueError("counting depth must be at least 1")
        self.vocab = vocab
        self.d = d
        self.profiles = tuple(profiles)
        if len({p.counts for p in self.profiles}) != len(self.profiles):
            raise ValueError("profiles must be distinct")
        # the entries of each class met, mapped to its profiles' bits
        self.class_bits: dict[tuple[int, ...], int] = {}
        for i, p in enumerate(self.profiles):
            key = tuple_of_profile(p, d).entries
            self.class_bits[key] = self.class_bits.get(key, 0) | 1 << i
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
        # a chunk is `per` whole blocks (one byte while t <= 8) from bit
        # shift, profile first; _modal_tables[dia, k] lists (shift, table)
        # per chunk, where table[v] holds the global bits of dia(k, f), and
        # len(profiles) bits higher those of dia.dual(k, f), on those
        # profiles when f's chunk bits are v, for the grades _build_next
        # reads (counting depth k + exact in 1..d)
        per = max(1, 8 // self.t)
        self._chunk_mask = (1 << per * self.t) - 1
        self._modal_tables = {
            (dia, k): [(i * self.t, self._chunk_table(dia, k, i, per))
                       for i in range(0, len(self.profiles), per)]
            for dia in (DiamondGeq, DiamondEq)
            for k in range(1 - dia.exact, d + 1 - dia.exact)
        }
        self.table_cells = sum(len(tb) for tbs in self._modal_tables.values() for _, tb in tbs)
        # searches are shared and extend lazily
        self.inner_formulas: dict[int, Formula] = {}
        self.outer_formulas: dict[int, Formula] = {}
        self.inner_levels: list[list[int]] = [[]]
        self.outer_levels: list[list[int]] = [[]]
        self.max_built = 0

    # -- signature helpers ------------------------------------------------

    def _chunk_table(self, dia, k: int, first: int, per: int) -> list[int]:
        """Entry v has bit first+j set when dia(k, f) holds in profile
        first+j, and bit first+j+len(profiles) when its dual does, for a
        formula f whose types there are block j of v."""
        box, high = dia.dual, len(self.profiles)
        table = [0]
        for i in range(first, min(first + per, high)):
            n = self.profiles[i].n
            bits = [dia.holds(c, n, k) << i | box.holds(c, n, k) << i + high
                    for c in self._point_tables[i]]
            table = [bit | low for bit in bits for low in table]
        return table

    def _add_inner(self, sig: int, formula) -> None:
        if sig not in self.inner_formulas:
            self.inner_formulas[sig] = formula
            self.inner_levels[-1].append(sig)

    def _add_outer(self, mask: int, formula) -> None:
        # a known mask already put its spread signature in the inner store
        if mask in self.outer_formulas:
            return
        self.outer_formulas[mask] = formula
        self.outer_levels[-1].append(mask)
        sig = sum(
            self._full << sh for i, sh in enumerate(self._shifts) if mask >> i & 1
        )
        self._add_inner(sig, formula)

    # -- enumeration -------------------------------------------------------

    def _build_next(self, caps: SearchCaps) -> None:
        s = self.max_built + 1
        inner, outer = self.inner_formulas, self.outer_formulas
        cells = self.table_cells + len(inner) + len(outer)
        check_cap(caps, "search_max_cells", cells, "formula-search cells")
        levels, outer_levels = self.inner_levels, self.outer_levels
        # finish inner level s - 1 with boolean combinations of smaller pieces
        last = levels[s - 1]
        for s1 in range(1, s - 2):
            s2 = s - 2 - s1
            if s2 < s1:
                break
            for sig1 in levels[s1]:
                f1 = inner[sig1]
                for sig2 in levels[s2]:
                    sig = sig1 & sig2
                    if sig not in inner:
                        inner[sig] = And(f1, inner[sig2])
                        last.append(sig)
                    sig = sig1 | sig2
                    if sig not in inner:
                        inner[sig] = Or(f1, inner[sig2])
                        last.append(sig)
        levels.append([])
        outer_levels.append([])
        if s == 1:
            for sym in self.vocab.symbols:
                for pos in (True, False):
                    mask = sum(1 << j for j in self.vocab.literal_types(sym, pos))
                    self._add_inner(mask * self._every_block, Lit(sym, pos))
            anchor = Lit(self.vocab.symbols[0], True)
            self._add_outer(self._all_profiles_mask, DiamondGeq(0, anchor))
            self._add_outer(0, BoxLt(0, anchor))
        # boolean combinations of smaller sentences
        for s1 in range(1, s - 1):
            s2 = s - 1 - s1
            if s2 < s1:
                break
            for m1 in outer_levels[s1]:
                f1 = outer[m1]
                for m2 in outer_levels[s2]:
                    if m1 & m2 not in outer:
                        self._add_outer(m1 & m2, And(f1, outer[m2]))
                    if m1 | m2 not in outer:
                        self._add_outer(m1 | m2, Or(f1, outer[m2]))
        # modal atoms over smaller inner pieces: a modality of counting
        # depth k + exact reads level s - k - exact
        depths = range(1, min(self.d, s - 1) + 1)
        cm, high = self._chunk_mask, len(self.profiles)
        low = self._all_profiles_mask
        for dia in (DiamondGeq, DiamondEq):
            box = dia.dual
            for depth in depths:
                k = depth - dia.exact
                chunks = self._modal_tables[dia, k]
                for sig in levels[s - depth]:
                    both = 0
                    for shift, table in chunks:
                        both |= table[sig >> shift & cm]
                    if both & low not in outer:
                        self._add_outer(both & low, dia(k, inner[sig]))
                    if both >> high not in outer:
                        self._add_outer(both >> high, box(k, inner[sig]))
        self.max_built = s

    def first_outer_match(self, predicate, max_size: int, caps: SearchCaps = DEFAULT_CAPS):
        """Smallest (size, formula) whose global signature satisfies the
        predicate, or None when nothing matches up to max_size."""
        for s in range(1, max_size + 1):
            while s > self.max_built:
                self._build_next(caps)
            for mask in self.outer_levels[s]:
                if predicate(mask):
                    return s, self.outer_formulas[mask]
        return None


@functools.lru_cache(maxsize=8)
def _search_for(vocab: Vocabulary, n: int, d: int, caps: SearchCaps) -> FormulaSearch:
    """The search over one size-n profile per class, the least in count
    order: its entries, with the surplus points on the last capped type.
    Other members would repeat its signature blocks, which depend on the
    entries alone, so once n >= t*d (every tuple with an entry d is
    admissible) the search is the same at every n.  It is built at min(d,
    n): a grade above n only rebuilds the size-1 constants.  Before any
    profile is listed, the 2d modal tables (2^(k*t) entries per chunk of k
    profiles; past 2^64, one profile's) are checked against the cells cap."""
    d, t, per = min(d, n), vocab.t, max(1, 8 // vocab.t)
    cells = 2 * d << t
    if cells <= max(caps.search_max_cells, 2**64):
        full, rest = divmod(admissible_count(n, d, t), per)
        cells = 2 * d * ((full << per * t) + (rest and 1 << rest * t))
    check_cap(caps, "search_max_cells", cells, "formula-search cells")
    reps = []
    for e in _admissible_entries(n, d, t, False):
        counts = list(e)
        if d in e:
            counts[len(e) - 1 - e[::-1].index(d)] += n - sum(e)
        reps.append(ModelProfile(tuple(counts)))
    return FormulaSearch(vocab, d, sorted(reps))


def exact_complexity(
    tup: AdmissibleTuple,
    vocab: Vocabulary,
    max_size: int | None = None,
    caps: SearchCaps = DEFAULT_CAPS,
) -> int | None:
    """Exact description complexity by brute-force search, or None when no
    defining formula exists within max_size (default: the canonical size).

    The search runs over one size-n profile per class, so a hit is a
    formula that is true on the class's representative alone.  It stops
    one size below the canonical formula's; if nothing smaller defines
    the class, the canonical formula is checked directly (depth within d,
    true on the representative of the class and on no other) and its
    size is the answer.  Should that check fail, the search goes on to
    max_size.  Its cost follows |tau| and min(d, n), not n; a ScaleCapError
    refuses a search storing more than ``caps.search_max_cells`` cells.
    """
    search = _search_for(vocab, tup.n, tup.d, caps)
    target = search.class_bits.get(tup.entries, 0)
    ub = upper_bound(tup, vocab)
    limit = max_size if max_size is not None else ub.value
    is_target = target.__eq__
    hit = search.first_outer_match(is_target, min(limit, ub.value - 1), caps)
    if hit is None and ub.value <= limit:
        if counting_depth(ub.formula) <= tup.d and all(
            evaluate(p, ub.formula, vocab) == bool(target >> i & 1)
            for i, p in enumerate(search.profiles)
        ):
            return ub.value
        hit = search.first_outer_match(is_target, limit, caps)
    return hit[0] if hit else None


def minimal_separating_size(
    vocab: Vocabulary,
    d: int,
    n: int,
    true_profiles,
    false_profiles,
    max_size: int,
    caps: SearchCaps = DEFAULT_CAPS,
) -> tuple[int, Formula] | None:
    """Smallest formula of the depth-d fragment true on every profile of
    the first family and false on every profile of the second, or None.

    Shares one cached size-n search per (vocabulary, d, caps), over one
    profile per class; families that share a class are unseparable and
    return None immediately.
    """
    true_classes = {tuple_of_profile(p, d).entries for p in true_profiles}
    false_classes = {tuple_of_profile(p, d).entries for p in false_profiles}
    if true_classes & false_classes:
        return None
    search = _search_for(vocab, n, d, caps)
    need = sum(search.class_bits[key] for key in true_classes)
    avoid = sum(search.class_bits[key] for key in false_classes)
    return search.first_outer_match(
        lambda mask: (mask & need) == need and not (mask & avoid), max_size, caps
    )
