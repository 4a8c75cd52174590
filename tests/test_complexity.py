import pytest

from gmlu.classes import AdmissibleTuple, enumerate_admissible, tuple_of_profile
from gmlu.complexity import (
    FormulaSearch,
    build_cover_graph,
    canonical_formula,
    exact_complexity,
    find_min_cover,
    lower_bound,
    min_cover_cost,
    minimal_separating_size,
    type_formula,
    upper_bound,
)
from gmlu.config import ScaleCapError, SearchCaps
from gmlu.formulas import MODAL_TYPES, format_formula, size
from gmlu.models import ModelProfile, enumerate_profiles, evaluate, sat_types
from gmlu.vocab import Vocabulary

from oracles import representative_profile

V1 = Vocabulary(("p",))
V2 = Vocabulary(("p", "q"))
V3 = Vocabulary(("p", "q", "r"))


# -- canonical formulas and the closed-form bounds ----------------------------


def test_all_p_class_formula():
    tup = AdmissibleTuple((1, 0), 3, 1)
    f = canonical_formula(tup, V1)
    assert format_formula(f) == "<>==0 !p"
    assert size(f) == 2


def test_two_capped_formula():
    tup = AdmissibleTuple((1, 1), 3, 1)
    f = canonical_formula(tup, V1)
    assert format_formula(f) == "<>=1 p & <>=1 !p"
    assert size(f) == 5
    rep = upper_bound(tup, V1)
    assert rep.value == 5
    assert rep.closed_form == 2 + 2 * 3 - 2 - 1 == 5
    assert rep.matches


def test_capped_formula_at_depth_two():
    tup = AdmissibleTuple((2, 2), 5, 2)
    assert format_formula(canonical_formula(tup, V1)) == "<>=2 p & <>=2 !p"
    assert upper_bound(tup, V1).value == 7


def test_all_but_largest_closed_form_is_one_short():
    # the printed closed form undercounts the formula by exactly one
    for tup in (
        AdmissibleTuple((1, 0), 3, 1),
        AdmissibleTuple((3, 2), 9, 3),
        AdmissibleTuple((0, 1, 2, 3), 12, 3),
    ):
        vocab = V1 if tup.t == 2 else V2
        rep = upper_bound(tup, vocab)
        assert rep.variant == "all-but-largest"
        assert rep.value == rep.closed_form + 1
        assert not rep.matches


def test_full_variant_closed_form_matches():
    for tup in (
        AdmissibleTuple((1, 1), 3, 1),
        AdmissibleTuple((0, 2, 2, 1), 9, 2),
        AdmissibleTuple((3, 3), 7, 3),
    ):
        vocab = V1 if tup.t == 2 else V2
        rep = upper_bound(tup, vocab)
        assert rep.variant == "all-types"
        assert rep.matches


def test_lower_bound_examples():
    assert lower_bound(AdmissibleTuple((2, 2), 5, 2)) == 4
    assert lower_bound(AdmissibleTuple((1, 0), 3, 1)) == 0
    # exactly one point off the big type: bound is that one point
    assert lower_bound(AdmissibleTuple((1, 3), 10, 3)) == 1


def test_canonical_formula_stays_in_its_depth_fragment():
    from gmlu.formulas import counting_depth

    for vocab in (V1, V2):
        for n in range(1, 8):
            for d in range(1, n + 1):
                for tup in enumerate_admissible(n, d, vocab):
                    assert counting_depth(canonical_formula(tup, vocab)) <= d


def test_gap_at_most_c_tau():
    for vocab in (V1, V2):
        c_tau = vocab.t * (2 * len(vocab.symbols) + 1) - 1
        for n in range(1, 9):
            for d in range(1, n + 1):
                for tup in enumerate_admissible(n, d, vocab):
                    gap = upper_bound(tup, vocab).value - lower_bound(tup)
                    assert 0 <= gap <= c_tau


# -- cover graphs --------------------------------------------------------------


def test_cover_graph_two_capped():
    g = build_cover_graph(AdmissibleTuple((2, 2), 5, 2))
    assert set(g.edges) == {(0, 1), (1, 0)}
    assert min_cover_cost(g) == 4


def test_cover_graph_single_vertex():
    g = build_cover_graph(AdmissibleTuple((1, 0), 1, 1))
    assert g.vertices == (0,) and g.edges == ()
    assert min_cover_cost(g) == 0


def test_cover_graph_mixed_support():
    tup = AdmissibleTuple((1, 2, 2, 0), 9, 2)
    g = build_cover_graph(tup)
    assert g.designated == 1
    assert (0, 1) in g.edges and (1, 0) not in g.edges  # entry 0 is below d
    assert (1, 2) in g.edges  # capped target stays reachable from designated
    cost, cover = find_min_cover(g)
    assert cost == lower_bound(tup) == 5
    assert cover == frozenset({0, 1, 2})


def test_min_cover_equals_lower_bound_everywhere():
    for vocab in (V1, V2):
        for n in range(1, 13 if vocab is V1 else 9):
            for d in range(1, min(n, 4) + 1):
                for tup in enumerate_admissible(n, d, vocab):
                    g = build_cover_graph(tup)
                    assert min_cover_cost(g) == lower_bound(tup), tup


def test_cover_cap():
    g = build_cover_graph(AdmissibleTuple((1, 1), 2, 1))
    with pytest.raises(ScaleCapError):
        min_cover_cost(g, SearchCaps(cover_max_support=1))


# -- definability ---------------------------------------------------------------


def test_canonical_formula_defines_its_class():
    for vocab in (V1, V2):
        for n in range(1, 9):
            for d in range(1, n + 1):
                for tup in enumerate_admissible(n, d, vocab):
                    f = canonical_formula(tup, vocab)
                    for profile in enumerate_profiles(n, vocab):
                        expected = tuple_of_profile(profile, d) == tup
                        assert evaluate(profile, f, vocab) == expected


def test_representative_profile_lies_in_its_class():
    for n in range(1, 9):
        for d in range(1, n + 1):
            for tup in enumerate_admissible(n, d, V2 if n <= 5 else V1):
                rep = representative_profile(tup)
                assert rep.n == n
                assert tuple_of_profile(rep, d) == tup


# -- exact complexity ------------------------------------------------------------


def test_all_p_has_complexity_two():
    for n in (2, 3, 4):
        tup = tuple_of_profile(ModelProfile((n, 0)), 1)
        assert exact_complexity(tup, V1) == 2


def test_exact_within_bounds_small_grid():
    for n in range(1, 6):
        for d in range(1, min(n, 3) + 1):
            for tup in enumerate_admissible(n, d, V1):
                value = exact_complexity(tup, V1)
                assert value is not None
                assert lower_bound(tup) <= value <= upper_bound(tup, V1).value


def test_exact_not_found_below_lower_bound():
    tup = AdmissibleTuple((2, 2), 4, 2)
    assert exact_complexity(tup, V1, max_size=lower_bound(tup) - 1) is None


def test_exact_scale_cap():
    with pytest.raises(ScaleCapError):
        exact_complexity(AdmissibleTuple((1, 1), 20, 1), V1)
    with pytest.raises(ScaleCapError):
        exact_complexity(AdmissibleTuple((1, 1, 0, 0), 2, 1), V2)


# -- separating-formula search ----------------------------------------------------


def test_minimal_separating_size_basic():
    all_p = ModelProfile((2, 0))
    mixed = ModelProfile((1, 1))
    found = minimal_separating_size(V1, 1, 2, [all_p], [mixed], 6)
    assert found is not None and found[0] == 2
    # same profile on both sides is never separable
    assert minimal_separating_size(V1, 1, 2, [all_p], [all_p], 6) is None


def test_separating_search_respects_depth():
    lo = ModelProfile((2, 2))
    hi = ModelProfile((3, 1))
    # depth 2 tells 2 p-points from 3; depth 1 cannot
    assert minimal_separating_size(V1, 1, 4, [lo], [hi], 10) is None
    assert minimal_separating_size(V1, 2, 4, [lo], [hi], 10) is not None


def test_search_rejects_duplicate_profiles():
    with pytest.raises(ValueError):
        FormulaSearch(V1, 1, [ModelProfile((1, 0)), ModelProfile((1, 0))])


def test_search_builds_modal_tables_only_for_the_grades_it_reads():
    # a modality of counting depth 1..d has grade depth - exact: 1..d for
    # <>= and []<, 0..d-1 for <>== and []!=
    profiles = list(enumerate_profiles(12, V1))
    search = FormulaSearch(V1, 6, profiles)
    assert set(search._modal_tables) == {
        (cls, depth - cls.exact) for cls in MODAL_TYPES for depth in range(1, 7)
    }
    assert len(search._modal_tables) == 24


def test_search_signatures_match_the_semantics():
    # block i of an inner signature holds the types whose points satisfy the
    # formula in profile i; bit i of an outer mask is its global truth there
    grid = [(V1, n, d, 8) for n in range(1, 6) for d in range(1, min(n, 3) + 1)]
    grid += [(V2, n, d, 6) for n in (1, 2) for d in range(1, n + 1)]
    # the modal step reads signatures a chunk of whole profile blocks at a
    # time: one block per chunk at |tau|=3, and at |tau|=1, n=8 the nine
    # profiles fill two chunks of four and start a third
    grid += [(V3, 1, 1, 6), (V3, 2, 2, 5), (V1, 8, 4, 8)]
    for vocab, n, d, max_size in grid:
        profiles = list(enumerate_profiles(n, vocab))
        search = FormulaSearch(vocab, d, profiles)
        search.first_outer_match(lambda mask: False, max_size)
        assert search.max_built == max_size
        full = (1 << vocab.t) - 1
        for s, level in enumerate(search.inner_levels):
            for sig, f in level.items():
                assert size(f) == s
                for i, profile in enumerate(profiles):
                    types = sum(1 << j for j in sat_types(f, profile, vocab))
                    block = (sig >> i * vocab.t) & full
                    assert block == types, (format_formula(f), profile.counts)
        for s, level in enumerate(search.outer_levels):
            for mask, f in level.items():
                assert size(f) == s
                for i, profile in enumerate(profiles):
                    holds = bool((mask >> i) & 1)
                    assert holds == evaluate(profile, f, vocab), format_formula(f)


def test_type_formula():
    assert format_formula(type_formula(V2, 0)) == "p & q"
    assert format_formula(type_formula(V2, 3)) == "!p & !q"
