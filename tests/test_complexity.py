import time

import pytest

from gmlu import complexity
from gmlu.classes import AdmissibleTuple, enumerate_admissible, tuple_of_profile
from gmlu.complexity import (
    FormulaSearch,
    build_cover_graph,
    canonical_formula,
    exact_complexity,
    find_min_cover,
    lower_bound,
    minimal_separating_size,
    type_formula,
    upper_bound,
)
from gmlu.config import DEFAULT_CAPS, ScaleCapError, SearchCaps
from gmlu.formulas import DiamondEq, DiamondGeq, Lit, format_formula, size
from gmlu.game import check_game_formula_equivalence
from gmlu.models import (
    ModelProfile,
    PointedProfile,
    enumerate_profiles,
    evaluate,
    sat_types,
)
from gmlu.vocab import Vocabulary

from oracles import (
    exact_complexity_by_search,
    min_cover_by_search,
    profile_search,
    representative_profile,
)

V1 = Vocabulary(("p",))
V2 = Vocabulary(("p", "q"))
V3 = Vocabulary(("p", "q", "r"))
V4 = Vocabulary(("p", "q", "r", "s"))


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
    tup = AdmissibleTuple((2, 2), 5, 2)
    g = build_cover_graph(tup)
    assert set(g.edges) == {(0, 1), (1, 0)}
    assert find_min_cover(tup) == (4, frozenset({0, 1}))


def test_cover_graph_single_vertex():
    tup = AdmissibleTuple((1, 0), 1, 1)
    g = build_cover_graph(tup)
    assert g.vertices == (0,) and g.edges == ()
    assert find_min_cover(tup) == (0, frozenset())


def test_cover_graph_mixed_support():
    tup = AdmissibleTuple((1, 2, 2, 0), 9, 2)
    g = build_cover_graph(tup)
    assert g.designated == 1
    assert (0, 1) in g.edges and (1, 0) not in g.edges  # entry 0 is below d
    assert (1, 2) in g.edges  # capped target stays reachable from designated
    cost, cover = find_min_cover(tup)
    assert cost == lower_bound(tup) == 5
    assert cover == frozenset({0, 1, 2})


def test_min_cover_equals_lower_bound_everywhere():
    """The closed-form cover is the exhaustive search's, cost and subset
    (so ties break as the search breaks them), on every admissible tuple
    of the grid, and its cost is the lower bound."""
    checked = 0
    for vocab, max_n in ((V1, 12), (V2, 8), (V3, 6), (V4, 4)):
        for n in range(1, max_n + 1):
            for d in range(1, n + 1):
                for tup in enumerate_admissible(n, d, vocab):
                    found = find_min_cover(tup)
                    assert found == min_cover_by_search(tup), tup
                    assert found[0] == lower_bound(tup), tup
                    checked += 1
    assert checked == 33_448


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


def test_exact_equals_the_search_alone():
    # the search stops below the canonical size and evaluates the canonical
    # formula there; searching that level as well gives the same answers,
    # with and without max_size, at, above and below the canonical size
    grid = [(V1, n, d) for n in range(1, 13) for d in range(1, min(n, 6) + 1)]
    grid += [(V2, n, d) for n in (1, 2) for d in range(1, n + 1)]
    cases = at_canonical = 0
    for vocab, n, d in grid:
        for tup in enumerate_admissible(n, d, vocab):
            ub = upper_bound(tup, vocab).value
            for max_size in (None, ub - 1, ub, ub + 1, max(lower_bound(tup) - 1, 0)):
                want = exact_complexity_by_search(tup, vocab, max_size)
                got = exact_complexity(tup, vocab, max_size)
                assert got == want, (tup, max_size)
                cases += 1
                at_canonical += max_size is None and want == ub
    assert (cases, at_canonical) == (1945, 365)


def test_exact_falls_back_to_the_search_when_the_canonical_formula_fails(
    monkeypatch,
):
    tup = AdmissibleTuple((1, 6), 12, 6)
    complexity._search_for.cache_clear()
    assert exact_complexity(tup, V1) == 3
    search = complexity._search_for(V1, 12, 6, DEFAULT_CAPS)
    assert search.max_built == 2  # level 3 settled by evaluation alone
    # same size, but it defines 6|1, not 1|6
    wrong = DiamondEq(1, Lit("p", False))
    real = complexity.canonical_formula
    monkeypatch.setattr(
        complexity,
        "canonical_formula",
        lambda t, v: wrong if t == tup else real(t, v),
    )
    assert upper_bound(tup, V1).value == size(wrong) == 3
    assert exact_complexity(tup, V1) == 3
    assert search.max_built == 3


CELLS_CAP = "set GMLU_SEARCH_MAX_CELLS to raise it"


def test_exact_scale_cap():
    # d=8 stores 53,448 cells at |tau|=1, past the default 2^15; |tau|=3 at
    # n=2 is refused by its modal tables alone, 4 * 36 * 2^8 = 36,864 cells
    with pytest.raises(ScaleCapError, match=CELLS_CAP):
        exact_complexity(AdmissibleTuple((8, 8), 16, 8), V1)
    with pytest.raises(ScaleCapError, match="formula-search cells 36864 exceeds "
                       "the cap 32768; " + CELLS_CAP):
        exact_complexity(AdmissibleTuple((1, 1, 0, 0, 0, 0, 0, 0), 2, 2), V3)


def test_every_caller_of_the_search_is_fenced_by_its_cells():
    small = SearchCaps(search_max_cells=200)
    tup = AdmissibleTuple((2, 1), 3, 2)
    with pytest.raises(ScaleCapError, match=CELLS_CAP):
        exact_complexity(tup, V1, caps=small)
    lo, hi = ModelProfile((2, 1)), ModelProfile((1, 2))
    with pytest.raises(ScaleCapError, match=CELLS_CAP):
        minimal_separating_size(V1, 2, 3, [lo], [hi], 8, small)
    left = [PointedProfile(lo, 0)]
    right = [PointedProfile(hi, 0)]
    with pytest.raises(ScaleCapError, match=CELLS_CAP):
        check_game_formula_equivalence(6, left, right, 2, V1, small)
    # under the default cap all three answer
    assert exact_complexity(tup, V1) is not None
    assert check_game_formula_equivalence(6, left, right, 2, V1).agree


@pytest.mark.parametrize("symbols", [5, 13])
def test_wide_vocabularies_are_refused_before_any_profile_is_listed(
    symbols, monkeypatch
):
    # t = 2^|tau| types: one profile's 2^t-entry tables already pass the cap,
    # so no profile is listed, and at |tau|=13 (past 2^64 cells) the classes
    # are not even counted
    monkeypatch.setattr(complexity, "_admissible_entries", None)
    if symbols == 13:
        monkeypatch.setattr(complexity, "admissible_count", None)
    vocab = Vocabulary(tuple(f"s{i}" for i in range(symbols)))
    tup = AdmissibleTuple((1,) + (0,) * (vocab.t - 1), 1, 1)
    start = time.perf_counter()
    with pytest.raises(ScaleCapError, match=CELLS_CAP):
        exact_complexity(tup, vocab)
    with pytest.raises(ScaleCapError, match=CELLS_CAP):
        minimal_separating_size(vocab, 1, 1, [ModelProfile(tup.entries)], [], 3)
    assert time.perf_counter() - start < 1.0


def test_a_refused_search_resumes_as_a_fresh_search_would():
    # the cells are checked before a level is built, so a refused search
    # holds whole levels and, asked again under a larger cap, builds the
    # same levels as a search that was never refused
    profiles = list(complexity._search_for(V1, 12, 6, DEFAULT_CAPS).profiles)
    refused = FormulaSearch(V1, 6, profiles)
    with pytest.raises(ScaleCapError, match="exceeds the cap 12000"):
        refused.first_outer_match(lambda mask: False, 14,
                                  SearchCaps(search_max_cells=12000))
    assert 0 < refused.max_built < 14
    assert len(refused.inner_levels) == len(refused.outer_levels) == refused.max_built + 1
    assert refused.first_outer_match(lambda mask: False, 14) is None
    fresh = FormulaSearch(V1, 6, profiles)
    assert fresh.first_outer_match(lambda mask: False, 14) is None
    assert refused.inner_levels == fresh.inner_levels
    assert refused.outer_levels == fresh.outer_levels
    assert refused.inner_formulas == fresh.inner_formulas


def test_a_search_over_no_profiles_keeps_one_outer_entry_per_mask():
    # with no profiles both size-1 constants have the empty mask; the first
    # one seeded keeps it, and no level lists a mask twice
    search = FormulaSearch(V1, 2, [])
    assert search.first_outer_match(lambda mask: False, 4) is None
    assert search.outer_levels == [[], [0], [], [], []]
    assert search.outer_formulas == {0: DiamondGeq(0, Lit("p", True))}


def test_tables_are_counted_before_the_profiles_are_listed():
    # the count taken before the profiles are listed is the entries of the
    # tables built from them: a cap one below refuses the search, and at
    # that cap it builds exactly one level
    # (at |tau|=1, n=12, d=6: 13 profiles in chunks of 4, 4, 4 and 1, twelve tables)
    assert complexity._search_for(V1, 12, 6, DEFAULT_CAPS).table_cells == 12 * (
        3 * 2**8 + 2**2)
    for vocab, n, d in ((V1, 12, 6), (V1, 1, 1), (V1, 3, 9), (V2, 3, 2), (V3, 1, 1)):
        cells = complexity._search_for(vocab, n, d, DEFAULT_CAPS).table_cells
        with pytest.raises(ScaleCapError, match=f"cells {cells} exceeds the cap {cells - 1};"):
            complexity._search_for(vocab, n, d, SearchCaps(search_max_cells=cells - 1))
        exact = SearchCaps(search_max_cells=cells)
        search = complexity._search_for(vocab, n, d, exact)
        with pytest.raises(ScaleCapError):
            search.first_outer_match(lambda mask: False, 2, exact)
        assert search.max_built == 1


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
    # a diamond of counting depth 1..d has grade depth - exact: 1..d for <>=,
    # 0..d-1 for <>==; its dual box is read from the diamond's table, and
    # each (diamond, grade) has one table per chunk: the 13 profiles' 2-bit
    # blocks make four chunks of up to four blocks
    profiles = list(enumerate_profiles(12, V1))
    search = FormulaSearch(V1, 6, profiles)
    assert set(search._modal_tables) == {
        (dia, depth - dia.exact)
        for dia in (DiamondGeq, DiamondEq) for depth in range(1, 7)
    }
    assert len(search._modal_tables) == 12
    assert all([shift for shift, _ in tables] == [0, 8, 16, 24]
               for tables in search._modal_tables.values())


def _found_size(hit):
    return hit[0] if hit else None


def test_per_class_search_finds_the_per_profile_sizes():
    # profiles of one class satisfy the same depth-d sentences, so the search
    # over one profile per class finds what a search over every profile
    # finds: for each class as the target, and for families of profiles
    # that span classes
    grid = [(V1, n, d, 8) for n in range(1, 9) for d in range(1, min(n, 3) + 1)]
    grid += [(V2, n, d, 9) for n, d in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2))]
    # d above n, where no count reaches the cap, and |tau|=3 at n <= 2
    grid += [(V1, n, d, 8) for n, d in ((1, 2), (2, 4), (3, 5))]
    grid += [(V2, 2, 3, 9)]
    grid += [(V3, n, d, 5) for n, d in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3))]
    # the tables of |tau|=3 at n=2 pass the default cap
    caps = SearchCaps(search_max_cells=1 << 17)
    targets = pairs = shared = found = 0
    for vocab, n, d, max_size in grid:
        search = complexity._search_for(vocab, n, d, caps)
        every = profile_search(vocab, n, d)
        members: dict = {}
        for i, p in enumerate(every.profiles):
            members.setdefault(tuple_of_profile(p, d).entries, []).append(i)
        # the first member of each class, in enumeration order
        assert list(search.profiles) == [every.profiles[ids[0]]
                                         for ids in members.values()]
        classes = list(members.values())
        for i, ids in enumerate(classes):
            want = every.first_outer_match(sum(1 << j for j in ids).__eq__,
                                           max_size, caps)
            got = search.first_outer_match((1 << i).__eq__, max_size, caps)
            assert _found_size(got) == _found_size(want), (n, d, ids)
            targets += 1
            found += want is not None
            if len(ids) > 1:
                # two members of one class: never separable
                one, other = every.profiles[ids[0]], every.profiles[ids[-1]]
                assert every.first_outer_match(
                    lambda mask: mask >> ids[0] & 1 and not mask >> ids[-1] & 1,
                    max_size, caps) is None
                assert minimal_separating_size(vocab, d, n, [one], [other],
                                               max_size, caps) is None
                shared += 1
        # one member each of two classes against a member of a third
        for window in zip(classes, classes[1:], classes[2:]):
            for k in range(3):
                true_ids = [window[k - 1][-1], window[k - 2][0]]
                false_ids = [window[k][-1]]
                need = sum(1 << j for j in true_ids)
                avoid = sum(1 << j for j in false_ids)
                want = every.first_outer_match(
                    lambda mask: mask & need == need and not mask & avoid, max_size, caps)
                true_family = [every.profiles[j] for j in true_ids]
                false_family = [every.profiles[j] for j in false_ids]
                got = minimal_separating_size(vocab, d, n, true_family,
                                              false_family, max_size, caps)
                assert _found_size(got) == _found_size(want), (n, d, window, k)
                if got is not None:
                    assert all(evaluate(p, got[1], vocab) for p in true_family)
                    assert not any(evaluate(p, got[1], vocab) for p in false_family)
                    found += 1
                pairs += 1
    assert (targets, pairs, shared, found) == (292, 666, 18, 814)


def test_families_that_share_a_class_skip_the_search(monkeypatch):
    # (2, 1) and (1, 2) are both in class 1|1 at d=1: no sentence of the
    # fragment tells them apart, so no search is needed to say so
    def no_search(*args):
        raise AssertionError("searched families that share a class")

    monkeypatch.setattr(complexity, "_search_for", no_search)
    assert minimal_separating_size(
        V1, 1, 3, [ModelProfile((2, 1))], [ModelProfile((1, 2))], 9) is None


def _level_sizes(search):
    return ([len(level) for level in search.inner_levels],
            [len(level) for level in search.outer_levels])


def test_exact_search_does_not_depend_on_n_past_t_times_d():
    # once n >= t*d the classes are the tuples with an entry d, and a type
    # of d or more points reads the same to every modality of the fragment,
    # so the answers and the search's work are the same at every such n
    complexity._search_for.cache_clear()  # each search built by this test alone
    big = 10**9
    for d in range(1, 7):
        small_tuples = enumerate_admissible(2 * d, d, V1)
        for tup in small_tuples:
            same = AdmissibleTuple(tup.entries, big, d)
            assert exact_complexity(tup, V1) == exact_complexity(same, V1), tup
        small = complexity._search_for(V1, 2 * d, d, DEFAULT_CAPS)
        large = complexity._search_for(V1, big, d, DEFAULT_CAPS)
        assert len(small.profiles) == len(large.profiles) == len(small_tuples)
        assert small.max_built == large.max_built
        assert _level_sizes(small) == _level_sizes(large), d
    # at |tau|=2, d=1 as well, through level 8
    searches = [complexity._search_for(V2, n, 1, DEFAULT_CAPS) for n in (4, 50)]
    for search in searches:
        assert search.first_outer_match(lambda mask: False, 8) is None
    assert _level_sizes(searches[0]) == _level_sizes(searches[1])


def test_grades_above_n_add_nothing_to_the_search():
    # at d >= n every profile is its own class, and a modality of grade above
    # n is constant, so searches at d = n, n + 1 and n + 3 store the same
    # signatures with the same formulas, level by level; the class search
    # is built at min(d, n)
    grid = [(V1, n, 2 * n + 3) for n in range(1, 6)] + [(V2, n, 8) for n in (1, 2)]
    for vocab, n, max_size in grid:
        profiles = list(enumerate_profiles(n, vocab))
        searches = [FormulaSearch(vocab, d, profiles) for d in (n, n + 1, n + 3)]
        for search in searches:
            assert search.first_outer_match(lambda mask: False, max_size) is None
        for search in searches[1:]:
            assert search.inner_levels == searches[0].inner_levels, (n, search.d)
            assert search.outer_levels == searches[0].outer_levels, (n, search.d)
            assert search.inner_formulas == searches[0].inner_formulas
            assert search.outer_formulas == searches[0].outer_formulas
        assert complexity._search_for(vocab, n, n + 3, DEFAULT_CAPS).d == n


def test_search_built_in_steps_matches_one_built_at_once():
    # a level's And/Or products are built when the next level is, so a search
    # extended one level per query holds the same signatures per level as
    # one built to the same size in a single query
    for vocab, n, d, max_size in ((V1, 6, 2, 10), (V1, 12, 6, 9), (V2, 3, 1, 9)):
        profiles = list(enumerate_profiles(n, vocab))
        steps = FormulaSearch(vocab, d, profiles)
        for s in range(1, max_size + 1):
            assert steps.first_outer_match(lambda mask: False, s) is None
            assert steps.max_built == s
        once = FormulaSearch(vocab, d, profiles)
        assert once.first_outer_match(lambda mask: False, max_size) is None
        assert once.max_built == max_size
        assert ([set(level) for level in steps.outer_levels]
                == [set(level) for level in once.outer_levels])
        assert ([set(level) for level in steps.inner_levels]
                == [set(level) for level in once.inner_levels])


def test_search_signatures_match_the_semantics():
    # block i of an inner signature holds the types whose points satisfy the
    # formula in profile i; bit i of an outer mask is its global truth there
    grid = [(V1, n, d, 8) for n in range(1, 6) for d in range(1, min(n, 3) + 1)]
    grid += [(V2, n, d, 6) for n in (1, 2) for d in range(1, n + 1)]
    # the modal step reads signatures a chunk of whole profile blocks at a
    # time: one block per chunk at |tau|=3, and at |tau|=1, n=8 the nine
    # profiles fill two chunks of four and start a third
    grid += [(V3, 1, 1, 6), (V3, 2, 2, 5), (V1, 8, 4, 8)]
    caps = SearchCaps(search_max_cells=1 << 16)  # |tau|=3, n=2 has 36,864 table cells
    for vocab, n, d, max_size in grid:
        profiles = list(enumerate_profiles(n, vocab))
        search = FormulaSearch(vocab, d, profiles)
        search.first_outer_match(lambda mask: False, max_size, caps)
        assert search.max_built == max_size
        full = (1 << vocab.t) - 1
        # each signature is stored once, in the level that first reached it
        assert sum(map(len, search.inner_levels)) == len(search.inner_formulas)
        assert sum(map(len, search.outer_levels)) == len(search.outer_formulas)
        for s, level in enumerate(search.inner_levels):
            for sig in level:
                f = search.inner_formulas[sig]
                assert size(f) == s
                for i, profile in enumerate(profiles):
                    types = sum(1 << j for j in sat_types(f, profile, vocab))
                    block = (sig >> i * vocab.t) & full
                    assert block == types, (format_formula(f), profile.counts)
        for s, level in enumerate(search.outer_levels):
            for mask in level:
                f = search.outer_formulas[mask]
                assert size(f) == s
                for i, profile in enumerate(profiles):
                    holds = bool((mask >> i) & 1)
                    assert holds == evaluate(profile, f, vocab), format_formula(f)


def test_type_formula():
    assert format_formula(type_formula(V2, 0)) == "p & q"
    assert format_formula(type_formula(V2, 3)) == "!p & !q"
