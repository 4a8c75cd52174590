import random
from itertools import combinations, product

import pytest

from gmlu import complexity, game
from gmlu.complexity import minimal_separating_size
from gmlu.config import ScaleCapError, SearchCaps
from gmlu.game import (
    CountMove,
    D_WINS,
    GamePosition,
    PropMove,
    S_WINS,
    SplitMove,
    _Solver,
    apply_move,
    check_caps,
    check_game_formula_equivalence,
    legal_moves,
    solve,
    strategy_trace,
)
from gmlu.formulas import Lit
from gmlu.models import (
    ModelProfile, PointedProfile, enumerate_profiles, pointed_profiles,
)
from gmlu.vocab import Vocabulary

from oracles import LabeledGame, counts_of, representative_profile

V1 = Vocabulary(("p",))


def pp(counts, point):
    return PointedProfile(ModelProfile(counts), point)


ALL_P = pp((2, 0), 0)
MIXED_P = pp((1, 1), 0)
MIXED_NOT_P = pp((1, 1), 1)


def test_position_hashes_and_prints_as_its_fields():
    pos = GamePosition(2, frozenset({ALL_P}), frozenset({MIXED_P}))
    assert pos == GamePosition(2, frozenset({ALL_P}), frozenset({MIXED_P}), False)
    assert hash(pos) == hash((2, frozenset({ALL_P}), frozenset({MIXED_P}), False))
    assert repr(pos) == (
        "GamePosition(resource=2, "
        "left=frozenset({PointedProfile(profile=ModelProfile(counts=(2, 0)), "
        "point_type=0)}), "
        "right=frozenset({PointedProfile(profile=ModelProfile(counts=(1, 1)), "
        "point_type=0)}), modal_move_made=False)"
    )
    with pytest.raises(AttributeError):
        pos.resource = 3
    with pytest.raises(ValueError, match="resource must be nonnegative"):
        GamePosition(-1, frozenset(), frozenset())


def test_resource_zero_loses():
    pos = GamePosition(0, frozenset({ALL_P}), frozenset({MIXED_P}))
    assert solve(pos, 1, V1) == D_WINS


def test_spec_example_box_lt_one():
    pos = GamePosition(2, frozenset({ALL_P}), frozenset({MIXED_P}))
    assert solve(pos, 1, V1) == S_WINS
    assert solve(GamePosition(1, pos.left, pos.right), 1, V1) == D_WINS


def test_same_model_both_sides_is_duplicator_win():
    for r in range(7):
        pos = GamePosition(r, frozenset({MIXED_P}), frozenset({MIXED_NOT_P}))
        assert solve(pos, 2, V1) == D_WINS


def test_same_model_lemma_sweep():
    """Propositionally equivalent pointed versions of one profile on both
    sides lose for S, whatever else the position holds."""
    for n in (2, 3):
        for pm in pointed_profiles(n, V1):
            extra = pointed_profiles(n, V1)[0]
            for d in (1, 2):
                for r in range(0, 7):
                    pos = GamePosition(
                        r, frozenset({pm, extra}), frozenset({pm})
                    )
                    assert solve(pos, d, V1) == D_WINS, (pm, d, r)


def test_no_prop_moves_before_modal_move():
    pos = GamePosition(1, frozenset({ALL_P}), frozenset())
    moves = legal_moves(pos, 1, V1)
    assert not any(isinstance(m, PropMove) for m in moves)
    after = GamePosition(1, frozenset({ALL_P}), frozenset(), modal_move_made=True)
    assert any(isinstance(m, PropMove) for m in legal_moves(after, 1, V1))


def test_legal_moves_rejects_resource_zero():
    with pytest.raises(ValueError):
        legal_moves(GamePosition(0, frozenset({ALL_P}), frozenset()), 1, V1)


def test_dia_geq_move_includes_singleton_selections():
    pos = GamePosition(2, frozenset({ALL_P}), frozenset({MIXED_P}))
    dia = [
        m for m in legal_moves(pos, 1, V1)
        if isinstance(m, CountMove) and m.kind == "<>="
    ]
    grades = {m.grade for m in dia}
    assert 1 in grades  # k=0 needs n+1 points on the right, so only k=1


def test_apply_prop_move():
    pos = GamePosition(
        1, frozenset({ALL_P}), frozenset({MIXED_NOT_P}), modal_move_made=True
    )
    assert apply_move(pos, PropMove(Lit("p", True)), V1).winner == S_WINS
    assert apply_move(pos, PropMove(Lit("p", False)), V1).winner == D_WINS


def test_apply_or_split_returns_both_positions():
    a, b = pp((3, 0), 0), pp((1, 2), 0)
    pos = GamePosition(5, frozenset({a, b}), frozenset({pp((2, 1), 0)}))
    move = SplitMove("or-split", frozenset({a}), frozenset({b}), 2, 2)
    outcome = apply_move(pos, move, V1)
    assert outcome.winner is None and len(outcome.positions) == 2
    assert {p.resource for p in outcome.positions} == {2}
    assert {frozenset(p.left) for p in outcome.positions} == {
        frozenset({a}), frozenset({b}),
    }


def test_apply_dia_geq_decrements_resource_by_grade():
    pos = GamePosition(4, frozenset({ALL_P}), frozenset({MIXED_P}))
    move = CountMove(
        "<>=",
        1,
        left_selections=((ALL_P, (1, 0)),),
        right_selections=((MIXED_P, (1, 1)),),
    )
    outcome = apply_move(pos, move, V1)
    (nxt,) = outcome.positions
    assert nxt.resource == 3
    assert nxt.modal_move_made
    assert nxt.left == frozenset({pp((2, 0), 0)})
    assert nxt.right == frozenset({pp((1, 1), 0), pp((1, 1), 1)})


def test_apply_box_lt_keeps_the_sides():
    # []<1 psi: the left model shows n-1+1 = 2 points satisfying psi, the
    # right one 1 point refuting it
    pos = GamePosition(3, frozenset({ALL_P}), frozenset({MIXED_P}))
    move = CountMove(
        "[]<", 1,
        left_selections=((ALL_P, (2, 0)),),
        right_selections=((MIXED_P, (0, 1)),),
    )
    (nxt,) = apply_move(pos, move, V1).positions
    assert nxt.resource == 2
    assert nxt.left == frozenset({pp((2, 0), 0)})
    assert nxt.right == frozenset({pp((1, 1), 1)})
    assert nxt.modal_move_made


def test_apply_box_neq_keeps_the_sides():
    # []!=1 psi at n=2: a left model shows a "P" set of 2 points refuting
    # psi or an "N" set of 2 points satisfying it; the right model shows
    # the 1 point refuting psi, and its other point satisfies psi
    all_not_p = pp((0, 2), 1)
    pos = GamePosition(3, frozenset({ALL_P, all_not_p}), frozenset({MIXED_P}))
    move = CountMove(
        "[]!=", 1,
        left_selections=((ALL_P, ("N", (2, 0))), (all_not_p, ("P", (0, 2)))),
        right_selections=((MIXED_P, (1, 0)),),
    )
    (nxt,) = apply_move(pos, move, V1).positions
    assert nxt.resource == 1
    assert nxt.left == frozenset({pp((2, 0), 0), pp((1, 1), 1)})
    assert nxt.right == frozenset({pp((1, 1), 0), pp((0, 2), 1)})
    assert nxt.modal_move_made


def test_apply_and_split_splits_the_right_side():
    a, b, c = pp((3, 0), 0), pp((1, 2), 0), pp((2, 1), 0)
    pos = GamePosition(5, frozenset({c}), frozenset({a, b}), modal_move_made=True)
    move = SplitMove("and-split", frozenset({a}), frozenset({b}), 1, 3)
    first, second = apply_move(pos, move, V1).positions
    assert (first.resource, first.left, first.right) == (1, {c}, {a})
    assert (second.resource, second.left, second.right) == (3, {c}, {b})
    assert first.modal_move_made and second.modal_move_made


def test_apply_move_validates_selection():
    pos = GamePosition(4, frozenset({ALL_P}), frozenset({MIXED_P}))
    bad = CountMove(
        "<>=", 1, left_selections=((ALL_P, (0, 1)),), right_selections=((MIXED_P, (1, 1)),)
    )
    with pytest.raises(ValueError):
        apply_move(pos, bad, V1)


def test_every_legal_move_applies():
    pos = GamePosition(4, frozenset({ALL_P, MIXED_P}), frozenset({MIXED_NOT_P}))
    for move in legal_moves(pos, 2, V1):
        outcome = apply_move(pos, move, V1)
        assert outcome.winner in (None, S_WINS, D_WINS)


def _explicit_options(types: list[int], t: int, exact: int, own: bool, k: int) -> set:
    """(selection, types sent left, types sent right) for every explicit
    point subset that a grade-k counting move lets one labeled model with
    point types ``types`` pick, as the game defines the move."""
    n = len(types)
    every = frozenset(range(n))

    def picked(size: int):
        for subset in combinations(range(n), size):
            yield counts_of([types[p] for p in subset], t), frozenset(subset)

    def touched(points) -> frozenset:
        return frozenset(types[p] for p in points)

    none = frozenset()
    if own:
        return {(vec, touched(s), touched(every - s) if exact else none)
                for vec, s in picked(k)}
    rest = {(vec, none, touched(s)) for vec, s in picked(n - k + 1)}
    if not exact:
        return rest
    return {(("P", vec), touched(s), none) for vec, s in picked(k + 1)} | {
        (("N", vec), none, sent) for vec, _, sent in rest
    }


def test_move_rule_matches_explicit_point_subsets():
    """``legal_moves``, ``apply_move`` and the solver all read the counting
    move rule ``game._options``, so it is checked here on its own against
    explicit point subsets of a labeled model: at |tau|=1 for n <= 5 and
    at |tau|=2 for n <= 2, for every counts vector, grade k in 0..n, both
    kinds and both sides, each option's selection and touched-type pairs
    are those of the subsets."""
    checked = 0
    for vocab, max_n in ((V1, 5), (Vocabulary(("p", "q")), 2)):
        for n in range(1, max_n + 1):
            for profile in enumerate_profiles(n, vocab):
                counts = profile.counts
                types = [i for i, c in enumerate(counts) for _ in range(c)]
                for k, exact, own in product(range(n + 1), (0, 1), (True, False)):
                    options = game._options(exact, own, counts, k, n)
                    got = {
                        (selection, *(frozenset(i for i, v in enumerate(sent) if v)
                                      for sent in (left, right)))
                        for selection, left, right in options
                    }
                    assert len(got) == len(options)
                    assert got == _explicit_options(types, vocab.t, exact, own, k), (
                        counts, k, exact, own
                    )
                    checked += 1
    # (counts, k) pairs: 90 at |tau|=1 and 38 at |tau|=2, each with 2 kinds x 2 sides
    assert checked == 4 * (90 + 38)


def test_monotone_in_resource():
    pms = pointed_profiles(2, V1) + pointed_profiles(3, V1)
    seen = []
    for n in (2, 3):
        for a in pointed_profiles(n, V1):
            for b in pointed_profiles(n, V1):
                wins = [
                    solve(GamePosition(r, frozenset({a}), frozenset({b})), 1, V1)
                    for r in range(0, 6)
                ]
                seen.append(wins)
                # once S wins, S keeps winning with more budget
                for lo, hi in zip(wins, wins[1:]):
                    assert not (lo == S_WINS and hi == D_WINS)
    assert any(S_WINS in w for w in seen)


def test_empty_sides():
    assert solve(GamePosition(1, frozenset(), frozenset()), 1, V1) == S_WINS
    assert solve(GamePosition(0, frozenset(), frozenset()), 1, V1) == D_WINS
    # one empty side: a constant formula separates at size 1
    assert solve(GamePosition(1, frozenset({ALL_P}), frozenset()), 1, V1) == S_WINS
    assert solve(GamePosition(1, frozenset(), frozenset({ALL_P})), 1, V1) == S_WINS


def test_caps():
    big = frozenset({pp((5, 0), 0)})
    with pytest.raises(ScaleCapError):
        solve(GamePosition(2, big, frozenset()), 1, V1)
    with pytest.raises(ScaleCapError):
        solve(GamePosition(9, frozenset({ALL_P}), frozenset()), 1, V1)


@pytest.mark.parametrize("symbols", ["p", "pq", "pqr"])
def test_width_cap_counts_the_pointed_models(symbols):
    vocab = Vocabulary(tuple(symbols))
    for n in range(1, 7):
        width = len(pointed_profiles(n, vocab))
        if width <= 64:  # a solver's flip tables grow with t * width
            assert width == _Solver(vocab, n, 1)._width
        check_caps(vocab, n, 1, SearchCaps(game_max_pointed=width))
        with pytest.raises(ScaleCapError, match=(
                rf"^game width \(pointed models of size {n}\) {width} exceeds the cap "
                rf"{width - 1}; set GMLU_GAME_MAX_POINTED to raise it$")):
            check_caps(vocab, n, 1, SearchCaps(game_max_pointed=width - 1))
    # a position with no model has none to index
    check_caps(vocab, None, 1, SearchCaps(game_max_pointed=0))


def test_width_past_2_to_the_64_is_named_by_a_bound():
    # t = 2^20 types at n = 10^6: the exact count would be a 2M-bit integer
    vocab = Vocabulary(tuple(f"s{i}" for i in range(20)))
    with pytest.raises(ScaleCapError, match=r"\) above 2\^\d+ exceeds the cap 8; "
                       "set GMLU_GAME_MAX_POINTED"):
        check_caps(vocab, 10**6, 1, SearchCaps())


def test_equivalence_check_spec_example():
    chk = check_game_formula_equivalence(2, {ALL_P}, {MIXED_P}, 1, V1)
    assert chk.agree and chk.winner == S_WINS and chk.separating_size == 2
    chk = check_game_formula_equivalence(1, {ALL_P}, {MIXED_P}, 1, V1)
    assert chk.agree and chk.winner == D_WINS and chk.separating_size is None
    chk = check_game_formula_equivalence(6, {MIXED_P}, {MIXED_P}, 2, V1)
    assert chk.agree and chk.winner == D_WINS


def test_equivalence_check_compares_the_least_sizes(monkeypatch):
    """A formula search that finds a separating formula within the budget,
    but not the least one, disagrees with the game at a smaller budget,
    so the check at the larger budget must already fail."""
    search = complexity.minimal_separating_size

    def one_too_large(vocab, d, n, left, right, max_size, caps):
        found = search(vocab, d, n, left, right, max_size, caps)
        if found is not None and found[0] < max_size:
            return found[0] + 1, found[1]
        return found

    monkeypatch.setattr(complexity, "minimal_separating_size", one_too_large)
    chk = check_game_formula_equivalence(4, {ALL_P}, {MIXED_P}, 1, V1)
    assert chk.winner == S_WINS and chk.separating_size == 3
    assert not chk.agree


def test_found_separating_formulas_really_separate():
    from gmlu.formulas import counting_depth, size
    from gmlu.models import evaluate

    for n in (2, 3):
        pms = pointed_profiles(n, V1)
        for a in pms:
            for b in pms:
                for d in (1, 2):
                    chk = check_game_formula_equivalence(5, {a}, {b}, d, V1)
                    assert chk.agree
                    if chk.formula is not None:
                        assert size(chk.formula) == chk.separating_size <= 5
                        assert counting_depth(chk.formula) <= d
                        assert evaluate(a.profile, chk.formula, V1)
                        assert not evaluate(b.profile, chk.formula, V1)


def test_trace_of_winning_strategy():
    pos = GamePosition(2, frozenset({ALL_P}), frozenset({MIXED_P}))
    trace = strategy_trace(pos, 1, V1)
    assert trace["move"]["kind"] in ("<>=", "[]<", "<>==", "[]!=")
    child = trace["children"][0]
    assert child["move"]["kind"] == "prop" and child["winner"] == S_WINS
    lost = strategy_trace(GamePosition(1, pos.left, pos.right), 1, V1)
    assert lost == {"winner": D_WINS}


def test_solver_matches_labeled_game():
    """Type-count canonicalization is sound: the solver agrees with a game
    played on labeled models with explicit point sets."""
    n, d = 2, 1
    game = LabeledGame(n, d, V1)
    assignments = [(0, 0), (0, 1), (1, 1)]
    for a_assign in assignments:
        for b_assign in assignments:
            for a_pt in range(n):
                for b_pt in range(n):
                    for r in range(0, 4):
                        labeled = game.spoiler_wins(
                            r,
                            frozenset({(a_assign, a_pt)}),
                            frozenset({(b_assign, b_pt)}),
                            False,
                        )
                        pos = GamePosition(
                            r,
                            frozenset({pp(counts_of(a_assign, 2), a_assign[a_pt])}),
                            frozenset({pp(counts_of(b_assign, 2), b_assign[b_pt])}),
                        )
                        assert (solve(pos, d, V1) == S_WINS) == labeled, (
                            a_assign, b_assign, a_pt, b_pt, r,
                        )


def test_solver_matches_labeled_game_n3_spots():
    n = 3
    cases = [
        ((0, 0, 0), 0, (0, 0, 1), 0),
        ((0, 0, 1), 2, (0, 1, 1), 1),
        ((0, 1, 1), 0, (1, 1, 1), 0),
        ((0, 0, 1), 0, (0, 1, 0), 1),
    ]
    for d in (1, 2):
        game = LabeledGame(n, d, V1)
        for a_assign, a_pt, b_assign, b_pt in cases:
            for r in range(0, 5):
                labeled = game.spoiler_wins(
                    r,
                    frozenset({(a_assign, a_pt)}),
                    frozenset({(b_assign, b_pt)}),
                    False,
                )
                pos = GamePosition(
                    r,
                    frozenset({pp(counts_of(a_assign, 2), a_assign[a_pt])}),
                    frozenset({pp(counts_of(b_assign, 2), b_assign[b_pt])}),
                )
                assert (solve(pos, d, V1) == S_WINS) == labeled, (
                    d, a_assign, b_assign, r,
                )


def test_game_recovers_exact_description_complexity():
    """Independent route to the exact complexity: the least budget at which
    S separates a class representative from every other class equals the
    brute-force search value."""
    from gmlu.classes import enumerate_admissible
    from gmlu.complexity import exact_complexity, upper_bound

    for n in (1, 2, 3):
        for d in (1, 2):
            tuples = enumerate_admissible(n, d, V1)
            reps = {tup: representative_profile(tup) for tup in tuples}

            def pointed(profile):
                return PointedProfile(profile, profile.realized_types()[0])

            for tup in tuples:
                others = frozenset(
                    pointed(reps[other]) for other in tuples if other != tup
                )
                if 1 + len(others) > 4:
                    continue  # game cap on models per position
                mine = frozenset({pointed(reps[tup])})
                limit = upper_bound(tup, V1).value
                via_game = next(
                    r
                    for r in range(1, limit + 1)
                    if solve(GamePosition(r, mine, others), d, V1) == S_WINS
                )
                assert via_game == exact_complexity(tup, V1), (n, d, tup)


def test_solver_matches_slow_reference():
    """The bitmask solver and a reference built purely from legal_moves and
    apply_move agree on every tiny position."""

    def slow(pos: GamePosition, d: int, memo) -> bool:
        key = (pos.resource, pos.left, pos.right, pos.modal_move_made)
        if key in memo:
            return memo[key]
        if not pos.left and not pos.right:
            memo[key] = pos.resource >= 1
            return memo[key]
        if pos.resource == 0:
            memo[key] = False
            return False
        result = False
        for move in legal_moves(pos, d, V1):
            outcome = apply_move(pos, move, V1)
            if outcome.winner == S_WINS:
                result = True
            elif outcome.winner is None and all(
                slow(q, d, memo) for q in outcome.positions
            ):
                result = True
            if result:
                break
        memo[key] = result
        return result

    memo = {}
    pms = pointed_profiles(2, V1)
    for a in [frozenset(), *({pm} for pm in pms)]:
        for b in [frozenset(), *({pm} for pm in pms)]:
            for r in range(0, 5):
                pos = GamePosition(r, frozenset(a), frozenset(b))
                assert (solve(pos, 2, V1) == S_WINS) == slow(pos, 2, memo), (a, b, r)


def _sides(n: int, vocab: Vocabulary = V1) -> list[frozenset]:
    """Every side of at most two pointed size-n models, the empty one too."""
    pms = pointed_profiles(n, vocab)
    sides = [frozenset()]
    for k in (1, 2):
        sides.extend(frozenset(c) for c in combinations(pms, k))
    return sides


def _criterion_5_grid():
    """(n, d, sides) of the game/formula grid: n <= 3, d in {1, 2}, and
    every side of at most two pointed models, the empty side included."""
    for n in (1, 2, 3):
        for d in (1, 2):
            yield n, d, _sides(n)


def test_least_budget_equals_minimal_separating_size():
    """The game value of each position is the size of the smallest
    separating formula, or None exactly when none has size <= 6."""
    checked = 0
    for n, d, sides in _criterion_5_grid():
        solver = _Solver(V1, n, d)
        for left in sides:
            for right in sides:
                found = minimal_separating_size(
                    V1, d, n,
                    [pm.profile for pm in left], [pm.profile for pm in right], 6,
                )
                value = solver.least(
                    6, solver.encode(left), solver.encode(right), False
                )
                assert value == (found[0] if found else None), (n, d, left, right)
                checked += 1
    assert checked == 2 * (4**2 + 11**2 + 22**2)


def test_least_budget_does_not_depend_on_query_order():
    """Two fresh solvers asked every (position, r) for r = 0..7, one in
    ascending and one in descending budget order, answer alike; a lower
    bound stored too high or too low would make them differ."""
    budgets = range(0, 8)
    for n, d, sides in _criterion_5_grid():
        positions = [
            (left, right, modal)
            for left in sides for right in sides for modal in (False, True)
        ]
        answers = []
        for order in (budgets, reversed(budgets)):
            solver = _Solver(V1, n, d)
            got = {}
            for r in order:
                for left, right, modal in positions:
                    got[r, left, right, modal] = solver.least(
                        r, solver.encode(left), solver.encode(right), modal
                    )
            answers.append(got)
        assert answers[0] == answers[1], (n, d)
        for left, right, modal in positions:
            value = answers[0][7, left, right, modal]
            for r in budgets:
                expected = value if value is not None and value <= r else None
                assert answers[0][r, left, right, modal] == expected, (
                    n, d, left, right, modal, r,
                )


def _flip(pm: PointedProfile) -> PointedProfile:
    """The p <-> !p image of a pointed model over tau = {p}."""
    return pp(tuple(reversed(pm.profile.counts)), 1 - pm.point_type)


def _separating_size(d, n, left, right, cap):
    found = minimal_separating_size(
        V1, d, n, [pm.profile for pm in left], [pm.profile for pm in right], cap
    )
    return found[0] if found else None


def test_least_budget_equals_minimal_separating_size_at_n4():
    """At n=4, where subset pruning and flip keys merge many positions,
    the game value at cap 7 is still the formula-search size; so is the
    value of each position's p <-> !p image, both from the formula search
    and from a fresh solver asked the images first."""
    n, sides = 4, _sides(4)
    positions = [(left, right) for left in sides for right in sides]
    images = [tuple(frozenset(map(_flip, side)) for side in pos) for pos in positions]
    assert len(positions) == 1369
    for d in (1, 2):
        flipped = _Solver(V1, n, d)
        image_values = [
            flipped.least(7, flipped.encode(left), flipped.encode(right), False)
            for left, right in images
        ]
        solver = _Solver(V1, n, d)
        for (left, right), image, image_value in zip(positions, images, image_values):
            found = _separating_size(d, n, left, right, 7)
            assert _separating_size(d, n, *image, 7) == found, (d, left, right)
            value = solver.least(7, solver.encode(left), solver.encode(right), False)
            assert value == found == image_value, (d, left, right)


def _successors_via_apply_move(pos: GamePosition, solver: _Solver):
    """Packed successors of every counting move of ``legal_moves``, by
    kind and grade, with "[]<" and "[]!=" read on the swapped position."""
    out: dict = {}
    dual = {"[]<": "<>=", "[]!=": "<>=="}
    for move in legal_moves(pos, solver.d, solver.vocab):
        if not isinstance(move, CountMove):
            continue
        (q,) = apply_move(pos, move, solver.vocab).positions
        left, right = q.left, q.right
        if move.kind in dual:
            left, right = right, left
        key = (dual.get(move.kind, move.kind), move.grade, move.kind in dual)
        packed = solver.encode(left) | solver.encode(right) << len(solver.pms)
        out.setdefault(key, set()).add(packed)
    return out


def _is_antichain(masks) -> bool:
    return all(x & y != x for x in masks for y in masks if x != y)


def _nonempty_positions(sides) -> list[tuple[frozenset, frozenset]]:
    return [(left, right) for left in sides for right in sides if left and right]


def _check_successors(solver: _Solver, positions) -> int:
    """Check the solver's successors at each (left, right) position
    against ``apply_move``; the number of collections checked."""
    checked = 0
    for left, right in positions:
        pos = GamePosition(solver.n + 2, left, right, True)
        reference = _successors_via_apply_move(pos, solver)
        A, B = solver.encode(left), solver.encode(right)
        for (kind, k, swapped), every in reference.items():
            if kind == "<>=" and k == 0:
                continue  # the solver answers these without successors
            X, Y = (B, A) if swapped else (A, B)
            found = solver._successors(kind == "<>==", X, Y, k)
            assert _is_antichain(found)
            sizes = [x.bit_count() for x in found]
            assert sizes == sorted(sizes)
            minimal = {x for x in every if not any(
                y != x and y & x == y for y in every
            )}
            assert set(found) == minimal, (pos, kind, k, swapped)
            checked += 1
    return checked


def test_solver_successors_are_the_minimal_reference_successors():
    """Each successor collection of the solver is an antichain under
    subset order, listed fewest points first, and it holds exactly the
    subset-minimal successors that ``apply_move`` gives for the same
    move kind and grade.  One solver serves every position of an (n, d),
    so later positions join side unions that earlier ones cached.  The
    |tau|=2 leg (d = 1), where memo keys take three flip images, checks
    every position at n = 1 and a seeded sample of 3,000 of the 18,496
    at n = 2, where building the reference for all of them takes
    seconds."""
    checked = sum(
        _check_successors(_Solver(V1, n, d), _nonempty_positions(sides))
        for n, d, sides in _criterion_5_grid()
    )
    assert checked > 1000
    v2 = Vocabulary(("p", "q"))
    small = _nonempty_positions(_sides(1, v2))
    sample = random.Random(23).sample(_nonempty_positions(_sides(2, v2)), 3000)
    checked = _check_successors(_Solver(v2, 1, 1), small)
    checked += _check_successors(_Solver(v2, 2, 1), sample)
    assert checked > 1000


def test_warm_solver_successors_equal_a_cold_solvers():
    """After the n=4, d=2 game-theorem grid (every position of at most two
    models a side, budgets 5 down to 1) has filled one solver's side
    unions, its successors at sampled positions over the sides it cached
    are the sets a fresh solver builds; and a side's mask is the same on
    its first and on a repeated ``encode``."""
    n, d, sides = 4, 2, _sides(4)
    warm = _Solver(V1, n, d)
    for side in sides:
        first = warm.encode(side)
        assert first == sum(1 << warm.pm_index[pm.sort_key()] for pm in side)
        assert warm.encode(frozenset(list(side))) == first
    for left in sides:
        for right in sides:
            for r in range(5, 0, -1):
                warm.least(r, warm.encode(left), warm.encode(right), False)
    masks = sorted({mask for _, _, mask, _ in warm._side_cache})
    assert len(masks) > 100
    rng = random.Random(4)
    for _ in range(300):
        A, B = rng.choice(masks), rng.choice(masks)
        cold = _Solver(V1, n, d)
        for k in range(1, d + 1):
            assert set(warm._successors(0, A, B, k)) == set(
                cold._successors(0, A, B, k)
            ), (A, B, k)
            assert set(warm._successors(1, A, B, k - 1)) == set(
                cold._successors(1, A, B, k - 1)
            ), (A, B, k - 1)


def _flip_images(solver: _Solver, mask: int) -> list[int]:
    """The image of a side under each flip f of the point types, f = 0
    first, mapping every pointed profile through ``pm_index``."""
    t = solver.vocab.t
    images = []
    for f in range(t):
        image = 0
        for i, pm in enumerate(solver.pms):
            if mask >> i & 1:
                counts = tuple(pm.profile.counts[j ^ f] for j in range(t))
                image |= 1 << solver.pm_index[counts, pm.point_type ^ f]
        images.append(image)
    return images


@pytest.mark.parametrize("symbols, n", [(("p",), 4), (("p", "q"), 2)])
def test_memo_key_is_the_least_packed_form_over_swaps_and_flips(symbols, n):
    """The memo key equals the least packed form over both orientations
    and every flip image, computed without the byte tables, and it is the
    same for the swapped position and for each flip image."""
    rng = random.Random(7)
    solver = _Solver(Vocabulary(symbols), n, 2)
    w = len(solver.pms)
    for _ in range(300):
        A, B = rng.getrandbits(w), rng.getrandbits(w)
        images = list(zip(_flip_images(solver, A), _flip_images(solver, B)))
        least = min(min(X | Y << w, Y | X << w) for X, Y in images)
        for modal in (False, True):
            key = solver._key(A, B, modal)
            assert key == least << 1 | modal, (symbols, A, B, modal)
            assert solver._key(B, A, modal) == key
            for X, Y in images:
                assert solver._key(X, Y, modal) == key
