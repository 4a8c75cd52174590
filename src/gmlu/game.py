"""The formula-size game for the depth-d counting fragment.

A position holds a resource budget and two sets of pointed models: the
left side must end up satisfying the formula the spoiler S is
implicitly building, the right side must end up refuting it.  S wins by
reaching a literal that splits the sides; the duplicator D wins when
the budget runs out.  S has a winning strategy with budget r exactly
when some formula of size at most r in the depth-d fragment separates
the sides.

Point selections inside counting moves are canonicalized as type-count
subvectors: the game only ever inspects propositional types, so which
concrete points get picked is irrelevant.  Or/and splits are enumerated
as two-block partitions of the deduplicated model sets; overlapping or
empty blocks never change the winner, since any win that uses them
embeds into a win at the same budget without them.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import NamedTuple

from . import _lazy
from .config import DEFAULT_CAPS, SearchCaps, check_cap
from .formulas import DiamondEq, DiamondGeq, Formula, Lit, format_formula
from .models import PointedProfile, bounded_compositions, pointed_profiles
from .vocab import Vocabulary

complexity = _lazy("complexity")  # only the equivalence check searches

S_WINS = "S"
D_WINS = "D"


class _GamePositionFields(NamedTuple):
    resource: int
    left: frozenset[PointedProfile]
    right: frozenset[PointedProfile]
    modal_move_made: bool = False


class GamePosition(_GamePositionFields):
    __slots__ = ()

    def __new__(
        cls,
        resource: int,
        left: frozenset[PointedProfile],
        right: frozenset[PointedProfile],
        modal_move_made: bool = False,
    ):
        if resource < 0:
            raise ValueError("resource must be nonnegative")
        sizes = {pm.profile.n for pm in left | right}
        if len(sizes) > 1:
            raise ValueError(f"models of mixed sizes {sizes} in one position")
        return super().__new__(cls, resource, left, right, modal_move_made)

    @property
    def n(self) -> int | None:
        for pm in self.left or self.right:
            return pm.profile.n
        return None


class PropMove(NamedTuple):
    literal: Lit


# A selection assigns each model of a side one of its options in the move
# (see ``_options``): a type-count subvector, or in an exact-count move on
# the side that does not pick the grade, a labelled ("P" or "N") one.
Selection = tuple[PointedProfile, tuple[int, ...]]
LabelledSelection = tuple[PointedProfile, tuple[str, tuple[int, ...]]]


class SplitMove(NamedTuple):
    """An "or-split" of the left side or an "and-split" of the right."""

    kind: str
    part1: frozenset[PointedProfile]
    part2: frozenset[PointedProfile]
    r1: int
    r2: int


class CountMove(NamedTuple):
    """A counting move of kind "<>=", "[]<", "<>==" or "[]!="; the side
    that picks grade points is the left one for the diamonds and the
    right one for the boxes."""

    kind: str
    grade: int
    left_selections: tuple[Selection | LabelledSelection, ...]
    right_selections: tuple[Selection | LabelledSelection, ...]


GameMove = PropMove | SplitMove | CountMove


# NNF negation swaps each box or and-move with its diamond or or-move at
# equal size, so a dual move is that move played on the swapped position.
_DIAMONDS = {dia.token: dia for dia in (DiamondGeq, DiamondEq)}
_DUAL = {"and-split": "or-split"}
_DUAL |= {dia.dual.token: dia.token for dia in _DIAMONDS.values()}


def _dual(move: SplitMove | CountMove) -> SplitMove | CountMove:
    if isinstance(move, SplitMove):
        return move._replace(kind=_DUAL[move.kind])
    return move._replace(
        kind=_DUAL[move.kind],
        left_selections=move.right_selections,
        right_selections=move.left_selections,
    )


def _swapped(pos: GamePosition) -> GamePosition:
    return GamePosition(pos.resource, pos.right, pos.left, pos.modal_move_made)


class MoveOutcome(NamedTuple):
    """Either an immediate winner, or the successor positions; when there
    are two, the duplicator picks."""

    winner: str | None
    positions: tuple[GamePosition, ...] = ()


def _touched(pm: PointedProfile, vec: tuple[int, ...]):
    for i, v in enumerate(vec):
        if v > 0:
            yield PointedProfile(pm.profile, i)


def _sorted_models(models: frozenset[PointedProfile]) -> list[PointedProfile]:
    return sorted(models, key=PointedProfile.sort_key)


def _options(exact: int, own: bool, counts: tuple[int, ...], k: int, n: int) -> list:
    """The rule of a counting move: one model's options in a grade-k
    "<>=" move, or "<>==" with ``exact``, on the diamond's ``own`` side
    (the left) or the other, in ``legal_moves`` order, as (selection,
    points sent left, points sent right) type-count vectors.  The own
    side's picks go left and, in an exact move, its other points right;
    the other side's go right, or left for a "P" set."""
    none = (0,) * len(counts)
    if own:
        return [
            (v, v, tuple(c - x for c, x in zip(counts, v)) if exact else none)
            for v in bounded_compositions(counts, k)
        ]
    rest = [(v, none, v) for v in bounded_compositions(counts, n - k + 1)]
    if not exact:
        return rest
    picks = [(("P", v), v, none) for v in bounded_compositions(counts, k + 1)]
    return picks + [(("N", v), none, v) for v, _, _ in rest]


def _selection_products(models, exact: int, own: bool, k: int, n: int) -> list[tuple]:
    """Every way of assigning each model of a side one of its options."""
    assignments: list[tuple] = [()]
    for pm in _sorted_models(models):
        opts = [sel for sel, _, _ in _options(exact, own, pm.profile.counts, k, n)]
        if not opts:
            return []
        assignments = [a + ((pm, o),) for a in assignments for o in opts]
    return assignments


def legal_moves(pos: GamePosition, d: int, vocab: Vocabulary) -> list[GameMove]:
    """All moves available to S, point selections up to type symmetry."""
    if pos.resource < 1:
        raise ValueError("no moves at resource 0 (the position is lost for S)")
    r = pos.resource
    n = pos.n if pos.n is not None else 0
    moves: list[GameMove] = []
    if pos.modal_move_made:
        for sym in vocab.symbols:
            for positive in (True, False):
                moves.append(PropMove(Lit(sym, positive)))
    for kind, side in (("or-split", pos.left), ("and-split", pos.right)):
        if r >= 3 and len(side) >= 2:
            items = _sorted_models(side)
            for k in range(1, len(items)):
                for combo in combinations(items, k):
                    part1 = frozenset(combo)
                    part2 = side - part1
                    for r1 in range(1, r - 1):
                        moves.append(SplitMove(kind, part1, part2, r1, r - 1 - r1))
    # A diamond move's own side is the left; its dual box's is the right.
    for kind in _DIAMONDS.values():
        dia, box = kind.token, kind.dual.token
        for k in range(0, min(d - kind.exact, r - 1) + 1):
            own, other = ([_selection_products(side, kind.exact, mine, k, n)
                           for side in (pos.left, pos.right)] for mine in (True, False))
            moves += [CountMove(dia, k, sl, sr) for sl in own[0] for sr in other[1]]
            moves += [CountMove(box, k, sl, sr) for sl in other[0] for sr in own[1]]
    return moves


def apply_move(pos: GamePosition, move: GameMove, vocab: Vocabulary) -> MoveOutcome:
    """Play one move of S; prop moves end the game, splits hand D a choice.

    A "[]<", "[]!=" or and-split move is played as its dual "<>=", "<>=="
    or or-split move on the swapped position, and its successors are
    swapped back.
    """
    if pos.resource < 1:
        raise ValueError("no moves at resource 0")
    if isinstance(move, PropMove):
        if not pos.modal_move_made:
            raise ValueError("literal moves are only legal after a modal move")
        types = vocab.literal_types(move.literal.symbol, move.literal.positive)
        s_wins = all(pm.point_type in types for pm in pos.left) and all(
            pm.point_type not in types for pm in pos.right
        )
        return MoveOutcome(S_WINS if s_wins else D_WINS)
    if getattr(move, "kind", None) in _DUAL:
        succ = _play(_swapped(pos), _dual(move))
        return MoveOutcome(None, tuple(_swapped(q) for q in succ))
    return MoveOutcome(None, _play(pos, move))


def _play(pos: GamePosition, move: GameMove) -> tuple[GamePosition, ...]:
    """The successors of an or-split, "<>=" or "<>==" move."""
    r = pos.resource
    n = pos.n if pos.n is not None else 0
    if isinstance(move, SplitMove) and move.kind == "or-split":
        if move.part1 | move.part2 != pos.left:
            raise ValueError("split parts must cover the side")
        if move.r1 < 1 or move.r2 < 1 or move.r1 + move.r2 + 1 != r:
            raise ValueError(f"bad resource split ({move.r1}, {move.r2}) of {r}")
        return (
            GamePosition(move.r1, move.part1, pos.right, pos.modal_move_made),
            GamePosition(move.r2, move.part2, pos.right, pos.modal_move_made),
        )
    if not (isinstance(move, CountMove) and move.kind in _DIAMONDS):
        raise TypeError(f"not a game move: {move!r}")
    k = move.grade
    if k >= r:
        raise ValueError(f"grade {k} needs resource above {r}")
    exact = _DIAMONDS[move.kind].exact
    new_left: set[PointedProfile] = set()
    new_right: set[PointedProfile] = set()
    for own, models, selections in (
        (True, pos.left, move.left_selections),
        (False, pos.right, move.right_selections),
    ):
        covered = [pm for pm, _ in selections]
        if len(covered) != len(models) or frozenset(covered) != models:
            raise ValueError("selections must cover the side exactly once each")
        for pm, choice in selections:
            counts = pm.profile.counts
            for selection, to_left, to_right in _options(exact, own, counts, k, n):
                if selection == choice:
                    new_left.update(_touched(pm, to_left))
                    new_right.update(_touched(pm, to_right))
                    break
            else:
                raise ValueError(
                    f"selection {choice} is not an option of counts {counts}"
                )
    budget = r - k - exact
    return (GamePosition(budget, frozenset(new_left), frozenset(new_right), True),)


class _Solver:
    """Exact solver for the least winning budget over bitmask positions.

    S wins with budget r exactly when r >= v(A, B, modal_made), the least
    budget at which S wins, so the solver computes that one integer per
    position: a split costs v1 + v2 + 1, a threshold move of grade k
    costs k plus its successor's value, an exact move of grade k costs
    k + 1 plus it.  ``least(cap, ...)`` returns v when v <= cap.

    v is the size of the smallest formula true on A and false on B, and
    three facts about formulas shrink the search without changing v:

    - A formula that separates A from B also separates any A' from B'
      with A' a subset of A and B' of B, so v(A', B', m) <= v(A, B, m).
      Among the successors of one move kind and grade the least value is
      therefore always reached on a subset-minimal one, and only those
      are generated: each model's selection options are kept minimal,
      and so are the unions of one option per model.
    - NNF negation keeps formula size, so v(A, B, m) = v(B, A, m); the
      "[]<", "[]!=" and and-split moves are generated as the "<>=",
      "<>==" and or-split moves of the swapped position, whose
      successors keep that orientation.
    - Renaming a symbol's literals p <-> !p keeps size and depth, so v
      does not change when every point type is xor-ed with one flip
      mask, which permutes the pointed profiles.

    The memo key is the least packed int over both orientations and all
    flip images of the position.  It holds one entry per key, either the
    exact v or a proven lower bound "v > cap" left by a search that found
    nothing within cap; a later query with a larger cap searches again.

    Pointed profiles of one domain size are indexed once; sides become
    int bitmasks.  A counting move picks an option per model on each
    side independently, so its minimal successors are the minimal joins
    a | b of a minimal union a of the left models' options and a minimal
    union b of the right's: any union of one option per model contains
    such a join.  A model's options are those of ``_options``, the rule
    that ``legal_moves`` and ``apply_move`` read too.  Two memos serve
    them for the solver's lifetime: one model's minimal option masks per
    (exact, own side, counts, grade), and the per-side unions, which
    depend on one side only, per (exact, own side, side mask, grade).
    """

    def __init__(self, vocab: Vocabulary, n: int, d: int):
        self.vocab = vocab
        self.n = n
        self.d = d
        self.pms = pointed_profiles(n, vocab)
        self.pm_index = {
            (pm.profile.counts, pm.point_type): i for i, pm in enumerate(self.pms)
        }
        self.lit_masks = [
            sum(1 << i for i, pm in enumerate(self.pms) if pm.point_type in types)
            for types in (
                vocab.literal_types(sym, positive)
                for sym in vocab.symbols for positive in (True, False)
            )
        ]
        self._counts = [pm.profile.counts for pm in self.pms]
        # a successor is packed as its left mask | its right mask << width
        self._width = len(self.pms)
        self._left_mask = (1 << self._width) - 1
        self._flip_tables = [self._byte_tables(f) for f in range(1, vocab.t)]
        self._option_cache: dict = {}
        self._side_cache: dict = {}
        self.memo: dict[int, int] = {}

    def _byte_tables(self, flip: int) -> list[tuple[int, list[int]]]:
        """Per-byte lookup tables of the packed-position bit permutation
        that xors every point type with ``flip``, as (shift, table) pairs:
        the image of a packed position x is the OR over the pairs of
        table[x >> shift & 255]."""
        t = self.vocab.t
        target = [
            self.pm_index[
                tuple(pm.profile.counts[j ^ flip] for j in range(t)), pm.point_type ^ flip
            ]
            for pm in self.pms
        ]
        target += [i + self._width for i in target]
        return [
            (b, [
                sum(1 << to for j, to in enumerate(target[b:b + 8]) if byte >> j & 1)
                for byte in range(256)
            ])
            for b in range(0, len(target), 8)
        ]

    def _key(self, A: int, B: int, modal_made: bool) -> int:
        """The memo key: the least packed form of the position over both
        orientations and every literal-flip image."""
        w = self._width
        packed = A | B << w
        key = min(packed, B | A << w)
        for tables in self._flip_tables:
            image = 0
            for shift, table in tables:
                image |= table[packed >> shift & 255]
            key = min(key, image, image >> w | (image & self._left_mask) << w)
        return key << 1 | modal_made

    def encode(self, models: frozenset[PointedProfile]) -> int:
        """The bitmask of a side."""
        return sum(1 << self.pm_index[pm.sort_key()] for pm in models)

    def _vec_mask(self, counts: tuple[int, ...], vec: tuple[int, ...]) -> int:
        """The pointed models of ``counts`` at the types ``vec`` picks."""
        return sum(1 << self.pm_index[counts, i] for i, v in enumerate(vec) if v)

    @staticmethod
    def _minimal(masks) -> tuple[int, ...]:
        """The subset-minimal masks, fewest bits first."""
        kept: list[int] = []
        for x in sorted(masks, key=int.bit_count):
            for y in kept:
                if y & x == y:
                    break
            else:
                kept.append(x)
        return tuple(kept)

    @staticmethod
    def _bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _option_masks(self, exact: int, own: bool, counts: tuple[int, ...], k: int):
        """One model's minimal options in a move of grade k, each packed
        like a successor, its left points low."""
        key = (exact, own, counts, k)
        found = self._option_cache.get(key)
        if found is None:
            mask, w = functools.partial(self._vec_mask, counts), self._width
            found = self._option_cache[key] = self._minimal(
                mask(to_left) | mask(to_right) << w
                for _, to_left, to_right in _options(exact, own, counts, k, self.n)
            )
        return found

    def _side(self, exact: int, own: bool, mask: int, k: int) -> tuple[int, ...]:
        """The minimal unions of one option per model of the side ``mask``."""
        key = (exact, own, mask, k)
        found = self._side_cache.get(key)
        if found is None:
            unions = {0}
            for i in self._bits(mask):
                options = self._option_masks(exact, own, self._counts[i], k)
                unions = {a | x for a in unions for x in options}
            found = self._side_cache[key] = self._minimal(unions)
        return found

    def _successors(self, exact: int, A: int, B: int, k: int) -> tuple[int, ...]:
        """Minimal successors of the "<>=" (``exact`` 0) or "<>==" (1)
        moves of grade k: the minimal joins of one left and one right
        side union."""
        return self._minimal({
            a | b
            for a in self._side(exact, True, A, k)
            for b in self._side(exact, False, B, k)
        })

    def _counting_successors(self, A: int, B: int, cost: int):
        """Successors of the counting moves that cost ``cost``.

        A threshold move of grade k costs k and an exact move of grade k
        costs k + 1; the successor then needs its own least budget on
        top.  Each diamond move is generated on (A, B) and its dual box
        on (B, A).  The successor sets are built one move kind at a time,
        so a win in an early one saves building the rest.
        """
        for exact in (0, 1):
            for X, Y in ((A, B), (B, A)):
                yield from self._successors(exact, X, Y, cost - exact)

    @staticmethod
    def _split_successors(A: int, B: int):
        """Both positions of every or-split of A, then of every or-split
        of the swapped position (B, A), which is an and-split of B.

        Each unordered partition into two nonempty blocks appears once.
        """
        for X, Y in ((A, B), (B, A)):
            low = X & -X
            rest = X ^ low
            sub = rest
            while sub:
                sub = (sub - 1) & rest
                yield (low | sub, Y), (rest ^ sub, Y)

    def least(self, cap: int, A: int, B: int, modal_made: bool) -> int | None:
        """The least budget v at which S wins from (A, B), or None if v > cap.

        Branch and bound over the moves: whenever a move wins at total
        cost ``best``, the moves after it only have to win within
        best - 1, and a move whose own cost leaves no budget for its
        successor (every successor needs at least 1) is never tried.
        """
        if cap < 1:
            return None
        if not A or not B:
            # a constant formula separates: a free grade-0 move, then a literal
            return 1
        if modal_made:
            for lm in self.lit_masks:
                if not (A & ~lm) and not (B & lm):
                    return 1
        if cap == 1:
            return None  # only a literal or an empty side wins with budget 1
        # Memo entries: v when v is known, else -lb for a proven v > lb;
        # without an entry, v > 1 is known from the checks above.
        key = self._key(A, B, modal_made)
        known = self.memo.get(key, -1)
        if known > 0:
            return known if known <= cap else None
        if cap <= -known:
            return None
        floor = 1 - known  # no move can win below this
        best = None
        limit = cap  # the most a move may cost in total to beat ``best``
        # With both sides nonempty, grade-0 threshold moves have no
        # successor and no counting move costs more than n + 1.
        for cost in range(1, min(self.d, self.n + 1) + 1):
            if cost >= limit:
                break
            for succ in self._counting_successors(A, B, cost):
                A2, B2 = succ & self._left_mask, succ >> self._width
                v = self.least(limit - cost, A2, B2, True)
                if v is None:
                    continue
                best = cost + v
                limit = best - 1
                if best == floor:
                    self.memo[key] = best
                    return best
                if cost >= limit:
                    break
        for (A1, B1), (A2, B2) in self._split_successors(A, B):
            if limit < 3:
                break
            v1 = self.least(limit - 2, A1, B1, modal_made)
            if v1 is None:
                continue
            v2 = self.least(limit - 1 - v1, A2, B2, modal_made)
            if v2 is None:
                continue
            best = v1 + v2 + 1
            limit = best - 1
            if best == floor:
                self.memo[key] = best
                return best
        self.memo[key] = -cap if best is None else best
        return best


@functools.lru_cache(maxsize=8)
def _solver_for(vocab: Vocabulary, n: int, d: int) -> _Solver:
    return _Solver(vocab, n, d)


def solve(
    pos: GamePosition, d: int, vocab: Vocabulary, caps: SearchCaps = DEFAULT_CAPS
) -> str:
    """Exact winner of the game from this starting position."""
    if d < 1:
        raise ValueError("counting depth must be at least 1")
    check_cap(caps, "game_max_symbols", len(vocab.symbols), "game |tau|")
    check_cap(caps, "game_max_resource", pos.resource, "game resource")
    check_cap(caps, "game_max_models", len(pos.left) + len(pos.right), "game models")
    if pos.n is not None:
        check_cap(caps, "game_max_n", pos.n, "game domain size")
    return D_WINS if _least(pos, d, vocab) is None else S_WINS


def _least(pos: GamePosition, d: int, vocab: Vocabulary) -> int | None:
    """The least budget at which S wins from ``pos``, or None if it is
    above ``pos.resource``; with no cap check: a counting move's
    successor may hold more pointed models than the position it left."""
    if pos.n is None:
        return 1 if pos.resource >= 1 else None
    solver = _solver_for(vocab, pos.n, d)
    return solver.least(
        pos.resource, solver.encode(pos.left), solver.encode(pos.right),
        pos.modal_move_made,
    )


def _pm_json(pm: PointedProfile) -> dict:
    return {"counts": list(pm.profile.counts), "point_type": pm.point_type}


def _move_json(move: GameMove) -> dict:
    if isinstance(move, PropMove):
        return {"kind": "prop", "literal": format_formula(move.literal)}
    if isinstance(move, SplitMove):
        return {
            "kind": move.kind,
            "r1": move.r1,
            "r2": move.r2,
            "part1": [_pm_json(pm) for pm in _sorted_models(move.part1)],
            "part2": [_pm_json(pm) for pm in _sorted_models(move.part2)],
        }

    def sel_json(sel):
        pm, choice = sel
        if isinstance(choice[0], str):
            return {"model": _pm_json(pm), "set": choice[0], "pick": list(choice[1])}
        return {"model": _pm_json(pm), "pick": list(choice)}

    return {
        "kind": move.kind,
        "grade": move.grade,
        "left_selections": [sel_json(s) for s in move.left_selections],
        "right_selections": [sel_json(s) for s in move.right_selections],
    }


def strategy_trace(
    pos: GamePosition, d: int, vocab: Vocabulary, caps: SearchCaps = DEFAULT_CAPS
) -> dict:
    """Winning strategy of S as a nested move tree, or the bare D verdict."""
    if solve(pos, d, vocab, caps) == D_WINS:
        return {"winner": D_WINS}

    def rec(p: GamePosition) -> dict:
        node = {
            "resource": p.resource,
            "left": [_pm_json(pm) for pm in _sorted_models(p.left)],
            "right": [_pm_json(pm) for pm in _sorted_models(p.right)],
        }
        for move in legal_moves(p, d, vocab):
            outcome = apply_move(p, move, vocab)
            if outcome.winner == S_WINS:
                node["move"] = _move_json(move)
                node["winner"] = S_WINS
                return node
            if outcome.winner is None and all(
                _least(q, d, vocab) is not None for q in outcome.positions
            ):
                node["move"] = _move_json(move)
                node["children"] = [rec(q) for q in outcome.positions]
                return node
        raise AssertionError("no winning move found at a position S wins")

    return rec(pos)


def _trivial_truth(vocab: Vocabulary) -> Formula:
    """A size-1 tautology: at least zero points satisfy the first symbol."""
    return DiamondGeq(0, Lit(vocab.symbols[0], True))


class GameFormulaCheck(NamedTuple):
    """Agreement between the game value and the separating-formula search."""

    resource: int
    winner: str
    separating_size: int | None
    formula: Formula | None
    agree: bool


def check_game_formula_equivalence(
    resource: int,
    left,
    right,
    d: int,
    vocab: Vocabulary,
    caps: SearchCaps = DEFAULT_CAPS,
) -> GameFormulaCheck:
    """The game value agrees with the separating-formula search: the least
    budget at which S wins is the least size of a separating formula,
    both looked for within ``resource``, so the two agree at every
    budget up to it."""
    pos = GamePosition(resource, frozenset(left), frozenset(right), False)
    winner = solve(pos, d, vocab, caps)
    if pos.n is None:
        found = (1, _trivial_truth(vocab)) if resource >= 1 else None
    else:
        found = complexity.minimal_separating_size(
            vocab, d, pos.n, [pm.profile for pm in pos.left],
            [pm.profile for pm in pos.right], resource, caps,
        )
    size = found[0] if found else None
    return GameFormulaCheck(
        resource,
        winner,
        size,
        found[1] if found else None,
        _least(pos, d, vocab) == size,
    )
