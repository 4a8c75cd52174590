"""Formula ASTs for graded universal modal logic, in negation normal form.

Negation exists only at the literal level.  The four graded modalities
are global: ``<>=k F`` holds when at least k points satisfy F, ``<>==k F``
when exactly k do, and ``[]<k F`` / ``[]!=k F`` are their duals (all
points satisfy F except fewer than k / except exactly k).

Each kind is defined once, on its class: a :class:`Binary` connective
carries its ``token``; a :class:`Modal` kind also carries its ``dual``,
``exact`` (what an exact count adds to size and depth) and ``holds``,
its truth condition.  The printer, size and depth here, evaluation in
``models``, the search tables in ``complexity`` and the counting moves
in ``game`` all read these.
"""

from __future__ import annotations

from typing import Callable, ClassVar, NamedTuple


class Formula:
    """Base of the formula kinds, each also a NamedTuple of its fields.
    Two formulas are equal when they are of one kind with equal fields,
    so ``And(a, b) != Or(a, b)``, and a formula never equals a plain
    tuple; a formula hashes as its field tuple."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if type(other) is type(self):
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__


class _LitFields(NamedTuple):
    symbol: str
    positive: bool = True


class Lit(Formula, _LitFields):
    __slots__ = ()


class _BinaryFields(NamedTuple):
    left: Formula
    right: Formula


class Binary(Formula, _BinaryFields):
    """A boolean connective; ``token`` is its syntax."""

    __slots__ = ()
    token: ClassVar[str]


class And(Binary):
    __slots__ = ()
    token = "&"


class Or(Binary):
    __slots__ = ()
    token = "|"



class _ModalFields(NamedTuple):
    grade: int
    sub: Formula


class Modal(Formula, _ModalFields):
    """A counting modality over all points.  ``holds(c, n, k)`` is its
    truth condition at grade k when c of the n points satisfy ``sub``;
    ``exact`` (0 or 1) is what an exact count adds to size and depth;
    ``dual`` is the kind NNF negation turns it into, at the same grade."""

    __slots__ = ()
    token: ClassVar[str]
    dual: ClassVar[type[Modal]]
    exact: ClassVar[int]
    holds: ClassVar[Callable[[int, int, int], bool]]


class DiamondGeq(Modal):
    """At least ``grade`` points satisfy ``sub``."""

    __slots__ = ()
    token, exact = "<>=", 0
    holds = staticmethod(lambda c, n, k: c >= k)


class BoxLt(Modal):
    """All points satisfy ``sub``, except fewer than ``grade`` of them."""

    __slots__ = ()
    token, exact = "[]<", 0
    holds = staticmethod(lambda c, n, k: n - c < k)


class DiamondEq(Modal):
    """Exactly ``grade`` points satisfy ``sub``."""

    __slots__ = ()
    token, exact = "<>==", 1
    holds = staticmethod(lambda c, n, k: c == k)


class BoxNeq(Modal):
    """All points satisfy ``sub``, except some number != ``grade`` of them."""

    __slots__ = ()
    token, exact = "[]!=", 1
    holds = staticmethod(lambda c, n, k: n - c != k)


DiamondGeq.dual, BoxLt.dual = BoxLt, DiamondGeq
DiamondEq.dual, BoxNeq.dual = BoxNeq, DiamondEq


def size(f: Formula) -> int:
    """Formula size: literals cost 1, connectives 1, modalities their grade
    (exact-count modalities one more)."""
    if isinstance(f, Lit):
        return 1
    if isinstance(f, Binary):
        return size(f.left) + size(f.right) + 1
    if isinstance(f, Modal):
        return size(f.sub) + f.grade + f.exact
    raise TypeError(f"not a formula: {f!r}")


def counting_depth(f: Formula) -> int:
    """Maximum counting threshold used anywhere in the formula.

    Threshold modalities contribute their grade, exact-count modalities
    grade + 1, and nested modalities are taken into account.  This is
    the notion the depth-d fragment restricts.
    """
    if isinstance(f, Lit):
        return 0
    if isinstance(f, Binary):
        return max(counting_depth(f.left), counting_depth(f.right))
    if isinstance(f, Modal):
        return max(f.grade + f.exact, counting_depth(f.sub))
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f: Formula) -> str:
    """Concrete syntax: literals ``p`` and ``!p``, ``&`` binding tighter
    than ``|``, and a modality's token and grade before its operand.  The
    parentheses it adds (round an ``Or`` left of ``&``, a connective right
    of either, and a connective under a modality) make the text read back
    to the identical AST, with both connectives left-associative and the
    modalities binding tightest."""
    if isinstance(f, Lit):
        return f.symbol if f.positive else "!" + f.symbol
    if isinstance(f, Binary):
        left = format_formula(f.left)
        right = format_formula(f.right)
        # wrap binaries that would re-associate when read back
        if isinstance(f, And) and isinstance(f.left, Or):
            left = f"({left})"
        if isinstance(f.right, Binary):
            right = f"({right})"
        return f"{left} {f.token} {right}"
    if isinstance(f, Modal):
        sub = format_formula(f.sub)
        if isinstance(f.sub, Binary):
            sub = f"({sub})"
        return f"{f.token}{f.grade} {sub}"
    raise TypeError(f"not a formula: {f!r}")

