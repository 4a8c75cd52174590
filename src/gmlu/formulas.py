"""Formula ASTs for graded universal modal logic, in negation normal form.

Negation exists only at the literal level.  The four graded modalities
are global: ``<>=k F`` holds when at least k points satisfy F, ``<>==k F``
when exactly k do, and ``[]<k F`` / ``[]!=k F`` are their duals (all
points satisfy F except fewer than k / except exactly k).

Concrete syntax accepted by :func:`parse_formula`::

    literal    p   !p
    boolean    F & G   F | G   ( F )        & binds tighter than |
    modality   <>=k F   []<k F   <>==k F   []!=k F

Modalities bind tighter than the boolean connectives and apply to the
formula immediately following them.  Whitespace is ignored.  A literal
is only legal somewhere inside a modality; a formula with a bare
top-level literal is rejected.

Each kind is defined once, on its class: a :class:`Binary` connective
carries its ``token`` and NNF ``dual``; a :class:`Modal` kind also
carries ``exact`` (what an exact count adds to size and depth) and
``holds``, its truth condition.  The parser, printer, size, depth and
negation here, evaluation in ``models``, the search tables in
``complexity`` and the counting moves in ``game`` all read these.
"""

from __future__ import annotations

from typing import Callable, ClassVar, NamedTuple

from .vocab import Vocabulary

DEFAULT_MAX_GRADE = 1 << 16


class FormulaError(ValueError):
    """Problem with a formula; ``position`` is an offset into the source text."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at {position})")
        self.position = position


class FormulaSyntaxError(FormulaError):
    pass


class UnknownSymbolError(FormulaError):
    pass


class BareLiteralError(FormulaError):
    pass


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
    """A boolean connective.  ``token`` is its syntax and ``dual`` the
    connective that NNF negation turns it into."""

    __slots__ = ()
    token: ClassVar[str]
    dual: ClassVar[type[Binary]]


class And(Binary):
    __slots__ = ()
    token = "&"


class Or(Binary):
    __slots__ = ()
    token = "|"


And.dual, Or.dual = Or, And


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
MODAL_TYPES = (DiamondGeq, BoxLt, DiamondEq, BoxNeq)


def negate(f: Formula) -> Formula:
    """Semantic complement with negation pushed to the literals."""
    if isinstance(f, Lit):
        return Lit(f.symbol, not f.positive)
    if isinstance(f, Binary):
        return f.dual(negate(f.left), negate(f.right))
    if isinstance(f, Modal):
        return f.dual(f.grade, negate(f.sub))
    raise TypeError(f"not a formula: {f!r}")


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


def is_sentence(f: Formula) -> bool:
    """True when every literal sits under at least one modality, so the
    formula's truth value does not depend on the evaluation point."""

    def covered(g: Formula, under_modal: bool) -> bool:
        if isinstance(g, Lit):
            return under_modal
        if isinstance(g, Binary):
            return covered(g.left, under_modal) and covered(g.right, under_modal)
        return covered(g.sub, True)

    return covered(f, False)


def format_formula(f: Formula) -> str:
    """Concrete syntax; parses back to the identical AST."""
    if isinstance(f, Lit):
        return f.symbol if f.positive else "!" + f.symbol
    if isinstance(f, Binary):
        left = format_formula(f.left)
        right = format_formula(f.right)
        # keep re-parse structure-exact: wrap binaries that would re-associate
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


_MODAL_CLASSES = {cls.token: cls for cls in MODAL_TYPES}
# the binary connectives from the loosest binding to the tightest
_BINARY_LEVELS = (Or, And)
_BINARY_TOKENS = {op.token for op in _BINARY_LEVELS}


class _Tokenizer:
    def __init__(self, text: str, max_grade: int):
        self.text = text
        self.pos = 0
        self.max_grade = max_grade

    def error(self, msg):
        raise FormulaSyntaxError(msg, self.pos)

    def _grade(self) -> int:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a grade (digits)")
        k = int(self.text[start : self.pos])
        if k > self.max_grade:
            raise FormulaSyntaxError(f"grade {k} exceeds cap {self.max_grade}", start)
        return k

    def tokens(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self.pos += 1
                continue
            start = self.pos
            if ch in "()!" or ch in _BINARY_TOKENS:
                self.pos += 1
                yield ch, None, start
            elif ch in "<[":
                # longest first, so that "<>==" is not read as "<>=" "="
                tokens = sorted((k for k in _MODAL_CLASSES if k[0] == ch), key=len)
                for tok in reversed(tokens):
                    if text.startswith(tok, start):
                        self.pos += len(tok)
                        yield tok, self._grade(), start
                        break
                else:
                    self.error(f"expected {' or '.join(tokens)}")
            elif ch.isalpha() or ch == "_":
                while self.pos < len(text) and (
                    text[self.pos].isalnum() or text[self.pos] == "_"
                ):
                    self.pos += 1
                yield "sym", text[start : self.pos], start
            else:
                self.error(f"unexpected character {ch!r}")
        yield "end", None, self.pos


class _Parser:
    def __init__(self, text: str, vocab: Vocabulary, max_grade: int):
        self.toks = list(_Tokenizer(text, max_grade).tokens())
        self.i = 0
        self.vocab = vocab

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.parse_binary()
        kind, _, pos = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {kind!r}", pos)
        return f

    def parse_binary(self, level: int = 0) -> Formula:
        """Connectives from ``_BINARY_LEVELS[level]`` on, each left-associative."""
        if level == len(_BINARY_LEVELS):
            return self.parse_unary()
        op = _BINARY_LEVELS[level]
        f = self.parse_binary(level + 1)
        while self.peek()[0] == op.token:
            self.take()
            f = op(f, self.parse_binary(level + 1))
        return f

    def parse_unary(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "(":
            f = self.parse_binary()
            k2, _, p2 = self.take()
            if k2 != ")":
                raise FormulaSyntaxError("expected )", p2)
            return f
        if kind in _MODAL_CLASSES:
            return _MODAL_CLASSES[kind](value, self.parse_unary())
        if kind == "!":
            k2, sym, p2 = self.take()
            if k2 != "sym":
                raise FormulaSyntaxError("expected a symbol after !", p2)
            self._check_symbol(sym, p2)
            return Lit(sym, False)
        if kind == "sym":
            self._check_symbol(value, pos)
            return Lit(value, True)
        raise FormulaSyntaxError(f"unexpected {kind!r}", pos)

    def _check_symbol(self, sym: str, pos: int):
        if sym not in self.vocab.symbols:
            raise UnknownSymbolError(f"unknown symbol {sym!r}", pos)


def parse_formula(
    text: str, vocab: Vocabulary, max_grade: int = DEFAULT_MAX_GRADE
) -> Formula:
    """Parse concrete syntax, rejecting bare literals outside modalities."""
    f = _Parser(text, vocab, max_grade).parse()
    if not is_sentence(f):
        raise BareLiteralError(
            "literal outside any modality; proposition symbols are only "
            "allowed in the scope of modal operators"
        )
    return f
