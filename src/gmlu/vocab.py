"""Propositional vocabularies and their canonical type enumeration.

A vocabulary is an ordered list of proposition symbols.  Over k symbols
there are t = 2^k propositional types (maximally consistent literal
sets).  Types are numbered 0 .. t-1: the binary digits of the index,
most significant digit first over the symbol order, give the literal
polarities, with 0 meaning the positive literal.  Type 0 is therefore
the all-positive type.
"""

from __future__ import annotations

import re
from typing import NamedTuple

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# A NamedTuple body may not define __new__, so each record that checks its
# fields declares them on a base like this one and checks them in a subclass.
class _VocabularyFields(NamedTuple):
    symbols: tuple[str, ...]


class Vocabulary(_VocabularyFields):
    """An ordered, duplicate-free tuple of proposition symbols."""

    __slots__ = ()

    def __new__(cls, symbols: tuple[str, ...]):
        if not symbols:
            raise ValueError("vocabulary needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols in {symbols}")
        for sym in symbols:
            if not _SYMBOL_RE.match(sym):
                raise ValueError(f"bad symbol name {sym!r}")
        return super().__new__(cls, symbols)

    @staticmethod
    def from_csv(text: str) -> "Vocabulary":
        return Vocabulary(tuple(s.strip() for s in text.split(",") if s.strip()))

    @property
    def t(self) -> int:
        """Number of propositional types, 2^|symbols|."""
        return 1 << len(self.symbols)

    def symbol_index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(symbol) from None

    def type_literals(self, type_index: int) -> tuple[tuple[str, bool], ...]:
        """The (symbol, positive) literals making up the given type."""
        k = len(self.symbols)
        if not 0 <= type_index < self.t:
            raise IndexError(type_index)
        return tuple(
            (sym, (type_index >> (k - 1 - b)) & 1 == 0)
            for b, sym in enumerate(self.symbols)
        )

    def type_label(self, type_index: int) -> str:
        return "&".join(
            sym if pos else "!" + sym for sym, pos in self.type_literals(type_index)
        )

    def type_labels(self) -> list[str]:
        return [self.type_label(i) for i in range(self.t)]

    def literal_types(self, symbol: str, positive: bool) -> frozenset[int]:
        """Indices of the types containing the literal."""
        b = self.symbol_index(symbol)
        k = len(self.symbols)
        bit = 0 if positive else 1
        return frozenset(
            i for i in range(self.t) if (i >> (k - 1 - b)) & 1 == bit
        )
