"""Exact big-integer combinatorics: r-associated Stirling numbers and the
exact Stirling bounds that ``verify stirling`` checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

_stirling_cache: dict[tuple[int, int, int], int] = {}


def stirling_r_assoc(n: int, m: int, r: int) -> int:
    """Partitions of an n-set into m blocks, each of size at least r.

    Uses the recurrence counting by the block of the last element:
    S(n, m) = m * S(n-1, m) + C(n-1, r-1) * S(n-r, m-1),
    the first term when that block keeps size > r after removal, the
    second when it has exactly r elements.  Filled iteratively, no deep
    recursion.
    """
    if m < 1 or r < 0 or n < m * r:
        raise ValueError(f"need m >= 1, r >= 0 and n >= m*r, got {(n, m, r)}")
    if r == 0:
        # blocks of a set partition are nonempty regardless
        if n < m:
            return 0
        r = 1
    key = (n, m, r)
    if key in _stirling_cache:
        return _stirling_cache[key]
    for mm in range(1, m + 1):
        for nn in range(mm * r, n + 1):
            cell = (nn, mm, r)
            if cell in _stirling_cache:
                continue
            if mm == 1:
                val = 1
            else:
                prev = _stirling_cache[(nn - 1, mm, r)] if nn - 1 >= mm * r else 0
                below = (
                    _stirling_cache[(nn - r, mm - 1, r)]
                    if nn - r >= (mm - 1) * r
                    else 0
                )
                val = mm * prev + math.comb(nn - 1, r - 1) * below
            _stirling_cache[cell] = val
    return _stirling_cache[key]


class _BoundPairFields(NamedTuple):
    lower: Fraction
    upper: Fraction


class BoundPair(_BoundPairFields):
    """A two-sided estimate, lower <= upper."""

    __slots__ = ()

    def __new__(cls, lower: Fraction, upper: Fraction):
        if lower > upper:
            raise ValueError(f"lower {lower} > upper {upper}")
        return super().__new__(cls, lower, upper)

    def contains(self, value) -> bool:
        return self.lower <= value <= self.upper


class StirlingBoundsCheck(NamedTuple):
    bounds: BoundPair
    value: int
    ok: bool


def check_stirling_bounds(n: int, m: int, r: int) -> StirlingBoundsCheck:
    """Verify m^n / m^(mr) <= S(n, m)_{>=r} <= m^n / m! with exact rationals."""
    if m < 1 or n < m * r:
        raise ValueError(f"need m >= 1 and n >= m*r, got {(n, m, r)}")
    bounds = BoundPair(
        Fraction(m**n, m ** (m * r)), Fraction(m**n, math.factorial(m))
    )
    value = stirling_r_assoc(n, m, r)
    return StirlingBoundsCheck(bounds, value, bounds.contains(value))


class GrowthBoundCheck(NamedTuple):
    value: int
    bound: Fraction
    ok: bool


def check_growth_bound(n: int, m: int, r: int) -> GrowthBoundCheck:
    """Verify S(n, m)_{>=r} <= (m^(mr+1) / m!) * S(n-1, m)_{>=r} exactly."""
    if m < 1 or n < m * r + 1:
        raise ValueError(f"need m >= 1 and n >= m*r + 1, got {(n, m, r)}")
    value = stirling_r_assoc(n, m, r)
    bound = Fraction(m ** (m * r + 1), math.factorial(m)) * stirling_r_assoc(
        n - 1, m, r
    )
    return GrowthBoundCheck(value, bound, value <= bound)

