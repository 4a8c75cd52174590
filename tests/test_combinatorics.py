import math
from fractions import Fraction
from itertools import product

import pytest

from gmlu.combinatorics import (
    BoundPair,
    check_growth_bound,
    check_stirling_bounds,
    stirling_r_assoc,
)

from oracles import brute_stirling, multinomial


def test_single_block():
    for n in range(1, 8):
        assert stirling_r_assoc(n, 1, 1) == 1


def test_known_small_values():
    assert stirling_r_assoc(4, 2, 2) == 3
    assert stirling_r_assoc(5, 2, 1) == 15


def test_recurrence_matches_brute_force():
    for n in range(1, 10):
        for m in range(1, 4):
            for r in range(1, 4):
                if n >= m * r:
                    assert stirling_r_assoc(n, m, r) == brute_stirling(n, m, r), (
                        n, m, r,
                    )


def test_precondition_violations():
    with pytest.raises(ValueError):
        stirling_r_assoc(3, 2, 2)
    with pytest.raises(ValueError):
        stirling_r_assoc(4, 0, 1)


def test_zero_minimum_block_size_means_plain_partitions():
    # blocks of a set partition are nonempty regardless, so r=0 acts as r=1
    assert stirling_r_assoc(4, 2, 0) == stirling_r_assoc(4, 2, 1) == 7
    assert stirling_r_assoc(1, 2, 0) == 0


def test_stirling_bounds_examples():
    chk = check_stirling_bounds(4, 2, 2)
    assert chk.bounds == BoundPair(Fraction(1), Fraction(8))
    assert chk.value == 3 and chk.ok
    chk = check_stirling_bounds(6, 2, 2)
    assert chk.bounds == BoundPair(Fraction(4), Fraction(32)) and chk.ok
    # minimal n = m*r: the lower bound collapses to 1
    chk = check_stirling_bounds(6, 3, 2)
    assert chk.bounds.lower == 1 and chk.ok


def test_bounds_and_growth_on_grid():
    for m in range(1, 5):
        for r in range(1, 6):
            for n in range(m * r, 31):
                assert check_stirling_bounds(n, m, r).ok, (n, m, r)
                if n >= m * r + 1:
                    assert check_growth_bound(n, m, r).ok, (n, m, r)


def test_growth_bound_examples():
    assert check_growth_bound(5, 2, 2).ok
    assert check_growth_bound(2 * 2 + 1, 2, 2).ok
    assert check_growth_bound(8, 2, 3).ok


def test_multinomial_examples():
    assert multinomial(3, [0, 3]) == 1
    assert multinomial(4, [2, 2]) == 6
    assert multinomial(3, [1, 1, 1]) == 6


def test_multinomial_against_brute_force():
    # label 4 items with 2 colors, exactly two of each
    count = sum(1 for colors in product((0, 1), repeat=4) if sum(colors) == 2)
    assert multinomial(4, [2, 2]) == count


def test_multinomial_factorial_identity():
    for parts in ([3, 1], [2, 2, 2], [0, 5], [1, 2, 3, 4]):
        n = sum(parts)
        prod = 1
        for p in parts:
            prod *= math.factorial(p)
        assert multinomial(n, parts) * prod == math.factorial(n)
    with pytest.raises(ValueError):
        multinomial(4, [2, 1])

