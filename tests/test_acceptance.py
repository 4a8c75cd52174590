"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  The checks deliberately pair the library against independent
routes: labeled-model enumeration, explicit set-partition counting, and
direct big-integer binomial sums.
"""

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

from gmlu.classes import class_size, enumerate_admissible, tuple_of_profile
from gmlu.complexity import (
    exact_complexity,
    find_min_cover,
    lower_bound,
    upper_bound,
)
from gmlu.config import SearchCaps
from gmlu.distribution import (
    boltzmann_entropy,
    build_distribution,
    dominating_class_sweep,
    make_depth_rule,
    phase_constants,
    shannon_entropy,
    verify_monotone_connection,
)
from gmlu.game import D_WINS, S_WINS, check_game_formula_equivalence
from gmlu.models import ModelProfile, pointed_profiles
from gmlu.vocab import Vocabulary

from oracles import counts_of, labeled_models, min_cover_by_search, set_partitions

V1 = Vocabulary(("p",))
V2 = Vocabulary(("p", "q"))

# majority-threshold constants pinned for criterion 8; c1 agrees with the
# library's formula, the pinned c2 is looser than the formula value
# (sqrt(pi/128) ~ 0.156664) and the dichotomy is verified exactly for both
MAJORITY_C1 = 1.17741
MAJORITY_C2 = 0.22156


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_partition_counting_oracle():
    start = time.time()
    checked = 0
    for vocab in (V1, V2):
        t = vocab.t
        for n in range(1, 9):
            counts_list = [counts_of(a, t) for a in labeled_models(n, t)]
            for d in range(1, n + 1):
                brute = Counter(
                    tuple(min(c, d) for c in counts) for counts in counts_list
                )
                tuples = enumerate_admissible(n, d, vocab)
                assert {tp.entries for tp in tuples} == set(brute)
                for tp in tuples:
                    assert class_size(tp) == brute[tp.entries], (vocab, n, d, tp)
                assert sum(brute.values()) == t**n
                checked += len(tuples)
    elapsed = time.time() - start
    ok = elapsed < 60
    report(1, ok, f"{checked} classes vs labeled-model oracle in {elapsed:.1f}s")
    assert ok, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_02_stirling_bounds_and_oracle():
    from gmlu.combinatorics import (
        check_growth_bound,
        check_stirling_bounds,
        stirling_r_assoc,
    )

    grid = 0
    for m in range(1, 5):
        for r in range(1, 6):
            for n in range(m * r, 31):
                assert check_stirling_bounds(n, m, r).ok, (n, m, r)
                if n >= m * r + 1:
                    assert check_growth_bound(n, m, r).ok, (n, m, r)
                grid += 1
    matched = 0
    for n in range(1, 10):
        by_shape = Counter()
        for partition in set_partitions(list(range(n))):
            by_shape[(len(partition), min(len(b) for b in partition))] += 1
        for m in range(1, n + 1):
            for r in range(1, 6):
                if n >= m * r:
                    brute = sum(
                        count
                        for (blocks, smallest), count in by_shape.items()
                        if blocks == m and smallest >= r
                    )
                    assert stirling_r_assoc(n, m, r) == brute, (n, m, r)
                    matched += 1
    report(2, True, f"{grid} bound checks exact, {matched} values match brute force")


def test_criterion_03_worked_example_complexity_two():
    start = time.time()
    for n in (2, 3, 4):
        tup = tuple_of_profile(ModelProfile((n, 0)), 1)
        value = exact_complexity(tup, V1)
        assert value == 2, (n, value)
    elapsed = time.time() - start
    ok = elapsed < 10
    report(3, ok, f"all-p class has exact complexity 2 for n in 2..4 ({elapsed:.2f}s)")
    assert ok


def test_criterion_04_bound_sandwich_and_cover_agreement():
    checked = 0
    for n in range(1, 6):
        for d in range(1, min(n, 3) + 1):
            for tup in enumerate_admissible(n, d, V1):
                lo = lower_bound(tup)
                hi = upper_bound(tup, V1).value
                exact = exact_complexity(tup, V1)
                assert exact is not None
                assert lo <= exact <= hi, (tup, lo, exact, hi)
                cover = find_min_cover(tup)
                assert cover == min_cover_by_search(tup) and cover[0] == lo, tup
                checked += 1
    report(4, True, f"sandwich and cover=lower on {checked} classes")


def test_criterion_05_game_formula_equivalence_grid():
    start = time.time()
    instances = 0
    for n in (1, 2, 3):
        pms = pointed_profiles(n, V1)
        sides = [frozenset()]
        for k in (1, 2):
            sides.extend(frozenset(c) for c in combinations(pms, k))
        for d in (1, 2):
            for left in sides:
                for right in sides:
                    for r in range(1, 7):
                        chk = check_game_formula_equivalence(r, left, right, d, V1)
                        assert chk.agree, (n, d, r, left, right, chk)
                        instances += 1
    # |tau|=2, where the complexity bounds are loose: at most one model per
    # side, d=1, the game's width cap raised to n=3's 40 pointed models
    caps = SearchCaps(game_max_pointed=40)
    winners = Counter()
    for n in (1, 2, 3):
        sides = [frozenset()] + [frozenset([pm]) for pm in pointed_profiles(n, V2)]
        for left in sides:
            for right in sides:
                for r in range(1, 7):
                    chk = check_game_formula_equivalence(r, left, right, 1, V2, caps)
                    assert chk.agree, (n, r, left, right, chk)
                    winners[chk.winner] += 1
    assert winners[S_WINS] and winners[D_WINS], winners
    instances += winners.total()
    elapsed = time.time() - start
    ok = elapsed < 300
    report(5, ok, f"{instances} game/search instances agree in {elapsed:.1f}s "
                  f"({winners[S_WINS]} S and {winners[D_WINS]} D wins at |tau|=2)")
    assert ok, f"runtime {elapsed:.1f}s exceeds 300s"


def test_criterion_06_entropy_identity():
    worst = 0.0
    for vocab in (V1, V2):
        target_per_n = len(vocab.symbols)
        for n in range(1, 15):
            for d in range(1, n + 1):
                dist = build_distribution(n, d, vocab)
                gap = abs(
                    shannon_entropy(dist) + boltzmann_entropy(dist)
                    - target_per_n * n
                )
                worst = max(worst, gap)
                assert gap < 1e-9, (vocab.symbols, n, d, gap)
    report(6, True, f"entropy identity holds, worst |H_S+H_B-|tau|n| = {worst:.2e}")


def test_criterion_07_entropy_monotonicity():
    for vocab in (V1, V2):
        for n in range(1, 15):
            dists = [build_distribution(n, d, vocab) for d in range(1, n + 1)]
            shannons = [shannon_entropy(dist) for dist in dists]
            boltzmanns = [boltzmann_entropy(dist) for dist in dists]
            pivot = math.ceil(n / 2)
            for d in range(1, n):
                if d < pivot:
                    assert shannons[d] - shannons[d - 1] > 1e-9, (vocab, n, d)
                    assert boltzmanns[d - 1] - boltzmanns[d] > 1e-9, (vocab, n, d)
                else:
                    # identical partitions, so exactly equal class sizes;
                    # the float entropies may differ by summation order only
                    assert sorted(e.size for e in dists[d].entries) == sorted(
                        e.size for e in dists[d - 1].entries
                    ), (vocab, n, d)
                    assert abs(shannons[d] - shannons[d - 1]) < 1e-9
    report(7, True, "H_S strictly rises to ceil(n/2) then is constant; H_B mirrors")


def test_criterion_08_majority_dichotomy():
    start = time.time()
    consts = phase_constants(V1)
    assert abs(consts.c1 - MAJORITY_C1) < 5e-6
    half = Fraction(1, 2)
    majority_checked = 0
    none_checked = 0
    for n in (64, 100, 144, 196, 256):
        sqrt_n = math.sqrt(n)
        has_majority = {}
        for d in range(1, n + 1):
            dist = build_distribution(n, d, V1)
            best = max(dist.entries, key=lambda e: e.size)
            has_majority[d] = best.probability > half
        for d in range(1, math.floor(n / 2 - MAJORITY_C1 * sqrt_n) + 1):
            assert has_majority[d], (n, d)
            majority_checked += 1
        for threshold in (MAJORITY_C2, consts.c2):
            for d in range(math.ceil(n / 2 - threshold * sqrt_n), n + 1):
                assert not has_majority[d], (n, d, threshold)
            none_checked += 1
    elapsed = time.time() - start
    ok = elapsed < 120
    report(
        8,
        ok,
        f"majority below c1-threshold ({majority_checked} values), none above "
        f"both c2-thresholds, in {elapsed:.1f}s",
    )
    assert ok, f"runtime {elapsed:.1f}s exceeds 120s"


def test_criterion_09_monotone_connection():
    # exact mode: the comparability gap over t(2|tau|+1)-1 = 5 cannot occur
    # at n <= 5, so the biconditional holds there over an empty pair set;
    # n = 12, 14, 16 and 18 reach entry sums far enough apart to compare,
    # and at d = 9, n = 32 and n = 1000 have more profiles (33 and 1001)
    # than classes (19)
    exact_pairs = 0
    for n in range(1, 6):
        for d in range(1, min(n, 3) + 1):
            rep = verify_monotone_connection(n, d, V1, mode="exact")
            assert rep.ok
            exact_pairs += rep.pair_count
    caps = SearchCaps(search_max_cells=1 << 17)  # d=9 stores 106,452 cells
    for n, d in ((12, 6), (14, 7), (16, 8), (18, 9)):
        rep = verify_monotone_connection(n, d, V1, "exact", caps)
        assert rep.ok, (n, d, rep.failures[:3])
        exact_pairs += rep.pair_count
    # past n = t*d the classes and their exact complexities stay put, while
    # the class sizes compared grow with n
    for n in (32, 1000):
        rep = verify_monotone_connection(n, 9, V1, "exact", caps)
        assert rep.ok and rep.pair_count == 20, (n, rep.failures[:3])
        exact_pairs += rep.pair_count
    assert exact_pairs >= 20
    bounds_pairs = 0
    for vocab in (V1, V2):
        t = vocab.t
        for d in range(1, 65):
            if 2 * t * d > 64:
                break
            for n in range(2 * t * d, 65):
                rep = verify_monotone_connection(n, d, vocab, mode="bounds")
                assert rep.ok, (vocab.symbols, n, d, rep.failures[:3])
                bounds_pairs += rep.pair_count
    report(
        9,
        True,
        f"exact mode holds on {exact_pairs} comparable pairs (n <= 1000); "
        f"bounds mode holds on {bounds_pairs} comparable pairs",
    )


def _central_class_probability(n: int, d: int) -> Fraction:
    """Exact probability of the both-types-capped class via binomial sums."""
    if 2 * d > n:
        return Fraction(0)
    total = sum(math.comb(n, a) for a in range(d, n - d + 1))
    return Fraction(total, 2**n)


def test_criterion_10a_dominating_trend():
    # d(n) = n/2 - 2*sqrt(n) leaves a margin of order sqrt(n), so the
    # central class tends to 2*Phi(4) - 1 = erf(2*sqrt(2)) < 1 instead of
    # one: the exact values rise to n=36 and then fall toward that limit
    grid = (16, 36, 64, 144, 256)
    rule = make_depth_rule("below-sqrt", 2.0, V1)
    depths = {}
    probs = {}
    for n in grid:
        d = max(1, math.floor(n / 2 - 2 * math.sqrt(n)))
        assert rule(n) == d, (n, rule(n), d)
        depths[n] = d
        probs[n] = _central_class_probability(n, d)
        if n <= 64:
            dist = build_distribution(n, d, V1)
            best = max(dist.entries, key=lambda e: e.size)
            assert best.probability == probs[n]
    for row in dominating_class_sweep(rule, V1, grid):
        d = depths[row.n]
        assert row.d == d, (row.n, row.d, d)
        assert row.candidate_probability == probs[row.n], row.n
        assert row.max_probability == probs[row.n], row.n
        assert row.max_tuple.entries == (d, d), (row.n, row.max_tuple.entries)
    values = [probs[n] for n in grid]
    limit = Fraction(math.erf(2 * math.sqrt(2)))
    exceeds = probs[256] > Fraction(95, 100)
    peak = max(grid, key=probs.__getitem__)
    tail = values[grid.index(36):]
    falling = all(a > b for a, b in zip(tail, tail[1:]))
    bounded_away = all(v > limit for v in values)
    ok = exceeds and peak == 36 and falling and bounded_away
    detail = ", ".join(f"{float(v):.7f}" for v in values)
    report(
        10,
        ok,
        f"d(n)=floor(n/2-2*sqrt(n)) central-class probabilities: {detail}; "
        f"peak at n=36, falling toward erf(2*sqrt(2)) = {float(limit):.7f}",
    )
    assert exceeds, f"probability at n=256 is {float(probs[256]):.7f}"
    assert peak == 36, f"largest value at n={peak}, not n=36: {detail}"
    assert falling, f"values do not fall strictly from n=36 on: {detail}"
    assert bounded_away, f"a value is not above {float(limit):.7f}: {detail}"


def test_criterion_10b_vanishing_at_half_depth():
    n = 256
    d = math.ceil(n / 2)
    dist = build_distribution(n, d, V1)
    top = max(dist.entries, key=lambda e: e.size).probability
    central = Fraction(math.comb(n, n // 2), 2**n)
    ok = top < Fraction(6, 100) and abs(float(top) - 0.0499) <= 0.01
    report(
        10,
        ok,
        f"d=n/2 max class probability {float(top):.6f} (central binomial "
        f"{float(central):.6f}) stays below 0.06",
    )
    assert top == central
    assert ok


if __name__ == "__main__":
    import sys

    import pytest

    sys.exit(pytest.main([__file__, "-v", "-s"]))
