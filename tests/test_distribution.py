import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gmlu import complexity, distribution
from gmlu.classes import AdmissibleTuple, class_size, enumerate_admissible
from gmlu.complexity import upper_bound
from gmlu.distribution import (
    ClassDistribution,
    ClassEntry,
    boltzmann_entropy,
    build_distribution,
    comparability_constant,
    dominating_class_sweep,
    entropy_vs_depth,
    estimate_separation_probability,
    exact_separation_probability,
    majority_report,
    make_depth_rule,
    phase_constants,
    shannon_entropy,
    verify_monotone_connection,
)
from gmlu.models import ModelProfile
from gmlu.vocab import Vocabulary

from oracles import choices_counts, choices_separation, multinomial

V1 = Vocabulary(("p",))
V2 = Vocabulary(("p", "q"))


# -- distributions and entropies ----------------------------------------------


def test_distribution_n3_d1():
    dist = build_distribution(3, 1, V1)
    table = {e.tup.entries: (e.size, e.probability) for e in dist.entries}
    assert table == {
        (0, 1): (1, Fraction(1, 8)),
        (1, 0): (1, Fraction(1, 8)),
        (1, 1): (6, Fraction(3, 4)),
    }


def test_distribution_n1_symmetric():
    dist = build_distribution(1, 1, V1)
    assert [e.probability for e in dist.entries] == [Fraction(1, 2), Fraction(1, 2)]


def test_distribution_n4_d2():
    dist = build_distribution(4, 2, V1)
    table = {e.tup.entries: e.size for e in dist.entries}
    assert table == {(0, 2): 1, (1, 2): 4, (2, 0): 1, (2, 1): 4, (2, 2): 6}


def test_probabilities_sum_to_one_exactly():
    for vocab in (V1, V2):
        for n in range(1, 9 if vocab is V1 else 6):
            for d in range(1, n + 1):
                dist = build_distribution(n, d, vocab)
                assert sum(e.probability for e in dist.entries) == 1


def test_entropy_worked_example():
    dist = build_distribution(3, 1, V1)
    h_b = boltzmann_entropy(dist)
    h_s = shannon_entropy(dist)
    assert h_b == pytest.approx(0.75 * math.log2(6), abs=1e-12)
    assert h_b == pytest.approx(1.93872, abs=5e-6)
    assert h_s == pytest.approx(1.06128, abs=5e-6)
    assert h_s + h_b == pytest.approx(3.0, abs=1e-9)


def test_single_class_degenerate_entropies():
    dist = ClassDistribution(
        3, 3, V1, (ClassEntry(AdmissibleTuple((3, 0), 3, 3), 8),)
    )
    assert shannon_entropy(dist) == 0.0
    assert boltzmann_entropy(dist) == 3.0  # log2 of t^n


def test_entropy_identity_everywhere():
    for vocab in (V1, V2):
        for n in range(1, 9 if vocab is V1 else 6):
            for d in range(1, n + 1):
                dist = build_distribution(n, d, vocab)
                total = shannon_entropy(dist) + boltzmann_entropy(dist)
                assert abs(total - n * len(vocab.symbols)) < 1e-9


def test_entropies_are_the_fsum_of_the_per_class_terms():
    # the reduction feeds each distinct class size's terms to fsum once per
    # class; the reference stores one term per class
    for vocab, n, d in ((V1, 40, 7), (V2, 24, 6), (Vocabulary(("p", "q", "r")), 12, 3)):
        dist = build_distribution(n, d, vocab)
        denom = vocab.t**n
        log_denom = math.log2(denom)
        shannon = [e.size / denom * (log_denom - math.log2(e.size)) for e in dist.entries]
        boltzmann = [e.size / denom * math.log2(e.size) for e in dist.entries]
        assert dist.entropies == (math.fsum(shannon), math.fsum(boltzmann)), (n, d)


def test_entropy_vs_depth_n8():
    rows = entropy_vs_depth(8, V1)
    shannons = [row.shannon for row in rows]
    assert shannons[0] < shannons[1] < shannons[2] < shannons[3]
    assert shannons[3] == shannons[4] == shannons[7]
    boltzmanns = [row.boltzmann for row in rows]
    assert boltzmanns[0] > boltzmanns[1] > boltzmanns[2] > boltzmanns[3]
    assert boltzmanns[3] == boltzmanns[7]
    # from d >= n/2 on the classes coincide, so both entropies are
    # exactly constant, not merely up to summation order
    for vocab in (V1, V2):
        for n in (8, 9, 12):
            rows = entropy_vs_depth(n, vocab)
            pivot = rows[math.ceil(n / 2) - 1]
            for row in rows[math.ceil(n / 2):]:
                assert (row.shannon, row.boltzmann) == (
                    pivot.shannon, pivot.boltzmann
                ), (vocab.symbols, n, row.d)


def test_boltzmann_over_isomorphism_classes_is_expected_log_multinomial():
    # at d >= n every class is an isomorphism class of size multinomial(n; counts)
    n = 6
    dist = build_distribution(n, n, V1)
    expected = sum(
        Fraction(multinomial(n, [a, n - a]), 2**n)
        * math.log2(multinomial(n, [a, n - a]))
        for a in range(n + 1)
    )
    assert boltzmann_entropy(dist) == pytest.approx(float(expected), abs=1e-12)


def test_entropy_constant_from_half_n_as_partitions_coincide():
    for n in (2, 5, 6):
        pivot = math.ceil(n / 2)
        base = sorted(e.size for e in build_distribution(n, pivot, V1).entries)
        for d in range(pivot, n + 1):
            sizes = sorted(e.size for e in build_distribution(n, d, V1).entries)
            assert sizes == base


# -- phase constants and majority ------------------------------------------------


def test_phase_constants_t2():
    consts = phase_constants(V1)
    assert consts.t == 2
    assert consts.c1 == pytest.approx(1.17741, abs=5e-6)
    # sqrt(pi / (2 t^3 (4t)^(1/(t-1)))) at t=2 is sqrt(pi/128)
    assert consts.c2 == pytest.approx(math.sqrt(math.pi / 128), abs=1e-12)
    assert consts.c2 < consts.c1


def test_phase_constants_t4():
    consts = phase_constants(V2)
    assert consts.c1 == pytest.approx(math.sqrt(8 * math.log(8)) / 4, abs=1e-12)
    assert consts.c1 == pytest.approx(1.02, abs=5e-3)
    assert consts.c2 < consts.c1


def test_majority_n64_d1():
    rep = majority_report(64, 1, V1)
    assert rep.has_majority
    assert rep.max_tuple.entries == (1, 1)
    assert rep.regime == "majority (d <= n/t - c1*sqrt(n))"


def test_majority_n64_d32_none():
    rep = majority_report(64, 32, V1)
    assert not rep.has_majority
    assert rep.max_probability == Fraction(math.comb(64, 32), 2**64)


def test_majority_n4_d2():
    rep = majority_report(4, 2, V1)
    assert rep.candidate is not None
    assert rep.candidate_probability == Fraction(6, 16)
    assert not rep.has_majority


def test_majority_four_types():
    rep = majority_report(8, 1, V2)
    # all four types realized at least once, by inclusion-exclusion
    expected = Fraction(
        sum((-1) ** k * math.comb(4, k) * (4 - k) ** 8 for k in range(5)), 4**8
    )
    assert rep.candidate_probability == expected == Fraction(5103, 8192)
    assert rep.has_majority
    # at depth 2 the all-capped tuple is no longer the largest class
    rep2 = majority_report(8, 2, V2)
    assert rep2.max_tuple.entries == (1, 2, 2, 2)
    assert not rep2.has_majority


# -- orbit reductions against the per-tuple distribution -------------------------


def test_orbit_reductions_match_per_tuple_reference():
    grids = [(V1, n, d) for n in range(1, 15) for d in range(1, n + 2)]
    grids += [(V2, n, d) for n in range(1, 9) for d in range(1, n + 2)]
    ties = 0
    for vocab, n, d in grids:
        dist = build_distribution(n, d, vocab)
        best = max(dist.entries, key=lambda e: e.size)
        ties += sum(e.size == best.size for e in dist.entries) > 1
        candidate = next(
            (e for e in dist.entries if e.tup.entries == (d,) * vocab.t), None
        )
        candidate_probability = candidate.probability if candidate else 0
        rep = majority_report(n, d, vocab)
        assert rep.max_tuple == best.tup, (vocab.symbols, n, d)
        assert rep.max_probability == best.probability
        assert rep.candidate == (candidate.tup if candidate else None)
        assert rep.candidate_probability == candidate_probability
        assert rep.has_majority == (best.probability > Fraction(1, 2))
        (row,) = dominating_class_sweep(lambda _: d, vocab, [n])
        assert (row.max_tuple, row.max_probability) == (best.tup, best.probability)
        assert row.candidate_probability == candidate_probability
        assert exact_separation_probability(n, d, vocab) == 1 - sum(
            e.probability**2 for e in dist.entries
        )
    assert ties > 0
    for vocab, n in [(V1, 14), (V2, 8)]:
        for row in entropy_vs_depth(n, vocab):
            dist = build_distribution(n, row.d, vocab)
            assert row.class_count == len(dist.entries)
            assert abs(row.shannon - shannon_entropy(dist)) < 1e-12
            assert abs(row.boltzmann - boltzmann_entropy(dist)) < 1e-12


# -- sampling ---------------------------------------------------------------------


def draw_profiles(rng, n: int, vocab: Vocabulary, count: int) -> list[ModelProfile]:
    """count uniform random models on n points, drawn as the sampler draws
    each model of a pair."""
    return [ModelProfile(tuple(distribution._draw_counts(rng, n, vocab.t)))
            for _ in range(count)]


def test_sampling_is_deterministic():
    a = draw_profiles(random.Random(7), 10, V1, 50)
    b = draw_profiles(random.Random(7), 10, V1, 50)
    assert a == b
    assert a != draw_profiles(random.Random(8), 10, V1, 50)


def test_sampling_mean_concentration():
    profiles = draw_profiles(random.Random(123), 100, V1, 10**5)
    mean = sum(p.counts[0] for p in profiles) / len(profiles)
    assert abs(mean - 50) <= 3 * 5  # within 3 per-sample sigma of n/t


def test_sampling_unit_profiles():
    for profile in draw_profiles(random.Random(0), 1, V2, 20):
        assert sorted(profile.counts) == [0, 0, 0, 1]


def test_sampled_frequencies_match_exact_probabilities():
    n, d, trials = 6, 2, 10**5
    dist = build_distribution(n, d, V1)
    freq = Counter(
        tuple(min(c, d) for c in p.counts)
        for p in draw_profiles(random.Random(2024), n, V1, trials)
    )
    for entry in dist.entries:
        p = float(entry.probability)
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(freq[entry.tup.entries] / trials - p) <= 4 * se + 1e-12


def test_separation_probability_exact_and_sampled():
    exact = exact_separation_probability(4, 4, V1)
    assert exact == 1 - sum(
        Fraction(math.comb(4, a), 16) ** 2 for a in range(5)
    )
    sampled = estimate_separation_probability(4, 4, V1, trials=20000, seed=9)
    se = math.sqrt(float(exact) * (1 - float(exact)) / 20000)
    assert abs(sampled - float(exact)) <= 4 * se


def test_separation_low_depth_rarely_separates():
    # both types almost surely show up at least once when n is large
    assert estimate_separation_probability(400, 1, V1, trials=2000, seed=5) == 0.0


_Random = random.Random


class _KeptRandom(_Random):
    """random.Random that remembers every instance, so a test can read the
    generator state a sampler leaves behind."""

    made: list = []

    def __init__(self, seed):
        super().__init__(seed)
        self.made.append(self)


# The sampler rests on how CPython's random() and getrandbits consume Mersenne
# Twister words, so an interpreter that changes either fails here first.
# |tau| = 1, 2, 3 and 8 take the word-reading draw, 9 (t = 512) the fallback.
# Whole trials are drawn a block of 2^12 points at a time: 33 trials at n=63
# end one trial into the second block, n=2,048 fills a block with one trial,
# and from n=2,049 on each model is drawn alone (70,000 points span 18 blocks).
DRAW_GRID = [(1, 1, 1, 200), (1, 2, 1, 200), (1, 3, 1, 200), (1, 8, 1, 20),
             (1, 9, 1, 20), (100, 1, 2, 500), (64, 2, 16, 500), (12, 3, 3, 300),
             (40, 8, 1, 10), (40, 9, 1, 10), (63, 2, 16, 33), (2048, 1, 1024, 3),
             (2049, 1, 1024, 3), (300, 8, 2, 5), (300, 9, 1, 3),
             (70_000, 1, 35_000, 2), (70_000, 2, 17_500, 2)]


def test_sampling_matches_the_choices_draw_and_its_generator_state(monkeypatch):
    monkeypatch.setattr(distribution.random, "Random", _KeptRandom)
    for n, k, d, trials in DRAW_GRID:
        vocab = Vocabulary(tuple(f"s{i}" for i in range(k)))
        t = vocab.t
        _KeptRandom.made.clear()
        sampled = estimate_separation_probability(n, d, vocab, trials, seed=n + k)
        (used,) = _KeptRandom.made
        profile_rng = _Random(n + k)
        profiles = draw_profiles(profile_rng, n, vocab, trials)

        ref = _Random(n + k)
        assert sampled == choices_separation(n, d, t, trials, ref), (n, k)
        assert used.getstate() == ref.getstate(), (n, k)
        ref = _Random(n + k)
        assert profiles == [ModelProfile(tuple(choices_counts(ref, n, t)))
                            for _ in range(trials)], (n, k)
        assert profile_rng.getstate() == ref.getstate(), (n, k)


# -- sweeps -----------------------------------------------------------------------


def test_depth_rules():
    below = make_depth_rule("below-sqrt", 2.0, V1)
    assert below(16) == max(1, 8 - 8) == 1
    assert below(64) == 16
    quarter = make_depth_rule("below-quarter", 1.0, V1)
    assert quarter(16) == 6
    above = make_depth_rule("above-sqrt", 0.0, V1)
    assert above(256) == 128
    with pytest.raises(ValueError):
        make_depth_rule("nope", 1.0, V1)


def test_dominating_sweep_low_depth_tends_to_one():
    rows = dominating_class_sweep(lambda n: 1, V1, [4, 8, 16, 32])
    probs = [row.candidate_probability for row in rows]
    assert probs == sorted(probs)
    # both types present: inclusion-exclusion gives (2^n - 2) / 2^n
    assert probs[-1] == Fraction(2**32 - 2, 2**32)


def test_dominating_sweep_half_depth_vanishes():
    rows = dominating_class_sweep(
        lambda n: n // 2, V1, [8, 32, 128]
    )
    probs = [float(row.max_probability) for row in rows]
    assert probs == sorted(probs, reverse=True)
    assert probs[-1] == pytest.approx(
        math.comb(128, 64) / 2**128, rel=1e-12
    )


# -- monotone connection ------------------------------------------------------------


def test_comparability_constant():
    assert comparability_constant(V1) == 5
    assert comparability_constant(V2) == 19


def test_monotone_exact_mode_is_vacuous_at_tiny_scale():
    for n in range(1, 6):
        for d in range(1, min(n, 3) + 1):
            rep = verify_monotone_connection(n, d, V1, mode="exact")
            assert rep.pair_count == 0 and rep.ok


def test_monotone_bounds_mode_small_grid():
    rep = verify_monotone_connection(26, 6, V1, mode="bounds")
    assert rep.pair_count > 0
    assert rep.ok


def test_monotone_comparable_pair_example():
    # (1, d) against (2 + c_tau, d) is comparable once entries allow it
    d = 8
    n = 40
    rep = verify_monotone_connection(n, d, V1, mode="bounds")
    pairs_exist = rep.pair_count > 0
    assert pairs_exist and rep.ok


@pytest.mark.parametrize("n, d", [(30, 9), (40, 8)])
def test_monotone_bounds_mode_matches_a_plain_pair_walk(monkeypatch, n, d):
    """With a made-up lower bound some comparable pairs fail and some pass;
    the report's pair count and failures equal a walk over all ordered
    tuple pairs."""

    def fake_lower(tup):
        return sum(tup.entries) - 13

    monkeypatch.setattr(complexity, "lower_bound", fake_lower)
    rep = verify_monotone_connection(n, d, V1, mode="bounds")
    tuples = enumerate_admissible(n, d, V1)
    pairs = [
        (a, b) for a in tuples for b in tuples
        if all(x <= y for x, y in zip(a.entries, b.entries))
        and sum(b.entries) - sum(a.entries) > comparability_constant(V1)
    ]
    failing = {
        (a, b) for a, b in pairs
        if not (upper_bound(a, V1).value < fake_lower(b)
                and class_size(a) < class_size(b))
    }
    assert rep.pair_count == len(pairs)
    assert 0 < len(failing) < len(pairs)
    assert {(f.smaller, f.larger) for f in rep.failures} == failing
    for f in rep.failures:
        assert (f.smaller_size, f.larger_size) == (
            class_size(f.smaller), class_size(f.larger)
        )
        assert f.smaller_complexity == upper_bound(f.smaller, V1).value
        assert f.larger_complexity == fake_lower(f.larger)


def test_monotone_exact_mode_fails_pairs_of_equal_complexity(monkeypatch):
    """Exact mode asks for a strictly smaller complexity on the smaller
    side of a pair: with every class made equally complex, each comparable
    pair (whose sizes differ) fails.  No search runs."""
    monkeypatch.setattr(complexity, "exact_complexity", lambda *a, **k: 7)
    rep = verify_monotone_connection(26, 6, V1, mode="exact")
    assert rep.pair_count == 2
    assert len(rep.failures) == 2
    for f in rep.failures:
        assert f.smaller_size < f.larger_size
        assert f.smaller_complexity == f.larger_complexity == 7


def test_monotone_mode_validation():
    with pytest.raises(ValueError):
        verify_monotone_connection(4, 1, V1, mode="fast")
