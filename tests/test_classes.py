from collections import Counter

import pytest

from gmlu.classes import (
    AdmissibleTuple,
    check_class_size_monotonicity,
    check_one_more_d,
    check_one_more_element,
    class_size,
    enumerate_admissible,
    enumerate_orbits,
    tuple_of_profile,
)
from gmlu.combinatorics import multinomial
from gmlu.models import ModelProfile
from gmlu.vocab import Vocabulary

from oracles import brute_class_counts

V1 = Vocabulary(("p",))
V2 = Vocabulary(("p", "q"))
V3 = Vocabulary(("p", "q", "r"))


def distinct_permutations(entries):
    if not entries:
        yield ()
        return
    for v in sorted(set(entries)):
        rest = list(entries)
        rest.remove(v)
        for tail in distinct_permutations(rest):
            yield (v,) + tail


def test_tuple_of_profile_caps_counts():
    assert tuple_of_profile(ModelProfile((3, 0)), 1).entries == (1, 0)
    assert tuple_of_profile(ModelProfile((5, 4)), 2).entries == (2, 2)
    assert tuple_of_profile(ModelProfile((2, 2)), 3).entries == (2, 2)


def test_admissibility_validation():
    with pytest.raises(ValueError):
        AdmissibleTuple((1, 1), 3, 2)  # no cap reached, sum below n
    with pytest.raises(ValueError):
        AdmissibleTuple((3, 1), 3, 2)  # entry above d
    with pytest.raises(ValueError):
        AdmissibleTuple((2, 2), 3, 2)  # sum above n


def test_enumerate_examples():
    assert [t.entries for t in enumerate_admissible(3, 1, V1)] == [
        (0, 1), (1, 0), (1, 1),
    ]
    assert [t.entries for t in enumerate_admissible(1, 1, V1)] == [(0, 1), (1, 0)]
    assert [t.entries for t in enumerate_admissible(2, 2, V1)] == [
        (0, 2), (1, 1), (2, 0),
    ]


def test_enumerate_is_unique_and_lexicographic():
    tuples = [t.entries for t in enumerate_admissible(6, 2, V2)]
    assert len(set(tuples)) == len(tuples)
    assert tuples == sorted(tuples)


def test_orbits_expand_to_the_admissible_tuples():
    for vocab in (V1, V2, V3):
        for n in range(1, 9):
            for d in range(1, n + 2):
                tuples = [t.entries for t in enumerate_admissible(n, d, vocab)]
                orbits = enumerate_orbits(n, d, vocab)
                expanded = []
                for rep, multiplicity in orbits:
                    assert (rep.n, rep.d) == (n, d)
                    assert list(rep.entries) == sorted(rep.entries, reverse=True)
                    perms = list(distinct_permutations(rep.entries))
                    assert multiplicity == len(perms), (rep, multiplicity)
                    values = Counter(rep.entries).values()
                    assert multiplicity == multinomial(vocab.t, list(values)), rep
                    expanded.extend(perms)
                assert sorted(expanded) == tuples, (vocab.symbols, n, d)
                assert sum(w for _, w in orbits) == len(tuples)


def test_class_size_examples():
    assert class_size(AdmissibleTuple((1, 1), 3, 1)) == 6
    assert class_size(AdmissibleTuple((0, 1), 3, 1)) == 1
    assert class_size(AdmissibleTuple((2, 2), 4, 2)) == 6


def test_class_size_matches_brute_force():
    for vocab in (V1, V2):
        for n in range(1, 7 if vocab is V2 else 9):
            for d in range(1, n + 1):
                brute = brute_class_counts(n, d, vocab)
                tuples = enumerate_admissible(n, d, vocab)
                assert {t.entries for t in tuples} == set(brute)
                for t in tuples:
                    assert class_size(t) == brute[t.entries], (t, n, d)


def test_partition_identity():
    for vocab in (V1, V2):
        for n in range(1, 13 if vocab is V1 else 9):
            for d in range(1, n + 1):
                total = sum(class_size(t) for t in enumerate_admissible(n, d, vocab))
                assert total == vocab.t**n


def test_class_size_is_symmetric_under_entry_permutation():
    tup = AdmissibleTuple((0, 1, 2, 3), 8, 3)
    for perm in [(3, 2, 1, 0), (1, 0, 3, 2), (2, 3, 0, 1)]:
        permuted = AdmissibleTuple(tuple(tup.entries[i] for i in perm), 8, 3)
        assert class_size(permuted) == class_size(tup)


def test_determined_count():
    tup = AdmissibleTuple((1, 3), 10, 3)
    assert tup.determined_count(0) == 1
    assert tup.determined_count(1) == 9  # single capped entry, so pinned down
    both = AdmissibleTuple((3, 3), 10, 3)
    assert both.determined_count(0) is None


def test_one_more_element():
    rec = check_one_more_element(AdmissibleTuple((0, 3), 12, 3), 0)
    assert (rec.base_size, rec.other_size) == (1, 12)
    assert rec.strictly_increases
    with pytest.raises(ValueError):
        check_one_more_element(AdmissibleTuple((2, 3), 12, 3), 0)


def test_one_more_d():
    rec = check_one_more_d(AdmissibleTuple((1, 2), 12, 2), 0)
    assert rec.base_size == 12
    assert rec.other_size == 2**12 - 2 * (1 + 12)  # both types at least twice
    assert rec.strictly_increases
    with pytest.raises(ValueError):
        check_one_more_d(AdmissibleTuple((2, 2), 12, 2), 0)


def test_monotonicity_all_pairs_pass_at_n16():
    report = check_class_size_monotonicity(16, 2, V1)
    assert report.pairs and report.all_pass


def test_monotonicity_example_pair():
    report = check_class_size_monotonicity(3, 1, V1)
    sizes = {
        (rec.base.entries, rec.other.entries): (rec.base_size, rec.other_size)
        for rec in report.pairs
    }
    assert sizes[((1, 0), (1, 1))] == (1, 6)
    assert report.all_pass


def test_monotonicity_small_n_failure_is_reported():
    vocab = Vocabulary(("p", "q"))
    report = check_class_size_monotonicity(3, 1, vocab, sweep_limit=8)
    bad = {(rec.base.entries, rec.other.entries) for rec in report.failures}
    assert ((1, 1, 0, 0), (1, 1, 1, 0)) in bad  # both classes have 6 models
    # n=4 still fails ((1,1,1,0) beats (1,1,1,1), 36 > 24); n=5 onward passes
    assert report.minimal_all_pass_n == 5
