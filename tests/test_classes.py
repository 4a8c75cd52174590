import copy
import pickle
from collections import Counter

import pytest

from gmlu import distribution
from gmlu.classes import (
    AdmissibleTuple,
    _admissible_entries,
    admissible_count,
    check_enumeration_cap,
    class_size,
    enumerate_admissible,
    enumerate_orbits,
    tuple_of_profile,
)
from gmlu.config import ScaleCapError, SearchCaps, caps_from_env
from gmlu.models import ModelProfile
from gmlu.vocab import Vocabulary

from oracles import brute_class_counts, multinomial, reference_class_size

V1 = Vocabulary(("p",))
V2 = Vocabulary(("p", "q"))
V3 = Vocabulary(("p", "q", "r"))
V4 = Vocabulary(("p", "q", "r", "s"))


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
    for vocab, max_n in ((V1, 8), (V2, 12), (V3, 8), (V4, 6)):
        for n in range(1, max_n + 1):
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


def test_class_size_matches_the_reference_formula():
    # past brute force: d < n, several capped entries, large n
    for vocab, n, d in ((V3, 12, 3), (V2, 64, 16), (V2, 24, 10), (V1, 256, 128)):
        for t in enumerate_admissible(n, d, vocab):
            assert class_size(t) == reference_class_size(t), t


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


def test_one_more_element():
    base, other = AdmissibleTuple((0, 3), 12, 3), AdmissibleTuple((1, 3), 12, 3)
    assert (class_size(base), class_size(other)) == (1, 12)


def test_one_more_d():
    base, other = AdmissibleTuple((1, 2), 12, 2), AdmissibleTuple((2, 2), 12, 2)
    assert class_size(base) == 12
    assert class_size(other) == 2**12 - 2 * (1 + 12)  # both types at least twice


def _successor_sizes(n, d, vocab):
    """Class sizes of each admissible tuple whose entries sum below n and
    of each successor, one more point in an entry below d, keyed by the
    two entry tuples."""
    sizes = {}
    for tup in enumerate_admissible(n, d, vocab):
        if sum(tup.entries) == n:
            continue
        for i, e in enumerate(tup.entries):
            if e < d:
                up = tup.entries[:i] + (e + 1,) + tup.entries[i + 1:]
                sizes[tup.entries, up] = (
                    class_size(tup), class_size(AdmissibleTuple(up, n, d))
                )
    return sizes


def _failing_steps(n, d, vocab):
    return {pair for pair, (a, b) in _successor_sizes(n, d, vocab).items() if a >= b}


def test_monotonicity_all_pairs_pass_at_n16():
    assert _successor_sizes(16, 2, V1) and not _failing_steps(16, 2, V1)


def test_monotonicity_example_pair():
    assert _successor_sizes(3, 1, V1)[(1, 0), (1, 1)] == (1, 6)
    assert not _failing_steps(3, 1, V1)


def test_monotonicity_small_n_failure_is_reported():
    assert ((1, 1, 0, 0), (1, 1, 1, 0)) in _failing_steps(3, 1, V2)  # 6 and 6
    # n=4 still fails ((1,1,1,0) beats (1,1,1,1), 36 > 24); n=5 onward passes
    assert [n for n in range(3, 9) if _failing_steps(n, 1, V2)] == [3, 4]


def test_admissible_count_matches_the_enumeration():
    for t in (1, 2, 4, 8):
        for n in range(1, 8 if t < 8 else 5):
            for d in range(1, n + 2):
                assert admissible_count(n, d, t) == len(
                    _admissible_entries(n, d, t, False)
                ), (n, d, t)


def test_enumeration_cap_counts_tuples_exactly():
    # 3 tuples of 2 entries: (0, 1), (1, 0) and (1, 1)
    check_enumeration_cap(3, 1, V1, SearchCaps(enumerate_max_entries=6))
    with pytest.raises(ScaleCapError, match="admissible-tuple entries 6 exceeds"
                       " the cap 5; set GMLU_ENUMERATE_MAX_ENTRIES to raise it"):
        check_enumeration_cap(3, 1, V1, SearchCaps(enumerate_max_entries=5))


def test_enumeration_cap_refuses_a_huge_count_without_counting_it(monkeypatch):
    # t = 2^13 types at n = 8192, d = 2: the exact count takes tens of
    # seconds, while the 2^8190 tuples of 2 and then 0s and 1s already
    # pass the cap
    monkeypatch.setattr("gmlu.classes.admissible_count", None)
    vocab = Vocabulary(tuple(f"s{i}" for i in range(13)))
    with pytest.raises(ScaleCapError, match=r"^admissible-tuple entries above 2\^\d+ "
                       "exceeds the cap 4194304; set GMLU_ENUMERATE_MAX_ENTRIES"):
        check_enumeration_cap(8192, 2, vocab, SearchCaps())


def test_search_caps_take_keywords_and_environment(monkeypatch):
    caps = SearchCaps(game_max_n=5, enumerate_max_entries=9)
    assert (caps.game_max_n, caps.enumerate_max_entries, caps.exact_max_n) == (5, 9, 6)
    monkeypatch.setenv("GMLU_EXACT_MAX_D", "5")
    assert caps_from_env() == SearchCaps(exact_max_d=5)
    monkeypatch.setenv("GMLU_GAME_MAX_N", "four")
    with pytest.raises(ValueError) as exc:
        caps_from_env()
    assert str(exc.value) == (
        "environment override GMLU_GAME_MAX_N='four' is not an integer"
    )


def test_admissible_tuple_is_an_immutable_value():
    tup = AdmissibleTuple((1, 2), 4, 2)
    assert tup == AdmissibleTuple((1, 2), 4, 2) != AdmissibleTuple((2, 1), 4, 2)
    assert tup != ((1, 2), 4, 2)
    assert hash(tup) == hash(((1, 2), 4, 2))
    assert repr(tup) == "AdmissibleTuple(entries=(1, 2), n=4, d=2)"
    with pytest.raises(AttributeError):
        tup.n = 5
    with pytest.raises(AttributeError):
        del tup.d
    with pytest.raises(AttributeError):
        tup.extra = 1
    assert copy.copy(tup) == pickle.loads(pickle.dumps(tup)) == tup


def test_class_entry_is_an_immutable_value():
    entry = distribution.build_distribution(3, 1, V1).entries[0]
    assert entry == distribution.ClassEntry(AdmissibleTuple((0, 1), 3, 1), 1)
    assert hash(entry) == hash((entry.tup, 1))
    assert repr(entry) == (
        "ClassEntry(tup=AdmissibleTuple(entries=(0, 1), n=3, d=1), size=1)"
    )
    with pytest.raises(AttributeError):
        entry.size = 2
    assert entry != (entry.tup, 1)
    assert copy.copy(entry) == pickle.loads(pickle.dumps(entry)) == entry


def test_distribution_entropies_are_computed_once(monkeypatch):
    calls = []
    entropies = distribution._entropies
    monkeypatch.setattr(distribution, "_entropies",
                        lambda *a: calls.append(a) or entropies(*a))
    dist = distribution.build_distribution(3, 1, V1)
    h_s = distribution.shannon_entropy(dist)
    h_b = distribution.boltzmann_entropy(dist)
    assert distribution.shannon_entropy(dist) == h_s
    assert (len(calls), h_s + h_b) == (1, 3.0)
    with pytest.raises(AttributeError):
        dist.n = 4
