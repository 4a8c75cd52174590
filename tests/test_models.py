import copy
import pickle
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gmlu.formulas import (
    And,
    BoxLt,
    BoxNeq,
    DiamondEq,
    DiamondGeq,
    Lit,
    Or,
    counting_depth,
    format_formula,
    size,
)
from gmlu.models import (
    ModelProfile,
    PointedProfile,
    VocabularyMismatchError,
    bounded_compositions,
    enumerate_profiles,
    evaluate,
    sat_types,
)
from gmlu.vocab import Vocabulary

from oracles import counts_of, eval_labeled_global, labeled_models, negate, read_formula
from test_formulas import sentences

V1 = Vocabulary(("p",))
V2 = Vocabulary(("p", "q"))


def test_box_lt_example():
    f = read_formula("[]<1 p")
    assert evaluate(ModelProfile((3, 0)), f, V1) is True
    assert evaluate(ModelProfile((2, 1)), f, V1) is False


def test_diamond_eq_example():
    f = read_formula("<>==2 p")
    assert evaluate(ModelProfile((2, 2)), f, V1) is True
    assert evaluate(ModelProfile((3, 1)), f, V1) is False


def test_pointed_examples():
    pm = PointedProfile(ModelProfile((1, 1)), 0)
    assert (pm.point_type in sat_types(read_formula("<>=2 p"), pm.profile, V1)) is False
    pm2 = PointedProfile(ModelProfile((1, 1)), 1)
    assert (pm2.point_type in sat_types(read_formula("<>=1 p"), pm2.profile, V1)) is True


def test_count_satisfying():
    # an inner formula, with a literal outside any modality
    f = Or(Lit("p"), DiamondGeq(3, Lit("q")))
    profile = ModelProfile((1, 2, 0, 1))
    satisfying = sum(profile.counts[i] for i in sat_types(f, profile, V2))
    assert satisfying == 3  # p-points only; <>=3 q fails


def test_vocabulary_mismatch():
    with pytest.raises(VocabularyMismatchError):
        evaluate(ModelProfile((1, 1)), read_formula("<>=1 p"), V2)


def test_profile_validation():
    with pytest.raises(ValueError):
        ModelProfile((0, 0))
    with pytest.raises(ValueError):
        PointedProfile(ModelProfile((1, 0)), 1)


def test_profile_records_hash_and_print_as_their_fields():
    profile = ModelProfile((1, 2))
    pm = PointedProfile(profile, 1)
    assert hash(profile) == hash(((1, 2),))
    assert hash(pm) == hash((profile, 1))
    assert repr(pm) == "PointedProfile(profile=ModelProfile(counts=(1, 2)), point_type=1)"
    with pytest.raises(AttributeError):
        profile.counts = (3, 0)
    with pytest.raises(AttributeError):
        pm.point_type = 0


def test_profile_records_keep_their_tuple_behaviour_with_n_cached():
    profile, bigger = ModelProfile((1, 2)), ModelProfile((2, 1))
    pm = PointedProfile(profile, 1)
    pickled = pickle.dumps(pm), pickle.dumps(profile)
    assert vars(profile) == {}
    assert profile.n == 3 and vars(profile) == {"n": 3}
    assert bigger.n == 3 and pm.profile is profile
    # the cached n changes none of the tuple behaviour
    assert profile == ModelProfile((1, 2)) == ((1, 2),)
    assert hash(profile) == hash(((1, 2),)) and hash(pm) == hash((profile, 1))
    assert profile < bigger and pm < PointedProfile(bigger, 0)
    assert sorted([PointedProfile(bigger, 0), pm]) == [pm, PointedProfile(bigger, 0)]
    assert repr(profile) == "ModelProfile(counts=(1, 2))"
    assert (pickle.dumps(pm), pickle.dumps(profile)) == pickled
    assert profile.__reduce_ex__(2)[2:] == (None, None, None)
    for copied in (pickle.loads(pickle.dumps(pm)), copy.deepcopy(pm), copy.copy(pm)):
        assert copied == pm and type(copied.profile) is ModelProfile
        assert copied.profile.n == 3
    for name in ("n", "counts", "other"):
        with pytest.raises(AttributeError):
            setattr(profile, name, 5)
    assert profile.n == 3


def test_enumerate_profiles_counts():
    assert sum(1 for _ in enumerate_profiles(5, V1)) == 6
    assert sum(1 for _ in enumerate_profiles(4, V2)) == 35  # C(4+3, 3)


def test_bounded_compositions_match_a_filtered_product():
    for bounds in ((0,), (3,), (2, 0, 1), (1, 3), (2, 2, 2, 1)):
        for total in range(-1, sum(bounds) + 2):
            expected = [
                v for v in product(*(range(b + 1) for b in bounds)) if sum(v) == total
            ]
            assert list(bounded_compositions(bounds, total)) == expected
    assert [p.counts for p in enumerate_profiles(3, V2)] == list(
        bounded_compositions((3, 3, 3, 3), 3)
    )


# Written out by hand, independently of the classes' own attributes: each
# kind's syntax and what an exact count adds to its grade in size and depth.
_KINDS = {
    DiamondGeq: ("<>=", 0), BoxLt: ("[]<", 0), DiamondEq: ("<>==", 1), BoxNeq: ("[]!=", 1)
}
# subformulas with their hand-counted size and counting depth
_SUBS = {
    V1: [(Lit("p"), "p", 1, 0), (Lit("p", False), "!p", 1, 0)],
    V2: [
        (And(Lit("p"), Lit("q", False)), "(p & !q)", 3, 0),
        (Or(Lit("p", False), Lit("q")), "(!p | q)", 3, 0),
        (DiamondGeq(2, Lit("q")), "<>=2 q", 3, 2),
    ],
}


@pytest.mark.parametrize("vocab, max_n", [(V1, 4), (V2, 3)])
def test_every_modality_at_its_boundary_grades(vocab, max_n):
    """Each kind at grades 0..n+1, on every labeled model of size n."""
    for n in range(1, max_n + 1):
        models = [
            (assignment, ModelProfile(counts_of(assignment, vocab.t)))
            for assignment in labeled_models(n, vocab.t)
        ]
        for kind, (token, extra) in _KINDS.items():
            for sub, sub_text, sub_size, sub_depth in _SUBS[vocab]:
                for k in range(n + 2):
                    f = kind(k, sub)
                    assert size(f) == k + extra + sub_size
                    assert counting_depth(f) == max(k + extra, sub_depth)
                    text = format_formula(f)
                    assert text == f"{token}{k} {sub_text}"
                    assert read_formula(text) == f
                    g = negate(f)
                    for assignment, profile in models:
                        value = eval_labeled_global(f, assignment, vocab)
                        assert evaluate(profile, f, vocab) == value
                        assert eval_labeled_global(g, assignment, vocab) == (not value)
                        assert evaluate(profile, g, vocab) == (not value)


@settings(max_examples=60, deadline=None)
@given(
    sentences(V2),
    st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4).filter(
        lambda cs: sum(cs) > 0
    ),
)
def test_point_independence_and_duality(f, counts):
    profile = ModelProfile(tuple(counts))
    value = evaluate(profile, f, V2)
    for i in profile.realized_types():
        pm = PointedProfile(profile, i)
        assert (pm.point_type in sat_types(f, pm.profile, V2)) == value
    assert evaluate(profile, negate(f), V2) == (not value)


@settings(max_examples=40, deadline=None)
@given(sentences(V2, max_grade=2))
def test_profiles_agree_with_labeled_models(f):
    """Truth only depends on type counts: the labeled-model evaluator and
    the profile evaluator must agree on every labeled model of size 3."""
    for assignment in labeled_models(3, V2.t):
        profile = ModelProfile(counts_of(assignment, V2.t))
        assert eval_labeled_global(f, assignment, V2) == evaluate(profile, f, V2)


def test_equal_counts_evaluate_identically():
    """Two explicit labeled models with the same counts satisfy the same
    formulas (exhaustive over size-4 labeled models, fixed formula set)."""
    fs = [
        read_formula(text)
        for text in (
            "<>=2 (p & q)",
            "[]<2 (p | !q)",
            "<>==1 q & <>=1 !p",
            "[]!=2 p | <>==0 (q & !p)",
        )
    ]
    by_counts = {}
    for assignment in labeled_models(4, V2.t):
        key = counts_of(assignment, V2.t)
        values = tuple(eval_labeled_global(f, assignment, V2) for f in fs)
        assert by_counts.setdefault(key, values) == values
