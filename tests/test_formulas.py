import pytest
from hypothesis import example, given, settings, strategies as st

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
from gmlu.vocab import Vocabulary

from oracles import negate, read_formula

V2 = Vocabulary(("p", "q"))


# -- reading -----------------------------------------------------------------


def test_parse_modalities():
    assert read_formula("<>=1 p") == DiamondGeq(1, Lit("p"))
    assert read_formula("[]<1 p") == BoxLt(1, Lit("p"))
    assert read_formula("<>==2 !p") == DiamondEq(2, Lit("p", False))
    assert read_formula("[]!=0 p") == BoxNeq(0, Lit("p"))


def test_parse_is_whitespace_insensitive():
    a = read_formula("<>=1p&<>==0!q")
    b = read_formula("  <>= 1  p   &   <>== 0  ! q ")
    assert a == b == And(DiamondGeq(1, Lit("p")), DiamondEq(0, Lit("q", False)))


def test_parse_precedence_and_parens():
    f = read_formula("<>=1 p | <>=1 q & []<1 p")
    assert isinstance(f, Or) and isinstance(f.right, And)
    g = read_formula("<>=1 (p | q & !p)")
    assert g == DiamondGeq(1, Or(Lit("p"), And(Lit("q"), Lit("p", False))))


@pytest.mark.parametrize("text", [
    "<>=1 p q", "<>=1 p)", "(<>=1 p", "<>=1 (p | q", "<>=1 p # <>=1 q", "<>1 p",
    "<>=p", "<>=1", "<>=1 p &", "<>=1 !(p)", "",
])
def test_read_formula_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        read_formula(text)


# -- measures ----------------------------------------------------------------


def test_size_clauses():
    assert size(Lit("p")) == 1
    assert size(read_formula("[]<1 p")) == 2
    f = DiamondEq(3, And(Lit("p"), Lit("q", False)))
    assert size(f) == 3 + (1 + 1 + 1) + 1 == 7


def test_counting_depth_clauses():
    assert counting_depth(read_formula("[]<1 p")) == 1
    assert counting_depth(read_formula("<>==2 p")) == 3
    nested = read_formula("<>=1 <>=4 p")
    assert counting_depth(nested) == 4


def test_depth_of_booleans_is_max():
    f = read_formula("<>=2 p & <>==2 p")
    assert counting_depth(f) == 3


# -- negation ----------------------------------------------------------------


def test_negate_duals():
    assert negate(DiamondGeq(2, Lit("p"))) == BoxLt(2, Lit("p", False))
    assert negate(DiamondEq(1, Lit("p", False))) == BoxNeq(1, Lit("p"))
    assert negate(And(Lit("p"), Lit("q"))) == Or(Lit("p", False), Lit("q", False))


# -- record semantics --------------------------------------------------------


@pytest.mark.parametrize("kind, other", [
    (And, Or), (DiamondGeq, BoxLt), (DiamondEq, BoxNeq), (DiamondGeq, DiamondEq),
])
def test_kinds_with_equal_fields_differ(kind, other):
    a, b = (Lit("p"), Lit("q")) if kind is And else (1, Lit("p"))
    assert kind(a, b) != other(a, b)
    assert not kind(a, b) == other(a, b)
    assert len({kind(a, b), other(a, b)}) == 2
    assert kind(a, b) == kind(a, b)
    assert not kind(a, b) != kind(a, b)
    assert kind(a, b) != (a, b) and (a, b) != kind(a, b)
    assert not kind(a, b) == (a, b)
    assert Lit("p") != ("p", True)


def test_formula_hash_is_the_hash_of_its_fields():
    f = DiamondEq(2, And(Lit("p"), Lit("q", False)))
    assert hash(f) == hash((2, And(Lit("p"), Lit("q", False))))
    assert hash(f.sub) == hash((Lit("p"), Lit("q", False)))
    assert hash(Lit("p")) == hash(("p", True))


def test_formula_repr_names_its_fields():
    assert repr(BoxLt(1, Or(Lit("p"), Lit("q", False)))) == (
        "BoxLt(grade=1, sub=Or(left=Lit(symbol='p', positive=True), "
        "right=Lit(symbol='q', positive=False)))"
    )


@pytest.mark.parametrize("f, field", [
    (Lit("p"), "positive"), (And(Lit("p"), Lit("q")), "left"),
    (DiamondGeq(1, Lit("p")), "grade"),
])
def test_formula_fields_cannot_be_assigned(f, field):
    with pytest.raises(AttributeError):
        setattr(f, field, None)


# -- random formulas ---------------------------------------------------------


def formulas(vocab, max_grade=3):
    literal = st.builds(
        Lit, st.sampled_from(vocab.symbols), st.booleans()
    )
    grade = st.integers(min_value=0, max_value=max_grade)

    def extend(children):
        return st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(DiamondGeq, grade, children),
            st.builds(BoxLt, grade, children),
            st.builds(DiamondEq, grade, children),
            st.builds(BoxNeq, grade, children),
        )

    return st.recursive(literal, extend, max_leaves=8)


def sentences(vocab, max_grade=3):
    inner = formulas(vocab, max_grade)
    grade = st.integers(min_value=0, max_value=max_grade)
    modal = st.one_of(
        st.builds(DiamondGeq, grade, inner),
        st.builds(BoxLt, grade, inner),
        st.builds(DiamondEq, grade, inner),
        st.builds(BoxNeq, grade, inner),
    )
    return st.recursive(
        modal, lambda s: st.one_of(st.builds(And, s, s), st.builds(Or, s, s)),
        max_leaves=4,
    )


@given(formulas(V2))
def test_negate_is_involution(f):
    assert negate(negate(f)) == f


@given(formulas(V2))
def test_negate_preserves_size_and_depth(f):
    assert size(negate(f)) == size(f)
    assert counting_depth(negate(f)) == counting_depth(f)


_A, _B, _C = DiamondGeq(1, Lit("p")), BoxLt(2, Lit("q", False)), DiamondEq(0, Lit("p"))


@settings(max_examples=200)
@given(sentences(V2))
@example(And(Or(_A, _B), _C))
@example(Or(_A, Or(_B, _C)))
@example(And(_A, And(_B, _C)))
@example(BoxNeq(3, Or(Lit("p"), And(Lit("q"), Lit("p", False)))))
def test_format_read_roundtrip(f):
    assert read_formula(format_formula(f)) == f
