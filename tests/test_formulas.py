import pytest
from hypothesis import given, settings, strategies as st

from gmlu.formulas import (
    And,
    BareLiteralError,
    BoxLt,
    BoxNeq,
    DiamondEq,
    DiamondGeq,
    FormulaSyntaxError,
    Lit,
    Or,
    UnknownSymbolError,
    counting_depth,
    format_formula,
    is_sentence,
    negate,
    parse_formula,
    size,
)
from gmlu.vocab import Vocabulary

V1 = Vocabulary(("p",))
V2 = Vocabulary(("p", "q"))


# -- parsing -----------------------------------------------------------------


def test_parse_modalities():
    assert parse_formula("<>=1 p", V1) == DiamondGeq(1, Lit("p"))
    assert parse_formula("[]<1 p", V1) == BoxLt(1, Lit("p"))
    assert parse_formula("<>==2 !p", V1) == DiamondEq(2, Lit("p", False))
    assert parse_formula("[]!=0 p", V1) == BoxNeq(0, Lit("p"))


def test_parse_is_whitespace_insensitive():
    a = parse_formula("<>=1p&<>==0!q", V2)
    b = parse_formula("  <>= 1  p   &   <>== 0  ! q ", V2)
    assert a == b == And(DiamondGeq(1, Lit("p")), DiamondEq(0, Lit("q", False)))


def test_parse_precedence_and_parens():
    f = parse_formula("<>=1 p | <>=1 q & []<1 p", V2)
    assert isinstance(f, Or) and isinstance(f.right, And)
    g = parse_formula("<>=1 (p | q & !p)", V2)
    assert g == DiamondGeq(1, Or(Lit("p"), And(Lit("q"), Lit("p", False))))


def test_bare_literal_rejected():
    with pytest.raises(BareLiteralError):
        parse_formula("p", V1)
    with pytest.raises(BareLiteralError):
        parse_formula("<>=1 p & !p", V1)


def test_unknown_symbol_rejected_with_position():
    with pytest.raises(UnknownSymbolError) as exc:
        parse_formula("<>=1 q", V1)
    assert exc.value.position == 5


def test_syntax_error_has_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("<>=1 (p", V1)
    assert exc.value.position is not None


def test_grade_cap():
    parse_formula("<>=7 p", V1, max_grade=7)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("<>=8 p", V1, max_grade=7)


# -- measures ----------------------------------------------------------------


def test_size_clauses():
    assert size(Lit("p")) == 1
    assert size(parse_formula("[]<1 p", V1)) == 2
    f = DiamondEq(3, And(Lit("p"), Lit("q", False)))
    assert size(f) == 3 + (1 + 1 + 1) + 1 == 7


def test_counting_depth_clauses():
    assert counting_depth(parse_formula("[]<1 p", V1)) == 1
    assert counting_depth(parse_formula("<>==2 p", V1)) == 3
    nested = parse_formula("<>=1 <>=4 p", V1)
    assert counting_depth(nested) == 4


def test_depth_of_booleans_is_max():
    f = parse_formula("<>=2 p & <>==2 p", V1)
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


@settings(max_examples=200)
@given(sentences(V2))
def test_format_parse_roundtrip(f):
    assert is_sentence(f)
    assert parse_formula(format_formula(f), V2) == f
