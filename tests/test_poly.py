from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P43_FACTOR_X, P43_FACTOR_Y
from varsep import Polynomial, ZeroPolynomialError, aligned, parse_polynomial


def P(source, vars=None):
    return parse_polynomial(source, vars)


# --------------------------------------------------------------------- strategies

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(lambda f: f != 0)


def polynomials(names=("x", "y"), max_deg=3, max_terms=4):
    exponents = st.tuples(*[st.integers(0, max_deg)] * len(names))
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(
        lambda terms: Polynomial(names, terms)
    )


points = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


# --------------------------------------------------------------------- ring operations


def test_mul_difference_of_squares():
    assert P("x + 1") * P("x - 1") == P("x^2 - 1")


def test_mul_expands_the_20_term_reference_product(p43):
    product = parse_polynomial(P43_FACTOR_X, ("x",)) * parse_polynomial(P43_FACTOR_Y, ("y",))
    assert len(product.terms) == 20
    assert product == p43


def test_additive_inverse():
    p = P("3*x^2*y - 7*x + 1/2")
    assert p + (Polynomial.zero(p.vars) - p) == Polynomial.zero(p.vars)


def test_scalar_arithmetic():
    p = P("x + 1")
    assert 2 * p == P("2*x + 2")
    assert p - 1 == P("x")
    assert p / Fraction(1, 2) == P("2*x + 2")


def test_mismatched_registries_align_by_name():
    p = parse_polynomial("x + 1", ("x",))
    q = parse_polynomial("y + 1", ("y",))
    combined = p * q
    assert combined.vars == ("x", "y")
    assert combined == P("x*y + x + y + 1")


@settings(max_examples=60)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(polynomials(), polynomials(), points)
def test_evaluation_is_a_ring_homomorphism(a, b, point):
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


# --------------------------------------------------------------------- derivatives


def test_partial_derivative_basic():
    assert P("x^3*y").partial_derivative(0) == P("3*x^2*y")


def test_second_derivative_of_the_mixed_quartic():
    p = P("x^3*y + x^2*y^2 + x*y + y^2")
    assert p.partial_derivative(0).partial_derivative(0) == P("6*x*y + 2*y^2")


def test_derivative_of_absent_variable_is_zero():
    assert P("y^2", ("x", "y")).partial_derivative(0).is_zero


def test_derivative_index_out_of_range():
    with pytest.raises(IndexError):
        P("x").partial_derivative(3)


@settings(max_examples=60)
@given(polynomials(max_deg=4))
def test_mixed_partials_commute(p):
    dxy = p.partial_derivative(0).partial_derivative(1)
    dyx = p.partial_derivative(1).partial_derivative(0)
    assert dxy == dyx


# --------------------------------------------------------------------- evaluation and margins


def test_evaluate_examples(p43, p234):
    assert P("x^2 + y^2").evaluate([1, 2]) == 5
    assert p43.evaluate([0, 0]) == 21
    assert p234.evaluate([0, 0, 0]) == 0


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        P("x + y").evaluate([1])


def test_margin_of_reference_polynomial(p43):
    assert p43.margin({1: 0}) == parse_polynomial("3*x^4 - 9*x^3 + 15*x^2 + 6*x + 21", ("x",))


def test_margin_annihilates_product(p43):
    m = P("x*y").margin({0: 0})
    assert m.vars == ("y",)
    assert m.is_zero


def test_margin_empty_is_identity(p43):
    assert p43.margin({}) is p43


def test_margin_out_of_range():
    with pytest.raises(IndexError):
        P("x*y").margin({5: 1})


@settings(max_examples=60)
@given(polynomials(("x", "y", "z"), max_deg=2), st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=3)] * 3))
def test_margin_commutes_with_evaluation(p, point):
    partial = p.margin({0: point[0], 2: point[2]})
    assert partial.vars == ("y",)
    assert partial.evaluate([point[1]]) == p.evaluate(point)


# --------------------------------------------------------------------- degrees and leading data


def test_degree_vector_examples(p43):
    assert P("x^2*y^3*z^4 + x*y", ("x", "y", "z")).degree_vector() == (2, 3, 4)
    assert p43.degree_vector() == (4, 3)
    assert parse_polynomial("5", ("x", "y")).degree_vector() == (0, 0)


def test_degree_vector_of_zero_errors():
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(("x",)).degree_vector()
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero(("x",)).leading_monomial()


def test_monic_normalization():
    p = P("4*x^2 + 2*x")
    assert p.monic() == P("x^2 + 1/2*x")
    assert p.leading_coefficient() == 4


# --------------------------------------------------------------------- text form


def test_canonical_string_is_graded_lex_descending():
    assert str(P("1 + x + x*y")) == "x*y + x + 1"
    assert str(P(P43_FACTOR := "x^4 - 3*x^3 + 5*x^2 + 2*x + 7")) == P43_FACTOR
    assert str(Polynomial.zero(("x",))) == "0"
    assert str(P("-x + 1/2")) == "-x + 1/2"


@settings(max_examples=80)
@given(polynomials(("x", "y", "z"), max_deg=3, max_terms=5))
def test_canonical_string_reparses_to_the_same_polynomial(p):
    if p.is_zero:
        return
    assert parse_polynomial(str(p), p.vars) == p


def test_aligned_orders_first_registry_then_new_names():
    p = parse_polynomial("x*z", ("x", "z"))
    q = parse_polynomial("y + z", ("y", "z"))
    a, b = aligned(p, q)
    assert a.vars == b.vars == ("x", "z", "y")
    assert a == p and b == q
