import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P43_FACTOR_X, P43_FACTOR_Y, degree_vector, evaluate, substitute
from varsep import Polynomial, ZeroPolynomialError, parse_polynomial
from varsep.poly import scalar_str


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
    product = parse_polynomial(P43_FACTOR_X, p43.vars) * parse_polynomial(P43_FACTOR_Y, p43.vars)
    assert len(product.terms) == 20
    assert product == p43


def test_additive_inverse():
    p = P("3*x^2*y - 7*x + 1/2")
    assert p + (Polynomial(p.vars) - p) == Polynomial(p.vars)


def test_scalar_arithmetic():
    p = P("x + 1")
    assert 2 * p == P("2*x + 2")
    assert p - 1 == P("x")
    assert p / Fraction(1, 2) == P("2*x + 2")
    assert Polynomial.constant(3, ("x", "y")) == 3
    # other types are not lifted, and == falls back to identity
    assert p.__eq__("a") is NotImplemented and p != "a"


@pytest.mark.parametrize("s", [0, 2, -3, Fraction(1, 2), Fraction(-7, 3)])
def test_a_scalar_lifts_on_either_side_of_plus_and_minus(s):
    p = P("x^2*y - 3*x + 1/4")
    assert s + p == p + s and s - p == -(p - s)
    assert (s - p).vars == (s + p).vars == p.vars


@pytest.mark.parametrize("other, op, symbol", [
    ("a", operator.sub, "-"), (1.5, operator.add, "+"), (1.5, operator.sub, "-"), (None, operator.add, "+"),
])
def test_a_non_scalar_on_the_left_still_raises(other, op, symbol):
    with pytest.raises(TypeError) as info:
        op(other, P("x"))
    assert str(info.value) == f"unsupported operand type(s) for {symbol}: '{type(other).__name__}' and 'Polynomial'"


@pytest.mark.parametrize("exponent", ["a", None, -1, 1.0])
def test_exponents_must_be_nonnegative_integers(exponent):
    # the type is tested before the sign, so "a" and None never reach "<"
    with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
        Polynomial(("x",), {(exponent,): 1})


@pytest.mark.parametrize("build, error, message", [
    (lambda: Polynomial(("x", "x")), ValueError, "duplicate variable names in registry ('x', 'x')"),
    (lambda: Polynomial(("x", "y"), {(1,): 1}), ValueError, "exponent vector (1,) does not match registry of 2 variables"),
    (lambda: Polynomial(("x",), {(1,): 0.5}), TypeError, "expected an int or Fraction coefficient, got float"),
    (lambda: setattr(P("x"), "terms", {}), AttributeError, "Polynomial instances are immutable"),
    (lambda: P("x*y").constant_value(), ValueError, "x*y is not a constant polynomial"),
    (lambda: P("x") / 0, ZeroDivisionError, "division of a polynomial by zero"),
    (lambda: P("x") + "a", TypeError, "unsupported operand type(s) for +: 'Polynomial' and 'str'"),
    (lambda: P("x") - "a", TypeError, "unsupported operand type(s) for -: 'Polynomial' and 'str'"),
    (lambda: P("x") * 1.5, TypeError, "unsupported operand type(s) for *: 'Polynomial' and 'float'"),
], ids=["duplicate-name", "short-exponents", "float-coefficient", "assignment", "not-constant",
        "divide-by-zero", "add-str", "sub-str", "mul-float"])
def test_invalid_input_raises_with_its_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "q",
    [P("y + 1", ("y",)), P("x + 1", ("x",)), P("x + 1", ("y", "x"))],
    ids=["disjoint", "subset", "reordered"],
)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
def test_one_registry_per_polynomial(op, q):
    p = P("x + 1", ("x", "y"))
    with pytest.raises(ValueError, match="registries differ"):
        op(p, q)
    with pytest.raises(ValueError, match="registries differ"):
        op(q, p)
    assert not p == q and p != q


@pytest.mark.parametrize("exponent", [0, 1, 3])
@pytest.mark.parametrize("base", [Polynomial(("x", "y")), P("-2/3*x^2*y"), P("x - 2*y")])
def test_power_equals_repeated_multiplication(base, exponent):
    expected = Polynomial.constant(1, base.vars)
    for _ in range(exponent):
        expected = expected * base
    power = base ** exponent
    assert power == expected
    assert power.vars == base.vars


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
    assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)
    assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)


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


# --------------------------------------------------------------------- the oracles' reference helpers


def test_evaluate_examples(p43, p234):
    assert evaluate(P("x^2 + y^2"), [1, 2]) == 5
    assert evaluate(p43, [0, 0]) == 21
    assert evaluate(p234, [0, 0, 0]) == 0


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        evaluate(P("x + y"), [1])


def test_margin_of_reference_polynomial(p43):
    assert substitute(p43, {1: 0}) == parse_polynomial("3*x^4 - 9*x^3 + 15*x^2 + 6*x + 21", ("x",))


def test_margin_annihilates_product(p43):
    m = substitute(P("x*y"), {0: 0})
    assert m.vars == ("y",)
    assert m.is_zero


def test_margin_empty_is_identity(p43):
    assert substitute(p43, {}) == p43


def test_margin_out_of_range():
    with pytest.raises(IndexError):
        substitute(P("x*y"), {5: 1})


@settings(max_examples=60)
@given(polynomials(("x", "y", "z"), max_deg=2), st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=3)] * 3))
def test_margin_commutes_with_evaluation(p, point):
    partial = substitute(p, {0: point[0], 2: point[2]})
    assert partial.vars == ("y",)
    assert evaluate(partial, [point[1]]) == evaluate(p, point)


def test_degree_vector_examples(p43):
    assert degree_vector(P("x^2*y^3*z^4 + x*y", ("x", "y", "z"))) == (2, 3, 4)
    assert degree_vector(p43) == (4, 3)
    assert degree_vector(parse_polynomial("5", ("x", "y"))) == (0, 0)


# --------------------------------------------------------------------- leading data


def test_leading_monomial_of_zero_errors():
    with pytest.raises(ZeroPolynomialError):
        Polynomial(("x",)).leading_monomial()


def test_monic_normalization():
    p = P("4*x^2 + 2*x")
    assert p.leading_coefficient() == 4
    assert p / p.leading_coefficient() == P("x^2 + 1/2*x")


# --------------------------------------------------------------------- text form


def test_canonical_string_is_graded_lex_descending():
    assert str(P("1 + x + x*y")) == "x*y + x + 1"
    assert str(P(P43_FACTOR := "x^4 - 3*x^3 + 5*x^2 + 2*x + 7")) == P43_FACTOR
    assert str(Polynomial(("x",))) == "0"
    assert str(P("-x + 1/2")) == "-x + 1/2"


@settings(max_examples=80)
@given(polynomials(("x", "y", "z"), max_deg=3, max_terms=5))
def test_canonical_string_reparses_to_the_same_polynomial(p):
    if p.is_zero:
        return
    assert parse_polynomial(str(p), p.vars) == p
    # a negative int splits after its sign, under any digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert scalar_str(-10**700) == "-1" + "0" * 700
        assert scalar_str(Fraction(-10**700 - 1, 3)) == "-1" + "0" * 699 + "1/3"
    finally:
        sys.set_int_max_str_digits(limit)



def test_coefficients_of_any_size_print_exactly_and_reparse():
    # past CPython's default limit of 4300 digits for int-to-str conversion
    big = 10**5000 + 7
    digits = "1" + "0" * 4999 + "7"
    p = Polynomial(("x", "y"), {(1, 0): Fraction(-big, 3), (0, 1): big, (0, 0): Fraction(1, big)})
    assert str(p) == f"-{digits}/3*x + {digits}*y + 1/{digits}"
    assert parse_polynomial(str(p), p.vars) == p
    # a negative int splits after its sign, under any digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert scalar_str(-10**700) == "-1" + "0" * 700
        assert scalar_str(Fraction(-10**700 - 1, 3)) == "-1" + "0" * 699 + "1/3"
    finally:
        sys.set_int_max_str_digits(limit)
