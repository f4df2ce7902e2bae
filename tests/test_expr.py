import inspect
import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsep.expr import (
    MAX_NESTING,
    BinOp,
    Call,
    Const,
    EvalDomainError,
    LoweringError,
    Neg,
    ParseError,
    SUPPORTED_FUNCTIONS,
    UnboundVariableError,
    Var,
    compile_float,
    eval_float,
    free_variables,
    lower_to_polynomial,
    parse,
    to_source,
    tokenize,
)

# --------------------------------------------------------------------- lexer


def test_token_positions_strictly_increase():
    tokens = tokenize("x^4*y^3 + 2*x^4*y^2")
    positions = [t.position for t in tokens]
    assert positions == sorted(set(positions))


def test_number_lexemes():
    kinds = [(t.kind.value, t.lexeme) for t in tokenize("12 + 3.50*x_1")]
    assert ("number", "12") in kinds
    assert ("number", "3.50") in kinds
    assert ("identifier", "x_1") in kinds


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError, match="implicit multiplication"):
        tokenize("2x")


def test_unexpected_character_reports_byte_offset():
    with pytest.raises(ParseError, match="byte 4"):
        tokenize("x + $")


# --------------------------------------------------------------------- parser


def test_parse_minimal_product():
    assert parse("x*y") == BinOp("*", Var("x"), Var("y"))


def test_parse_sum_of_monomials():
    node = parse("x^4*y^3 + 2*x^4*y^2")
    assert isinstance(node, BinOp) and node.op == "+"
    assert node.left == BinOp("*", BinOp("^", Var("x"), Const(Fraction(4))), BinOp("^", Var("y"), Const(Fraction(3))))


def test_parse_quotient_of_function_calls():
    assert parse("sin(x)/cos(y)") == BinOp("/", Call("sin", Var("x")), Call("cos", Var("y")))


def test_power_is_right_associative_and_binds_above_unary_minus():
    assert parse("x^y^z") == BinOp("^", Var("x"), BinOp("^", Var("y"), Var("z")))
    assert parse("-x^2") == Neg(BinOp("^", Var("x"), Const(Fraction(2))))
    with pytest.raises(ParseError):
        parse("x^-2")
    assert parse("x^(-2)") == BinOp("^", Var("x"), Neg(Const(Fraction(2))))


def test_standard_precedence():
    assert parse("a + b*c") == BinOp("+", Var("a"), BinOp("*", Var("b"), Var("c")))
    assert parse("(a + b)*c") == BinOp("*", BinOp("+", Var("a"), Var("b")), Var("c"))
    assert parse("a - b - c") == BinOp("-", BinOp("-", Var("a"), Var("b")), Var("c"))
    assert parse("2*-3") == BinOp("*", Const(Fraction(2)), Neg(Const(Fraction(3))))


def test_unknown_function_rejected():
    with pytest.raises(ParseError, match="unknown function 'foo'"):
        parse("foo(x)")


def test_empty_and_truncated_sources():
    with pytest.raises(ParseError):
        parse("   ")
    with pytest.raises(ParseError, match="end of input"):
        parse("x +")
    with pytest.raises(ParseError):
        parse("(x + y")


NESTING_OPENERS = {
    # kind: (text opening one level, ending in the opening token; closing text)
    "group": ("(", ")"),
    "call": ("sin(", ")"),
    "minus": ("-", ""),
    "power": ("x^", ""),
}


@pytest.mark.parametrize("kind", sorted(NESTING_OPENERS))
def test_nesting_is_limited_to_max_nesting_levels(kind):
    opener, closer = NESTING_OPENERS[kind]
    assert MAX_NESTING == 100

    def nested(levels):
        return opener * levels + "y" + closer * levels

    parse(nested(MAX_NESTING))
    with pytest.raises(ParseError, match="nesting deeper than 100 levels") as info:
        parse(nested(MAX_NESTING + 1))
    # the offset of the token that opens level 101
    assert info.value.position == len(opener) * (MAX_NESTING + 1) - 1


def test_nesting_levels_add_up_across_kinds():
    parse("-(" * 50 + "x" + ")" * 50)
    with pytest.raises(ParseError, match="nesting deeper"):
        parse("-(" * 50 + "-x" + ")" * 50)
    # sums, products and siblings open no level
    parse(" + ".join(["(" * 100 + "x" + ")" * 100] * 3))


def test_decimal_literal_becomes_exact_rational():
    assert parse("0.25") == Const(Fraction(1, 4))
    assert parse("2.50") == Const(Fraction(5, 2))


def test_free_variables_first_occurrence_order():
    assert free_variables(parse("y*x + z*y")) == ["y", "x", "z"]


# --------------------------------------------------------------------- printer round trip

_leaves = st.one_of(
    st.integers(0, 50).map(lambda n: Const(Fraction(n))),
    st.tuples(st.integers(0, 999), st.integers(1, 3)).map(lambda t: Const(Fraction(t[0], 10 ** t[1]))),
    st.sampled_from(["x", "y", "z", "u_1"]).map(Var),
)


def _compound(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(lambda t: BinOp(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(SUPPORTED_FUNCTIONS), children).map(lambda t: Call(t[0], t[1])),
    )


ast_nodes = st.recursive(_leaves, _compound, max_leaves=20)


@settings(max_examples=200)
@given(ast_nodes)
def test_print_parse_round_trip(node):
    assert parse(to_source(node)) == node


def test_printer_renders_long_chains_without_recursing_per_operand():
    for op, text in (("+", " + y"), ("-", " - y"), ("*", "*y"), ("/", "/y")):
        node = Var("x")
        for _ in range(5000):
            node = BinOp(op, node, Var("y"))
        assert to_source(node) == "x" + text * 5000
    mixed = BinOp("+", BinOp("*", Var("x"), BinOp("-", Var("y"), Var("z"))), BinOp("-", Var("y"), Var("z")))
    assert to_source(mixed) == "x*(y - z) + (y - z)"


def test_round_trip_of_reference_sources():
    for source in ("x*y", "x^4*y^3 + 2*x^4*y^2", "sin(x)/cos(y)", "-(x + y)^2/3"):
        node = parse(source)
        assert parse(to_source(node)) == node


# --------------------------------------------------------------------- float evaluation


def test_eval_float_examples():
    assert eval_float(parse("x*y"), {"x": 3, "y": 4}) == 12
    assert eval_float(parse("sin(x)/cos(y)"), {"x": 0, "y": 0}) == 0
    assert eval_float(parse("2^x"), {"x": 3}) == 8


def test_eval_float_domain_errors():
    with pytest.raises(EvalDomainError, match="ln"):
        eval_float(parse("ln(x)"), {"x": -1})
    with pytest.raises(EvalDomainError, match="division by zero"):
        eval_float(parse("1/x"), {"x": 0})
    with pytest.raises(EvalDomainError):
        eval_float(parse("x^0.5"), {"x": -2})


def test_eval_float_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_float(parse("x + y"), {"x": 1})


def test_domain_error_carries_offending_subexpression():
    with pytest.raises(EvalDomainError) as info:
        eval_float(parse("x + ln(y - 1)"), {"x": 0, "y": 0.5})
    assert to_source(info.value.node) == "ln(y - 1)"


# --------------------------------------------------------------------- compiled evaluation

COMPILED_NAMES = ("x", "y", "z")  # u_1 from the AST strategy stays unbound
SAMPLE_COORDINATES = (0, 1, -1, 0.0, 1.0, -1.0, 0.5, -2.25, 3, 700.0)


def _outcome(evaluate):
    """A float's exact bits, or the error's class, message and node."""
    try:
        value = evaluate()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "node", None)
    assert type(value) is float
    return value.hex()  # bit for bit; every NaN is "nan"


def _assert_agrees(node, names, point):
    compiled = compile_float(node, names)
    expected = _outcome(lambda: eval_float(node, dict(zip(names, point))))
    assert _outcome(lambda: compiled(point)) == expected, (to_source(node), point)
    assert _outcome(lambda: eval_float(compiled, point)) == expected, (to_source(node), point)


@settings(max_examples=300)
@given(ast_nodes, st.lists(st.sampled_from(SAMPLE_COORDINATES), min_size=3, max_size=3))
def test_compiled_evaluator_agrees_with_eval_float_on_random_asts(node, point):
    _assert_agrees(node, COMPILED_NAMES, point)


@pytest.mark.parametrize("source", [
    "sin(x)*exp(y)",
    "exp(x + y)*sin(z)",
    "(2*x - 0.5*y)*cos(z) + ln(abs(x) + 2)",
    "tan(x*y)/cos(z)",
    "x^y + z^0.5",
    "exp(800*x)*y",
    "ln(x)*ln(-y)",
    "1/(x - 1) - 1/(y + 1)/z",
    "abs(sin(x))^(1/3)*exp(-z^2)",
    "-(x + y)^2/3",
    "1" + "0" * 400 + "*x*y",
    "x*y/1" + "0" * 400,
])
def test_compiled_evaluator_agrees_with_eval_float_on_workload_shapes(source):
    node = parse(source)
    for point in itertools.product((0, 1.0, -1, 0.25, -3.5), repeat=3):
        _assert_agrees(node, COMPILED_NAMES, point)


def test_compiled_evaluator_names_the_failing_subexpression():
    evaluate = compile_float(parse("x + ln(y - 1)"), ("x", "y"))
    with pytest.raises(EvalDomainError) as info:
        evaluate((0.0, 0.5))
    assert to_source(info.value.node) == "ln(y - 1)"


def test_compiled_evaluator_raises_unbound_variable_only_when_evaluated():
    evaluate = compile_float(parse("sin(x)*q"), ("x",))
    with pytest.raises(UnboundVariableError, match="variable 'q' has no bound value"):
        evaluate((0.5,))
    # a domain error to the left comes first, as in eval_float
    with pytest.raises(EvalDomainError):
        compile_float(parse("ln(x)*q"), ("x",))((0.0,))


def test_compiled_evaluator_handles_a_900_term_sum():
    node = parse(" + ".join(f"{k % 7}*sin({k}*x)/(y + {k})" for k in range(900)))
    point = (0.375, -1.5)
    assert compile_float(node, ("x", "y"))(point) == eval_float(node, {"x": 0.375, "y": -1.5})


def test_too_deep_expressions_raise_value_error():
    node = parse(" + ".join(["x"] * 600))
    evaluate = compile_float(node, ("x",))
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack())
    try:
        sys.setrecursionlimit(depth + 300)
        with pytest.raises(ValueError, match="expression too deep to evaluate"):
            eval_float(evaluate, (1.0,))
        with pytest.raises(ValueError, match="expression too deep to evaluate"):
            compile_float(node, ("x",))
    finally:
        sys.setrecursionlimit(limit)
    assert eval_float(evaluate, (1.0,)) == 600.0


def test_compiled_evaluator_reads_positions_and_converts_to_float():
    evaluate = compile_float(parse("x - y"), ("y", "x"))
    assert evaluate([2, 10**17 + 1]) == eval_float(parse("x - y"), {"x": 10**17 + 1, "y": 2})
    assert math.isnan(compile_float(parse("x*0"), ("x",))((math.inf,)))
    # a repeated name reads its last position, as dict(zip(names, point)) does
    assert compile_float(parse("x"), ("x", "x"))((1.0, 2.0)) == 2.0


# --------------------------------------------------------------------- lowering

def as_poly(source, vars=None):
    return lower_to_polynomial(parse(source), vars)


def test_lower_binomial_square():
    assert as_poly("(x + y)^2") == as_poly("x^2 + 2*x*y + y^2")


def test_lower_three_factor_expansion():
    from conftest import P234_SOURCE

    product = as_poly("(x^2 + 2*x + 3)*(y^3 + y)*(z^4 + 2*z)")
    expanded = as_poly(P234_SOURCE, ("x", "y", "z"))
    assert len(expanded.terms) == 12
    assert product == expanded


def test_lower_division_rules():
    assert as_poly("x/2") == as_poly("1/2*x")
    assert as_poly("x/(2 - 1)") == as_poly("x")
    with pytest.raises(LoweringError, match="division by zero"):
        as_poly("x/0")
    with pytest.raises(LoweringError, match="non-constant"):
        as_poly("x/y")


def test_lower_rejects_non_polynomial_constructs():
    with pytest.raises(LoweringError, match="function"):
        as_poly("sin(x)")
    with pytest.raises(LoweringError, match="exponent"):
        as_poly("x^y")
    with pytest.raises(LoweringError, match="exponent"):
        as_poly("x^(1/2)")
    with pytest.raises(LoweringError, match="unregistered"):
        lower_to_polynomial(parse("x + q"), ("x",))


def test_lower_respects_variable_registry_order():
    p = as_poly("y + x", ("x", "y"))
    assert p.vars == ("x", "y")
    extra = as_poly("x", ("x", "y", "z"))
    assert extra.vars == ("x", "y", "z")


# polynomial-shaped ASTs for the value-preservation property
_poly_leaves = st.one_of(
    st.integers(0, 9).map(lambda n: Const(Fraction(n))),
    st.sampled_from(["x", "y"]).map(Var),
)


def _poly_compound(children):
    nonzero_consts = st.integers(1, 7).map(lambda n: Const(Fraction(n)))
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*"), children, children).map(lambda t: BinOp(t[0], t[1], t[2])),
        st.tuples(children, st.integers(0, 3)).map(lambda t: BinOp("^", t[0], Const(Fraction(t[1])))),
        st.tuples(children, nonzero_consts).map(lambda t: BinOp("/", t[0], t[1])),
    )


poly_asts = st.recursive(_poly_leaves, _poly_compound, max_leaves=12)


def exact_eval(node, env):
    """Test-owned oracle: exact rational evaluation straight off the AST."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -exact_eval(node.operand, env)
    left, right = exact_eval(node.left, env), exact_eval(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return left / right
    return left ** int(right)


@settings(max_examples=100)
@given(
    poly_asts,
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
    ),
)
def test_lowering_preserves_exact_value(node, point):
    lowered = lower_to_polynomial(node, ("x", "y"))
    env = {"x": point[0], "y": point[1]}
    assert lowered.evaluate(point) == exact_eval(node, env)


@settings(max_examples=60)
@given(poly_asts, poly_asts)
def test_lowering_is_linear_over_addition(a, b):
    combined = lower_to_polynomial(BinOp("+", a, b), ("x", "y"))
    assert combined == lower_to_polynomial(a, ("x", "y")) + lower_to_polynomial(b, ("x", "y"))
