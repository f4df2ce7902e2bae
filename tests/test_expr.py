import inspect
import itertools
import math
import pickle
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate, oracle_eval_float, oracle_parse, oracle_to_source, oracle_tokenize
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
    RESIDUE_PRIME,
    UnboundVariableError,
    Var,
    additive_by_residues,
    compile_float,
    eval_float,
    eval_residues,
    free_variables,
    lower_to_polynomial,
    parse,
    to_source,
)
from varsep._record import Record
from varsep.expr import _TOKEN, _lexemes, _locate
from varsep.poly import Polynomial

# --------------------------------------------------------------------- lexer


def _positions(source):
    """The byte offset of every token of a source that scans cleanly, then
    the offset of the end of the input, as the error locator gives them."""
    return [_locate(source, k, "").position for k in range(len(_lexemes(source)))]


def test_token_positions_strictly_increase():
    source = "x^4*y^3 + 2*x^4*y^2"
    positions = _positions(source)
    assert positions == sorted(set(positions))
    assert positions == [t.position for t in oracle_tokenize(source)] + [len(source)]


def test_number_lexemes():
    source = "12 + 3.50*x_1"
    assert _lexemes(source) == ["12", "+", "3.50", "*", "x_1", ""]
    kinds = [(t.kind.value, t.lexeme) for t in oracle_tokenize(source)]
    assert ("number", "12") in kinds
    assert ("number", "3.50") in kinds
    assert ("identifier", "x_1") in kinds


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError, match="implicit multiplication"):
        parse("2x")


def test_unexpected_character_reports_byte_offset():
    with pytest.raises(ParseError, match="byte 4"):
        parse("x + $")
    # U+00A0 is whitespace of two bytes, so the character index 8 of the
    # e-acute is byte 9
    with pytest.raises(ParseError, match="byte 9"):
        parse("x +\u00a0y + \u00e9")


@pytest.mark.parametrize("space", ["\u00a0", "\u3000", "\u00a0\t\u3000"])
def test_offsets_after_wide_whitespace_are_utf8_prefix_lengths(space):
    lexemes = ["x", "+", "12", "*", "y", "^", "2", "-", "(", "z", ")"]
    source, starts = "", []
    for k, lexeme in enumerate(lexemes):
        source += space if k % 2 == 0 else ""
        starts.append(len(source))
        source += lexeme
    assert _lexemes(source) == [*lexemes, ""]
    assert _positions(source) == [len(source[:i].encode("utf-8")) for i in [*starts, len(source)]]
    for bad in ("\u00e9", "$"):
        text = source + space + bad
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == len(text[:-1].encode("utf-8"))


@pytest.mark.parametrize("source, index, message", [
    ("\u00a0 2\u00e9", 3, "implicit multiplication"),
    ("\u3000 2.5_", 5, "implicit multiplication"),
    ("\u00e9", 0, "unexpected character"),
    ("x +\u3000 1.", 6, "expected digits after decimal point"),
    ("x +\u00a0 1.x", 6, "expected digits after decimal point"),
])
def test_error_offsets_after_wide_whitespace(source, index, message):
    with pytest.raises(ParseError, match=message) as info:
        parse(source)
    assert info.value.position == len(source[:index].encode("utf-8"))


def test_the_scanner_skips_exactly_what_isspace_accepts():
    token_starts = set("0123456789+-*/^()abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    differ = [
        hex(code) for code in range(sys.maxunicode + 1)
        if chr(code) not in token_starts and _TOKEN.match(chr(code)).end() != chr(code).isspace()
    ]
    assert differ == []


def test_an_error_after_a_leading_wide_space_is_located_in_linear_time():
    # one non-ASCII character must not make the locator re-encode a prefix
    # per token: an error at the end of a long source costs about as much
    # as parsing the source without it
    wide_sum = "\u00a0" + " + ".join(f"{k % 97}*x{k % 7}" for k in range(40_000))

    def best_of_3(source):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            outcome = _front_end_outcome(parse, source)
            times.append(time.perf_counter() - start)
        return min(times), outcome

    clean_time, (kind, _) = best_of_3(wide_sum)
    assert kind == "ok"
    # a parser error at the last token, and a scan that stops at the last
    # character
    for tail, message in ((" + )", "unexpected token ')'"), (" + $", "unexpected character '$'")):
        source = wide_sum + tail
        error_time, outcome = best_of_3(source)
        position = len(source[:-1].encode("utf-8"))
        assert outcome == ("error", f"syntax error at byte {position}: {message}", position)
        assert error_time < 5 * clean_time


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


def test_free_variables_has_no_depth_limit():
    node = parse(" + ".join(f"{k}*x{k % 7}^{k % 5 + 1}" for k in range(3000)))
    assert free_variables(node) == [f"x{k}" for k in range(7)]


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
    reparsed = parse(to_source(node))
    assert reparsed == node
    assert hash(reparsed) == hash(node)
    assert {node: "value"}[reparsed] == "value"


@settings(max_examples=300)
@given(ast_nodes)
def test_printer_agrees_with_the_recursive_oracle(node):
    assert to_source(node) == oracle_to_source(node)


def test_printer_renders_trees_5000_deep_at_the_default_recursion_limit():
    x = Var("x")
    neg = call = power = minus = x
    for _ in range(5000):
        neg, call = Neg(neg), Call("sin", call)
        power, minus = BinOp("^", x, power), BinOp("-", x, minus)
    for node, text in (
        (neg, "-" * 5000 + "x"),
        (call, "sin(" * 5000 + "x" + ")" * 5000),
        (power, "x^" * 5000 + "x"),
        (minus, "x - (" * 4999 + "x - x" + ")" * 4999),
    ):
        assert to_source(node) == text
        assert str(EvalDomainError("division by zero", node)) == f"division by zero in {text!r}"
        # the printer does not recurse; Python's own compile refuses the
        # text (its tokenizer allows 200 nested parentheses), except that
        # some versions compile 5,000 unary minuses
        try:
            evaluate = compile_float(node, ("x",))
        except ValueError as exc:
            assert str(exc) == "expression too deep to evaluate"
        else:
            assert node is neg and evaluate((0.5,)) == 0.5


def test_nodes_of_different_types_never_compare_equal():
    x = Var("x")
    nodes = [Const(Fraction(1)), x, Neg(x), BinOp("*", x, x), Call("sin", x), Var("y"), BinOp("+", x, x)]
    for a, b in itertools.product(nodes, repeat=2):
        assert (a == b) is (a is b) and (a != b) is (a is not b), (a, b)
    # fields only equal as values: a node never equals a tuple of its fields
    assert Var("x") != ("x",) and Call("sin", x) != ("sin", x)
    assert BinOp(op="*", left=x, right=Const(Fraction(2))) == parse("x*2")
    assert repr(BinOp("*", x, Const(Fraction(2)))) == (
        "BinOp(op='*', left=Var(name='x'), right=Const(value=Fraction(2, 1)))"
    )


def test_printer_renders_long_chains_without_recursing_per_operand():
    for op, text in (("+", " + y"), ("-", " - y"), ("*", "*y"), ("/", "/y")):
        node = Var("x")
        for _ in range(5000):
            node = BinOp(op, node, Var("y"))
        assert to_source(node) == "x" + text * 5000
    mixed = BinOp("+", BinOp("*", Var("x"), BinOp("-", Var("y"), Var("z"))), BinOp("-", Var("y"), Var("z")))
    assert to_source(mixed) == "x*(y - z) + (y - z)"


def test_repr_renders_long_chains_without_recursing_per_operand():
    node = parse(" + ".join(f"{k}*x" for k in range(3000)))

    def term(k):
        return f"BinOp(op='*', left=Const(value={k}), right=Var(name='x'))"

    expected = "BinOp(op='+', left=" * 2999 + term(0) + "".join(f", right={term(k)})" for k in range(1, 3000))
    assert repr(node) == expected


def _recursive_repr(value):
    """The repr a record had when each field was rendered by recursion."""
    if not isinstance(value, Record):
        return repr(value)
    fields = ", ".join(f"{name}={_recursive_repr(getattr(value, name))}" for name in value.__slots__)
    return f"{type(value).__name__}({fields})"


@given(ast_nodes)
def test_repr_is_the_recursive_rendering(node):
    assert repr(node) == _recursive_repr(node)


def test_round_trip_of_reference_sources():
    for source in ("x*y", "x^4*y^3 + 2*x^4*y^2", "sin(x)/cos(y)", "-(x + y)^2/3"):
        node = parse(source)
        assert parse(to_source(node)) == node


def test_a_negative_constant_prints_as_a_difference_from_zero():
    # the parser makes no negative constants, so a library-built one is
    # printed as a subtraction with the same value
    for value, text in ((Fraction(-3), "(0 - 3)"), (Fraction(-1, 2), "(0 - 0.5)")):
        assert to_source(Const(value)) == text
        assert eval_float(parse(text), {}) == eval_float(Const(value), {}) == float(value)


# --------------------------------------------------------------------- front end against the oracles

# fragments of random sources: ASCII digits, the decimal point, letters,
# "_", operators, parentheses and function names, with Unicode whitespace,
# a non-ASCII letter, a superscript digit and an Arabic-Indic digit
_FRAGMENTS = [
    *"0123456789.xyzAB_+-*/^()", "12", "3.5", "x_1", " ", "  ", "\t", "\u00a0", "\u3000",
    "\u00e9", "\u00b2", "\u0663", *SUPPORTED_FUNCTIONS, "sin(", "foo(",
]
mixed_sources = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)
_SPACES = st.sampled_from(["", " ", "\t", "\u00a0", "\u3000"])


@st.composite
def spaced_sources(draw):
    """Printed ASTs with random whitespace between characters, so most of
    them parse."""
    text = to_source(draw(ast_nodes))
    return "".join(c + draw(_SPACES) for c in text)


def _front_end_outcome(function, source):
    try:
        return "ok", function(source)
    except ParseError as exc:
        return "error", str(exc), exc.position


def _assert_scan_agrees(source):
    assert _front_end_outcome(parse, source) == _front_end_outcome(oracle_parse, source)
    # a source the oracle rejects raises the oracle's error at the scan; on
    # any other the lexemes are the oracle's tokens, then the empty end
    # lexeme, and the locator finds no scan error and puts every token, and
    # the end of the input, where the oracle does
    oracle = _front_end_outcome(oracle_tokenize, source)
    if oracle[0] == "error":
        assert _front_end_outcome(_lexemes, source) == oracle
        return
    tokens = oracle[1]
    assert _lexemes(source) == [t.lexeme for t in tokens] + [""]
    assert _locate(source) is None
    assert _positions(source) == [t.position for t in tokens] + [len(source.encode("utf-8"))]


@settings(max_examples=600)
@given(st.one_of(mixed_sources, spaced_sources()))
def test_scan_and_locator_agree_with_the_character_loop_oracle(source):
    _assert_scan_agrees(source)


@settings(max_examples=600)
@given(st.one_of(mixed_sources, spaced_sources()))
def test_parse_agrees_with_the_method_per_token_oracle(source):
    assert _front_end_outcome(parse, source) == _front_end_outcome(oracle_parse, source)


# the ASCII fragments plus an exponent-like "1e5" and the ASCII whitespace
# "\n" and "\x1f" (a unit separator, which str.isspace accepts)
_ASCII_FRAGMENTS = [f for f in _FRAGMENTS if f.isascii()] + ["1e5", "\n", "\x1f"]
ascii_sources = st.lists(st.sampled_from(_ASCII_FRAGMENTS), max_size=40).map("".join)


@settings(max_examples=600)
@given(ascii_sources)
def test_ascii_sources_agree_with_the_oracles(source):
    _assert_scan_agrees(source)


@pytest.mark.parametrize("source", [
    "2x", "1.5x", "1e5", "x1 2y", "1.", "1.2.3", "x_1.5", "x + )", "(x", "sin x",
    "x*y \t\n\x1f", "x + ) \n", "(x  ",
])
def test_scan_corner_cases_agree_with_the_oracle(source):
    _assert_scan_agrees(source)


def test_an_864_term_expansion_parses_as_the_oracle_does():
    # the eight-factor product of the benchmark's ref-n8-864 query, expanded
    factors = ["(x1 + 1)", "(x2 - 1)", "(x3 + 2)", "(x4 - 2)", "(x5 + 3)",
               "(x6^2 + x6 + 1)", "(x7^2 - 2*x7 + 3)", "(x8^3 + x8 - 2)"]
    source = str(lower_to_polynomial(parse("*".join(factors))))
    assert source.count("+") + source.count("-") == 863
    node = parse(source)
    assert node == oracle_parse(source)
    assert hash(node) == hash(oracle_parse(source))


def test_equality_and_hash_of_a_long_sum_do_not_recurse_per_summand():
    terms = [f"{k}*x{k % 5}" for k in range(5_000)]
    source = " + ".join(terms)
    assert parse(source) == parse(source)
    assert hash(parse(source)) == hash(parse(source))
    # a difference in the first summand, the deepest leaf of the left spine
    assert parse(source) != parse(" + ".join(["1*x1", *terms[1:]]))
    # shallow records compare as their field tuples do
    assert Const(1) == Const(Fraction(1)) and hash(Const(1)) == hash(Const(Fraction(1)))
    assert BinOp("+", Var("x"), Const(2)) != BinOp("+", Var("x"), Var("y"))
    # a field is equal to itself, as in a tuple, even when it is a NaN
    assert Const(math.nan) == Const(math.nan) and Const(float("nan")) != Const(float("nan"))


@pytest.mark.parametrize("kind", sorted(NESTING_OPENERS))
@pytest.mark.parametrize("levels", [MAX_NESTING, MAX_NESTING + 1])
def test_nesting_limit_agrees_with_the_oracle(kind, levels):
    opener, closer = NESTING_OPENERS[kind]
    for source in (opener * levels + "y" + closer * levels, "\u00a0" + opener * levels + "y" + closer * levels):
        assert _front_end_outcome(parse, source) == _front_end_outcome(oracle_parse, source)


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
    """The loop, the compiled function and eval_float through it all give
    the recursive oracle's value or error; the compiled function takes the
    coordinates as floats, the mapping keeps them as given."""
    compiled = compile_float(node, names)
    mapping = dict(zip(names, point))
    floats = tuple(map(float, point))
    expected = _outcome(lambda: oracle_eval_float(node, mapping))
    assert _outcome(lambda: eval_float(node, mapping)) == expected, (to_source(node), point)
    assert _outcome(lambda: compiled(floats)) == expected, (to_source(node), point)
    assert _outcome(lambda: eval_float(compiled, floats)) == expected, (to_source(node), point)


@settings(max_examples=300)
@given(ast_nodes, st.lists(st.sampled_from(SAMPLE_COORDINATES), min_size=3, max_size=3))
def test_compiled_evaluator_agrees_with_eval_float_on_random_asts(node, point):
    _assert_agrees(node, COMPILED_NAMES, point)


WORKLOAD_SHAPES = [
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
]


@pytest.mark.parametrize("source", WORKLOAD_SHAPES)
def test_compiled_evaluator_agrees_with_eval_float_on_workload_shapes(source):
    node = parse(source)
    for point in itertools.product((0, 1.0, -1, 0.25, -3.5), repeat=3):
        _assert_agrees(node, COMPILED_NAMES, point)


@pytest.mark.parametrize("source", WORKLOAD_SHAPES)
def test_printer_agrees_with_the_recursive_oracle_on_workload_shapes(source):
    assert to_source(parse(source)) == oracle_to_source(parse(source))


def test_leaves_the_generated_code_cannot_evaluate_replay():
    # a function outside the table (which the parser never builds) and a
    # fractional constant beyond float range make the generated code raise,
    # so every point replays
    x = Var("x")
    nodes = [
        Call("sqrt", x),
        Call("sqrt", Call("ln", x)),
        BinOp("*", BinOp("/", Const(1), x), Call("sqrt", x)),
        BinOp("/", x, Const(Fraction(10**400, 3))),
    ]
    for node in nodes:
        for point in ((0.0,), (1.5,), (-2.0,)):
            _assert_agrees(node, ("x",), point)
    with pytest.raises(KeyError):
        compile_float(Call("sqrt", x), ("x",))((1.0,))


def test_eval_float_loops_over_a_long_sum_at_the_default_recursion_limit():
    x = 1.0009765625
    expected = 0.0
    for k in range(1199):
        expected += k * x
    source = " + ".join(f"{k}*x" for k in range(1199))
    assert eval_float(parse(source), {"x": x}) == expected
    with pytest.raises(EvalDomainError) as info:
        eval_float(parse(" + ".join(["x"] * 1199) + " + ln(x - 2)"), {"x": 1.0})
    assert str(info.value) == "ln of non-positive value -1.0 in 'ln(x - 2)'"
    assert info.value.node == parse("ln(x - 2)")


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


def test_compiled_evaluator_walks_a_2000_term_sum_and_product_without_recursing():
    # the reference walk would recurse once per operand, so the values are
    # accumulated here in the same left-to-right order
    x = 1.0009765625
    expected_sum, expected_product = 0.0, 1.0
    for k in range(2000):
        expected_sum += k * x
        expected_product *= x
    node = parse(" + ".join(f"{k}*x" for k in range(2000)))
    assert compile_float(node, ("x",))((x,)) == expected_sum
    node = parse("*".join(["x"] * 2000))
    assert compile_float(node, ("x",))((x,)) == expected_product


@pytest.mark.parametrize("raise_it, text, fields", [
    (lambda: parse("x + 2y"), "syntax error at byte 5: implicit multiplication is not allowed, write an explicit '*'",
     {"position": 5}),
    (lambda: eval_float(parse("x*y"), {"x": 1.0}), "variable 'y' has no bound value", {"name": "y"}),
    (lambda: eval_float(parse("x + ln(y - 1)"), {"x": 0.0, "y": 0.5}), "ln of non-positive value -0.5 in 'ln(y - 1)'",
     {"node": parse("ln(y - 1)")}),
])
def test_errors_survive_a_pickle_round_trip(raise_it, text, fields):
    with pytest.raises(Exception) as info:
        raise_it()
    error = info.value
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error) == text and copy.args == error.args
    for name, value in fields.items():
        assert getattr(copy, name) == getattr(error, name) == value


def test_too_deep_expressions_raise_value_error():
    node = parse(" + ".join(["x"] * 600))
    evaluate = compile_float(node, ("x",))
    # neither the generated code nor the replayed loop recurses per summand
    failing = compile_float(parse(" + ".join(["x"] * 600) + " + ln(x - 2)"), ("x",))
    # the printer walks any tree without recursing; Python's own compile
    # refuses a line of 20,000 terms
    too_long = parse(" + ".join(["x"] * 20000))
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack())
    try:
        sys.setrecursionlimit(depth + 300)
        assert eval_float(evaluate, (1.0,)) == 600.0
        with pytest.raises(EvalDomainError) as info:
            eval_float(failing, (1.0,))
        assert str(info.value) == "ln of non-positive value -1.0 in 'ln(x - 2)'"
        with pytest.raises(ValueError, match="expression too deep to evaluate"):
            compile_float(too_long, ("x",))
    finally:
        sys.setrecursionlimit(limit)
    assert eval_float(evaluate, (1.0,)) == 600.0


def test_generated_names_cannot_collide_with_variable_names():
    # without "(" the parser reads sin, pow and abs as variables
    node = parse("sin*pow + abs*p + v0*c1")
    names = ("v0", "c1", "sin", "pow", "abs", "p")
    for point in itertools.product((0.5, -2.25), repeat=len(names)):
        _assert_agrees(node, names, point)


def test_compiled_evaluator_reads_positions():
    evaluate = compile_float(parse("x - y"), ("y", "x"))
    assert evaluate([2.0, float(10**17 + 1)]) == eval_float(parse("x - y"), {"x": 10**17 + 1, "y": 2})
    # a point of another length fails the unpacking, and so does the replay
    for point in ((2.0,), (2.0, 3.0, 4.0), ()):
        with pytest.raises(ValueError, match="zip"):
            evaluate(point)
    # so does a nonempty point of a function of no names
    assert compile_float(parse("2.5"), ())(()) == 2.5
    with pytest.raises(ValueError, match="zip"):
        compile_float(parse("2.5"), ())((1.0,))
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


def test_lower_zero_summand_leaves_no_entry_in_the_term_order():
    # terms keep the order in which their monomials first occur
    assert list(as_poly("0*x*y + x^2 + x*y").terms) == [(2, 0), (1, 1)]
    assert list(as_poly("(x - x)^2*x*y + x^2 + x*y").terms) == [(2, 0), (1, 1)]


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
    assert evaluate(lowered, point) == exact_eval(node, env)


@settings(max_examples=60)
@given(poly_asts, poly_asts)
def test_lowering_is_linear_over_addition(a, b):
    combined = lower_to_polynomial(BinOp("+", a, b), ("x", "y"))
    assert combined == lower_to_polynomial(a, ("x", "y")) + lower_to_polynomial(b, ("x", "y"))


# sums of monomial summands, which lowering folds into one term each, with
# the factors it must multiply out: multi-term powers and sums, each one
# maybe negated, and divisions by a constant literal or a constant sum
_constants = st.integers(0, 9).map(lambda n: Const(Fraction(n)))
_variables = st.sampled_from("xyz").map(Var)


def _chain(op, nodes):
    node = nodes[0]
    for right in nodes[1:]:
        node = BinOp(op, node, right)
    return node


_monomials = st.lists(st.one_of(_constants, _variables), min_size=1, max_size=3).map(
    lambda factors: _chain("*", factors)
)
_two_term = st.tuples(_monomials, st.sampled_from("+-"), _monomials).map(lambda t: BinOp(t[1], t[0], t[2]))
_powers = st.tuples(st.one_of(_monomials, _two_term), st.integers(0, 4)).map(
    lambda t: BinOp("^", t[0], Const(Fraction(t[1])))
)
_Y_PLUS_1 = BinOp("+", Var("y"), Const(Fraction(1)))
_constant_sums = st.tuples(st.integers(1, 4), st.integers(0, 3)).map(
    lambda t: BinOp("+", Const(Fraction(t[0])), Const(Fraction(t[1])))
)
_factors = st.tuples(
    st.integers(0, 11).flatmap(
        lambda k: st.one_of(st.just(_Y_PLUS_1), _two_term) if k == 0
        else st.one_of(_constants, _variables, _powers)
    ),
    st.booleans(),
    st.one_of(st.none(), st.integers(1, 7).map(lambda n: Const(Fraction(n))), _constant_sums),
)


def _summand(factors):
    """Multiply the factors left to right, each one negated or followed by a
    division by a nonzero constant as drawn."""
    node = None
    for factor, negate, divisor in factors:
        factor = Neg(factor) if negate else factor
        node = factor if node is None else BinOp("*", node, factor)
        if divisor is not None:
            node = BinOp("/", node, divisor)
    return node


def _sum(pieces):
    """Add or subtract the summands left to right, as drawn."""
    node = pieces[0][1]
    for op, summand in pieces[1:]:
        node = BinOp(op, node, summand)
    return node


_summands = st.lists(_factors, min_size=1, max_size=4).map(_summand)
monomial_sums = st.lists(st.tuples(st.sampled_from("+-"), _summands), min_size=1, max_size=30).map(_sum)


@settings(max_examples=150, deadline=None)
@given(monomial_sums)
def test_lowering_a_sum_of_products_equals_the_factor_by_factor_product(node):
    from conftest import oracle_lower

    names = ("x", "y", "z")
    assert lower_to_polynomial(node, names) == oracle_lower(node, names)


def test_integer_literals_are_ints_and_decimal_literals_fractions():
    assert type(parse("12").value) is int and parse("12").value == 12
    assert type(parse("0.25").value) is Fraction and parse("0.25").value == Fraction(1, 4)
    for text in ("12", "0.25"):
        assert to_source(parse(text)) == text


@settings(max_examples=100, deadline=None)
@given(monomial_sums)
def test_lowered_terms_are_nonzero_fractions_under_int_exponent_tuples(node):
    # `==` cannot tell an int coefficient from a Fraction, so check the types;
    # the strategy's constants are Fractions, and reparsing its text turns
    # the integer ones into the parser's ints
    names = ("x", "y", "z")
    for tree in (node, parse(to_source(node))):
        p = lower_to_polynomial(tree, names)
        for key, coef in p.terms.items():
            assert type(coef) is Fraction and coef != 0
            assert type(key) is tuple and len(key) == len(names)
            assert all(type(e) is int and e >= 0 for e in key)
        assert Polynomial(p.vars, p.terms) == p


def test_lowering_cancels_equal_summands_to_one_term():
    assert as_poly("x*y - x*y + x").terms == {(1, 0): Fraction(1)}


_BROKEN = ["q", "x/0", "x/y", "x^y", "x^(1/2)", "sin(x)"]
_POSITIONS = ["{b}", "2*{b}", "{b}*y", "x*{b}*y^2", "-{b}*x", "x^2*y/3*{b}", "y + 3*{b}*x",
              "{b}*x^(1/2)", "x^(1/2)*{b}", "{b}/0", "(x + 1)^2*{b}", "x^2 - y*{b}",
              "(x + 1)*{b}", "{b}*(y - 1)", "x/(1 + 1)*{b}", "-(x + {b})*y"]


@pytest.mark.parametrize("position", _POSITIONS)
@pytest.mark.parametrize("broken", _BROKEN)
def test_lowering_a_broken_summand_raises_the_factor_by_factor_error(broken, position):
    from conftest import oracle_lower

    node = parse(position.format(b=broken))
    with pytest.raises(LoweringError) as expected:
        oracle_lower(node, ("x", "y"))
    with pytest.raises(LoweringError) as raised:
        lower_to_polynomial(node, ("x", "y"))
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("source, message", [
    ("x*q*y^2", "unregistered variable 'q'"),
    ("x^(1/2)*q", "exponent must be a nonnegative integer literal in 'x^(1/2)'"),
    ("x^y*x^(1/2)", "exponent must be a nonnegative integer literal in 'x^y'"),
    ("-x/0*x", "division by zero in '-x/0'"),
    ("x^(1/2)/0", "division by zero in 'x^(1/2)/0'"),
    ("x/y/0", "division by zero in 'x/y/0'"),
    ("y + 3*x/y*x", "division by a non-constant in '3*x/y'"),
    ("(x + 1)^2*sin(x)", "function calls have no polynomial form in 'sin(x)'"),
    ("x/(y - y)*q", "division by zero in 'x/(y - y)'"),
])
def test_lowering_error_messages_and_which_error_wins(source, message):
    with pytest.raises(LoweringError) as raised:
        lower_to_polynomial(parse(source), ("x", "y"))
    assert str(raised.value) == message


@pytest.mark.parametrize("source, names", [
    ("x^0", ("x",)),
    ("x^0", ("x", "y")),
    ("x^3*y^2", ("x", "y")),
    ("y^2*x^3", ("x", "y")),
    ("(x)^2", ("x", "y")),
    ("2*x^3 - (y)^2/3 + x^0*y", ("y", "x")),
    ("(2*x*y)^3", ("x", "y")),
    ("(x*y)^0", ("x", "y")),
    ("(x + y)^3", ("x", "y")),
])
def test_a_variable_base_lowers_as_the_factor_by_factor_oracle(source, names):
    from conftest import oracle_lower

    node = parse(source)
    lowered, expected = lower_to_polynomial(node, names), oracle_lower(node, names)
    assert lowered == expected and str(lowered) == str(expected)
    assert all(type(c) is Fraction for c in lowered.terms.values())


@pytest.mark.parametrize("node, error, message", [
    (parse("z^2"), LoweringError, "unregistered variable 'z'"),
    (parse("x*z^2"), LoweringError, "unregistered variable 'z'"),
    (parse("x^2.5"), LoweringError, "exponent must be a nonnegative integer literal in 'x^2.5'"),
    # the exponent is checked before the base
    (parse("z^2.5"), LoweringError, "exponent must be a nonnegative integer literal in 'z^2.5'"),
    # a library-built negative exponent reaches Polynomial.__pow__ (ROADMAP item 2's pitfall)
    (BinOp("^", Var("x"), Const(-2)), ValueError, "polynomial exponent must be a nonnegative integer, got -2"),
    (BinOp("^", Var("z"), Const(-2)), LoweringError, "unregistered variable 'z'"),
    (BinOp("*", Const(3), BinOp("^", BinOp("+", Var("x"), Var("y")), Const(-1))), ValueError,
     "polynomial exponent must be a nonnegative integer, got -1"),
])
def test_a_variable_base_raises_as_before(node, error, message):
    from conftest import oracle_lower

    for lowering in (lower_to_polynomial, oracle_lower):
        with pytest.raises((LoweringError, ValueError)) as raised:
            lowering(node, ("x", "y"))
        assert type(raised.value) is error and str(raised.value) == message, lowering


@pytest.mark.parametrize("read", [
    lambda node: eval_float(node, {"x": 7.0, "y": 3.0}),
    lambda node: compile_float(node, ("x", "y"))((7.0, 3.0)),
    to_source,
    lambda node: eval_residues(node, ("x", "y"), [(7, 3)]),
    lambda node: lower_to_polynomial(node, ("x", "y")),
    lambda node: additive_by_residues(node, ["x", "y"]),
    free_variables,
], ids=["eval_float", "compile_float", "to_source", "eval_residues", "lower_to_polynomial", "additive_by_residues",
        "free_variables"])
@pytest.mark.parametrize("node, op", [
    (BinOp("%", Var("x"), Var("y")), "%"),
    (BinOp("*", Const(2), BinOp("**", Var("x"), Const(2))), "**"),
    (BinOp("+", Var("y"), BinOp("+", Var("x"), BinOp("//", Var("x"), Var("y")))), "//"),
])
def test_an_unknown_operator_raises_one_error_on_every_path(read, node, op):
    # the parser builds none of these; a hand-built one is refused alike everywhere
    with pytest.raises(ValueError) as raised:
        read(node)
    assert type(raised.value) is ValueError and str(raised.value) == f"unknown operator {op!r}"


def test_each_variable_base_is_built_once_per_lowering(monkeypatch):
    from conftest import oracle_lower

    calls = []
    trusted = Polynomial._trusted
    monkeypatch.setattr(Polynomial, "_trusted", classmethod(lambda cls, *args: calls.append(args) or trusted(*args)))
    # only the sum is built: a power of a variable adds to its exponent slot
    node = parse("x^2*y^3 + x^3*y^2 + x^2 + y^2")
    lowered = lower_to_polynomial(node, ("x", "y"))
    assert len(calls) == 1
    assert lowered == oracle_lower(node, ("x", "y"))
    # no ^, so no base is built, however many variables are registered
    calls.clear()
    names = tuple(f"x{k}" for k in range(3000))
    lowered = lower_to_polynomial(parse(" + ".join(names)), names)
    assert len(calls) == 1 and len(lowered.terms) == 3000


# --------------------------------------------------------------------- residues


def _residue(value: Fraction) -> int:
    return value.numerator * pow(value.denominator, -1, RESIDUE_PRIME) % RESIDUE_PRIME


_coordinates = st.integers(-(10**30), 10**30)


@settings(max_examples=150, deadline=None)
@given(st.one_of(poly_asts, monomial_sums), st.lists(st.tuples(_coordinates, _coordinates, _coordinates),
                                                     min_size=1, max_size=3))
def test_residues_are_the_lowered_polynomial_mod_p(node, points):
    names = ("x", "y", "z")
    lowered = lower_to_polynomial(node, names)
    expected = [_residue(evaluate(lowered, point)) for point in points]
    assert eval_residues(node, names, points) == expected
    assert eval_residues(parse(to_source(node)), names, points) == expected


def test_residues_of_decimals_and_huge_powers():
    assert eval_residues(parse("x/0.25 + 0.5*y"), ("x", "y"), [(3, 4)]) == [14]
    # x^(p - 1) is 1 at every nonzero x (Fermat), and costs no products
    assert eval_residues(parse(f"x^{RESIDUE_PRIME - 1} + y^100000000"), ("x", "y"), [(5, 1), (-7, 0)]) == [2, 1]


_P_DIVISOR = f"x/{RESIDUE_PRIME} + y"


@pytest.mark.parametrize("node, names, lowers", [
    (parse("exp(x) + y"), ("x", "y"), False),
    (parse("x/y"), ("x", "y"), False),
    (parse("x/(1-1) + y"), ("x", "y"), False),
    (parse("x^y"), ("x", "y"), False),
    (parse("x^1.5 + y"), ("x", "y"), False),
    (parse("x^(-2)"), ("x", "y"), False),
    (BinOp("^", Var("x"), Const(-2)), ("x", "y"), False),
    (parse("x + q"), ("x", "y"), False),
    (parse("x + y"), ("x", "x"), False),
    # lowering succeeds on these, and the caller falls back to it
    (parse("x/(y-y+1)"), ("x", "y"), True),
    (parse(_P_DIVISOR), ("x", "y"), True),
    (BinOp("+", Var("x"), Const(Fraction(1, RESIDUE_PRIME))), ("x", "y"), True),
])
def test_residues_are_none_wherever_lowering_raises(node, names, lowers):
    assert eval_residues(node, names, [(2, 3)]) is None
    if lowers:
        lower_to_polynomial(node, names)
    else:
        with pytest.raises((LoweringError, ValueError)):
            lower_to_polynomial(node, names)
