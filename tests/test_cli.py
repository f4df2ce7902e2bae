import contextlib
import errno
import functools
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import P43_FACTOR_X, P43_FACTOR_Y, both_points_miss_source, build_p43, oracle_additive
from test_expr import ast_nodes, monomial_sums, poly_asts
import varsep
from varsep import Partition, exact, expr, parse_polynomial
from varsep.cli import build_parser, run
from varsep.expr import RESIDUE_PRIME, BinOp, Call, Const, Var, free_variables, parse, to_source

P43_SOURCE = str(build_p43())


def run_cli(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- separate


def test_separate_reference_polynomial_json(capsys):
    code, out, _ = run_cli(["separate", P43_SOURCE, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "varsep/1"
    assert payload["constant"] == "1"
    assert payload["factors"] == [P43_FACTOR_X, P43_FACTOR_Y]
    assert payload["blocks"] == [["x"], ["y"]]
    assert payload["verified"] is True


def test_separate_text_output(capsys):
    code, out, _ = run_cli(["separate", "6*x*y"], capsys)
    assert code == 0
    assert "constant: 6" in out
    assert "factor [x]: x" in out
    assert "factor [y]: y" in out


def test_separate_json_round_trips_to_the_input(capsys):
    code, out, _ = run_cli(["separate", P43_SOURCE, "--format", "json"], capsys)
    payload = json.loads(out)
    expected = parse_polynomial(P43_SOURCE)
    product = parse_polynomial(payload["constant"], expected.vars)
    for factor in payload["factors"]:
        product = product * parse_polynomial(factor, expected.vars)
    assert product == expected


def test_separate_not_separable_exits_1(capsys):
    for fmt in ("text", "json"):
        code, out, err = run_cli(["separate", "x^2 + y^2", "--format", fmt], capsys)
        assert (code, out) == (1, "")
        assert err == "error: not totally separable: coefficient condition fails at index (0, 0)\n"
    code, _, err = run_cli(["separate", "x^2*y + x*y^2 + z"], capsys)
    assert err == "error: not totally separable: coefficient condition fails at index (2, 2, 1)\n"


def test_separate_json_for_minimal_product(capsys):
    code, out, _ = run_cli(["separate", "x*y", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "schema": "varsep/1",
        "constant": "1",
        "blocks": [["x"], ["y"]],
        "factors": ["x", "y"],
        "verified": True,
    }


# --------------------------------------------------------------------- check


def test_check_separable(capsys):
    code, out, _ = run_cli(["check", "x*y"], capsys)
    assert code == 0
    assert out.strip() == "separable"


def test_check_not_separable(capsys):
    code, out, _ = run_cli(["check", "x^2 + y^2"], capsys)
    assert code == 1
    assert out.strip() == "not separable"


def test_check_json_reports_partition_and_violation(capsys):
    code, out, _ = run_cli(["check", "x^2 + y^2", "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["separable"] is False
    assert payload["partition"] == [["x", "y"]]
    assert payload["violation"] is not None


def test_check_json_names_a_witness_per_edge_that_joined_two_blocks(capsys):
    code, out, _ = run_cli(["check", "(x^2 + y^2)*(z + w + 1)", "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    # a spanning forest: n - r entries for n variables in r blocks
    assert [entry["pair"] for entry in payload["witnesses"]] == [["x", "y"], ["z", "w"]]
    assert len(payload["witnesses"]) == 4 - len(payload["partition"])
    for entry in payload["witnesses"]:
        assert len(entry["point"]) == 4 and all(isinstance(c, int) and c for c in entry["point"])


def test_check_witnesses_the_pair_both_fixed_points_miss(capsys):
    # the (x, y) pair value vanishes at both fixed witness points; a fresh
    # point witnesses it instead of a symbolic expansion of 486 terms
    code, out, _ = run_cli(["check", both_points_miss_source(), "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["partition"] == [["x", "y"], ["z1"], ["z2"], ["z3"], ["z4"]]
    assert [entry["pair"] for entry in payload["witnesses"]] == [["x", "y"]]


def test_check_exits_4_when_the_exact_routes_disagree(capsys, monkeypatch):
    # a coefficient route that wrongly calls x + y separable is caught: the
    # pair route witnesses the edge (x, y) on its own
    monkeypatch.setattr(exact, "coeff_criterion_total", lambda poly: None)
    for fmt in ("text", "json"):
        code, out, err = run_cli(["check", "x + y", "--format", fmt], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal inconsistency")
        assert "the differential and coefficient routes disagree" in err
        assert "(matrix: False, coefficients: True)" in err
        assert "Traceback" not in err


def test_check_exits_4_when_the_pair_route_wrongly_joins_what_the_coefficients_separate(capsys, monkeypatch):
    # check runs the coefficient route first; a pair route that reports one
    # block on x*y is still caught
    def one_block(poly):
        return exact.SepMatrixReport(names=poly.vars, partition=Partition(((0, 1),)), witnesses={})

    monkeypatch.setattr(exact, "finest_partition", one_block)
    for fmt in ("text", "json"):
        code, out, err = run_cli(["check", "x*y", "--format", fmt], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("error: internal inconsistency")
        assert "(matrix: False, coefficients: True)" in err
        assert "Traceback" not in err


# --------------------------------------------------------------------- integers of any size

LONG_LITERAL = "7" * 5000


def _int_max_str_digits():
    # absent before the limit was introduced (3.10.7, 3.11)
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_integers_past_the_str_digit_limit_read_and_print_exactly(capsys):
    limit = _int_max_str_digits()
    power = "1" + "0" * 5000
    cases = [
        (["separate", "10^5000*x*y"], f"constant: {power}\nfactor [x]: x\nfactor [y]: y\n"),
        (["separate", "x/10^5000"], f"constant: 1/{power}\nfactor [x]: x\n"),
        (["separate", "x^2*y + 10^5000*y"], f"constant: 1\nfactor [x]: x^2 + {power}\nfactor [y]: y\n"),
        # 777...7.5 is 1555...5/2
        (["separate", f"x - {LONG_LITERAL}.5"], f"constant: 1\nfactor [x]: x - 1{'5' * 5000}/2\n"),
        (["check", f"{LONG_LITERAL}*x"], "separable\n"),
        (["partition", f"{LONG_LITERAL}*x*y"], "{x} {y}\n"),
    ]
    for argv, expected in cases:
        assert run_cli(argv, capsys) == (0, expected, ""), argv[1][:20]
    code, out, _ = run_cli(["separate", "10^5000*x*y", "--format", "json"], capsys)
    assert (code, json.loads(out)["constant"]) == (0, power)
    # an error message renders the literal through to_source
    code, _, err = run_cli(["separate", f"sin({LONG_LITERAL}*x)"], capsys)
    assert (code, err) == (2, f"error: function calls have no polynomial form in 'sin({LONG_LITERAL}*x)'\n")
    assert _int_max_str_digits() == limit


# --------------------------------------------------------------------- closed stdout


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv, code", [(["check", "x*y", "--format", "json"], 0), (["check", "x + y"], 1)])
def test_closed_stdout_keeps_the_exit_code_and_writes_no_error(argv, code, capsys, monkeypatch):
    read, write = os.pipe()
    os.close(read)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(write))
        assert run(argv) == code
        # the descriptor now leads to devnull, so the flush at exit cannot fail
        assert os.write(write, b"x") == 1
    finally:
        os.close(write)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, code", [(["check", "x*y", "--format", "json"], 0), (["check", "x + y"], 1)])
def test_closed_stdout_pipe_in_a_subprocess(argv, code):
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "varsep", *argv], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (code, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["check", "x*y"], ["check", "x + y", "--format", "json"]])
def test_output_that_cannot_be_written_exits_4_with_one_error_line(argv):
    # every write to /dev/full fails with ENOSPC, as on a full disk
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "varsep", *argv], stdout=full, stderr=subprocess.PIPE)
    assert result.returncode == 4
    assert result.stderr.decode().splitlines() == ["error: cannot write output: [Errno 28] No space left on device"]


@pytest.mark.parametrize("argv, code", [(["check", "2x"], 2), (["check", "0"], 3)])
def test_closed_stderr_keeps_the_exit_code(argv, code):
    # with descriptor 2 closed before start, sys.stderr is None; with it
    # open read-only, the write raises OSError (EBADF)
    closed = subprocess.run(["sh", "-c", 'exec "$0" -m varsep "$@" 2>&-', sys.executable, *argv],
                            capture_output=True)
    assert (closed.returncode, closed.stdout) == (code, b"")
    with open(os.devnull, "rb") as read_only:
        unwritable = subprocess.run([sys.executable, "-m", "varsep", *argv],
                                    stdout=subprocess.PIPE, stderr=read_only)
    assert (unwritable.returncode, unwritable.stdout) == (code, b"")


# --------------------------------------------------------------------- partition


def test_partition_json(capsys):
    source = "(x1*x2 + 1)*(x3 + x4)"
    code, out, _ = run_cli(["partition", source, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"schema": "varsep/1", "blocks": [["x1", "x2"], ["x3", "x4"]]}


def test_partition_text(capsys):
    code, out, _ = run_cli(["partition", "(x^2 + y^2)*z"], capsys)
    assert code == 0
    assert out.strip() == "{x,y} {z}"


# --------------------------------------------------------------------- additive


def test_additive_verdicts(capsys):
    code, out, _ = run_cli(["additive", "x^2 + y^2"], capsys)
    assert code == 0 and "additively separable" == out.strip()
    code, out, _ = run_cli(["additive", "x*y"], capsys)
    assert code == 0 and "not additively separable" == out.strip()
    code, out, _ = run_cli(["additive", "x^3 + 2*y + 5", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["additively_separable"] is True


def _run_within(argv, capsys, seconds):
    """run_cli, stopped by SIGALRM with a TimeoutError past `seconds`, so a
    route that expands F fails the test instead of hanging the suite."""
    def expired(signum, frame):
        raise TimeoutError(f"{argv} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run_cli(argv, capsys)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("source, verdict", [
    ("x^100000000 + y", "additively separable"),
    ("x^100000000*y + y", "not additively separable"),
    ("(x+1)^100000 + y", "additively separable"),
    ("(x+y)^100000000", "not additively separable"),
    ("(x^100000000 + y)/2", "additively separable"),
    ("2*(x^100000000 + y)", "additively separable"),
    ("(x^100000000*y + y)/2", "not additively separable"),
])
def test_additive_answers_huge_powers_without_expanding(source, verdict, capsys):
    assert _run_within(["additive", source], capsys, 1.0) == (0, verdict + "\n", "")


PRODUCT_400 = "*".join(f"x{k}" for k in range(400))


@pytest.mark.parametrize("source, mixed", [
    ("3", False),
    ("x^3 + 2*y + 5", False),
    ("2*(x^100000000 + y)/3", False),
    ("x*y", True),
    ("x0*x4 + x1 + x2 + x3", True),
    ("x*y - x*y + z", True),
    ("(x + y + z + w + u)^40 + v", True),
    pytest.param(PRODUCT_400, True, id="x0*...*x399"),
])
def test_additive_evaluates_two_points_per_index_bit(source, mixed, monkeypatch):
    """The anchor alone when no summand mixes variables; else the anchor,
    the moved point and two points per bit of a variable index."""
    counts, evaluate = [], expr.eval_residues

    def counting(node, names, points):
        counts.append(len(points))
        return evaluate(node, names, points)

    monkeypatch.setattr(expr, "eval_residues", counting)
    node = parse(source)
    names = free_variables(node)
    expr.additive_by_residues(node, names)
    assert counts == ([2 + 2 * math.ceil(math.log2(len(names)))] if mixed else [1])


def test_additive_on_a_400_variable_product_is_prompt(capsys):
    assert _run_within(["additive", PRODUCT_400], capsys, 0.1) == (0, "not additively separable\n", "")


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 17])
def test_additive_finds_a_pair_that_differs_in_the_highest_index_bit_only(n, capsys):
    # x0 and x_top differ in bit (n - 1).bit_length() - 1 and in no other
    names = [f"x{k}" for k in range(n)]
    top = 1 << ((n - 1).bit_length() - 1)
    source = " + ".join([f"x0*x{top}", *(name for k, name in enumerate(names) if k not in (0, top))])
    assert expr.additive_by_residues(parse(source), names) is False
    argv = ["--vars", ",".join(names), source]
    assert run_cli(["additive", *argv], capsys) == (0, "not additively separable\n", "") == oracle_additive(argv)
    # the cancelling twin: its mixed summand leaves no split difference
    twin = f"x0*x{top} - x0*x{top} + x1"
    assert expr.additive_by_residues(parse(twin), names) is None
    argv = ["--vars", ",".join(names), twin]
    assert run_cli(["additive", *argv], capsys) == (0, "additively separable\n", "") == oracle_additive(argv)


@pytest.mark.parametrize("argv, expected", [
    (["x*y - x*y + x"], (0, "additively separable\n", "")),
    (["(x+y)^2 - 2*x*y"], (0, "additively separable\n", "")),
    ([f"x/{RESIDUE_PRIME} + y"], (0, "additively separable\n", "")),
    (["x - x"], (3, "", "error: the zero polynomial is degenerate input\n")),
    (["0"], (3, "", "error: the zero polynomial is degenerate input\n")),
    (["x + y", "--vars", "x,x"], (2, "", "error: duplicate variable names in ('x', 'x')\n")),
])
def test_additive_falls_back_to_lowering_where_residues_certify_nothing(argv, expected, capsys):
    node = parse(argv[0])
    names = argv[2].split(",") if len(argv) > 1 else free_variables(node)
    assert expr.additive_by_residues(node, names) is None
    assert run_cli(["additive", *argv], capsys) == expected == oracle_additive(argv)


# pieces lowering rejects: a call, a divisor with a variable, a zero divisor,
# and exponents that are not integer literals
_BROKEN = [
    Call("exp", Var("x")),
    BinOp("/", Var("x"), Var("y")),
    BinOp("/", Var("y"), BinOp("-", Const(1), Const(1))),
    BinOp("^", Var("x"), Var("y")),
    BinOp("^", Var("x"), Const(Fraction(3, 2))),
]
# factors and divisors without a variable, a zero and a multiple of the prime among them
_SCALARS = st.sampled_from([Const(2), Const(Fraction(1, 3)), Const(RESIDUE_PRIME), BinOp("-", Const(1), Const(1))])


def _scaled(t):
    """The sum times or over the scalar, or the scalar times the sum."""
    op, summands, scalar, scalar_first = t
    return BinOp(op, scalar, summands) if op == "*" and scalar_first else BinOp(op, summands, scalar)


_WIDE = [f"x{k}" for k in range(12)]


def _wide(t):
    """The product of the factors, each x_k or x_k + 1, plus the summands."""
    factors, summands = t
    product = functools.reduce(lambda a, b: BinOp("*", a, b), [BinOp("+", v, Const(1)) if shift else v
                                                               for v, shift in factors])
    return functools.reduce(lambda a, b: BinOp("+", a, b), summands, product)


# products over up to 12 of x0..x11 plus summands of one variable each: their
# mixed pairs may differ in any bit of their indexes
wide_products = st.tuples(
    st.lists(st.tuples(st.sampled_from(_WIDE).map(Var), st.booleans()), min_size=1, max_size=12),
    st.lists(st.sampled_from(_WIDE).map(Var), max_size=4),
).map(_wide)
additive_inputs = st.one_of(
    poly_asts,
    monomial_sums,
    wide_products,
    st.tuples(st.sampled_from("*/"), poly_asts | monomial_sums, _SCALARS, st.booleans()).map(_scaled),
    # A - A + B: the cross terms of A cancel, so only lowering decides
    st.tuples(poly_asts | wide_products, poly_asts | wide_products).map(
        lambda t: BinOp("+", BinOp("-", t[0], t[0]), t[1])),
    st.tuples(st.sampled_from("+*"), poly_asts, st.sampled_from(_BROKEN)).map(lambda t: BinOp(*t)),
)
vars_flags = st.one_of(
    st.just([]),
    st.lists(st.sampled_from("xyz"), min_size=1, max_size=4).map(lambda names: ["--vars", ",".join(names)]),
    st.permutations(_WIDE).map(lambda names: ["--vars", ",".join(names)]),
)


@settings(max_examples=300, deadline=None)
@given(additive_inputs, vars_flags, st.sampled_from(["text", "json"]))
@example(parse("x*y - x*y + x"), [], "text")
@example(parse("(x + y)^2 - 2*x*y"), ["--vars", "y,x"], "json")
@example(parse("x - x"), [], "text")
@example(parse("0*x*y"), ["--vars", "x,y"], "json")
@example(parse("x*y + z"), ["--vars", "x,y"], "text")
@example(parse("z - (x + -(x*y))"), [], "text")
@example(parse("2*((x^3 + y)/3)"), [], "json")
@example(parse("(x*y)/2"), [], "text")
@example(parse("3*(x + y)*x"), [], "text")
@example(parse("(x^2 + y)/(1 - 1)"), [], "text")
def test_additive_equals_the_lowering_oracle(node, flags, fmt):
    argv = [*flags, "--format", fmt, "--", to_source(node)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["additive", *argv])
    expected = oracle_additive(argv)
    assert (code, out.getvalue(), err.getvalue()) == expected
    parsed = parse(to_source(node))
    verdict = expr.additive_by_residues(parsed, flags[1].split(",") if flags else free_variables(parsed))
    if verdict is not None:
        word = "additively separable" if verdict else "not additively separable"
        payload = json.dumps({"schema": "varsep/1", "additively_separable": verdict})
        assert expected == (0, (payload if fmt == "json" else word) + "\n", "")


# --------------------------------------------------------------------- numeric


def test_numeric_separable_quotient(capsys):
    code, out, _ = run_cli(
        ["numeric", "sin(x)/cos(y)", "--grid", "x=-1:1:9", "--grid", "y=-1:1:9"], capsys
    )
    assert code == 0
    assert "verdict: separable" in out
    assert "{x} {y}" in out


def test_numeric_json_schema_shape(capsys):
    code, out, _ = run_cli(
        ["numeric", "x^2 + y^2", "--grid", "x=-1:1:5", "--grid", "y=-1:1:5", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "varsep/1"
    assert payload["verdict"] == "not separable"
    assert payload["blocks"] == [["x", "y"]]
    assert len(payload["residuals"]) == 2 and len(payload["residuals"][0]) == 2
    assert payload["tolerance"] == 1e-8
    assert payload["skipped"] == 0


def test_numeric_tolerance_flag(capsys):
    # with an absurdly loose tolerance everything looks separable
    code, out, _ = run_cli(
        ["numeric", "x^2 + y^2", "--grid", "x=-1:1:5", "--grid", "y=-1:1:5", "--tol", "10", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "separable"


def test_numeric_degenerate_input_exits_3(capsys):
    code, _, err = run_cli(["numeric", "0*x + 0*y"], capsys)
    assert code == 3
    assert "degeneracy floor" in err


def test_numeric_unbound_variable_exits_2(capsys):
    code, out, err = run_cli(["numeric", "x*y", "--vars", "x"], capsys)
    assert code == 2
    assert out == ""
    assert "variable 'y' has no bound value" in err


def test_numeric_too_deep_expression_exits_2(capsys):
    # --vars skips free_variables, so the deep sum reaches the numeric route;
    # the emitter walks a sum without recursing, and Python's own compile
    # refuses a 20,000-term line
    code, out, err = run_cli(["numeric", "--vars", "x,y", "--", "x + " * 20000 + "y"], capsys)
    assert code == 2
    assert out == ""
    assert "expression too deep to evaluate" in err


def test_numeric_skips_the_domain_gap_of_a_long_sum(capsys):
    # the points where ln(x) is undefined replay the reference loop, which
    # does not recurse once per summand
    source = " + ".join(["x"] * 1199) + " + ln(x)"
    code, out, err = run_cli(["numeric", "--vars", "x", "--", source], capsys)
    assert (code, err) == (0, "")
    assert "skipped 4 of 9 evaluations" in out.splitlines()


def test_numeric_answers_a_2000_term_sum(capsys):
    source = " + ".join(f"{k}*x" for k in range(1, 2001))
    code, out, err = run_cli(["numeric", "--vars", "x", "--", source], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "verdict: separable"


LONG_SUM = "(" + " + ".join(["x"] * 600) + ")"


def test_error_message_rendering_a_long_sum_exits_2(capsys):
    # the message quotes the 600-term quotient, which the printer renders
    # without recursing once per summand
    code, out, err = run_cli(["check", LONG_SUM + "/y"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: division by a non-constant in '(x + x + ")
    assert err.endswith(" + x)/y'\n")


def test_numeric_long_sum_over_zero_exits_3(capsys):
    # every evaluation divides by zero, as with a 300-term sum
    for terms in (300, 600):
        source = "(" + " + ".join(["x"] * terms) + ")/(y - y)"
        code, out, err = run_cli(["numeric", source], capsys)
        assert (code, out) == (3, ""), terms
        assert "no sampled grid point keeps |f| above the degeneracy floor" in err


def test_numeric_overflowing_scale_is_not_called_separable(capsys):
    # f(a)*f(x) overflows at every test point; those points are skipped, not
    # read as noise, so x^2 + y^2 is not called separable
    code, out, err = run_cli(["numeric", "1" + "0" * 200 + "*(x^2 + y^2)"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: every sample for pair (x, y) left the domain or overflowed\n"


@pytest.mark.parametrize(
    "source, word, blocks",
    [
        ("(x*y + 1)*exp(z)", "partition", [["x", "y"], ["z"]]),
        ("x + y", "not separable", [["x", "y"]]),
        ("5", "separable", []),
    ],
)
def test_numeric_words_the_verdict_from_the_partition(source, word, blocks, capsys):
    code, out, _ = run_cli(["numeric", source], capsys)
    assert code == 0
    assert out.splitlines()[0] == f"verdict: {word}"
    code, out, _ = run_cli(["numeric", source, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == word and payload["blocks"] == blocks


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_numeric_residual_stays_finite_when_the_difference_overflows(capsys):
    # f(a)*f(x) and f(x_I,a_J)*f(a_I,x_J) are finite near 1e308 with opposite
    # signs, so their difference overflows; the residual must stay valid JSON
    argv = ["numeric", "10^154*(x - y)*1.3", "--grid", "x=-1:1:5", "--grid", "y=-1:1:5"]
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["verdict"] == "not separable"
    assert 1.0 <= payload["residuals"][0][1] <= 2.0
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "inf" not in out


def test_numeric_grid_axis_is_bounded_by_the_sample_budget(capsys):
    code, out, _ = run_cli(["numeric", "x*y", "--grid", "x=0.5:1:4096"], capsys)
    assert code == 0
    assert out.startswith("verdict: separable\n")
    code, out, err = run_cli(["numeric", "x*y", "--grid", "x=0.5:1:4097"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: grid spec 'x=0.5:1:4097' has more than 4096 coordinates\n"


NESTED_INPUTS = {
    # kind: (opening text, closing text, check exit, numeric exit) at 100 levels;
    # calls and non-literal exponents have no polynomial form, and the
    # exponent tower leaves the domain at most sample points
    "group": ("(", ")", 0, 0),
    "call": ("sin(", ")", 2, 0),
    "minus": ("-", "", 0, 0),
    "power": ("x^", "", 2, 3),
}


@pytest.mark.parametrize("kind", sorted(NESTED_INPUTS))
def test_nesting_limit_is_a_usage_error(kind, capsys):
    opener, closer, check_code, numeric_code = NESTED_INPUTS[kind]
    for command, expected in (("check", check_code), ("numeric", numeric_code)):
        code, _, err = run_cli([command, "--", opener * 100 + "x*y" + closer * 100], capsys)
        assert code == expected, (command, err)
        assert "nesting" not in err
        code, out, err = run_cli([command, "--", opener * 101 + "x*y" + closer * 101], capsys)
        assert code == 2
        assert out == ""
        assert "nesting deeper than 100 levels" in err


@pytest.mark.parametrize("source", [
    "(" * 2000 + "x*y" + ")" * 2000,
    "-" * 1500 + "x*y",
    "x^" * 600 + "1*y",
])
def test_deeply_nested_input_exits_2_without_recursion_error(source, capsys):
    code, out, err = run_cli(["check", "--", source], capsys)
    assert code == 2
    assert out == ""
    assert "nesting deeper than 100 levels" in err


@pytest.mark.parametrize("source", ["1" + "0" * 400 + "*x*y", "x*y/1" + "0" * 400])
def test_numeric_literal_beyond_float_range_exits_3(source, capsys):
    # every sample point overflows, so no usable anchor exists
    code, out, err = run_cli(["numeric", source], capsys)
    assert code == 3
    assert out == ""
    assert "degeneracy floor" in err


def test_numeric_rejects_non_finite_grid_endpoints(capsys):
    for spec in ("x=0:inf:5", "x=nan:1:5", "x=-inf:0:3", "x=-1e400:1:3", "x=-1e308:1e308:3"):
        code, out, err = run_cli(["numeric", "x*y", "--grid", spec], capsys)
        assert code == 2, spec
        assert out == ""
        assert repr(spec) in err and "finite endpoints" in err


def test_reused_parser_carries_no_state_between_runs(capsys):
    table = repr(build_parser())
    plain = ["numeric", "x^2 + y^2", "--format", "json"]
    first = run_cli(plain, capsys)
    loose = run_cli(plain + ["--grid", "x=-1:1:5", "--grid", "y=-1:1:5", "--tol", "10"], capsys)
    again = run_cli(plain, capsys)
    assert repr(build_parser()) == table
    assert json.loads(loose[1])["tolerance"] == 10
    assert again == first
    assert json.loads(first[1])["tolerance"] == 1e-8
    assert json.loads(first[1])["evaluated"] != json.loads(loose[1])["evaluated"]


# --------------------------------------------------------------------- variables, stdin, errors


def test_vars_override_orders_factors(capsys):
    code, out, _ = run_cli(["separate", "y*x", "--vars", "y,x", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["blocks"] == [["y"], ["x"]]


def test_vars_override_may_add_absent_variables(capsys):
    code, out, _ = run_cli(["separate", "x*y", "--vars", "x,y,z", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["factors"] == ["x", "y", "1"]


def test_expression_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("x*y"))
    code, out, _ = run_cli(["check", "-"], capsys)
    assert code == 0
    assert out.strip() == "separable"


class _UnreadableStdin(io.StringIO):
    def read(self, *args):
        raise OSError(errno.EBADF, "Bad file descriptor")


@pytest.mark.parametrize("stdin, reason", [(None, "closed"), (_UnreadableStdin(), "[Errno 9] Bad file descriptor")])
def test_unreadable_stdin_is_a_usage_error(stdin, reason, capsys, monkeypatch):
    # sys.stdin is None when descriptor 0 was closed before start
    monkeypatch.setattr(sys, "stdin", stdin)
    for command in ("check", "numeric"):
        assert run_cli([command, "-"], capsys) == (2, "", f"error: cannot read the expression from stdin: {reason}\n")


def test_unreadable_stdin_in_a_subprocess():
    closed = subprocess.run(["sh", "-c", 'exec "$0" -m varsep check - <&-', sys.executable], capture_output=True)
    assert (closed.returncode, closed.stdout, closed.stderr) == (
        2, b"", b"error: cannot read the expression from stdin: closed\n")
    with open(os.devnull, "wb") as write_only:
        unreadable = subprocess.run([sys.executable, "-m", "varsep", "check", "-"], stdin=write_only,
                                    capture_output=True)
    assert (unreadable.returncode, unreadable.stdout, unreadable.stderr) == (
        2, b"", b"error: cannot read the expression from stdin: [Errno 9] Bad file descriptor\n")


def test_parse_error_exits_2_with_byte_offset(capsys):
    code, _, err = run_cli(["check", "x + + y"], capsys)
    assert code == 2
    assert "byte 4" in err


def test_non_polynomial_input_to_exact_command_exits_2(capsys):
    code, _, err = run_cli(["check", "sin(x)*y"], capsys)
    assert code == 2
    assert "polynomial" in err


def test_zero_polynomial_exits_3(capsys):
    for command in ("check", "separate", "partition", "additive"):
        for source in ("0", "x - x", "0*y"):
            code, out, err = run_cli([command, source], capsys)
            assert code == 3, (command, source)
            assert out == "" and err == "error: the zero polynomial is degenerate input\n"


def test_usage_errors_exit_2(capsys):
    assert run_cli([], capsys)[0] == 2
    assert run_cli(["frobnicate", "x"], capsys)[0] == 2
    assert run_cli(["check"], capsys)[0] == 2
    # numeric-only flags are rejected on exact subcommands and vice versa
    assert run_cli(["check", "x*y", "--grid", "x=0:1:5"], capsys)[0] == 2
    assert run_cli(["check", "x*y", "--tol", "1e-6"], capsys)[0] == 2
    assert run_cli(["numeric", "x*y", "--grid", "bogus"], capsys)[0] == 2
    # every --vars name must be one identifier
    for names in ("x,y,1bad", "x,,y", "x,y z", "x,y*z", "x,y$", "x,\u00e9", "x,(y)", "x,-y", "x,2"):
        assert run_cli(["check", "x*y", "--vars", names], capsys)[0] == 2, names
    # a function name or digits inside a name still make one identifier
    for names in ("x,y,sin", "x,y,x1y"):
        assert run_cli(["check", "x*y", "--vars", names], capsys)[0] == 0, names
    assert run_cli(["numeric", "x*y", "--vars", "x,1bad"], capsys)[0] == 2
    assert run_cli(["numeric", "x*y", "--vars", "x,x,y"], capsys)[0] == 2
    # the tolerance must be finite and nonnegative
    for tol in ("-1", "-1e-9", "nan", "inf", "-inf"):
        code, _, err = run_cli(["numeric", "x + y", f"--tol={tol}"], capsys)
        assert code == 2, tol
        assert "tolerance" in err
    assert run_cli(["--help"], capsys)[0] == 0


def test_empty_vars_is_a_usage_error(capsys):
    for command in ("check", "numeric"):
        for flag in (["--vars", ""], ["--vars="]):
            code, out, err = run_cli([command, "x*y", *flag], capsys)
            assert (code, out) == (2, ""), (command, flag)
            assert err == "error: invalid variable name '' in --vars ''\n"


def test_unknown_grid_variable_exits_2(capsys):
    code, _, err = run_cli(["numeric", "x*y", "--grid", "q=0:1:5"], capsys)
    assert code == 2
    assert "unknown variable" in err
    # a blank name is a malformed spec, not an unknown variable
    code, _, err = run_cli(["numeric", "x*y", "--grid", " =0:1:3"], capsys)
    assert (code, err) == (2, "error: grid spec ' =0:1:3' must look like 'x=-1:1:9'\n")


def test_grid_given_twice_for_one_variable_exits_2(capsys):
    code, out, err = run_cli(["numeric", "x*y", "--grid", "x=0:1:2", "--grid", "x=5:6:2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: grid given twice for variable 'x'\n"


CHECK_HELP = """usage: varsep check [-h] [--vars VARS] [--format {text,json}] expression

positional arguments:
  expression            expression text, or '-' to read from stdin

options:
  -h, --help            show this help message and exit
  --vars VARS           comma-separated variable order override
  --format {text,json}
"""

TOP_HELP = """usage: varsep [-h] {check,separate,partition,additive,numeric} ...

Decide and carry out multiplicative separation of variables.

positional arguments:
  {check,separate,partition,additive,numeric}
    check               total-separability verdict and its witnesses
    separate            extract the univariate factors
    partition           finest separating partition
    additive            additive separability verdict
    numeric             tolerance-based test for black-box expressions

options:
  -h, --help            show this help message and exit
"""

XY_CHECK = '{"schema": "varsep/1", "separable": true, "partition": [["x"], ["y"]], "violation": null, "witnesses": []}\n'
XY_GRID = ('{"schema": "varsep/1", "verdict": "separable", "blocks": [["x"], ["y"]], "residuals": [[0.0, 0.0], '
           '[0.0, 0.0]], "tolerance": %s, "anchor": [1.0, %s], "evaluated": %d, "skipped": 0, "discarded": %d}\n')


# argv forms read by argparse's rules, with the exit code, stdout and stderr they give
ARGV_FORMS = [
    # a negative number, or an argument with a space, is an operand
    (["check", "-5"], 0, "separable\n", ""),
    (["check", "-2.5"], 0, "separable\n", ""),
    (["check", "-x * y"], 0, "separable\n", ""),
    (["check", "-5", "--format", "json"], 0, XY_CHECK.replace('[["x"], ["y"]]', "[]"), ""),
    # options before or after the expression, a unique prefix, --opt=value
    (["check", "--format", "json", "x*y"], 0, XY_CHECK, ""),
    (["check", "x*y", "--format=json"], 0, XY_CHECK, ""),
    (["check", "--fo", "json", "x*y"], 0, XY_CHECK, ""),
    (["check", "--fo=json", "-"], 0, XY_CHECK, ""),
    # help at the top or after a command, by -h, --help or a prefix
    (["check", "--h"], 0, CHECK_HELP, ""),
    (["check", "x*y", "-h", "--format", "xml"], 0, CHECK_HELP, ""),
    (["separate", "--help"], 0, CHECK_HELP.replace("varsep check", "varsep separate"), ""),
    (["-h"], 0, TOP_HELP, ""),
    (["--h"], 0, TOP_HELP, ""),
    # the last of a repeated --vars or --format wins; repeated grids add up
    (["separate", "y*x", "--vars", "x,y", "--vars=y,x", "--format", "json"], 0,
     '{"schema": "varsep/1", "constant": "1", "blocks": [["y"], ["x"]], "factors": ["y", "x"], "verified": true}\n', ""),
    (["check", "x + y", "--format", "text", "--format", "json"], 1,
     '{"schema": "varsep/1", "separable": false, "partition": [["x", "y"]], "violation": [0, 0], '
     '"witnesses": [{"pair": ["x", "y"], "point": [-12, -47]}]}\n', ""),
    (["numeric", "x*y", "--grid=x=0:1:3", "--format", "json"], 0, XY_GRID % ("1e-08", "1.7", 54, 9), ""),
    (["numeric", "x*y", "--grid", "x=0:1:3", "--grid", "y=0:2:3", "--format", "json"], 0,
     XY_GRID % ("1e-08", "2.0", 18, 5), ""),
    (["numeric", "x*y", "--gr", "x=0:1:3", "--g=y=0:2:3", "--to", "0.5", "--format", "json"], 0,
     XY_GRID % ("0.5", "2.0", 18, 5), ""),
    # a value may start with "-"; after "--" every argument is an operand
    (["numeric", "x*y", "--tol", "-0"], 0,
     "verdict: not separable\npartition: {x,y}\nmax residual: 2.941e-16 (tolerance -0.0e+00)\n", ""),
    (["numeric", "x*y", "--tol", "-1"], 2, "", "error: tolerance -1.0 must be finite and nonnegative\n"),
    (["separate", "--", "-2.5*x^2*y + 0.5*x^2"], 0, "constant: -5/2\nfactor [x]: x^2\nfactor [y]: y - 1/5\n", ""),
    (["check", "--", "-x"], 0, "separable\n", ""),
    (["partition", "x*y*z + x", "--"], 0, "{x} {y,z}\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", ARGV_FORMS, ids=[" ".join(form[0]) for form in ARGV_FORMS])
def test_argv_forms_read_as_argparse_read_them(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("x*y"))
    assert run_cli(argv, capsys) == (code, out, err)



# outputs the packaging smoke test (.github/workflows/tests.yml) pins on the
# installed console script, read here through cli.run
SCRIPT_PINS = [
    (["check", "--format", "json", "x*y*z + x*y*w + 2*x*y + z + w + 2"], 1,
     '{"schema": "varsep/1", "separable": false, "partition": [["x", "y"], ["z", "w"]], "violation": [1, 1, 1, 1], '
     '"witnesses": [{"pair": ["x", "y"], "point": [-39, -51, 20, -9]}, '
     '{"pair": ["z", "w"], "point": [-39, -51, 20, -9]}]}\n',
     ""),
    (["check", "--format", "json", "x*y + y*z + 1"], 1,
     '{"schema": "varsep/1", "separable": false, "partition": [["x", "y", "z"]], "violation": [1, 1, 1], '
     '"witnesses": [{"pair": ["x", "y"], "point": [-17, 61, -2]}, {"pair": ["x", "z"], "point": [-17, 61, -2]}]}\n',
     ""),
    (["partition", "x*y + x + y + 2"], 0, "{x,y}\n", ""),
    (["check", "x*y + x + y + 2"], 1, "not separable\n", ""),
    (["check", "x + @"], 2, "", "error: syntax error at byte 4: unexpected character '@'\n"),
    (["check", "x/(y - 1)"], 2, "", "error: division by a non-constant in 'x/(y - 1)'\n"),
    (["separate", "0.5*x*y/3"], 0, "constant: 1/6\nfactor [x]: x\nfactor [y]: y\n", ""),
    (["numeric", "sin(x)*cos(y)*exp(z)*(2 + u^2)"], 0,
     "verdict: separable\npartition: {x} {y} {z} {u}\nmax residual: 5.340e-16 (tolerance 1.0e-08)\n", ""),
]


@pytest.mark.parametrize("argv, code, out, err", SCRIPT_PINS, ids=[" ".join(pin[0]) for pin in SCRIPT_PINS])
def test_outputs_the_console_script_smoke_test_pins(argv, code, out, err, capsys):
    assert run_cli(argv, capsys) == (code, out, err)


def test_help_lists_every_option_of_the_command(capsys):
    code, out, err = run_cli(["numeric", "--he"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: varsep numeric [-h] [--vars VARS] [--format {text,json}] "
                          "[--grid VAR=START:STOP:COUNT] [--tol TOL] expression\n")
    assert "\n  --grid VAR=START:STOP:COUNT\n                        per-variable sample grid (repeatable)\n" in out
    assert "\n  --tol TOL             relative residual tolerance\n" in out


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["check"], "the following arguments are required: expression"),
    (["check", "--format", "json"], "the following arguments are required: expression"),
    (["bogus", "x"], "invalid command 'bogus' (choose from check, separate, partition, additive, numeric)"),
    (["--", "check", "x"], "invalid command '--' (choose from check, separate, partition, additive, numeric)"),
    (["check", "x", "y"], "unrecognized arguments: y"),
    (["check", "-x*y"], "the following arguments are required: expression"),
    (["check", "x", "--foo", "-5."], "unrecognized arguments: --foo -5."),
    (["--format=json", "check", "x"], "unrecognized arguments: --format=json"),
    # "--" prefixes every option, so it names none
    (["check", "x", "--=json"], "unrecognized arguments: --=json"),
    (["check", "x", "--vars"], "argument --vars: expected one argument"),
    (["check", "--vars", "--", "x"], "argument --vars: expected one argument"),
    (["numeric", "x", "--tol", "-1e-9"], "argument --tol: expected one argument"),
    (["check", "x", "--format", "xml", "-h"], "argument --format: invalid choice: 'xml' (choose from {text,json})"),
    (["numeric", "x", "--tol", "abc"], "could not convert string to float: 'abc'"),
    (["check", "x", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    (["check", "x", "--help="], "argument -h/--help: ignored explicit argument ''"),
])
def test_a_usage_error_is_one_error_line(argv, error, capsys):
    assert run_cli(argv, capsys) == (2, "", f"error: {error}\n")


def test_fuzzed_argv_never_crashes(capsys):
    pool = [
        "check", "separate", "partition", "numeric", "additive",
        "x*y", "x^2 + y^2", "", "-", "(", "sin(", "0", "2x",
        "--vars", "x,y", "--vars=", "--format", "json", "text",
        "--grid", "x=0:1:5", "--grid=x=0:1", "--tol", "abc", "-1e-9",
        "--", "-5", "--fo=json", "--foo", "-x*y", "--h",
    ]
    rng = random.Random(99)
    for _ in range(250):
        argv = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        if "-" in argv:
            continue  # would read stdin, which pytest replaces with a guard
        code, out, err = run_cli(argv, capsys)
        assert code in (0, 1, 2, 3, 4), argv
        # a usage error, like every other error, is one line on stderr
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, out, err)


def _strict_json(text):
    """The payload of a JSON line; NaN and Infinity are not JSON."""
    def reject(constant):
        raise ValueError(f"invalid JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _assert_exit_contract(command, fmt, source):
    """Run one query and check the exit-code contract of the module docstring."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command, "--format", fmt, "--", source])
    out, err = out.getvalue(), err.getvalue()
    # never 4: the two exact routes of check agree, and output is written
    assert code in (0, 1, 2, 3), (source, code, err)
    assert code != 1 or command in ("check", "separate"), (source, err)
    assert "Traceback" not in err, err
    if code and not (command == "check" and code == 1):
        assert out == "", (source, out)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (source, err)
    else:
        assert err == "" and out.endswith("\n"), (source, out, err)
        if fmt == "json":
            assert _strict_json(out)["schema"] == "varsep/1"


# polynomials, and polynomials plus or times a factor lowering refuses
exact_inputs = st.one_of(
    poly_asts,
    st.tuples(st.sampled_from("+*"), poly_asts, st.sampled_from(_BROKEN)).map(lambda t: BinOp(*t)),
)


@settings(max_examples=300, deadline=None)
@given(exact_inputs, st.sampled_from(["check", "separate", "partition"]), st.sampled_from(["text", "json"]))
def test_exact_commands_keep_the_exit_code_contract(node, command, fmt):
    _assert_exit_contract(command, fmt, to_source(node))


@settings(max_examples=300, deadline=None)
@given(ast_nodes, st.sampled_from(["text", "json"]))
def test_numeric_keeps_the_exit_code_contract(node, fmt):
    _assert_exit_contract("numeric", fmt, to_source(node))


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "varsep.cli", "check", "x*y*z"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "separable"


def test_package_runs_as_a_module():
    result = subprocess.run(
        [sys.executable, "-m", "varsep", "check", "x + y"],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (1, "not separable\n")


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # the modules `import varsep.cli` adds to a bare isolated interpreter;
    # -S keeps out the site module and any hook of it that preloads, say,
    # typing, and comparing against the bare run keeps out the rest
    src = os.path.dirname(os.path.dirname(varsep.__file__))
    listing = "print(*sys.modules)"
    bare = subprocess.run(
        [sys.executable, "-I", "-S", "-c", f"import sys; {listing}"],
        capture_output=True, text=True, check=True,
    )
    cli = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         f"import sys; sys.path.insert(0, {src!r}); import varsep.cli; varsep.cli.build_parser(); {listing}"],
        capture_output=True, text=True, check=True,
    )
    added = set(cli.stdout.split()) - set(bare.stdout.split())
    assert "varsep.cli" in added
    assert not added & {"dataclasses", "inspect", "json", "typing", "argparse", "gettext", "locale", "shutil"}, \
        sorted(added)
