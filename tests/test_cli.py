import io
import json
import random
import subprocess
import sys

import pytest

from conftest import P43_FACTOR_X, P43_FACTOR_Y, build_p43
from varsep import CriterionReport, Verdict, exact, parse_polynomial
from varsep.cli import build_parser, run

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
    product = parse_polynomial(payload["constant"])
    for factor in payload["factors"]:
        product = product * parse_polynomial(factor)
    assert product == parse_polynomial(P43_SOURCE)


def test_separate_not_separable_exits_1(capsys):
    code, _, err = run_cli(["separate", "x^2 + y^2"], capsys)
    assert code == 1
    assert "not totally separable" in err


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


def test_check_json_names_a_witness_per_edge(capsys):
    code, out, _ = run_cli(["check", "(x^2 + y^2)*(z + w + 1)", "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert [entry["pair"] for entry in payload["witnesses"]] == [["x", "y"], ["z", "w"]]
    for entry in payload["witnesses"]:
        assert len(entry["point"]) == 4 and all(isinstance(c, int) and c for c in entry["point"])


def test_check_exits_4_when_the_exact_routes_disagree(capsys, monkeypatch):
    # a coefficient route that wrongly calls x + y separable is caught: the
    # pair route witnesses the edge (x, y) on its own
    monkeypatch.setattr(exact, "coeff_criterion_total", lambda poly: CriterionReport(Verdict.SEPARABLE))
    for fmt in ("text", "json"):
        code, out, err = run_cli(["check", "x + y", "--format", fmt], capsys)
        assert code == 4
        assert out == ""
        assert "the differential and coefficient routes disagree" in err
        assert "(matrix: False, coefficients: True)" in err
        assert "Traceback" not in err


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
    # --vars skips free_variables, so the deep sum reaches the numeric route
    code, out, err = run_cli(["numeric", "--vars", "x,y", "--", "x + " * 1500 + "y"], capsys)
    assert code == 2
    assert out == ""
    assert "expression too deep to evaluate" in err


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
    for spec in ("x=0:inf:5", "x=nan:1:5", "x=-inf:0:3", "x=-1e400:1:3"):
        code, out, err = run_cli(["numeric", "x*y", "--grid", spec], capsys)
        assert code == 2, spec
        assert out == ""
        assert repr(spec) in err and "finite endpoints" in err


def test_reused_parser_carries_no_state_between_runs(capsys):
    build_parser.cache_clear()
    plain = ["numeric", "x^2 + y^2", "--format", "json"]
    first = run_cli(plain, capsys)
    loose = run_cli(plain + ["--grid", "x=-1:1:5", "--tol", "10"], capsys)
    again = run_cli(plain, capsys)
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
    for names in ("x,y,1bad", "x,,y", "x,y z", "x,y*z", "x,y$"):
        assert run_cli(["check", "x*y", "--vars", names], capsys)[0] == 2, names
    assert run_cli(["numeric", "x*y", "--vars", "x,1bad"], capsys)[0] == 2
    assert run_cli(["numeric", "x*y", "--vars", "x,x,y"], capsys)[0] == 2
    # the tolerance must be finite and nonnegative
    for tol in ("-1", "-1e-9", "nan", "inf", "-inf"):
        code, _, err = run_cli(["numeric", "x + y", f"--tol={tol}"], capsys)
        assert code == 2, tol
        assert "tolerance" in err
    assert run_cli(["--help"], capsys)[0] == 0


def test_unknown_grid_variable_exits_2(capsys):
    code, _, err = run_cli(["numeric", "x*y", "--grid", "q=0:1:5"], capsys)
    assert code == 2
    assert "unknown variable" in err


def test_fuzzed_argv_never_crashes(capsys):
    pool = [
        "check", "separate", "partition", "numeric", "additive",
        "x*y", "x^2 + y^2", "", "-", "(", "sin(", "0", "2x",
        "--vars", "x,y", "--vars=", "--format", "json", "text",
        "--grid", "x=0:1:5", "--grid=x=0:1", "--tol", "abc", "-1e-9",
    ]
    rng = random.Random(99)
    for _ in range(250):
        argv = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        if "-" in argv:
            continue  # would read stdin, which pytest replaces with a guard
        code = run(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3, 4), argv


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "varsep.cli", "check", "x*y*z"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "separable"
