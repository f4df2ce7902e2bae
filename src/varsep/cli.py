"""Command-line front end.

Exit codes: 0 separable / success, 1 not separable (check and separate),
2 parse or usage error, 3 degenerate input, 4 the two exact routes disagreed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import exact, expr, numeric
from .exact import NotSeparableError, Verdict
from .numeric import DegenerateAnchorError, DomainCoverageError, SampleGrid
from .poly import Polynomial, ZeroPolynomialError

SCHEMA = "varsep/1"

EXIT_OK = 0
EXIT_NOT_SEPARABLE = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser `run` uses; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="varsep",
        description="Decide and carry out multiplicative separation of variables.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("expression", help="expression text, or '-' to read from stdin")
    common.add_argument("--vars", help="comma-separated variable order override")
    common.add_argument("--format", choices=("text", "json"), default="text")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", parents=[common], help="total-separability verdict, both exact routes")
    sub.add_parser("separate", parents=[common], help="extract the univariate factors")
    sub.add_parser("partition", parents=[common], help="finest separating partition")
    sub.add_parser("additive", parents=[common], help="additive separability verdict")
    num = sub.add_parser("numeric", parents=[common], help="tolerance-based test for black-box expressions")
    num.add_argument("--grid", action="append", default=[], metavar="VAR=START:STOP:COUNT",
                     help="per-variable sample grid (repeatable)")
    num.add_argument("--tol", type=float, default=numeric.DEFAULT_TOLERANCE,
                     help="relative residual tolerance")
    return parser


def emit_json(payload: dict) -> str:
    """Render a command's payload as schema-versioned JSON, fields in order."""
    return json.dumps({"schema": SCHEMA, **payload})


def _read_expression(argument: str) -> str:
    if argument == "-":
        return sys.stdin.read()
    return argument


def _is_identifier(name: str) -> bool:
    try:
        tokens = expr.tokenize(name)
    except expr.ParseError:
        return False
    return [(t.kind, t.lexeme) for t in tokens] == [(expr.TokenKind.IDENT, name)]


def _variable_order(args, node) -> list[str]:
    if args.vars:
        names = [name.strip() for name in args.vars.split(",")]
        for name in names:
            if not _is_identifier(name):
                raise ValueError(f"invalid variable name {name!r} in --vars {args.vars!r}")
        return names
    return expr.free_variables(node)


def _lower(args) -> Polynomial:
    node = expr.parse(_read_expression(args.expression))
    poly = expr.lower_to_polynomial(node, _variable_order(args, node))
    if poly.is_zero:
        raise ZeroPolynomialError("the zero polynomial is degenerate input")
    return poly


def _print_partition_text(blocks: list[list[str]]) -> str:
    return " ".join("{" + ",".join(block) + "}" for block in blocks)


def _run_check(args) -> int:
    poly = _lower(args)
    report = exact.finest_partition(poly)
    criterion = exact.coeff_criterion_total(poly)
    matrix_separable = report.partition.is_all_singletons
    criterion_separable = criterion.verdict is Verdict.SEPARABLE
    if matrix_separable != criterion_separable:
        print(
            "internal inconsistency: the differential and coefficient routes disagree "
            f"(matrix: {matrix_separable}, coefficients: {criterion_separable})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    if args.format == "json":
        print(emit_json({
            "separable": matrix_separable,
            "partition": report.partition.name_blocks(report.names),
            "violation": list(criterion.violation) if criterion.violation else None,
            "witnesses": [
                {"pair": [report.names[i], report.names[j]], "point": list(point)}
                for (i, j), point in sorted(report.witnesses.items())
            ],
        }))
    else:
        print("separable" if matrix_separable else "not separable")
    return EXIT_OK if matrix_separable else EXIT_NOT_SEPARABLE


def _run_separate(args) -> int:
    poly = _lower(args)
    try:
        result = exact.separate_total(poly)
    except NotSeparableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SEPARABLE
    if args.format == "json":
        print(emit_json({
            "constant": str(result.constant),
            "blocks": [list(factor.vars) for _, factor in result.factors],
            "factors": [str(factor) for _, factor in result.factors],
            "verified": result.verified,
        }))
    else:
        print(f"constant: {result.constant}")
        for _, factor in result.factors:
            print(f"factor [{','.join(factor.vars)}]: {factor}")
    return EXIT_OK


def _run_partition(args) -> int:
    poly = _lower(args)
    report = exact.finest_partition(poly)
    blocks = report.partition.name_blocks(report.names)
    if args.format == "json":
        print(emit_json({"blocks": blocks}))
    else:
        print(_print_partition_text(blocks))
    return EXIT_OK


def _run_additive(args) -> int:
    poly = _lower(args)
    verdict = exact.additive_separability(poly)
    separable = verdict is Verdict.SEPARABLE
    if args.format == "json":
        print(emit_json({"additively_separable": separable}))
    else:
        print("additively separable" if separable else "not additively separable")
    return EXIT_OK


def _run_numeric(args) -> int:
    node = expr.parse(_read_expression(args.expression))
    names = _variable_order(args, node)
    specs = dict(numeric.parse_grid_spec(spec) for spec in args.grid)
    grid = SampleGrid.from_specs(names, specs)
    verdict = numeric.numeric_finest_partition(node, grid, args.tol, names=names)
    blocks = verdict.partition.name_blocks(verdict.names)
    if args.format == "json":
        print(emit_json({
            "verdict": verdict.verdict,
            "blocks": blocks,
            "residuals": [list(row) for row in verdict.residuals],
            "tolerance": verdict.tolerance,
            "anchor": list(verdict.anchor),
            "evaluated": verdict.evaluated,
            "skipped": verdict.skipped,
            "discarded": verdict.discarded,
        }))
    else:
        worst = max((r for row in verdict.residuals for r in row), default=0.0)
        print(f"verdict: {verdict.verdict}")
        print(f"partition: {_print_partition_text(blocks)}")
        print(f"max residual: {worst:.3e} (tolerance {verdict.tolerance:.1e})")
        if verdict.skipped:
            print(f"skipped {verdict.skipped} of {verdict.skipped + verdict.evaluated} evaluations")
    return EXIT_OK


_HANDLERS = {
    "check": _run_check,
    "separate": _run_separate,
    "partition": _run_partition,
    "additive": _run_additive,
    "numeric": _run_numeric,
}


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code if code in (EXIT_OK, EXIT_USAGE) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (expr.ParseError, expr.LoweringError, expr.UnboundVariableError, ValueError) as exc:
        # ZeroPolynomialError subclasses ValueError; keep its own exit code
        if isinstance(exc, ZeroPolynomialError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegenerateAnchorError, DomainCoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
