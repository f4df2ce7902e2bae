"""Command-line front end.

The library's routes return evidence (a partition, a violation index, a
bool); this module is the one place that words a verdict from it.  Each
command returns its exit code and its output, and `run` is the one writer:
it writes the output once, or one error line on stderr.  When the reader of
stdout has gone (a closed pipe), or stderr cannot be written (a closed
descriptor), `run` still returns the command's own code and writes nothing
to stderr.  When stdout cannot be written for any other reason (a full
disk), `run` writes one error line on stderr and returns 4.

Exit codes: 0 separable / success, 1 not separable (check and separate),
2 parse or usage error, 3 degenerate input, 4 the two exact routes disagreed
or the output could not be written.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Sequence

from . import exact, expr, numeric
from .exact import NotSeparableError
from .numeric import DegenerateAnchorError, DomainCoverageError, SampleGrid
from .partition import Partition
from .poly import Polynomial, ZeroPolynomialError, scalar_str

SCHEMA = "varsep/1"

EXIT_OK = 0
EXIT_NOT_SEPARABLE = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4


class _RoutesDisagree(Exception):
    """The two exact routes of `check` gave different verdicts."""


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
    # imported here: only --format json needs it, and every process pays
    # for what the CLI imports at start
    import json

    return json.dumps({"schema": SCHEMA, **payload})


def _read_expression(argument: str) -> str:
    if argument == "-":
        return sys.stdin.read()
    return argument


def _is_identifier(name: str) -> bool:
    try:
        return expr.parse(name) == expr.Var(name)
    except expr.ParseError:
        return False


def _variable_order(args, node) -> list[str]:
    # an empty --vars is a usage error like any other bad name, not a missing flag
    if args.vars is not None:
        names = [name.strip() for name in args.vars.split(",")]
        for name in names:
            if not _is_identifier(name):
                raise ValueError(f"invalid variable name {name!r} in --vars {args.vars!r}")
        return names
    return expr.free_variables(node)


def _parse(args) -> tuple[expr.ExprNode, list[str]]:
    node = expr.parse(_read_expression(args.expression))
    return node, _variable_order(args, node)


def _lower(node, names) -> Polynomial:
    poly = expr.lower_to_polynomial(node, names)
    if poly.is_zero:
        raise ZeroPolynomialError("the zero polynomial is degenerate input")
    return poly


def _print_partition_text(blocks: list[list[str]]) -> str:
    return " ".join("{" + ",".join(block) + "}" for block in blocks)


def _run_check(args) -> tuple[int, str]:
    poly = _lower(*_parse(args))
    report = exact.finest_partition(poly)
    violation = exact.coeff_criterion_total(poly)
    matrix_separable = report.partition.is_all_singletons
    criterion_separable = violation is None
    if matrix_separable != criterion_separable:
        raise _RoutesDisagree(
            "internal inconsistency: the differential and coefficient routes disagree "
            f"(matrix: {matrix_separable}, coefficients: {criterion_separable})"
        )
    code = EXIT_OK if matrix_separable else EXIT_NOT_SEPARABLE
    if args.format == "json":
        return code, emit_json({
            "separable": matrix_separable,
            "partition": report.partition.name_blocks(report.names),
            "violation": list(violation) if violation else None,
            "witnesses": [
                {"pair": [report.names[i], report.names[j]], "point": list(point)}
                for (i, j), point in sorted(report.witnesses.items())
            ],
        })
    return code, "separable" if matrix_separable else "not separable"


def _run_separate(args) -> tuple[int, str]:
    poly = _lower(*_parse(args))
    # a NotSeparableError is worded by `run`
    result = exact.separate_by_partition(poly, Partition.singletons(poly.var_count))
    if args.format == "json":
        return EXIT_OK, emit_json({
            "constant": scalar_str(result.constant),
            "blocks": [list(factor.vars) for _, factor in result.factors],
            "factors": [str(factor) for _, factor in result.factors],
            "verified": result.verified,
        })
    lines = [f"constant: {scalar_str(result.constant)}"]
    lines += [f"factor [{','.join(factor.vars)}]: {factor}" for _, factor in result.factors]
    return EXIT_OK, "\n".join(lines)


def _run_partition(args) -> tuple[int, str]:
    poly = _lower(*_parse(args))
    report = exact.finest_partition(poly)
    blocks = report.partition.name_blocks(report.names)
    if args.format == "json":
        return EXIT_OK, emit_json({"blocks": blocks})
    return EXIT_OK, _print_partition_text(blocks)


def _run_additive(args) -> tuple[int, str]:
    node, names = _parse(args)
    separable = exact.additive_by_residues(node, names)
    if separable is None:
        separable = exact.additive_separability(_lower(node, names))
    if args.format == "json":
        return EXIT_OK, emit_json({"additively_separable": separable})
    return EXIT_OK, "additively separable" if separable else "not additively separable"


def _run_numeric(args) -> tuple[int, str]:
    node, names = _parse(args)
    specs = {}
    for spec in args.grid:
        name, axis = numeric.parse_grid_spec(spec)
        if name in specs:
            raise ValueError(f"grid given twice for variable {name!r}")
        specs[name] = axis
    grid = SampleGrid.from_specs(names, specs)
    verdict = numeric.numeric_finest_partition(node, grid, args.tol, names=names)
    word = ("separable" if verdict.partition.is_all_singletons
            else "not separable" if verdict.partition.block_count == 1 else "partition")
    blocks = verdict.partition.name_blocks(verdict.names)
    if args.format == "json":
        return EXIT_OK, emit_json({
            "verdict": word,
            "blocks": blocks,
            "residuals": [list(row) for row in verdict.residuals],
            "tolerance": verdict.tolerance,
            "anchor": list(verdict.anchor),
            "evaluated": verdict.evaluated,
            "skipped": verdict.skipped,
            "discarded": verdict.discarded,
        })
    worst = max((r for row in verdict.residuals for r in row), default=0.0)
    lines = [
        f"verdict: {word}",
        f"partition: {_print_partition_text(blocks)}",
        f"max residual: {worst:.3e} (tolerance {verdict.tolerance:.1e})",
    ]
    if verdict.skipped:
        lines.append(f"skipped {verdict.skipped} of {verdict.skipped + verdict.evaluated} evaluations")
    return EXIT_OK, "\n".join(lines)


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
        code, text = _HANDLERS[args.command](args)
    except NotSeparableError as exc:
        code, error = EXIT_NOT_SEPARABLE, (
            f"error: not totally separable: coefficient condition fails at index {exc.violation}"
        )
    except _RoutesDisagree as exc:
        code, error = EXIT_INTERNAL, f"error: {exc}"
    except (ZeroPolynomialError, DegenerateAnchorError, DomainCoverageError) as exc:
        code, error = EXIT_DEGENERATE, f"error: {exc}"
    except (expr.ParseError, expr.LoweringError, expr.UnboundVariableError, ValueError) as exc:
        code, error = EXIT_USAGE, f"error: {exc}"
    else:
        lost = _write_line(sys.stdout, text)
        # output lost to a reader that has gone (a closed pipe) is no error;
        # output that cannot be written (a full disk) is
        if lost is None or isinstance(lost, BrokenPipeError):
            return code
        code, error = EXIT_INTERNAL, f"error: cannot write output: {lost}"
    # the error line only words the code, which stands whatever keeps the
    # line from stderr
    _write_line(sys.stderr, error)
    return code


def _write_line(stream, line: str) -> OSError | None:
    """Write one line to `stream` and flush.  A stream whose descriptor was
    closed before start is None and takes nothing.  On an OSError the
    descriptor leads to devnull from here on, so the flush at exit does not
    raise again or change the exit code, and the error is returned."""
    if stream is None:
        return None
    try:
        stream.write(line + "\n")
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
