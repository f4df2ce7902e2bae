"""Command-line front end.

The library's routes return evidence (a partition, a violation index, a
bool); this module is the one place that words a verdict from it.  argv is
read by argparse's rules against one command table, without argparse.  Each
command returns its exit code and its output, and `run` is the one writer:
it writes the output once, or one error line on stderr (a usage error too).
When the reader of stdout has gone (a closed pipe), or stderr cannot be
written (a closed descriptor), `run` still returns the command's own code
and writes nothing to stderr.  When stdout cannot be written for any other
reason (a full disk), `run` writes one error line on stderr and returns 4.

Exit codes: 0 separable / success, 1 not separable (check and separate),
2 parse or usage error, 3 degenerate input, 4 the two exact routes disagreed
or the output could not be written.
"""

from __future__ import annotations

import os
import re
import sys
import types
from collections.abc import Callable, Sequence

from . import exact, expr, numeric
from .exact import NotSeparableError
from .numeric import DegenerateAnchorError, DomainCoverageError, SampleGrid
from .partition import Partition
from .poly import ZeroPolynomialError, scalar_str

SCHEMA = "varsep/1"

EXIT_OK = 0
EXIT_NOT_SEPARABLE = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4


class _RoutesDisagree(Exception):
    """The two exact routes of `check` gave different verdicts."""


def emit_json(payload: dict) -> str:
    """Render a command's payload as schema-versioned JSON, fields in order."""
    # imported here: only --format json needs it, and every process pays
    # for what the CLI imports at start
    import json

    return json.dumps({"schema": SCHEMA, **payload})


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
    node = expr.parse(sys.stdin.read() if args.expression == "-" else args.expression)
    return node, _variable_order(args, node)


def _print_partition_text(blocks: list[list[str]]) -> str:
    return " ".join("{" + ",".join(block) + "}" for block in blocks)


def _run_check(args) -> tuple[int, str]:
    poly = expr.lower_to_polynomial(*_parse(args))
    # the coefficient route first, so that finest_partition reads its
    # singleton certificate instead of computing it again
    violation = exact.coeff_criterion_total(poly)
    report = exact.finest_partition(poly)
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
    poly = expr.lower_to_polynomial(*_parse(args))
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
    poly = expr.lower_to_polynomial(*_parse(args))
    report = exact.finest_partition(poly)
    blocks = report.partition.name_blocks(report.names)
    if args.format == "json":
        return EXIT_OK, emit_json({"blocks": blocks})
    return EXIT_OK, _print_partition_text(blocks)


def _run_additive(args) -> tuple[int, str]:
    node, names = _parse(args)
    separable = expr.additive_by_residues(node, names)
    if separable is None:
        separable = exact.additive_separability(expr.lower_to_polynomial(node, names))
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


# The command table: each command's handler, help line and options.  An
# option (metavar, default, help) takes one value: a tuple default collects
# repeats, a float default reads a float, a {a,b} metavar lists the choices.
_COMMON = {"--vars": ("VARS", None, "comma-separated variable order override"), "--format": ("{text,json}", "text", "")}
_COMMANDS = {
    "check": (_run_check, "total-separability verdict, both exact routes", _COMMON),
    "separate": (_run_separate, "extract the univariate factors", _COMMON),
    "partition": (_run_partition, "finest separating partition", _COMMON),
    "additive": (_run_additive, "additive separability verdict", _COMMON),
    "numeric": (_run_numeric, "tolerance-based test for black-box expressions", {
        **_COMMON, "--grid": ("VAR=START:STOP:COUNT", (), "per-variable sample grid (repeatable)"),
        "--tol": ("TOL", numeric.DEFAULT_TOLERANCE, "relative residual tolerance")}),
}


def build_parser() -> dict[str, tuple]:
    """The command table that `parse_args` reads argv against."""
    return _COMMANDS


def _option(arg: str, options: dict) -> tuple[str, str | None] | None:
    """None for an operand, else the option `arg` names ("" for none) and its
    "=" value.  As in argparse, a unique prefix names an option, and "-",
    "--", a negative number or an argument with a space is an operand."""
    if arg.startswith("--") and arg != "--":
        prefix, eq, value = arg.partition("=")
        found = [name for name in ("--help", *options) if name.startswith(prefix)]
        if len(found) == 1:
            return found[0], value if eq else None
    elif arg.startswith("-h"):
        return "--help", arg[2:] or None
    operand = arg in ("-", "--") or arg[:1] != "-" or " " in arg or re.match(r"-\d+$|-\d*\.\d+$", arg)
    return None if operand else ("", None)


def parse_args(argv: Sequence[str]) -> tuple[Callable, types.SimpleNamespace]:
    """The handler and the arguments that argv names, read as argparse read
    it; -h or --help names the help on the command before it.  A usage error
    raises ValueError, at the end if an argument is missing or unknown."""
    table, values = build_parser(), iter(argv)
    args, options, operands, unknown = types.SimpleNamespace(command=None), {}, [], []
    for arg in values:
        option = _option(arg, options)
        if option is None and args.command is None:
            if arg not in table:
                raise ValueError(f"invalid command {arg!r} (choose from {', '.join(table)})")
            args.command, options = arg, table[arg][2]
            vars(args).update((name[2:], default) for name, (_, default, _) in options.items())
        elif option is None:  # after "--" every argument is an operand
            operands += [*values] if arg == "--" else [arg]
        elif not option[0]:
            unknown.append(arg)
        elif option[0] == "--help":
            if option[1] is None:
                return _run_help, args
            raise ValueError(f"argument -h/--help: ignored explicit argument {option[1]!r}")
        else:
            name, value = option
            if value is None:
                value = next(values, "--")
                if value == "--" or _option(value, options):
                    raise ValueError(f"argument {name}: expected one argument")
            metavar, default, _ = options[name]
            if metavar[0] == "{" and value not in metavar[1:-1].split(","):
                raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from {metavar})")
            setattr(args, name[2:], getattr(args, name[2:]) + (value,) if isinstance(default, tuple)
                    else float(value) if isinstance(default, float) else value)
    if not operands:
        raise ValueError(f"the following arguments are required: {'expression' if args.command else 'command'}")
    args.expression, *extra = operands
    if unknown or extra:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown + extra)}")
    return table[args.command][0], args


def _run_help(args) -> tuple[int, str]:
    """Help on the command table, or on `args.command`, in argparse's layout."""
    def row(label, text=""):
        return f"  {label}\n{'':24}{text}" if len(label) > 20 and text else f"  {label:<20}  {text}".rstrip()
    table, topic = build_parser(), args.command
    if topic:
        options = table[topic][2]
        usage = "".join(f" [{name} {metavar}]" for name, (metavar, _, _) in options.items())
        lines = [f"usage: varsep {topic} [-h]{usage} expression", "", "positional arguments:",
                 row("expression", "expression text, or '-' to read from stdin")]
    else:
        names, options = "{" + ",".join(table) + "}", {}
        lines = [f"usage: varsep [-h] {names} ...", "", "Decide and carry out multiplicative separation of variables.",
                 "", "positional arguments:", row(names), *(row("  " + name, table[name][1]) for name in table)]
    lines += ["", "options:", row("-h, --help", "show this help message and exit")]
    lines += [row(f"{name} {metavar}", text) for name, (metavar, _, text) in options.items()]
    return EXIT_OK, "\n".join(lines)


def run(argv: Sequence[str]) -> int:
    try:
        handler, args = parse_args(argv)
        code, text = handler(args)
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
