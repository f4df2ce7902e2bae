"""Exact and numeric multiplicative separation of variables.

Decides whether a multivariate function factors into a product of functions
of disjoint variable blocks, finds the finest such partition, and produces
the factors: exactly for polynomials with rational coefficients, and
numerically (via the derivative-free margin identity) for black-box
expressions.
"""

from __future__ import annotations

from collections.abc import Sequence

from .exact import (
    NotSeparableError,
    SeparationResult,
    SepMatrixReport,
    additive_separability,
    coeff_criterion_total,
    finest_partition,
    sep_matrix_entry,
    separate_by_partition,
)
from .expr import (
    BinOp,
    Call,
    Const,
    EvalDomainError,
    LoweringError,
    Neg,
    ParseError,
    UnboundVariableError,
    Var,
    eval_float,
    free_variables,
    lower_to_polynomial,
    parse,
    to_source,
)
from .numeric import (
    DEFAULT_TOLERANCE,
    DegenerateAnchorError,
    DomainCoverageError,
    NumericVerdict,
    SampleGrid,
    numeric_finest_partition,
)
from .partition import Partition
from .poly import Polynomial, ZeroPolynomialError

__version__ = "0.1.0"


def parse_polynomial(source: str, vars: Sequence[str] | None = None) -> Polynomial:
    """Parse an expression string and lower it to an exact polynomial."""
    return lower_to_polynomial(parse(source), vars)
