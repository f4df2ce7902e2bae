"""Shared fixtures: reference polynomials, random generators, the
margin-identity brute-force oracle used to cross-check partition logic, and
a factor-by-factor lowering oracle."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from varsep import Partition, Polynomial, parse_polynomial
from varsep.expr import BinOp, Call, Const, LoweringError, Neg, Var

# Coefficient matrix of the 20-term reference polynomial: rows are x^4 down
# to x^0, columns are y^3 down to y^0.  It is the outer product of its first
# column [1, -3, 5, 2, 7] and first row [1, 2, -1, 3].
P43_MATRIX = [
    [1, 2, -1, 3],
    [-3, -6, 3, -9],
    [5, 10, -5, 15],
    [2, 4, -2, 6],
    [7, 14, -7, 21],
]

P43_FACTOR_X = "x^4 - 3*x^3 + 5*x^2 + 2*x + 7"
P43_FACTOR_Y = "y^3 + 2*y^2 - y + 3"

P234_SOURCE = (
    "x^2*y^3*z^4 + 2*x^2*y^3*z + x^2*y*z^4 + 2*x^2*y*z"
    " + 2*x*y^3*z^4 + 4*x*y^3*z + 2*x*y*z^4 + 4*x*y*z"
    " + 3*y^3*z^4 + 6*y^3*z + 3*y*z^4 + 6*y*z"
)
P234_FACTORS = ("x^2 + 2*x + 3", "y^3 + y", "z^4 + 2*z")


def build_p43() -> Polynomial:
    terms = {}
    for r, row in enumerate(P43_MATRIX):
        for s, coef in enumerate(row):
            terms[(4 - r, 3 - s)] = coef
    return Polynomial(("x", "y"), terms)


def build_p234() -> Polynomial:
    return parse_polynomial(P234_SOURCE, ("x", "y", "z"))


@pytest.fixture
def p43() -> Polynomial:
    return build_p43()


@pytest.fixture
def p234() -> Polynomial:
    return build_p234()


# --------------------------------------------------------------------- random generators


def rand_poly(rng: random.Random, names, max_deg=3, max_terms=6, lo=-3, hi=3) -> Polynomial:
    """Random nonzero sparse polynomial with integer coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, max_deg) for _ in names)
            coef = rng.randint(lo, hi)
            if coef:
                terms[exps] = terms.get(exps, 0) + coef
        poly = Polynomial(tuple(names), terms)
        if not poly.is_zero:
            return poly


def rand_monic_univariate(rng: random.Random, name, degree, lo=-5, hi=5) -> Polynomial:
    terms = {(degree,): 1}
    for i in range(degree):
        coef = rng.randint(lo, hi)
        if coef:
            terms[(i,)] = coef
    return Polynomial((name,), terms)


def rand_separable_product(rng: random.Random, names, max_deg=4, lo=-5, hi=5):
    """(expanded product, constant, monic univariate factors)."""
    constant = 0
    while constant == 0:
        constant = rng.randint(-5, 5)
    factors = [rand_monic_univariate(rng, name, rng.randint(1, max_deg), lo, hi) for name in names]
    product = Polynomial.constant(constant, tuple(names))
    for factor in factors:
        product = product * factor
    return product, Fraction(constant), factors


def rand_block_separable(rng: random.Random, names, blocks, max_deg=2, max_terms=3):
    """Product of one random nonzero polynomial per block of variable indices."""
    product = Polynomial.constant(1, tuple(names))
    for block in blocks:
        sub = rand_poly(rng, tuple(names[i] for i in block), max_deg, max_terms)
        product = product * sub
    return product


def random_partition(rng: random.Random, n: int, block_count: int) -> list[list[int]]:
    while True:
        assignment = [rng.randrange(block_count) for _ in range(n)]
        if len(set(assignment)) == block_count:
            blocks = [[] for _ in range(block_count)]
            for i, b in enumerate(assignment):
                blocks[b].append(i)
            return blocks


# --------------------------------------------------------------------- brute-force oracle


def all_partitions(items: list[int]):
    """Every set partition of the given items (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1:]
        yield [[first]] + smaller


def oracle_coeff_violation(poly: Polynomial):
    """Dense reference for the coefficient route: the first index of the box
    prod(N_i + 1), in lexicographic order, where L^(n-1) * c[i] differs from
    the product of the axis slices through the leading corner N; N itself when
    L = c[N] is zero and no index differs; None when F is totally separable.
    Its cost is the whole box, so use it only for small degrees."""
    degrees = poly.degree_vector()
    n = len(degrees)
    leading = poly.coefficient(degrees)
    slices = [
        [poly.coefficient(degrees[:r] + (i,) + degrees[r + 1:]) for i in range(nr + 1)]
        for r, nr in enumerate(degrees)
    ]
    scale = leading ** (n - 1)
    for index in itertools.product(*(range(nr + 1) for nr in degrees)):
        if scale * poly.coefficient(index) != math.prod(slices[r][i] for r, i in enumerate(index)):
            return index
    return degrees if leading == 0 else None


def oracle_anchor(poly: Polynomial) -> tuple[Fraction, ...]:
    """Independent anchor scan: first small-integer point where F != 0."""
    degrees = poly.degree_vector()
    for candidate in itertools.product(*(range(d + 1) for d in degrees)):
        point = tuple(Fraction(c) for c in candidate)
        if poly.evaluate(point) != 0:
            return point
    raise AssertionError(f"no nonzero grid point for {poly}")


def oracle_partition_valid(poly: Polynomial, blocks, anchor=None) -> bool:
    """Margin-identity test: F separates per the blocks iff
    F(a)^(r-1) * F equals the product of the per-block margins at a point a
    with F(a) != 0 (by default `oracle_anchor`)."""
    if anchor is None:
        anchor = oracle_anchor(poly)
    r = len(blocks)
    value = poly.evaluate(anchor)
    assert value != 0, (poly, anchor)
    lhs = poly * value ** (r - 1)
    rhs = Polynomial.constant(1, poly.vars)
    for block in blocks:
        fixed = {i: anchor[i] for i in range(poly.var_count) if i not in set(block)}
        rhs = rhs * poly.margin(fixed)
    return lhs == rhs


def oracle_margin_factors(poly: Polynomial, blocks, anchor=None):
    """The margin factorization at an anchor (default `oracle_anchor`):
    (constant, [monic factor per block]) with F = constant * prod factors,
    each factor made monic by its graded-lex leading coefficient; None when
    F does not separate per the blocks."""
    if anchor is None:
        anchor = oracle_anchor(poly)
    if not oracle_partition_valid(poly, blocks, anchor):
        return None
    constant = poly.evaluate(anchor) ** (1 - len(blocks))
    factors = []
    for block in blocks:
        margin = poly.margin({i: anchor[i] for i in range(poly.var_count) if i not in set(block)})
        constant *= margin.leading_coefficient()
        factors.append(margin.monic())
    return constant, factors


def oracle_finest(poly: Polynomial) -> Partition:
    """Finest valid partition by exhaustive enumeration (use only for small n)."""
    valid = [
        blocks
        for blocks in all_partitions(list(range(poly.var_count)))
        if oracle_partition_valid(poly, blocks)
    ]
    finest = max(valid, key=len)
    finest_partition = Partition.from_blocks(finest)
    # the finest valid partition must refine every other valid one
    for blocks in valid:
        assert Partition.from_blocks(blocks).is_coarsening_of(finest_partition)
    return finest_partition


# --------------------------------------------------------------------- lowering oracle


def oracle_lower(node, names) -> Polynomial:
    """Lower an AST by plain Polynomial arithmetic, one factor at a time:
    every node becomes a polynomial, and x^k is k products starting from the
    constant 1.  It raises LoweringError with the messages of
    `lower_to_polynomial`, in the same order: a divisor is checked before
    its dividend, an exponent before its base, a left factor before a right
    one."""
    names = tuple(names)

    def walk(e) -> Polynomial:
        if isinstance(e, Const):
            return Polynomial.constant(e.value, names)
        if isinstance(e, Var):
            if e.name not in names:
                raise LoweringError(f"unregistered variable {e.name!r}")
            return Polynomial.variable(e.name, names)
        if isinstance(e, Neg):
            return -walk(e.operand)
        if isinstance(e, Call):
            raise LoweringError("function calls have no polynomial form", e)
        assert isinstance(e, BinOp)
        if e.op == "^":
            if not isinstance(e.right, Const) or e.right.value.denominator != 1:
                raise LoweringError("exponent must be a nonnegative integer literal", e)
            base = walk(e.left)
            result = Polynomial.constant(1, names)
            for _ in range(int(e.right.value)):
                result = result * base
            return result
        if e.op == "/":
            divisor = walk(e.right)
            if not divisor.is_constant:
                raise LoweringError("division by a non-constant", e)
            if divisor.constant_value() == 0:
                raise LoweringError("division by zero", e)
            return walk(e.left) / divisor.constant_value()
        left, right = walk(e.left), walk(e.right)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        return left * right

    return walk(node)
