"""Shared fixtures: reference polynomials, exact reference arithmetic
(evaluation, substitution, degree vector, registry embedding,
re-multiplication), random generators, the default numeric sample grid, the
coarsening order on partitions, the margin-identity brute-force
oracle used to cross-check partition logic, a factor-by-factor lowering
oracle, a recursive float evaluator, a recursive printer, a character-loop
lexer and a method-per-token parser for the expression front end, the
slice identity on Fraction coefficients, and the witness loop that records
one witness per edge joining two components until one exit rule holds."""

from __future__ import annotations

import enum
import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

import pytest

from varsep import Partition, Polynomial, parse_polynomial
from varsep.exact import SeparationResult
from varsep.expr import (
    MAX_NESTING,
    SUPPORTED_FUNCTIONS,
    BinOp,
    Call,
    Const,
    EvalDomainError,
    LoweringError,
    Neg,
    ParseError,
    UnboundVariableError,
    Var,
)
from varsep import exact, expr
from varsep.numeric import (
    DEGENERACY_FLOOR,
    PRODUCT_NOISE_RELATIVE_FLOOR,
    DegenerateAnchorError,
    DomainCoverageError,
    NumericVerdict,
    SampleGrid,
)
from varsep.partition import UnionFind

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


# --------------------------------------------------------------------- exact reference arithmetic


def evaluate(poly: Polynomial, point) -> Fraction:
    """Exact value of F at a rational point, one coordinate per variable."""
    if len(point) != poly.var_count:
        raise ValueError(f"point has {len(point)} coordinates, F has {poly.var_count} variables")
    return sum(
        (c * math.prod(Fraction(x) ** e for x, e in zip(point, exps)) for exps, c in poly.terms.items()),
        Fraction(0),
    )


def substitute(poly: Polynomial, fixed: dict) -> Polynomial:
    """The margin of F: exact values substituted for the variable indexes in
    `fixed`, over the registry of the remaining variables."""
    for i in fixed:
        if not 0 <= i < poly.var_count:
            raise IndexError(f"variable index {i} out of range for {poly.var_count} variables")
    keep = [i for i in range(poly.var_count) if i not in fixed]
    terms: dict = {}
    for exps, c in poly.terms.items():
        key = tuple(exps[i] for i in keep)
        terms[key] = terms.get(key, 0) + c * math.prod(Fraction(x) ** exps[i] for i, x in fixed.items())
    return Polynomial(tuple(poly.vars[i] for i in keep), terms)


def degree_vector(poly: Polynomial) -> tuple[int, ...]:
    """Per-variable maximum exponents of a nonzero F."""
    return tuple(max(exps[i] for exps in poly.terms) for i in range(poly.var_count))


def embed(poly: Polynomial, names) -> Polynomial:
    """F over the registry `names`, which holds every variable of F."""
    names = tuple(names)
    slots = [names.index(v) for v in poly.vars]
    terms = {}
    for exps, c in poly.terms.items():
        new = [0] * len(names)
        for slot, e in zip(slots, exps):
            new[slot] = e
        terms[tuple(new)] = c
    return Polynomial(names, terms)


def remultiply(result: SeparationResult, names) -> Polynomial:
    """constant * the product of the factors, each embedded into `names`."""
    product = Polynomial.constant(result.constant, names)
    for _, factor in result.factors:
        product = product * embed(factor, names)
    return product


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
        product = product * embed(factor, names)
    return product, Fraction(constant), factors


def rand_block_separable(rng: random.Random, names, blocks, max_deg=2, max_terms=3):
    """Product of one random nonzero polynomial per block of variable indices."""
    product = Polynomial.constant(1, tuple(names))
    for block in blocks:
        sub = rand_poly(rng, tuple(names[i] for i in block), max_deg, max_terms)
        product = product * embed(sub, names)
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
    degrees = degree_vector(poly)
    n = len(degrees)
    coefficient = poly.terms.get
    leading = coefficient(degrees, 0)
    slices = [
        [coefficient(degrees[:r] + (i,) + degrees[r + 1:], 0) for i in range(nr + 1)]
        for r, nr in enumerate(degrees)
    ]
    scale = leading ** (n - 1)
    for index in itertools.product(*(range(nr + 1) for nr in degrees)):
        if scale * coefficient(index, 0) != math.prod(slices[r][i] for r, i in enumerate(index)):
            return index
    return degrees if leading == 0 else None


def oracle_anchor(poly: Polynomial) -> tuple[Fraction, ...]:
    """Independent anchor scan: first small-integer point where F != 0."""
    for candidate in itertools.product(*(range(d + 1) for d in degree_vector(poly))):
        point = tuple(Fraction(c) for c in candidate)
        if evaluate(poly, point) != 0:
            return point
    raise AssertionError(f"no nonzero grid point for {poly}")


def oracle_partition_valid(poly: Polynomial, blocks, anchor=None) -> bool:
    """Margin-identity test: F separates per the blocks iff
    F(a)^(r-1) * F equals the product of the per-block margins at a point a
    with F(a) != 0 (by default `oracle_anchor`)."""
    if anchor is None:
        anchor = oracle_anchor(poly)
    r = len(blocks)
    value = evaluate(poly, anchor)
    assert value != 0, (poly, anchor)
    lhs = poly * value ** (r - 1)
    rhs = Polynomial.constant(1, poly.vars)
    for block in blocks:
        fixed = {i: anchor[i] for i in range(poly.var_count) if i not in set(block)}
        rhs = rhs * embed(substitute(poly, fixed), poly.vars)
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
    constant = evaluate(poly, anchor) ** (1 - len(blocks))
    factors = []
    for block in blocks:
        margin = substitute(poly, {i: anchor[i] for i in range(poly.var_count) if i not in set(block)})
        lead = margin.leading_coefficient()
        constant *= lead
        factors.append(margin / lead)
    return constant, factors


def default_grid(var_count: int) -> SampleGrid:
    """The grid the CLI uses when no --grid is given: the 9-point axis on
    [-1.3, 1.7] for each variable."""
    return SampleGrid.from_specs([f"x{k}" for k in range(var_count)], {})


def is_coarsening(coarse: Partition, finer: Partition) -> bool:
    """True when every block of `finer` lies inside one block of `coarse`."""
    if coarse.var_count != finer.var_count:
        return False
    owner = {i: k for k, block in enumerate(coarse.blocks) for i in block}
    return all(len({owner[i] for i in block}) == 1 for block in finer.blocks)


def oracle_finest(poly: Polynomial) -> Partition:
    """Finest valid partition by exhaustive enumeration (use only for small n)."""
    valid = [
        blocks
        for blocks in all_partitions(list(range(poly.var_count)))
        if oracle_partition_valid(poly, blocks)
    ]
    finest = max(valid, key=len)
    finest_partition = Partition(finest)
    # the finest valid partition must refine every other valid one
    for blocks in valid:
        assert is_coarsening(Partition(blocks), finest_partition)
    return finest_partition


# --------------------------------------------------------------------- lowering oracle


def oracle_lower(node, names) -> Polynomial:
    """Lower an AST by plain Polynomial arithmetic, one factor at a time:
    every node becomes a polynomial, and x^k is k products starting from the
    constant 1.  It raises LoweringError with the messages of
    `lower_to_polynomial`, in the same order: a divisor is checked before
    its dividend, an exponent before its base, a left factor before a right
    one.  A negative exponent, after its base, raises the ValueError of
    `Polynomial.__pow__`."""
    names = tuple(names)

    def walk(e) -> Polynomial:
        if isinstance(e, Const):
            return Polynomial.constant(e.value, names)
        if isinstance(e, Var):
            if e.name not in names:
                raise LoweringError(f"unregistered variable {e.name!r}")
            return Polynomial(names, {tuple(int(v == e.name) for v in names): 1})
        if isinstance(e, Neg):
            return -walk(e.operand)
        if isinstance(e, Call):
            raise LoweringError("function calls have no polynomial form", e)
        assert isinstance(e, BinOp)
        if e.op == "^":
            if not isinstance(e.right, Const) or e.right.value.denominator != 1:
                raise LoweringError("exponent must be a nonnegative integer literal", e)
            base = walk(e.left)
            k = int(e.right.value)
            if k < 0:  # the parser makes no negative literal, but a library-built tree can
                raise ValueError(f"polynomial exponent must be a nonnegative integer, got {k!r}")
            result = Polynomial.constant(1, names)
            for _ in range(k):
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


def oracle_additive(argv) -> tuple[int, str, str]:
    """`varsep additive *argv` by lowering alone, as (exit code, stdout,
    stderr): parse, the variable order, lower_to_polynomial, the zero check
    (exit 3), then additive_separability on the expanded F."""
    from varsep import cli
    from varsep.exact import additive_separability
    from varsep.poly import ZeroPolynomialError

    _, args = cli.parse_args(["additive", *argv])
    try:
        node = expr.parse(args.expression)
        poly = expr.lower_to_polynomial(node, cli._variable_order(args, node))
        if poly.is_zero:
            raise ZeroPolynomialError("the zero polynomial is degenerate input")
    except ZeroPolynomialError as exc:
        return 3, "", f"error: {exc}\n"
    except (ParseError, LoweringError, ValueError) as exc:
        return 2, "", f"error: {exc}\n"
    separable = additive_separability(poly)
    if args.format == "json":
        return 0, f'{{"schema": "varsep/1", "additively_separable": {str(separable).lower()}}}\n', ""
    return 0, ("additively separable" if separable else "not additively separable") + "\n", ""


# --------------------------------------------------------------------- printer oracle


def _oracle_prec(node) -> int:
    if isinstance(node, BinOp):
        return 1 if node.op in "+-" else 2 if node.op in "*/" else 4
    return 3 if isinstance(node, Neg) else 5


def oracle_to_source(node) -> str:
    """Render an AST with minimal parentheses by a walk that recurses once
    per node: sums and products are left associative, "^" right
    associative, and unary minus binds below "^"."""

    def wrap(child, needs_parens: bool) -> str:
        text = oracle_to_source(child)
        return f"({text})" if needs_parens else text

    if isinstance(node, Const):
        return expr._const_str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + wrap(node.operand, _oracle_prec(node.operand) < 3)
    if isinstance(node, Call):
        return f"{node.func}({oracle_to_source(node.arg)})"
    mine = _oracle_prec(node)
    if node.op == "^":
        return f"{wrap(node.left, _oracle_prec(node.left) <= mine)}^{wrap(node.right, _oracle_prec(node.right) < mine)}"
    right = wrap(node.right, _oracle_prec(node.right) <= mine)
    op = f" {node.op} " if mine == 1 else node.op
    return f"{wrap(node.left, _oracle_prec(node.left) < mine)}{op}{right}"


# --------------------------------------------------------------------- float evaluation oracle

ORACLE_FLOAT_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp, "ln": math.log, "abs": abs}


def oracle_eval_float(node, mapping) -> float:
    """Evaluate an AST with IEEE doubles by a walk that recurses once per
    node, left operand first.  EvalDomainError names the node whose own
    operation failed: ln of a non-positive value, division by zero, or a
    ValueError or OverflowError from a conversion or a math call.  An
    unbound name raises UnboundVariableError and a function outside the
    table KeyError."""

    def domain(e, compute, *args):
        try:
            return compute(*args)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc), e) from exc

    if isinstance(node, Const):
        return domain(node, float, node.value)
    if isinstance(node, Var):
        if node.name not in mapping:
            raise UnboundVariableError(node.name)
        return float(mapping[node.name])
    if isinstance(node, Neg):
        return -oracle_eval_float(node.operand, mapping)
    if isinstance(node, Call):
        arg = oracle_eval_float(node.arg, mapping)
        if node.func == "ln" and arg <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {arg!r}", node)
        return domain(node, ORACLE_FLOAT_FUNCTIONS[node.func], arg)
    left = oracle_eval_float(node.left, mapping)
    right = oracle_eval_float(node.right, mapping)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if right == 0.0:
            raise EvalDomainError("division by zero", node)
        return domain(node, lambda: left / right)
    return domain(node, math.pow, left, right)


# --------------------------------------------------------------------- numeric route oracle


def _oracle_residual(lhs: float, rhs: float, scale: float) -> float:
    scale = max(scale, DEGENERACY_FLOOR)
    difference = abs(lhs - rhs)
    if difference == math.inf:
        return abs(lhs) / scale + abs(rhs) / scale
    return difference / scale


def _oracle_scan_anchor(evaluate, grid: SampleGrid):
    """(point, f(point), evaluated, skipped) for the sampled point of largest |f|."""
    best = None
    best_value = best_abs = 0.0
    evaluated = skipped = 0
    for point in grid.sample(range(grid.var_count), grid.budget, 0):
        try:
            value = expr.eval_float(evaluate, point)
        except EvalDomainError:
            skipped += 1
            continue
        evaluated += 1
        if abs(value) > best_abs:
            best, best_abs, best_value = point, abs(value), value
    if best is None or best_abs <= DEGENERACY_FLOOR:
        raise DegenerateAnchorError("no sampled grid point keeps |f| above the degeneracy floor")
    return best, best_value, evaluated, skipped


def oracle_numeric_finest_partition(f, grid: SampleGrid, tol: float = 1e-8, *, names=None) -> NumericVerdict:
    """The pair sweep written plainly: each margin value f(a with one
    coordinate replaced) is memoized by (axis, coordinate) once it
    evaluates, each test point gets a fresh copy of the anchor, and a
    second pass over a pair's kept products takes their scales, the noise
    ceiling, each point's own noise scale from its margins and the
    residuals.  It makes the same expr.eval_float calls in the same order as
    numeric_finest_partition."""
    if names is None:
        names = expr.free_variables(f)
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    n = len(names)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance {tol!r} must be finite and nonnegative")
    if grid.var_count != n:
        raise ValueError(f"grid has {grid.var_count} axes, expression has {n} variables")
    if grid.budget < n * (n - 1) // 2:
        raise ValueError(f"budget {grid.budget} is below the {n * (n - 1) // 2} pair tests")
    evaluate = expr.compile_float(f, names)
    anchor, fa, evaluated, skipped = _oracle_scan_anchor(evaluate, grid)

    cache = {}

    def margin_value(axis, coordinate):
        key = (axis, coordinate)
        if key not in cache:
            point = list(anchor)
            point[axis] = coordinate
            cache[key] = expr.eval_float(evaluate, point)
        return cache[key]

    pair_count = n * (n - 1) // 2
    per_pair = max(1, grid.budget // pair_count) if pair_count else grid.budget
    residuals = [[0.0] * n for _ in range(n)]
    discarded = 0
    uf = UnionFind(n)
    for i, j in itertools.combinations(range(n), 2):
        products = []
        for ci, cj in grid.sample((i, j), per_pair, 1, i, j):
            full = list(anchor)
            full[i] = ci
            full[j] = cj
            try:
                lhs = fa * expr.eval_float(evaluate, full)
                margins = (margin_value(i, ci), margin_value(j, cj))
                rhs = margins[0] * margins[1]
            except EvalDomainError:
                skipped += 1
                continue
            if not (math.isfinite(lhs) and math.isfinite(rhs)):
                skipped += 1
                continue
            evaluated += 1
            products.append((lhs, rhs, margins))
        if not products:
            raise DomainCoverageError(
                f"every sample for pair ({names[i]}, {names[j]}) left the domain or overflowed"
            )
        ceiling = max(max(abs(lhs), abs(rhs)) for lhs, rhs, _ in products)
        noise = ceiling * PRODUCT_NOISE_RELATIVE_FLOOR
        worst = 0.0
        for lhs, rhs, margins in products:
            scale = max(abs(lhs), abs(rhs))
            if scale <= noise and scale <= PRODUCT_NOISE_RELATIVE_FLOOR * abs(fa) * max(map(abs, margins)):
                discarded += 1
                continue
            worst = max(worst, _oracle_residual(lhs, rhs, scale))
        residuals[i][j] = residuals[j][i] = worst
        if worst > tol:
            uf.union(i, j)
    total = evaluated + skipped
    if total and skipped > total / 2:
        raise DomainCoverageError(f"{skipped} of {total} sample evaluations left the domain or overflowed")
    return NumericVerdict(
        names=names,
        residuals=tuple(tuple(row) for row in residuals),
        anchor=anchor,
        tolerance=tol,
        partition=uf.partition(),
        evaluated=evaluated,
        skipped=skipped,
        discarded=discarded,
    )


# --------------------------------------------------------------------- front-end oracles


class TokenKind(enum.Enum):
    NUMBER = "number"
    IDENT = "identifier"
    OP = "operator"
    PAREN = "paren"


# one token of the oracle lexer: its kind, its text and its UTF-8 byte offset
Token = namedtuple("Token", ("kind", "lexeme", "position"))


def _is_digit(c: str) -> bool:
    return c.isascii() and c.isdigit()


def oracle_tokenize(source: str) -> list[Token]:
    """The lexer as a loop over characters, with byte offsets from
    re-encoding the prefix of a non-ASCII source at every token."""
    tokens: list[Token] = []
    i, n = 0, len(source)
    if source.isascii():
        def offset(index: int) -> int:
            return index
    else:
        def offset(index: int) -> int:
            return len(source[:index].encode("utf-8"))
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        pos = offset(i)
        if _is_digit(c):
            start = i
            while i < n and _is_digit(source[i]):
                i += 1
            if i < n and source[i] == ".":
                if i + 1 >= n or not _is_digit(source[i + 1]):
                    raise ParseError("expected digits after decimal point", offset(i))
                i += 1
                while i < n and _is_digit(source[i]):
                    i += 1
            if i < n and (source[i].isalpha() or source[i] == "_"):
                raise ParseError(
                    "implicit multiplication is not allowed, write an explicit '*'",
                    offset(i),
                )
            tokens.append(Token(TokenKind.NUMBER, source[start:i], pos))
            continue
        if c.isalpha() and c.isascii():
            start = i
            while i < n and (source[i].isalnum() and source[i].isascii() or source[i] == "_"):
                i += 1
            tokens.append(Token(TokenKind.IDENT, source[start:i], pos))
            continue
        if c in "+-*/^":
            tokens.append(Token(TokenKind.OP, c, pos))
            i += 1
            continue
        if c in "()":
            tokens.append(Token(TokenKind.PAREN, c, pos))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", pos)
    return tokens


def _oracle_decimal(lexeme: str) -> Fraction:
    whole, _, frac = lexeme.partition(".")
    return Fraction(int(whole + frac), 10 ** len(frac))


class OracleParser:
    """The grammar of `varsep.expr` with a method per token: peek() and
    advance() calls and kind checks on every lookahead."""

    def __init__(self, source: str, tokens: list[Token]):
        self.source = source
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def _eof_position(self) -> int:
        return len(self.source.encode("utf-8"))

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def advance(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", self._eof_position())
        self.index += 1
        return token

    def expect(self, lexeme: str) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError(f"expected {lexeme!r} before end of input", self._eof_position())
        if token.lexeme != lexeme:
            raise ParseError(f"expected {lexeme!r}, found {token.lexeme!r}", token.position)
        return self.advance()

    def nested(self, opener: Token, parse_inner):
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", opener.position)
        self.depth += 1
        node = parse_inner()
        self.depth -= 1
        return node

    def parse(self):
        node = self.sum_expr()
        token = self.peek()
        if token is not None:
            raise ParseError(f"unexpected token {token.lexeme!r}", token.position)
        return node

    def sum_expr(self):
        node = self.term()
        while (token := self.peek()) and token.kind is TokenKind.OP and token.lexeme in ("+", "-"):
            self.advance()
            node = BinOp(token.lexeme, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while (token := self.peek()) and token.kind is TokenKind.OP and token.lexeme in ("*", "/"):
            self.advance()
            node = BinOp(token.lexeme, node, self.unary())
        return node

    def unary(self):
        token = self.peek()
        if token and token.kind is TokenKind.OP and token.lexeme == "-":
            self.advance()
            return Neg(self.nested(token, self.unary))
        return self.power()

    def power(self):
        node = self.atom()
        token = self.peek()
        if token and token.kind is TokenKind.OP and token.lexeme == "^":
            self.advance()
            node = BinOp("^", node, self.nested(token, self.power))
        return node

    def atom(self):
        token = self.advance()
        if token.kind is TokenKind.NUMBER:
            return Const(_oracle_decimal(token.lexeme))
        if token.kind is TokenKind.IDENT:
            nxt = self.peek()
            if nxt and nxt.lexeme == "(":
                if token.lexeme not in SUPPORTED_FUNCTIONS:
                    raise ParseError(
                        f"unknown function {token.lexeme!r} (supported: {', '.join(SUPPORTED_FUNCTIONS)})",
                        token.position,
                    )
                arg = self.nested(self.advance(), self.sum_expr)
                self.expect(")")
                return Call(token.lexeme, arg)
            return Var(token.lexeme)
        if token.lexeme == "(":
            node = self.nested(token, self.sum_expr)
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {token.lexeme!r}", token.position)


def oracle_parse(source: str):
    """`varsep.expr.parse` through the character-loop lexer and the
    method-per-token parser."""
    if not source.strip():
        raise ParseError("empty expression", 0)
    return OracleParser(source, oracle_tokenize(source)).parse()


# --------------------------------------------------------------------- slice-identity oracle


def oracle_slice_identity(poly: Polynomial, partition: Partition):
    """(L, slices, violation) of the slice identity, computed on F's own
    Fraction coefficients: L^(r-1) * c[key] == prod_k slices[k][key_k] at
    every key, walked beside the sorted terms up to the first mismatch."""
    blocks = partition.blocks
    r = len(blocks)
    keyed = [
        (tuple(tuple(exps[i] for i in block) for block in blocks), c)
        for exps, c in poly.terms.items()
    ]
    corner = tuple(map(max, zip(*(key for key, _ in keyed))))
    leading = Fraction(0)
    slices = [{} for _ in range(r)]
    for key, c in keyed:
        off = [k for k in range(r) if key[k] != corner[k]]
        if not off:
            leading = c
            for k in range(r):
                slices[k][corner[k]] = c
        elif len(off) == 1:
            slices[off[0]][key[off[0]]] = c
    violation = None
    if leading == 0:
        violation = tuple(min(s) for s in slices) if all(slices) else corner
    else:
        scale = leading ** (r - 1)
        expected = itertools.product(*(sorted(s.items()) for s in slices))
        for e, (key, c) in zip(expected, sorted(keyed)):
            index = tuple(p for p, _ in e)
            if index != key or scale * c != math.prod(v for _, v in e):
                violation = min(index, key)
                break
    if violation is not None:
        violation = tuple(itertools.chain.from_iterable(violation))
    return leading, slices, violation


def oracle_slice_factors(poly: Polynomial, partition: Partition) -> SeparationResult | None:
    """F = L^(1-r) * prod_k slice_k from `oracle_slice_identity`, each slice
    made monic by its graded-lex leading coefficient; None when F does not
    separate by the partition."""
    leading, slices, violation = oracle_slice_identity(poly, partition)
    if violation is not None:
        return None
    constant = leading ** (1 - partition.block_count)
    factors = []
    for block, terms in zip(partition.blocks, slices):
        raw = Polynomial(tuple(poly.vars[i] for i in block), terms)
        lead = raw.leading_coefficient()
        constant *= lead
        factors.append((block, raw / lead))
    return SeparationResult(constant=constant, factors=tuple(factors), verified=True)


# --------------------------------------------------------------------- witness oracle


def both_points_miss_source() -> str:
    """A 117-byte input whose (x, y) pair value vanishes at both fixed
    witness points of its six variables: ((x - a)^2*(x - b)^2 + y) times
    four univariates in z1..z4, with a and b the x of those points."""
    a, b = (point[0] for point in exact._witness_points(6))
    factors = "*".join(f"(z{k}^12 + {k + 1}*z{k}^5 + {k})" for k in range(1, 5))
    return f"((x - ({a}))^2*(x - ({b}))^2 + y)*{factors}"


def oracle_witnessed_partition(poly: Polynomial):
    """(partition, witnesses) as `exact.finest_partition` gives them, by the
    plain loop over the fixed witness points and then the fresh stream of
    `exact._points`: at each point a pair is tested only while its ends are
    in different components, and a witness is recorded only where it joins
    two; after each point the loop stops at one component or when the slice
    identity certifies the witnessed partition.  It calls `exact._cleared`
    and `exact._slice_identity` directly, so it shares no certificate with
    the code under test."""
    n = poly.var_count
    _, cleared = exact._cleared(poly)
    terms = [(c, [(i, e) for i, e in enumerate(exps) if e]) for exps, c in cleared.items()]
    uf = UnionFind(n)
    witnesses = {}
    fixed = exact._witness_points(n)
    fresh = itertools.islice(exact._points(n), len(fixed), None)
    for point in itertools.chain(fixed, fresh):
        f, s1, s2 = exact._pair_sums(terms, point, n)
        for i, j in itertools.combinations(range(n), 2):
            if uf.find(i) != uf.find(j) and f * s2[i][j] != s1[i] * s1[j]:
                witnesses[(i, j)] = point
                uf.union(i, j)
        partition = uf.partition()
        if partition.block_count == 1 or exact._slice_identity(cleared, partition)[2] is None:
            return partition, witnesses
