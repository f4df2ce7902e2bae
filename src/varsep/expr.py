"""Arithmetic expression front end: lexer, parser, printer, and evaluators.

Grammar (EBNF, whitespace between tokens ignored):

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , power ] ;              (* right associative *)
    atom    = NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")" ;
    NUMBER  = DIGIT+ , [ "." , DIGIT+ ] ;
    IDENT   = ALPHA , { ALPHA | DIGIT | "_" } ;

Precedence from loosest to tightest: + -, * /, unary -, ^.  Implicit
multiplication ("2x") is rejected.  Function calls take exactly one argument
and the name must be one of sin, cos, tan, exp, ln, abs.  Decimal literals
become exact rationals (0.25 -> 1/4).  Input is UTF-8; error positions are
byte offsets.  Parenthesised groups, call arguments, unary minus and "^"
exponents each open one nesting level, and more than MAX_NESTING levels is a
parse error, so nesting alone cannot exhaust the stack of the recursive
parser or of the passes over its tree.  Sums and products open no level.

Float evaluation: eval_float walks the AST and is the reference;
compile_float turns an AST once into a positional function, a tree of
closures, for callers that evaluate the same expression at many points, and
eval_float also evaluates through such a function.  Both share one set of
domain rules (ln of a non-positive value, division by zero, and math
errors all raise EvalDomainError naming the subexpression).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

from .poly import Polynomial

SUPPORTED_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "abs")

MAX_NESTING = 100

_SUM_OPS = ("+", "-")
_TERM_OPS = ("*", "/")


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at byte {position}: {message}")
        self.position = position


class TokenKind(enum.Enum):
    NUMBER = "number"
    IDENT = "identifier"
    OP = "operator"
    PAREN = "paren"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    position: int


# --------------------------------------------------------------------- AST


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprNode"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprNode"


ExprNode = Union[Const, Var, Neg, BinOp, Call]


# --------------------------------------------------------------------- lexer


def _byte_offset(source: str, index: int) -> int:
    return len(source[:index].encode("utf-8"))


def _is_digit(c: str) -> bool:
    return c.isascii() and c.isdigit()


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        pos = _byte_offset(source, i)
        if _is_digit(c):
            start = i
            while i < n and _is_digit(source[i]):
                i += 1
            if i < n and source[i] == ".":
                if i + 1 >= n or not _is_digit(source[i + 1]):
                    raise ParseError("expected digits after decimal point", _byte_offset(source, i))
                i += 1
                while i < n and _is_digit(source[i]):
                    i += 1
            # reject implicit multiplication such as "2x"
            if i < n and (source[i].isalpha() or source[i] == "_"):
                raise ParseError(
                    "implicit multiplication is not allowed, write an explicit '*'",
                    _byte_offset(source, i),
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


def _decimal_to_fraction(lexeme: str) -> Fraction:
    if "." not in lexeme:
        return Fraction(int(lexeme))
    whole, frac = lexeme.split(".")
    scale = 10 ** len(frac)
    return Fraction(int(whole) * scale + int(frac), scale)


# --------------------------------------------------------------------- parser


class _Parser:
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

    def nested(self, opener: Token, parse_inner: Callable[[], ExprNode]) -> ExprNode:
        """Parse one nesting level, opened by the token `opener`."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", opener.position)
        self.depth += 1
        node = parse_inner()
        self.depth -= 1
        return node

    def parse(self) -> ExprNode:
        node = self.sum_expr()
        token = self.peek()
        if token is not None:
            raise ParseError(f"unexpected token {token.lexeme!r}", token.position)
        return node

    def sum_expr(self) -> ExprNode:
        node = self.term()
        while (token := self.peek()) and token.kind is TokenKind.OP and token.lexeme in _SUM_OPS:
            self.advance()
            node = BinOp(token.lexeme, node, self.term())
        return node

    def term(self) -> ExprNode:
        node = self.unary()
        while (token := self.peek()) and token.kind is TokenKind.OP and token.lexeme in _TERM_OPS:
            self.advance()
            node = BinOp(token.lexeme, node, self.unary())
        return node

    def unary(self) -> ExprNode:
        token = self.peek()
        if token and token.kind is TokenKind.OP and token.lexeme == "-":
            self.advance()
            return Neg(self.nested(token, self.unary))
        return self.power()

    def power(self) -> ExprNode:
        node = self.atom()
        token = self.peek()
        if token and token.kind is TokenKind.OP and token.lexeme == "^":
            self.advance()
            # right associative; the exponent is a power, not a unary,
            # so a negative exponent needs parentheses: x^(-2)
            node = BinOp("^", node, self.nested(token, self.power))
        return node

    def atom(self) -> ExprNode:
        token = self.advance()
        if token.kind is TokenKind.NUMBER:
            return Const(_decimal_to_fraction(token.lexeme))
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


def parse(source: str) -> ExprNode:
    """Parse an expression string into an AST."""
    if not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source, tokenize(source)).parse()


# --------------------------------------------------------------------- printer

_PREC_SUM, _PREC_TERM, _PREC_UNARY, _PREC_POWER, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: ExprNode) -> int:
    if isinstance(node, BinOp):
        if node.op in _SUM_OPS:
            return _PREC_SUM
        if node.op in _TERM_OPS:
            return _PREC_TERM
        return _PREC_POWER
    if isinstance(node, Neg):
        return _PREC_UNARY
    return _PREC_ATOM


def _const_str(value: Fraction) -> str:
    if value < 0:
        # parser constants are nonnegative (minus is a unary operator);
        # keep manually built negatives parseable
        return f"(0 - {_const_str(-value)})"
    if value.denominator == 1:
        return str(value.numerator)
    # parser constants come from decimal literals, so an exact decimal exists
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"({value.numerator}/{value.denominator})"
    digits = max(twos, fives)
    scaled = value.numerator * 10**digits // value.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def to_source(node: ExprNode) -> str:
    """Render an AST back to parseable text with minimal parentheses."""

    def wrap(child: ExprNode, needs_parens: bool) -> str:
        text = to_source(child)
        return f"({text})" if needs_parens else text

    if isinstance(node, Const):
        return _const_str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + wrap(node.operand, _prec(node.operand) < _PREC_UNARY)
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    mine = _prec(node)
    if node.op == "^":
        left = wrap(node.left, _prec(node.left) <= mine)
        return f"{left}^{wrap(node.right, _prec(node.right) < mine)}"
    # walk the left spine of a chain of one precedence, as lower_sum does,
    # so a long sum or product does not recurse once per operand
    spine = []
    while isinstance(node, BinOp) and _prec(node) == mine:
        spine.append(node)
        node = node.left
    pieces = [wrap(node, _prec(node) < mine)]
    for e in reversed(spine):
        right = wrap(e.right, _prec(e.right) <= mine)
        pieces.append(f" {e.op} {right}" if e.op in _SUM_OPS else f"{e.op}{right}")
    return "".join(pieces)


def free_variables(node: ExprNode) -> list[str]:
    """Variable names in first-occurrence order."""
    names: list[str] = []

    def walk(e: ExprNode) -> None:
        if isinstance(e, Var):
            if e.name not in names:
                names.append(e.name)
        elif isinstance(e, Neg):
            walk(e.operand)
        elif isinstance(e, BinOp):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Call):
            walk(e.arg)

    walk(node)
    return names


# --------------------------------------------------------------------- float evaluation


class UnboundVariableError(Exception):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} has no bound value")
        self.name = name


class EvalDomainError(Exception):
    """Floating-point evaluation left the function's domain."""

    def __init__(self, message: str, node: ExprNode):
        super().__init__(f"{message} in {to_source(node)!r}")
        self.node = node


_FLOAT_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "abs": abs,
}

# The domain rules, written once and shared by eval_float and the functions
# compile_float builds.  `node` is the subexpression named by the error.


def _const(node: Const) -> float:
    try:
        return float(node.value)
    except OverflowError as exc:
        raise EvalDomainError(str(exc), node) from exc


def _call(node: Call, arg: float) -> float:
    if node.func == "ln" and arg <= 0.0:
        raise EvalDomainError(f"ln of non-positive value {arg!r}", node)
    try:
        return _FLOAT_FUNCTIONS[node.func](arg)
    except (ValueError, OverflowError) as exc:
        raise EvalDomainError(str(exc), node) from exc


def _divide(node: BinOp, left: float, right: float) -> float:
    if right == 0.0:
        raise EvalDomainError("division by zero", node)
    try:
        return left / right
    except (ValueError, OverflowError) as exc:
        raise EvalDomainError(str(exc), node) from exc


def _power(node: BinOp, left: float, right: float) -> float:
    try:
        return math.pow(left, right)
    except (ValueError, OverflowError) as exc:
        raise EvalDomainError(str(exc), node) from exc


CompiledFloat = Callable[[Sequence[float]], float]


def eval_float(node: ExprNode | CompiledFloat, point: Mapping[str, float] | Sequence[float]) -> float:
    """Evaluate with IEEE doubles; domain violations raise instead of producing NaN.

    With an AST and a mapping from names to values this is the reference
    evaluator, a recursive walk.  With a function from compile_float and a
    coordinate sequence it evaluates through that function: the one entry
    point to evaluation at a point, whichever form the expression is in.
    There a tree too deep for the interpreter's stack raises ValueError.
    """
    if callable(node):
        try:
            return node(point)
        except RecursionError:
            raise ValueError("expression too deep to evaluate") from None
    if isinstance(node, Const):
        return _const(node)
    if isinstance(node, Var):
        if node.name not in point:
            raise UnboundVariableError(node.name)
        return float(point[node.name])
    if isinstance(node, Neg):
        return -eval_float(node.operand, point)
    if isinstance(node, Call):
        return _call(node, eval_float(node.arg, point))
    left = eval_float(node.left, point)
    right = eval_float(node.right, point)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return _divide(node, left, right)
    return _power(node, left, right)


def compile_float(node: ExprNode, names: Sequence[str]) -> CompiledFloat:
    """Compile `node` into f(point), point holding one coordinate per name.

    f(point) equals eval_float(node, dict(zip(names, point))) bit for bit and
    raises the same errors at the same subexpressions.  f is a tree of
    closures built once: variable lookups become indexes into the point,
    constants are converted to floats here, and the per-node type dispatch of
    the walk is gone.  A variable missing from `names` raises
    UnboundVariableError when evaluated, not here.  A tree too deep to build
    raises ValueError.
    """
    index = {name: i for i, name in enumerate(names)}

    def build(e: ExprNode) -> CompiledFloat:
        if isinstance(e, Const):
            try:
                value = _const(e)
            except EvalDomainError:
                # raises when evaluated, as eval_float does
                return lambda p: _const(e)
            return lambda p: value
        if isinstance(e, Var):
            if e.name not in index:
                def unbound(p):
                    raise UnboundVariableError(e.name)
                return unbound
            i = index[e.name]
            return lambda p: float(p[i])
        if isinstance(e, Neg):
            operand = build(e.operand)
            return lambda p: -operand(p)
        if isinstance(e, Call):
            arg = build(e.arg)
            return lambda p: _call(e, arg(p))
        left, right = build(e.left), build(e.right)
        if e.op == "+":
            return lambda p: left(p) + right(p)
        if e.op == "-":
            return lambda p: left(p) - right(p)
        if e.op == "*":
            return lambda p: left(p) * right(p)
        if e.op == "/":
            return lambda p: _divide(e, left(p), right(p))
        return lambda p: _power(e, left(p), right(p))

    try:
        return build(node)
    except RecursionError:
        raise ValueError("expression too deep to evaluate") from None


# --------------------------------------------------------------------- lowering to polynomials


class LoweringError(Exception):
    """The expression contains a construct with no exact polynomial form."""

    def __init__(self, message: str, node: ExprNode | None = None):
        if node is not None:
            message = f"{message} in {to_source(node)!r}"
        super().__init__(message)
        self.node = node


def lower_to_polynomial(node: ExprNode, vars: Sequence[str] | None = None) -> Polynomial:
    """Expand a polynomial-shaped AST into an exact sparse polynomial.

    Allowed constructs: +, -, *, rational constants, registered variables,
    ^ with a nonnegative integer literal exponent, and / by an expression
    that lowers to a nonzero constant.  Anything else raises LoweringError.
    """
    names = tuple(vars) if vars is not None else tuple(free_variables(node))
    if len(set(names)) != len(names):
        raise LoweringError(f"duplicate variable names in {names}")
    registered = set(names)

    def lower(e: ExprNode) -> Polynomial:
        if isinstance(e, Const):
            return Polynomial.constant(e.value, names)
        if isinstance(e, Var):
            if e.name not in registered:
                raise LoweringError(f"unregistered variable {e.name!r}")
            return Polynomial.variable(e.name, names)
        if isinstance(e, Neg):
            return -lower(e.operand)
        if isinstance(e, Call):
            raise LoweringError("function calls have no polynomial form", e)
        if e.op in _SUM_OPS:
            return lower_sum(e)
        if e.op == "*":
            return lower(e.left) * lower(e.right)
        if e.op == "/":
            divisor = lower(e.right)
            if not divisor.is_constant:
                raise LoweringError("division by a non-constant", e)
            value = divisor.constant_value()
            if value == 0:
                raise LoweringError("division by zero", e)
            return lower(e.left) / value
        # exponent must be a nonnegative integer literal
        if not isinstance(e.right, Const) or e.right.value.denominator != 1:
            raise LoweringError("exponent must be a nonnegative integer literal", e)
        return lower(e.left) ** int(e.right.value)

    def lower_sum(e: BinOp) -> Polynomial:
        # walk the left spine of a +/- chain and add every piece into one
        # term map, so a long sum costs time linear in its length
        pieces = []
        while isinstance(e, BinOp) and e.op in _SUM_OPS:
            pieces.append((e.op == "-", e.right))
            e = e.left
        pieces.append((False, e))
        terms: dict = {}
        for negate, piece in reversed(pieces):
            for exps, coef in lower(piece).terms.items():
                terms[exps] = terms.get(exps, 0) + (-coef if negate else coef)
        return Polynomial(names, terms)

    return lower(node)
