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
and the name must be one of sin, cos, tan, exp, ln, abs.  An integer literal
is an int and a decimal literal an exact Fraction (0.25 -> 1/4).  Input is
UTF-8; error positions are byte offsets.  Parenthesised groups, call
arguments, unary minus and "^" exponents each open one nesting level, and
more than MAX_NESTING levels is a parse error, so nesting alone cannot
exhaust the stack of the recursive parser or of the passes over its tree.
Sums and products open no level.

Scanning: one compiled regular expression matches the whitespace before
a token (exactly what str.isspace accepts) and then the token.  parse reads
every source with one findall over the source without its trailing
whitespace, which yields the lexemes and no positions; the parser's
lookahead is the lexeme at an index, with an empty lexeme after the last
token.  The scan is clean when its only empty lexeme is the last one and no
digit is followed at once by a letter or "_" (implicit multiplication).
Positions are computed only for an error, by one locator that walks the
matches again, up to the token a parser error names or to where an unclean
scan stops, and encodes that one prefix.

Printing: to_source and the source compile_float generates come from one
printer, a loop over the tree's postorder with a stack of (pieces,
precedence) entries; they differ only in how leaves and "^" are rendered,
and no depth of tree makes the printer recurse.

Float evaluation: eval_float is the reference, one loop over the tree's
postorder with a stack of values, and holds the one set of domain rules (ln
of a non-positive value, division by zero, and math errors all raise
EvalDomainError naming the subexpression).  compile_float prints an AST
once into one generated straight-line Python function of the point's
coordinates, for callers that evaluate the same expression at many points;
at a point where that code raises, it replays the loop, so values and errors
are the loop's.  eval_float also evaluates through such a function.

Residues: additive_by_residues evaluates F mod 2^61 - 1 (eval_residues) at
seeded points a, b.  F is additive when no top-level summand (through
factors and divisors without a variable) mixes variables and F(a) != 0, and
not when F(b) - F(b_A, a_B) - F(a_A, b_B) + F(a) != 0 for a split (A, B) of
the indexes by a bit below bit_length(n - 1); any two indexes differ in one.
"""

from __future__ import annotations

import math
import random
import re
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction

from ._record import Record
from .poly import Polynomial, scalar_str

# the functions a call may name, and what the float evaluators call for each
_FLOAT_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "abs": abs,
}
SUPPORTED_FUNCTIONS = tuple(_FLOAT_FUNCTIONS)

MAX_NESTING = 100

_SUM_OPS = ("+", "-")


# ParseError, UnboundVariableError and EvalDomainError keep the values that
# word them as their args and word them in __str__, so they survive pickle
# (which calls the class with its args) and the text is rendered only when
# it is read.


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(message, position)
        self.position = position

    def __str__(self) -> str:
        message, position = self.args
        return f"syntax error at byte {position}: {message}"


# --------------------------------------------------------------------- AST

# Values (see _record.Record): each node's initialiser is generated from
# its __slots__ and takes its fields in that order.


class Const(Record):
    """A literal: the parser gives an int for an integer lexeme ("12") and
    a Fraction only for a decimal one ("0.25" is Fraction(1, 4))."""

    __slots__ = ("value",)


class Var(Record):
    __slots__ = ("name",)


class Neg(Record):
    __slots__ = ("operand",)


class BinOp(Record):
    __slots__ = ("op", "left", "right")


class Call(Record):
    __slots__ = ("func", "arg")


ExprNode = Const | Var | Neg | BinOp | Call


# --------------------------------------------------------------------- lexer

# The whitespace before one token, then the token, if any: a number, an
# identifier, an operator or a parenthesis.  \s is exactly what str.isspace
# accepts, and every other non-ASCII character stops a match.
_TOKEN = re.compile(r"\s*([0-9]+(?:\.[0-9]+)?|[A-Za-z][A-Za-z0-9_]*|[-+*/^()])?")
# the lexeme after the last token; no token has an empty lexeme
_END = ""
# a digit followed at once by a letter or "_": where a scan that stops
# nowhere else can hide implicit multiplication
_IMPLICIT = re.compile(r"[0-9][A-Za-z_]")


def _lexemes(source: str) -> list[str]:
    """The lexemes of `source`, then _END, read by one findall; a source
    that does not scan cleanly raises the error the locator finds."""
    # the lexemes are the tokens in order; the last is the empty match at
    # the end of the stripped input, and an empty one before it stops at a
    # character no token starts with, such as "$", "\u00e9" or a "." after a
    # number.  A digit in an identifier ("x1y") matches _IMPLICIT too, and
    # there the locator finds no error.
    lexemes = _TOKEN.findall(source.rstrip())
    if (lexemes.index(_END) < len(lexemes) - 1 or _IMPLICIT.search(source)) and (error := _locate(source)):
        raise error
    return lexemes


def _locate(source: str, index: int = -1, message: str = "") -> ParseError | None:
    """With an `index`, a ParseError with `message` at the token at that
    index (the end of the input after the last token); without one, the
    error where the scan of `source` stops, or None where it does not."""
    n = len(source)
    for k, m in enumerate(_TOKEN.finditer(source)):
        lexeme = m[1]
        if lexeme is None:
            # the end of the input, or a character no token starts with
            at = m.end()
            if at < n:
                message = f"unexpected character {source[at]!r}"
            elif index < 0:
                return None
            break
        if k == index:
            at = m.start(1)
            break
        # the token ends the match, so m.end() is the character after it
        at = m.end()
        if lexeme[0].isdigit() and at < n:
            c = source[at]
            if c == "." and "." not in lexeme:
                message = "expected digits after decimal point"
                break
            # reject implicit multiplication such as "2x"
            if c.isalpha() or c == "_":
                message = "implicit multiplication is not allowed, write an explicit '*'"
                break
    return ParseError(message, len(source[:at].encode("utf-8")))


def _literal_value(lexeme: str) -> int | Fraction:
    """An integer lexeme is an int; only a decimal one becomes a Fraction."""
    if "." not in lexeme:
        return _digits_value(lexeme)
    whole, frac = lexeme.split(".")
    return Fraction(_digits_value(whole + frac), 10 ** len(frac))


def _digits_value(digits: str) -> int:
    """int(digits) for a digit string of any length.  CPython's int() reads
    at most sys.get_int_max_str_digits() digits (a ValueError past that), so
    only then are the halves read apart; the limit itself is never changed."""
    try:
        return int(digits)
    except ValueError:
        half = len(digits) // 2
        return _digits_value(digits[:half]) * 10 ** (len(digits) - half) + _digits_value(digits[half:])


# --------------------------------------------------------------------- parser


class _Parser:
    """Recursive descent over the lexemes, one method per grammar rule,
    except that `factor` reads unary, power and the plain atoms (numbers,
    and identifiers not followed by "(") itself; calls and groups go to
    `atom`.  The lookahead is the lexeme at the current index (see the
    module docstring).  Positions are computed only for an error, by
    `_locate`."""

    def __init__(self, source: str, lexemes: list[str]):
        self.source = source
        self.lexemes = lexemes
        self.index = 0
        self.depth = 0

    def expect(self, lexeme: str) -> None:
        index = self.index
        found = self.lexemes[index]
        if found != lexeme:
            if found == _END:
                raise _locate(self.source, index, f"expected {lexeme!r} before end of input")
            raise _locate(self.source, index, f"expected {lexeme!r}, found {found!r}")
        self.index = index + 1

    def nested(self, opener: int, parse_inner: Callable[..., ExprNode], *args) -> ExprNode:
        """Parse one nesting level, opened by the token at index `opener`."""
        if self.depth == MAX_NESTING:
            raise _locate(self.source, opener, f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        node = parse_inner(*args)
        self.depth -= 1
        return node

    def parse(self) -> ExprNode:
        node = self.sum_expr()
        if (lexeme := self.lexemes[self.index]) != _END:
            raise _locate(self.source, self.index, f"unexpected token {lexeme!r}")
        return node

    def sum_expr(self) -> ExprNode:
        node = self.term()
        lexemes = self.lexemes
        while (op := lexemes[self.index]) == "+" or op == "-":
            self.index += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ExprNode:
        node = self.factor()
        lexemes = self.lexemes
        while (op := lexemes[self.index]) == "*" or op == "/":
            self.index += 1
            node = BinOp(op, node, self.factor())
        return node

    def factor(self, signed: bool = True) -> ExprNode:
        """A unary, or with `signed` false a power: the exponent of "^" is a
        power, so a negative exponent needs parentheses, x^(-2)."""
        index = self.index
        lexemes = self.lexemes
        lexeme = lexemes[index]
        first = lexeme[:1]
        if "0" <= first <= "9":
            node = Const(_literal_value(lexeme))
            index += 1
        elif first.isalpha() and lexemes[index + 1] != "(":
            node = Var(lexeme)
            index += 1
        elif signed and lexeme == "-":
            self.index = index + 1
            return Neg(self.nested(index, self.factor))
        else:
            node = self.atom()
            index = self.index
        if lexemes[index] == "^":
            # right associative
            self.index = index + 1
            return BinOp("^", node, self.nested(index, self.factor, False))
        self.index = index
        return node

    def atom(self) -> ExprNode:
        """A call, a parenthesised group, or the error where an atom was due."""
        index = self.index
        lexeme = self.lexemes[index]
        if lexeme == "(":
            self.index = index + 1
            node = self.nested(index, self.sum_expr)
            self.expect(")")
            return node
        if lexeme == _END:
            raise _locate(self.source, index, "unexpected end of input")
        if lexeme[0].isalpha():
            # factor reads an identifier not followed by "(" itself
            if lexeme not in SUPPORTED_FUNCTIONS:
                message = f"unknown function {lexeme!r} (supported: {', '.join(SUPPORTED_FUNCTIONS)})"
                raise _locate(self.source, index, message)
            self.index = index + 2
            arg = self.nested(index + 1, self.sum_expr)
            self.expect(")")
            return Call(lexeme, arg)
        raise _locate(self.source, index, f"unexpected token {lexeme!r}")


def parse(source: str) -> ExprNode:
    """Parse an expression string into an AST."""
    if not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source, _lexemes(source)).parse()


# --------------------------------------------------------------------- printer

_PREC_SUM, _PREC_TERM, _PREC_UNARY, _PREC_POWER, _PREC_ATOM = 1, 2, 3, 4, 5


def _text(entry: tuple[list[str], int], least: int = 0) -> str:
    """The text of an entry, in parentheses if its precedence is below `least`."""
    pieces, prec = entry
    return f"({''.join(pieces)})" if prec < least else "".join(pieces)


def _render(order: list[ExprNode], leaf: Callable[[ExprNode], str], power: Callable[..., tuple[list[str], int]]) -> str:
    """The text of the tree whose postorder is `order`, with the fewest
    parentheses the precedences allow: one loop with a stack of (pieces,
    precedence) entries.  `leaf` renders a Var, a Const or a Call's function
    name, and `power` the entry of a "^" from its operands' entries.  A sum
    or product extends its left operand's pieces in place, so a chain of one
    precedence costs time linear in its length."""
    stack: list[tuple[list[str], int]] = []
    for e in order:
        if isinstance(e, BinOp):
            right = stack.pop()
            if e.op == "^":
                stack[-1] = power(stack[-1], right)
                continue
            mine = _PREC_SUM if e.op in _SUM_OPS else _PREC_TERM
            pieces, prec = stack[-1]
            if prec < mine:
                pieces = ["(", *pieces, ")"]
            pieces += (f" {e.op} " if mine == _PREC_SUM else e.op, _text(right, mine + 1))
            stack[-1] = pieces, mine
        elif isinstance(e, Neg):
            stack[-1] = ["-" + _text(stack[-1], _PREC_UNARY)], _PREC_UNARY
        elif isinstance(e, Call):
            stack[-1] = [f"{leaf(e)}({_text(stack[-1])})"], _PREC_ATOM
        else:
            stack.append(([leaf(e)], _PREC_ATOM))
    return _text(stack[0])


def _const_str(value: int | Fraction) -> str:
    if value < 0:
        # parser constants are nonnegative (minus is a unary operator);
        # keep manually built negatives parseable
        return f"(0 - {_const_str(-value)})"
    if value.denominator == 1:
        return scalar_str(value)
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
        return f"({scalar_str(value)})"
    digits = max(twos, fives)
    scaled = value.numerator * 10**digits // value.denominator
    text = scalar_str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def to_source(node: ExprNode) -> str:
    """Render an AST back to parseable text with minimal parentheses: the
    shared printer with the grammar's leaves, and "^" right associative."""
    return _render(
        _postorder(node),
        lambda e: _const_str(e.value) if isinstance(e, Const) else e.name if isinstance(e, Var) else e.func,
        lambda left, right: ([f"{_text(left, _PREC_ATOM)}^{_text(right, _PREC_POWER)}"], _PREC_POWER),
    )


def free_variables(node: ExprNode) -> list[str]:
    """Variable names in first-occurrence order, read off _postorder, which
    visits the leaves left to right and has no depth limit."""
    return list(dict.fromkeys(e.name for e in _postorder(node) if isinstance(e, Var)))


# --------------------------------------------------------------------- float evaluation


class UnboundVariableError(Exception):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        (name,) = self.args
        return f"variable {name!r} has no bound value"


class EvalDomainError(Exception):
    """Floating-point evaluation left the function's domain.  The numeric
    route catches and counts most of these, so the subexpression is
    printed only when the text is read."""

    def __init__(self, message: str, node: ExprNode):
        super().__init__(message, node)
        self.node = node

    def __str__(self) -> str:
        message, node = self.args
        return f"{message} in {to_source(node)!r}"


CompiledFloat = Callable[[Sequence[float]], float]


def _postorder(node: ExprNode) -> list[ExprNode]:
    """The nodes of `node`'s tree, each after its operands, left before right
    (the reversed right-first preorder); a BinOp op outside + - * / ^ raises ValueError."""
    order, stack = [], [node]
    while stack:
        e = stack.pop()
        order.append(e)
        if isinstance(e, BinOp):
            if e.op not in ("+", "-", "*", "/", "^"):
                raise ValueError(f"unknown operator {e.op!r}")
            stack += (e.left, e.right)
        elif isinstance(e, Neg):
            stack.append(e.operand)
        elif isinstance(e, Call):
            stack.append(e.arg)
    order.reverse()
    return order


def _evaluate(order: list[ExprNode], point: Mapping[str, float]) -> float:
    """The reference evaluator: one loop over a postorder from _postorder,
    with a stack of the operands' values.  Each domain rule is applied where
    its node's own operation runs, and that node is the one the error names."""
    values: list[float] = []
    for e in order:
        if isinstance(e, Var):
            if e.name not in point:
                raise UnboundVariableError(e.name)
            values.append(float(point[e.name]))
            continue
        try:
            if isinstance(e, Const):
                value = float(e.value)
            elif isinstance(e, Neg):
                value = -values.pop()
            elif isinstance(e, Call):
                arg = values.pop()
                if e.func == "ln" and arg <= 0.0:
                    raise EvalDomainError(f"ln of non-positive value {arg!r}", e)
                # a function outside the table raises KeyError
                value = _FLOAT_FUNCTIONS[e.func](arg)
            else:
                left, right = values.pop(-2), values.pop()
                if e.op == "+":
                    value = left + right
                elif e.op == "-":
                    value = left - right
                elif e.op == "*":
                    value = left * right
                elif e.op == "/":
                    if right == 0.0:
                        raise EvalDomainError("division by zero", e)
                    value = left / right
                else:
                    value = math.pow(left, right)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc), e) from exc
        values.append(value)
    return values[0]


def eval_float(node: ExprNode | CompiledFloat, point: Mapping[str, float] | Sequence[float]) -> float:
    """Evaluate with IEEE doubles; domain violations raise instead of producing NaN.

    With an AST and a mapping from names to values this is the reference
    evaluator, one loop over the tree's postorder.  With a function from
    compile_float and a coordinate sequence it evaluates through that
    function: the one entry point to evaluation at a point, whichever form
    the expression is in.
    """
    if callable(node):
        return node(point)
    return _evaluate(_postorder(node), point)


def compile_float(node: ExprNode, names: Sequence[str]) -> CompiledFloat:
    """Compile `node` into f(point), point a sequence of exactly len(names)
    floats, one coordinate per name.

    f(point) equals eval_float(node, dict(zip(names, point))) bit for bit and
    raises the same errors at the same subexpressions.  f is one generated
    straight-line function whose expression is the shared printer's text of
    `node`, with generated names for the leaves and pow(l, r) for l^r: one
    assignment unpacks the point, whose floats are used as they are
    (SampleGrid converts its coordinates once), constants are converted
    here, and every operation is a float operator or a math call.  Wherever
    that code raises, f replays the reference loop over the postorder the
    printer walked, so only the loop knows the domain rules; a point of
    another length raises ValueError there.  A leaf the code cannot evaluate
    (a variable missing from `names`, a constant beyond float range, a
    function outside the table) is printed as a name defined nowhere, so the
    code raises there and the point replays: an unbound variable raises
    UnboundVariableError when evaluated, not here.  No text from the
    expression reaches the generated source.  A tree too deep for Python's
    `compile` raises ValueError.
    """
    index = {name: i for i, name in enumerate(names)}
    constants: dict[str, float] = {}

    def leaf(e: ExprNode) -> str:
        if isinstance(e, Var):
            return f"v{index[e.name]}" if e.name in index else "undefined"
        if isinstance(e, Call):
            return e.func if e.func in _FLOAT_FUNCTIONS else "undefined"
        name = f"c{len(constants)}"
        try:
            constants[name] = float(e.value)
        except OverflowError:
            return "undefined"
        return name

    order = _postorder(node)
    body = _render(order, leaf, lambda left, right: ([f"pow({_text(left)}, {_text(right)})"], _PREC_ATOM))
    unpack = "".join(f"v{i}, " for i in range(len(names)))
    source = "\n".join(["def f(p):", "  try:", f"    ({unpack}) = p", f"    return {body}",
                        "  except Exception:", "    return replay(p)"])
    try:
        code = compile(source, "<compile_float>", "exec")
    except (RecursionError, SyntaxError, MemoryError):
        raise ValueError("expression too deep to evaluate") from None
    names = tuple(names)
    namespace = {**_FLOAT_FUNCTIONS, **constants, "pow": math.pow,
                 "replay": lambda p: _evaluate(order, dict(zip(names, p, strict=True)))}
    exec(code, namespace)
    # out of its own globals, so the function is in no reference cycle
    return namespace.pop("f")


# --------------------------------------------------------------------- residues

RESIDUE_PRIME = 2**61 - 1


def eval_residues(node: ExprNode, names: Sequence[str], points: Sequence[Sequence[int]]) -> list[int] | None:
    """The lowered polynomial's values mod RESIDUE_PRIME at `points` (one
    coordinate per name), x^k by pow(x, k, p); None where lowering would
    raise, a divisor has a variable, or a divisor or denominator is 0 mod p."""
    p = RESIDUE_PRIME
    if len(set(names)) != len(names):
        return None
    columns = dict(zip(names, ([c % p for c in column] for column in zip(*points))))
    values: list[list[int]] = []
    for e in _postorder(node):
        if isinstance(e, Call) or isinstance(e, Var) and e.name not in columns:
            return None
        if isinstance(e, Var):
            values.append(columns[e.name])
        elif isinstance(e, Const):
            if not e.value.denominator % p:
                return None
            values.append([e.value.numerator * pow(e.value.denominator, -1, p) % p] * len(points))
        elif isinstance(e, Neg):
            values[-1] = [-a % p for a in values[-1]]
        else:
            right, left = values.pop(), values.pop()
            if e.op == "^":
                k = e.right.value if isinstance(e.right, Const) else -1
                if k < 0 or k.denominator != 1:
                    return None
                values.append([pow(a, int(k), p) for a in left])
            elif e.op in _SUM_OPS:
                values.append([(a + b if e.op == "+" else a - b) % p for a, b in zip(left, right)])
            else:
                if e.op == "/":
                    if not right[0] or free_variables(e.right):
                        return None
                    right = [pow(right[0], -1, p)] * len(points)
                values.append([a * b % p for a, b in zip(left, right)])
    return values[0]


def additive_by_residues(node: ExprNode, names: Sequence[str]) -> bool | None:
    """exact.additive_separability(lower_to_polynomial(node, names)) by residues
    (module docstring); None where they certify neither or lowering raises."""
    rng = random.Random(len(names))
    anchor, moved = ([rng.randrange(1, RESIDUE_PRIME) for _ in names] for _ in range(2))
    mixed, stack = False, [node]
    while stack and not mixed:
        e = stack.pop()
        if isinstance(e, BinOp) and e.op in _SUM_OPS:
            stack += (e.left, e.right)
        elif isinstance(e, Neg):
            stack.append(e.operand)
        elif isinstance(e, BinOp) and e.op in ("*", "/") and not free_variables(e.right):
            stack.append(e.left)
        elif isinstance(e, BinOp) and e.op == "*" and not free_variables(e.left):
            stack.append(e.right)
        else:
            mixed = len(free_variables(e)) > 1
    sides = ([b if i >> bit & 1 == side else a for i, (a, b) in enumerate(zip(anchor, moved))]
             for bit in range((len(names) - 1).bit_length()) for side in (0, 1))
    points = [anchor, moved, *sides] if mixed else [anchor]
    if (values := eval_residues(node, names, points)) is None:
        return None
    if any((values[1] - f_0 - f_1 + values[0]) % RESIDUE_PRIME for f_0, f_1 in zip(values[2::2], values[3::2])):
        return False
    return True if values[0] and not mixed else None


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

    Allowed: +, -, *, rational constants, registered variables, ^ by a
    nonnegative integer literal, and / by what lowers to a nonzero constant;
    anything else raises LoweringError (an op outside + - * / ^, ValueError).

    One walk lowers everything.  The expression is a sum of summands (a
    single product is a sum of one), added into one term map, and each
    summand is a product walked left factor first.  Constants, registered
    variables and unary minus fold into the summand's one term.  A divisor,
    the base of a ^ and a parenthesised sum are lowered by the same walk; a
    result of one term folds in, and only results of more terms are
    multiplied out.  A registered variable raised to k > 0 adds k to its
    exponent, so x^k builds no polynomial; every other base is lowered and
    raised by Polynomial.__pow__, which squares and multiplies.
    Each error is raised when its factor is visited: a divisor before its
    dividend, an exponent before its base, a left factor before a right one.

    Coefficients are folded as Python ints while they are integers: integer
    literals are ints, a folded factor whose coefficient is 1 costs no
    multiply, and a coefficient becomes a Fraction only through a / or a
    factor with a fractional coefficient.  Each sum is built once, through
    the trusted constructor Polynomial._trusted, which turns the summed
    coefficients into Fractions and drops zeros without re-checking the
    exponent vectors the walk built itself.
    """
    names = tuple(vars) if vars is not None else tuple(free_variables(node))
    if len(set(names)) != len(names):
        raise LoweringError(f"duplicate variable names in {names}")
    slots = {name: i for i, name in enumerate(names)}

    def lower(e: ExprNode) -> Polynomial:
        # walk the left spine of a +/- chain and add the terms of every
        # summand into one term map, so a long sum costs time linear in its
        # length; a summand that is a monomial costs one entry
        pieces = []
        while isinstance(e, BinOp) and e.op in _SUM_OPS:
            pieces.append((e.op == "-", e.right))
            e = e.left
        pieces.append((False, e))
        terms: dict = {}
        for negate, piece in reversed(pieces):
            for exps, coef in summand_terms(piece):
                terms[exps] = terms.get(exps, 0) + (-coef if negate else coef)
        return Polynomial._trusted(names, terms)

    def summand_terms(e: ExprNode):
        """The (exps, coef) items of one summand, a product walked with a
        stack.  A factor of one term folds into (exps, coef); the product
        of the factors of more terms is `rest`."""
        exps = [0] * len(names)
        coef = 1
        rest = None
        stack = [e]
        while stack:
            f = stack.pop()
            if isinstance(f, Const):
                coef *= f.value
            elif isinstance(f, Var):
                if f.name not in slots:
                    raise LoweringError(f"unregistered variable {f.name!r}")
                exps[slots[f.name]] += 1
            elif isinstance(f, Neg):
                coef = -coef
                stack.append(f.operand)
            elif isinstance(f, Call):
                raise LoweringError("function calls have no polynomial form", f)
            elif f.op == "*":
                stack += (f.right, f.left)
            elif f.op == "/":
                divisor = lower(f.right)
                if not divisor.is_constant:
                    raise LoweringError("division by a non-constant", f)
                value = divisor.constant_value()
                if value == 0:
                    raise LoweringError("division by zero", f)
                coef /= value
                stack.append(f.left)
            else:
                if f.op == "^":
                    if not isinstance(f.right, Const) or f.right.value.denominator != 1:
                        raise LoweringError("exponent must be a nonnegative integer literal", f)
                    k = int(f.right.value)
                    if k > 0 and isinstance(f.left, Var) and (i := slots.get(f.left.name)) is not None:
                        exps[i] += k
                        continue
                    factor = lower(f.left) ** k
                elif f.op in _SUM_OPS:
                    factor = lower(f)
                else:
                    raise ValueError(f"unknown operator {f.op!r}")
                if len(factor.terms) == 1:
                    ((p, c),) = factor.terms.items()
                    exps = [a + b for a, b in zip(exps, p)]
                    if c != 1:
                        coef *= c
                else:
                    rest = factor if rest is None else rest * factor
        if rest is not None:
            return (rest * Polynomial(names, {tuple(exps): coef})).terms.items()
        return ((tuple(exps), coef),) if coef else ()

    return lower(node)
