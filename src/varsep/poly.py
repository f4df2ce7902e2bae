"""Exact sparse multivariate polynomial arithmetic over rational coefficients.

A polynomial carries an ordered registry of variable names and a sparse term
map from exponent vectors to nonzero ``fractions.Fraction`` coefficients::

    Polynomial(("x", "y"), {(2, 0): 1, (1, 1): Fraction(-3, 2)})   # x^2 - 3/2*x*y

The zero polynomial is the empty term map.  Values are immutable after
construction and every operation returns a new instance, so polynomials are
safe to share across threads.

One registry per polynomial: ``+``, ``-`` and ``*`` combine only polynomials
over the same registry, in the same order, and raise ``ValueError``
otherwise; ``==`` across registries is False.  Scalars (``int`` and
``Fraction``) lift to constants over the other operand's registry.

Canonical text form: terms in graded-lexicographic descending order (total
degree first, exponent vector as tie break), coefficients printed as integers
or ``p/q`` of any size (``scalar_str``), explicit ``*`` and ``^``.  The result
re-parses through the expression front end to an equal polynomial.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

Scalar = int | Fraction
ExponentVector = tuple[int, ...]


class ZeroPolynomialError(ValueError):
    """Raised by operations that are undefined for the zero polynomial."""


def _fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction coefficient, got {type(value).__name__}")


def scalar_str(value: Scalar) -> str:
    """str(value) for an int or Fraction of any size.  CPython's int-to-str
    conversion refuses more than sys.get_int_max_str_digits() digits with a
    ValueError; only then is the int split at a power of ten into halves
    that each convert, so the limit itself is never changed."""
    try:
        return str(value)
    except ValueError:
        pass
    if value.denominator != 1:
        return f"{scalar_str(value.numerator)}/{scalar_str(value.denominator)}"
    value = value.numerator
    if value < 0:
        return "-" + scalar_str(-value)
    # about half the decimal digits: log10(2) is a little over 3/10
    half = value.bit_length() * 3 // 20
    high, low = divmod(value, 10**half)
    return scalar_str(high) + scalar_str(low).rjust(half, "0")


def _grlex_key(exps: ExponentVector) -> tuple[int, ExponentVector]:
    return (sum(exps), exps)


class Polynomial:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[ExponentVector, Scalar] | None = None):
        names = tuple(vars)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in registry {names}")
        clean: dict[ExponentVector, Fraction] = {}
        for exps, coef in (terms or {}).items():
            key = tuple(exps)
            if len(key) != len(names):
                raise ValueError(f"exponent vector {key} does not match registry of {len(names)} variables")
            if any(not isinstance(e, int) or e < 0 for e in key):
                raise ValueError(f"exponents must be nonnegative integers, got {key}")
            value = _fraction(coef)
            if value != 0:
                clean[key] = value
        object.__setattr__(self, "vars", names)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial instances are immutable")

    # ------------------------------------------------------------------ constructors

    @classmethod
    def _trusted(cls, names: tuple[str, ...], terms: dict[ExponentVector, Scalar]) -> Polynomial:
        """A polynomial from terms its caller built itself, with no checks.

        The caller vouches that `names` are distinct and that every key is a
        tuple of nonnegative ints of registry length.  Coefficients become
        Fractions here and zeros are dropped, as in __init__.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "vars", names)
        clean = {key: coef if type(coef) is Fraction else Fraction(coef) for key, coef in terms.items() if coef}
        object.__setattr__(self, "terms", clean)
        return self

    @classmethod
    def constant(cls, value: Scalar, vars: Sequence[str] = ()) -> Polynomial:
        names = tuple(vars)
        return cls(names, {(0,) * len(names): value})

    # ------------------------------------------------------------------ basic queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    @property
    def var_count(self) -> int:
        return len(self.vars)

    def constant_value(self) -> Fraction:
        """Value of this polynomial as a constant; errors if it has a variable term."""
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant polynomial")
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    def leading_monomial(self) -> ExponentVector:
        """Greatest exponent vector under graded-lex; errors on the zero polynomial."""
        if self.is_zero:
            raise ZeroPolynomialError("leading monomial of the zero polynomial is undefined")
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    # ------------------------------------------------------------------ ring operations

    def __add__(self, other) -> Polynomial:
        other = _lift(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        if other.vars != self.vars:
            raise ValueError(f"registries differ: {self.vars} and {other.vars}")
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coef
        return Polynomial(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(self.vars, {exps: -coef for exps, coef in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        other = _lift(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Polynomial:
        return (-self).__add__(other)

    def __mul__(self, other) -> Polynomial:
        other = _lift(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        if other.vars != self.vars:
            raise ValueError(f"registries differ: {self.vars} and {other.vars}")
        terms: dict[ExponentVector, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return Polynomial(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be a nonnegative integer, got {exponent!r}")
        if exponent == 0:
            return Polynomial.constant(1, self.vars)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def __truediv__(self, divisor: Scalar) -> Polynomial:
        value = _fraction(divisor)
        if value == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Polynomial(self.vars, {exps: coef / value for exps, coef in self.terms.items()})

    def __eq__(self, other) -> bool:
        other = _lift(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # ------------------------------------------------------------------ calculus

    def partial_derivative(self, i: int) -> Polynomial:
        """Exact termwise partial derivative with respect to the i-th variable."""
        if not 0 <= i < len(self.vars):
            raise IndexError(f"variable index {i} out of range for {len(self.vars)} variables")
        terms: dict[ExponentVector, Fraction] = {}
        for exps, coef in self.terms.items():
            e = exps[i]
            if e > 0:
                key = exps[:i] + (e - 1,) + exps[i + 1:]
                terms[key] = terms.get(key, Fraction(0)) + coef * e
        return Polynomial(self.vars, terms)

    # ------------------------------------------------------------------ presentation

    def sorted_terms(self) -> list[tuple[ExponentVector, Fraction]]:
        """Terms in graded-lex descending order (the canonical print order)."""
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]), reverse=True)

    def _monomial_str(self, exps: ExponentVector) -> str:
        parts = []
        for name, e in zip(self.vars, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for exps, coef in self.sorted_terms():
            monomial = self._monomial_str(exps)
            magnitude = abs(coef)
            if not monomial:
                body = scalar_str(magnitude)
            elif magnitude == 1:
                body = monomial
            else:
                body = f"{scalar_str(magnitude)}*{monomial}"
            if not pieces:
                pieces.append(body if coef > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.vars)!r}, {str(self)!r})"


def _lift(value, vars: tuple[str, ...]):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value, vars)
    return NotImplemented

