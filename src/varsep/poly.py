"""Exact sparse multivariate polynomial arithmetic over rational coefficients.

A polynomial carries an ordered registry of variable names and a sparse term
map from exponent vectors to nonzero ``fractions.Fraction`` coefficients::

    Polynomial(("x", "y"), {(2, 0): 1, (1, 1): Fraction(-3, 2)})   # x^2 - 3/2*x*y

The zero polynomial is the empty term map.  Values are immutable after
construction and every operation returns a new instance, so polynomials are
safe to share across threads.

Canonical text form: terms in graded-lexicographic descending order (total
degree first, exponent vector as tie break), coefficients printed as integers
or ``p/q``, explicit ``*`` and ``^``.  The result re-parses through the
expression front end to an equal polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]
ExponentVector = tuple[int, ...]


class ZeroPolynomialError(ValueError):
    """Raised by operations that are undefined for the zero polynomial."""


def _fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction coefficient, got {type(value).__name__}")


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
            if any(e < 0 or not isinstance(e, int) for e in key):
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
    def zero(cls, vars: Sequence[str]) -> Polynomial:
        return cls(vars, {})

    @classmethod
    def constant(cls, value: Scalar, vars: Sequence[str] = ()) -> Polynomial:
        names = tuple(vars)
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def variable(cls, name: str, vars: Sequence[str]) -> Polynomial:
        names = tuple(vars)
        if name not in names:
            raise ValueError(f"variable {name!r} is not in the registry {names}")
        exps = tuple(1 if v == name else 0 for v in names)
        return cls(names, {exps: 1})

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

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def degree_vector(self) -> tuple[int, ...]:
        """Per-variable maximum exponents; errors on the zero polynomial."""
        if self.is_zero:
            raise ZeroPolynomialError("degree vector of the zero polynomial is undefined")
        return tuple(max(exps[i] for exps in self.terms) for i in range(len(self.vars)))

    def leading_monomial(self) -> ExponentVector:
        """Greatest exponent vector under graded-lex; errors on the zero polynomial."""
        if self.is_zero:
            raise ZeroPolynomialError("leading monomial of the zero polynomial is undefined")
        return max(self.terms, key=_grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def monic(self) -> Polynomial:
        """Divide by the leading graded-lex coefficient."""
        return self / self.leading_coefficient()

    # ------------------------------------------------------------------ ring operations

    def _embed(self, names: tuple[str, ...]) -> Polynomial:
        if names == self.vars:
            return self
        where = {v: i for i, v in enumerate(names)}
        slots = [where[v] for v in self.vars]
        terms: dict[ExponentVector, Fraction] = {}
        for exps, coef in self.terms.items():
            new = [0] * len(names)
            for slot, e in zip(slots, exps):
                new[slot] = e
            terms[tuple(new)] = coef
        return Polynomial(names, terms)

    def __add__(self, other) -> Polynomial:
        other = _lift(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        a, b = aligned(self, other)
        terms = dict(a.terms)
        for exps, coef in b.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coef
        return Polynomial(a.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(self.vars, {exps: -coef for exps, coef in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        other = _lift(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Polynomial:
        other = _lift(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> Polynomial:
        other = _lift(other, self.vars)
        if other is NotImplemented:
            return NotImplemented
        a, b = aligned(self, other)
        terms: dict[ExponentVector, Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return Polynomial(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be a nonnegative integer, got {exponent!r}")
        result = Polynomial.constant(1, self.vars)
        for _ in range(exponent):
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
        a, b = aligned(self, other)
        return a.terms == b.terms

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    # ------------------------------------------------------------------ calculus and substitution

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

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point (one coordinate per registered variable)."""
        if len(point) != len(self.vars):
            raise ValueError(f"point has {len(point)} coordinates, registry has {len(self.vars)} variables")
        coords = [_fraction(v) for v in point]
        total = Fraction(0)
        for exps, coef in self.terms.items():
            value = coef
            for x, e in zip(coords, exps):
                if e:
                    value *= x**e
            total += value
        return total

    def margin(self, fixed: Mapping[int, Scalar]) -> Polynomial:
        """Substitute exact values for the given variable indices.

        Returns a polynomial in the remaining variables; the registry shrinks
        accordingly.  An empty mapping returns the polynomial unchanged.
        """
        if not fixed:
            return self
        values: dict[int, Fraction] = {}
        for i, v in fixed.items():
            if not 0 <= i < len(self.vars):
                raise IndexError(f"variable index {i} out of range for {len(self.vars)} variables")
            values[i] = _fraction(v)
        keep = [i for i in range(len(self.vars)) if i not in values]
        names = tuple(self.vars[i] for i in keep)
        terms: dict[ExponentVector, Fraction] = {}
        for exps, coef in self.terms.items():
            value = coef
            for i, x in values.items():
                if exps[i]:
                    value *= x ** exps[i]
            key = tuple(exps[i] for i in keep)
            acc = terms.get(key, Fraction(0)) + value
            if acc:
                terms[key] = acc
            elif key in terms:
                del terms[key]
        return Polynomial(names, terms)

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
                body = str(magnitude)
            elif magnitude == 1:
                body = monomial
            else:
                body = f"{magnitude}*{monomial}"
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


def aligned(p: Polynomial, q: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Embed both polynomials into the union registry.

    The merged registry keeps p's variables in order followed by q's new
    names in q's order, so independently built polynomials can be combined.
    """
    if p.vars == q.vars:
        return p, q
    merged = p.vars + tuple(v for v in q.vars if v not in p.vars)
    return p._embed(merged), q._embed(merged)
