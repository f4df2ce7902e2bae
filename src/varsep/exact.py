"""Exact separability decisions and factor extraction for rational polynomials.

Two independent routes decide whether a polynomial F factors into a product
of polynomials in disjoint variable blocks:

* the differential route: the pair test F*F_ij - F_i*F_j == 0 (as an exact
  polynomial identity), whose nonzero pairs form a graph whose connected
  components are the finest separating partition;
* the coefficient route: F is totally separable exactly when its coefficient
  tensor equals the product of the axis slices through the leading corner,
  homogenized by powers of the leading product coefficient so arbitrary
  (non-monic) inputs stay exact.  The slices come from one pass over the
  terms, and the identity is checked by walking the sorted terms beside the
  lazily enumerated slice products: at most |supp F| steps, never the
  dense degree box.

The differential route decides pairs by exact evaluation (Schwartz, J. ACM
27(4), 1980; Zippel, EUROSAM 1979) and certifies every answer:

* witnesses: at a few fixed, seeded integer points with nonzero coordinates,
  the pair value is computed from integer term sums of the denominator-free
  polynomial.  A nonzero value proves the edge; the point is its witness;
* certification: the witnessed edges give a partition at least as fine as
  the finest one.  When the margin factorization by that partition survives
  exact re-multiplication, F separates by it, so no further edge exists;
* fallback: otherwise the symbolic entry F*F_ij - F_i*F_j decides every pair
  the witnesses left open, so the route never rests on chance.

Factor extraction uses either coefficient slices (total separation) or
margins at an anchor point where F does not vanish (partition separation).
Every emitted factorization is re-verified by exact multiplication.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .partition import Partition, UnionFind
from .poly import Polynomial, Scalar, ZeroPolynomialError


class Verdict(enum.Enum):
    SEPARABLE = "separable"
    NOT_SEPARABLE = "not separable"


class NotSeparableError(Exception):
    """The requested factorization does not exist for this input."""


class VerificationError(Exception):
    """A produced factorization failed exact re-multiplication.

    Unreachable when the criteria hold; raising it signals an internal
    inconsistency, never a property of the input.
    """


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the coefficient-tensor criterion."""

    verdict: Verdict
    violation: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SepMatrixReport:
    """Pairwise vanishing table of F*F_ij - F_i*F_j and the derived partition.

    `vanishes[i][j]` is False where the entry is certified nonzero (an edge:
    by a witness point, or symbolically in the fallback), True where it is
    certified zero (every pair in different blocks, by the verified margin
    factorization or by the symbolic entry), and None where the partition
    does not depend on it: the diagonal, whose identity F*F_ii - F_i^2 == 0
    characterizes exponential-type behavior along x_i, not separability, and
    same-block pairs without a witness.  `witnesses` maps each edge (i, j),
    i < j, found by evaluation to the integer point where its value is
    nonzero.
    """

    names: tuple[str, ...]
    vanishes: tuple[tuple[bool | None, ...], ...]
    partition: Partition
    witnesses: dict[tuple[int, int], tuple[int, ...]]


@dataclass(frozen=True)
class SeparationResult:
    """A verified factorization: constant * product of monic block factors."""

    constant: Fraction
    factors: tuple[tuple[tuple[int, ...], Polynomial], ...]
    verified: bool

    def product(self, vars: Sequence[str]) -> Polynomial:
        result = Polynomial.constant(self.constant, vars)
        for _, factor in self.factors:
            result = result * factor
        return result


def _require_nonzero(poly: Polynomial) -> None:
    if poly.is_zero:
        raise ZeroPolynomialError("the zero polynomial is degenerate for separability tests")


def sep_matrix_entry(poly: Polynomial, i: int, j: int) -> Polynomial:
    """The exact polynomial F*F_ij - F_i*F_j for distinct variable indexes.

    Identically zero exactly when F is separable across the pair (i, j);
    symmetric in its indexes.
    """
    _require_nonzero(poly)
    n = poly.var_count
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"pair ({i}, {j}) out of range for {n} variables")
    if i == j:
        raise ValueError("diagonal entries are not separability conditions; pass i != j")
    fi = poly.partial_derivative(i)
    fj = poly.partial_derivative(j)
    return poly * fi.partial_derivative(j) - fi * fj


# Pair tests run at WITNESS_POINTS integer points with coordinates in
# +-[1, WITNESS_BOUND], drawn from a generator seeded by the variable count.
WITNESS_POINTS = 2
WITNESS_BOUND = 64


def _witness_points(n: int) -> tuple[tuple[int, ...], ...]:
    rng = random.Random(n)
    return tuple(
        tuple(rng.choice((-1, 1)) * rng.randint(1, WITNESS_BOUND) for _ in range(n))
        for _ in range(WITNESS_POINTS)
    )


def _pair_sums(terms, point: tuple[int, ...], n: int):
    """Integer sums F = sum t, S_i = sum t*e_i, S_ij = sum t*e_i*e_j (i < j)
    over the term values t of a denominator-free polynomial at `point`.

    With nonzero coordinates, F_i(a) = S_i / a_i and F_ij(a) = S_ij / (a_i*a_j),
    so F*F_ij - F_i*F_j is nonzero at a exactly when F*S_ij != S_i*S_j.
    """
    powers: dict[tuple[int, int], int] = {}
    f = 0
    s1 = [0] * n
    s2 = [[0] * n for _ in range(n)]
    for coef, occurring in terms:
        t = coef
        for i, e in occurring:
            power = powers.get((i, e))
            if power is None:
                power = powers[(i, e)] = point[i] ** e
            t *= power
        f += t
        for k, (i, e) in enumerate(occurring):
            te = t * e
            s1[i] += te
            row = s2[i]
            for j, e2 in occurring[k + 1:]:
                row[j] += te * e2
    return f, s1, s2


def _margin_separation(
    poly: Polynomial, partition: Partition, point: Sequence[Scalar], value: Fraction
) -> SeparationResult | None:
    """Margin factorization at an anchor with F(point) = value != 0, or None
    when exact re-multiplication shows F does not separate by the partition.

    For r blocks, F(a)^(r-1) * F equals the product over blocks of the margins
    of F with the other blocks frozen at a exactly when F separates by the
    partition.  Each margin is normalized monic and the scalars are folded
    into the constant.
    """
    n = poly.var_count
    constant = value ** (1 - partition.block_count)
    factors = []
    for block in partition.blocks:
        raw = poly.margin({i: point[i] for i in range(n) if i not in block})
        lead = raw.leading_coefficient()
        constant *= lead
        factors.append((block, raw / lead))
    result = SeparationResult(constant=constant, factors=tuple(factors), verified=False)
    if result.product(poly.vars) != poly:
        return None
    return replace(result, verified=True)


def _anchor(poly: Polynomial) -> tuple[tuple[Scalar, ...], Fraction]:
    """The first witness point where F is nonzero, else `anchor_search`; with F's value there."""
    for point in _witness_points(poly.var_count):
        value = poly.evaluate(point)
        if value != 0:
            return point, value
    point = anchor_search(poly)
    return point, poly.evaluate(point)


def finest_partition(poly: Polynomial) -> SepMatrixReport:
    """Finest partition according to which the polynomial separates.

    Builds the graph on variables with an edge wherever the pair polynomial
    F*F_ij - F_i*F_j is not identically zero and returns its connected
    components.  F separates according to a partition Q if and only if Q is
    a coarsening of the result.

    Edges are found by exact evaluation at the witness points.  When the
    witnessed partition has more than one block, its margin factorization at
    the anchor (the first witness point where F is nonzero) is verified by
    re-multiplication; if that fails, the symbolic entry decides every pair
    still in different components.
    """
    _require_nonzero(poly)
    n = poly.var_count
    scale = math.lcm(*(c.denominator for c in poly.terms.values()))
    terms = [
        (c.numerator * (scale // c.denominator), [(i, e) for i, e in enumerate(exps) if e])
        for exps, c in poly.terms.items()
    ]
    uf = UnionFind(n)
    components = n
    witnesses: dict[tuple[int, int], tuple[int, ...]] = {}
    anchor = None
    for point in _witness_points(n):
        if components == 1:
            break
        f, s1, s2 = _pair_sums(terms, point, n)
        if anchor is None and f:
            anchor = point, Fraction(f, scale)
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in witnesses and f * s2[i][j] != s1[i] * s1[j]:
                    witnesses[(i, j)] = point
                    if uf.find(i) != uf.find(j):
                        uf.union(i, j)
                        components -= 1
    edges = set(witnesses)
    partition = uf.partition()
    if components > 1:
        if _margin_separation(poly, partition, *(anchor or _anchor(poly))) is None:
            for i in range(n):
                for j in range(i + 1, n):
                    if uf.find(i) != uf.find(j) and not sep_matrix_entry(poly, i, j).is_zero:
                        uf.union(i, j)
                        edges.add((i, j))
            partition = uf.partition()
    owner = {i: k for k, block in enumerate(partition.blocks) for i in block}
    vanishes: list[list[bool | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in edges:
                vanishes[i][j] = vanishes[j][i] = False
            elif owner[i] != owner[j]:
                vanishes[i][j] = vanishes[j][i] = True
    return SepMatrixReport(
        names=poly.vars,
        vanishes=tuple(tuple(row) for row in vanishes),
        partition=partition,
        witnesses=witnesses,
    )


def _slice_identity(
    poly: Polynomial,
) -> tuple[Fraction, list[dict[int, Fraction]], tuple[int, ...] | None]:
    """(L, slices, violation) for the identity of `coeff_criterion_total`.

    `slices[r]` maps i to the nonzero coefficient at the corner N with axis r
    lowered to i (the corner term belongs to every slice); violation is the
    lexicographically first failing index, or None.  When L is zero the left
    side vanishes, so the violation is the first index with a nonzero slice
    product, else N.  Otherwise the lazily enumerated slice products are
    walked beside the sorted terms up to the first mismatch: at most T
    steps, O(T*n + T log T) work for T terms.
    """
    _require_nonzero(poly)
    degrees = poly.degree_vector()
    n = len(degrees)
    leading = poly.coefficient(degrees)
    slices: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for exps, c in poly.terms.items():
        off = [r for r in range(n) if exps[r] != degrees[r]]
        if not off:
            for r in range(n):
                slices[r][degrees[r]] = c
        elif len(off) == 1:
            slices[off[0]][exps[off[0]]] = c
    if leading == 0:
        # reached only for n >= 2: a univariate or constant F contains its corner
        if all(slices):
            return leading, slices, tuple(min(s) for s in slices)
        return leading, slices, degrees
    scale = leading ** (n - 1)
    expected = itertools.product(*(sorted(s.items()) for s in slices))
    # both sequences end with the corner, the lexicographic maximum of the
    # box, so they have equal length unless some step differs
    for e, (exps, c) in zip(expected, sorted(poly.terms.items())):
        index = tuple(i for i, _ in e)
        if index != exps or scale * c != math.prod(v for _, v in e):
            return leading, slices, min(index, exps)
    return leading, slices, None


def coeff_criterion_total(poly: Polynomial) -> CriterionReport:
    """Coefficient-tensor test for total separability.

    F is totally separable exactly when L^(n-1) * c[i_1,...,i_n] ==
    prod_r c[N_1,...,i_r,...,N_n] at every index, where N is the degree
    vector and L = c[N] the leading product coefficient; the homogenized form
    avoids normalizing the input.  Only the supports of the two sides are
    visited, by a sparse walk that takes at most |supp F| steps.  The
    reported violation is the lexicographically first index where the
    identity fails.  When L is zero (anomalous polynomials) it is the first
    index whose slice product is nonzero or, when every slice product
    vanishes too, the absent leading monomial x_1^N_1...x_n^N_n itself, since
    a totally separable polynomial always contains it.
    """
    violation = _slice_identity(poly)[2]
    if violation is None:
        return CriterionReport(Verdict.SEPARABLE)
    return CriterionReport(Verdict.NOT_SEPARABLE, violation=violation)


def separate_total(poly: Polynomial) -> SeparationResult:
    """Extract univariate factors of a totally separable polynomial.

    The factor for variable r is the coefficient slice through the leading
    corner, normalized monic; the leading product coefficient becomes the
    overall constant.  Deciding separability and reading the slices is one
    sparse pass (see `coeff_criterion_total`).  The factorization is
    re-verified by exact multiplication before it is returned.
    """
    leading, slices, violation = _slice_identity(poly)
    if violation is not None:
        raise NotSeparableError(
            f"not totally separable: coefficient condition fails at index {violation}"
        )
    factors = []
    for r, name in enumerate(poly.vars):
        univariate = Polynomial((name,), {(i,): c for i, c in slices[r].items()})
        factors.append(((r,), univariate / leading))
    result = SeparationResult(constant=leading, factors=tuple(factors), verified=False)
    if result.product(poly.vars) != poly:
        raise VerificationError("total separation failed exact re-multiplication")
    return replace(result, verified=True)


def anchor_search(poly: Polynomial) -> tuple[Fraction, ...]:
    """First point of the integer grid prod_i {0,...,N_i} where F is nonzero.

    Scans in lexicographic order.  A nonzero polynomial cannot vanish on a
    grid offering N_i + 1 distinct values per variable, so the scan always
    succeeds.
    """
    _require_nonzero(poly)
    degrees = poly.degree_vector()
    for candidate in itertools.product(*(range(n + 1) for n in degrees)):
        point = tuple(Fraction(c) for c in candidate)
        if poly.evaluate(point) != 0:
            return point
    raise AssertionError("unreachable: nonzero polynomial vanished on its whole degree grid")


def separate_by_partition(poly: Polynomial, partition: Partition) -> SeparationResult:
    """Factor the polynomial according to a partition of its variables.

    Uses the margin construction at an anchor point a with F(a) != 0: for r
    blocks, F(a)^(r-1) * F equals the product over blocks of the margins of F
    with the other blocks frozen at a.  Each margin is normalized monic and
    the scalars are folded into the constant, so the factors and the
    constant do not depend on the anchor.  The anchor is the one
    `finest_partition` uses: the first witness point where F is nonzero,
    else the grid scan of `anchor_search`.

    The result is verified by exact re-multiplication.  That identity holds
    exactly when F separates by the partition, i.e. when the partition is a
    coarsening of the finest partition, so a mismatch raises
    NotSeparableError (naming the finest partition, which is derived only on
    this path) and never VerificationError.
    """
    _require_nonzero(poly)
    n = poly.var_count
    if partition.var_count != n:
        raise ValueError(f"partition covers {partition.var_count} variables, polynomial has {n}")
    result = _margin_separation(poly, partition, *_anchor(poly))
    if result is None:
        finest = finest_partition(poly).partition
        raise NotSeparableError(
            f"polynomial does not separate according to {partition.blocks}; "
            f"finest partition is {finest.blocks}"
        )
    return result


def additive_separability(poly: Polynomial) -> Verdict:
    """SEPARABLE when the polynomial is a sum of univariate pieces,
    i.e. every monomial involves at most one variable."""
    for exps in poly.terms:
        if sum(1 for e in exps if e > 0) > 1:
            return Verdict.NOT_SEPARABLE
    return Verdict.SEPARABLE
