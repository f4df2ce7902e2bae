"""Exact separability decisions and factor extraction for rational polynomials.

Two routes decide whether a polynomial F factors into a product
of polynomials in disjoint variable blocks:

* the differential route: the pair test F*F_ij - F_i*F_j == 0 (as an exact
  polynomial identity), whose nonzero pairs form a graph whose connected
  components are the finest separating partition;
* the coefficient route: F separates by a partition into blocks
  B_1, ..., B_r exactly when its coefficients equal the product of the
  slices through the corner (the largest projection of F's terms onto each
  block), homogenized by powers of the corner coefficient so arbitrary
  (non-monic) inputs stay exact.  For singleton blocks this is the paper's
  criterion that the coefficient tensor equals the product of its axis
  slices.  The slices come from one pass over the terms, and the identity
  is checked by walking the sorted terms beside the lazily enumerated slice
  products: at most |supp F| steps, never the dense degree box.

The differential route decides pairs by exact evaluation (Schwartz, J. ACM
27(4), 1980; Zippel, EUROSAM 1979) and certifies every answer:

* witnesses: at a few fixed, seeded integer points with nonzero coordinates,
  the pair value is computed from integer term sums of the denominator-free
  polynomial.  A nonzero value proves the edge; the point is its witness;
* certification: the witnessed edges give a partition at least as fine as
  the finest one.  When the slice identity shows that F separates by that
  partition, no further edge exists.  This is the coefficient route's
  identity, so the two routes rest on separate arguments only where a
  witness or the fallback decides;
* fallback: otherwise the symbolic entry F*F_ij - F_i*F_j decides every pair
  the witnesses left open, so the route never rests on chance.

The same slice identity yields the factors, for singletons (total
separation) and for any partition alike.  It compares every coefficient,
so an emitted factorization multiplies back to F by construction.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .partition import Partition, UnionFind
from .poly import Polynomial, ZeroPolynomialError


class Verdict(enum.Enum):
    SEPARABLE = "separable"
    NOT_SEPARABLE = "not separable"


class NotSeparableError(Exception):
    """The requested factorization does not exist for this input."""


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the coefficient-tensor criterion."""

    verdict: Verdict
    violation: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SepMatrixReport:
    """The finest partition derived from the pair entries F*F_ij - F_i*F_j.

    `witnesses` maps each edge (i, j), i < j, found by evaluation to the
    integer point where its entry is nonzero.  Every pair in different
    blocks has an identically zero entry.
    """

    names: tuple[str, ...]
    partition: Partition
    witnesses: dict[tuple[int, int], tuple[int, ...]]


@dataclass(frozen=True)
class SeparationResult:
    """A verified factorization: constant * product of monic block factors.

    `verified` is True on every result: the slice identity that produced it
    compares every coefficient of F.
    """

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


def finest_partition(poly: Polynomial) -> SepMatrixReport:
    """Finest partition according to which the polynomial separates.

    Builds the graph on variables with an edge wherever the pair polynomial
    F*F_ij - F_i*F_j is not identically zero and returns its connected
    components.  F separates according to a partition Q if and only if Q is
    a coarsening of the result.

    Edges are found by exact evaluation at the witness points.  When the
    witnessed partition has more than one block, F is checked to separate by
    it with the slice identity (see `separate_by_partition`); if it does
    not, the symbolic entry decides every pair still in different
    components.
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
    for point in _witness_points(n):
        if components == 1:
            break
        f, s1, s2 = _pair_sums(terms, point, n)
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in witnesses and f * s2[i][j] != s1[i] * s1[j]:
                    witnesses[(i, j)] = point
                    if uf.find(i) != uf.find(j):
                        uf.union(i, j)
                        components -= 1
    partition = uf.partition()
    if components > 1 and _slice_identity(poly, partition)[2] is not None:
        for i in range(n):
            for j in range(i + 1, n):
                if uf.find(i) != uf.find(j) and not sep_matrix_entry(poly, i, j).is_zero:
                    uf.union(i, j)
        partition = uf.partition()
    return SepMatrixReport(names=poly.vars, partition=partition, witnesses=witnesses)


def _slice_identity(
    poly: Polynomial, partition: Partition
) -> tuple[Fraction, list[dict[tuple[int, ...], Fraction]], tuple[int, ...] | None]:
    """(L, slices, violation) for F and blocks B_1, ..., B_r.

    A term's key is the tuple of its projections onto the blocks, compared
    lexicographically (for singletons, the exponent vector).  The corner's
    k-th part is the largest projection onto B_k, L is the corner's
    coefficient, and `slices[k]` maps each projection onto B_k to the
    coefficient of the term that matches the corner outside B_k (the corner
    term belongs to every slice).  A product of polynomials in disjoint
    variables never cancels, and its largest key is the product of the
    factors' largest keys, so F separates by the partition exactly when
    L^(r-1) * c[key] == prod_k slices[k][key_k] at every key.

    violation is the first failing key, flattened in block order (for
    singletons the exponent index), or None.  When L is zero the left side
    vanishes, so the violation is the first key with a nonzero slice
    product, else the corner.  Otherwise the lazily enumerated slice
    products are walked beside the sorted terms up to the first mismatch:
    at most T steps, O(T*n + T log T) work for T terms.
    """
    _require_nonzero(poly)
    blocks = partition.blocks
    r = len(blocks)
    keyed = [
        (tuple(tuple(exps[i] for i in block) for block in blocks), c)
        for exps, c in poly.terms.items()
    ]
    corner = tuple(map(max, zip(*(key for key, _ in keyed))))
    leading = Fraction(0)
    slices: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(r)]
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
        # reached only for r >= 2: a single block contains its largest term
        violation = tuple(min(s) for s in slices) if all(slices) else corner
    else:
        scale = leading ** (r - 1)
        expected = itertools.product(*(sorted(s.items()) for s in slices))
        # both sequences end with the corner, the largest key of both, so
        # they have equal length unless some step differs
        for e, (key, c) in zip(expected, sorted(keyed)):
            index = tuple(p for p, _ in e)
            if index != key or scale * c != math.prod(v for _, v in e):
                violation = min(index, key)
                break
    if violation is not None:
        violation = tuple(itertools.chain.from_iterable(violation))
    return leading, slices, violation


def _factors(
    poly: Polynomial,
    partition: Partition,
    leading: Fraction,
    slices: list[dict[tuple[int, ...], Fraction]],
) -> SeparationResult:
    """F = L^(1-r) * prod_k slice_k, with each slice made monic by its
    graded-lex leading coefficient and the scalars folded into the constant."""
    constant = leading ** (1 - partition.block_count)
    factors = []
    for block, terms in zip(partition.blocks, slices):
        raw = Polynomial(tuple(poly.vars[i] for i in block), terms)
        lead = raw.leading_coefficient()
        constant *= lead
        factors.append((block, raw / lead))
    return SeparationResult(constant=constant, factors=tuple(factors), verified=True)


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
    violation = _slice_identity(poly, Partition.singletons(poly.var_count))[2]
    if violation is None:
        return CriterionReport(Verdict.SEPARABLE)
    return CriterionReport(Verdict.NOT_SEPARABLE, violation=violation)


def separate_total(poly: Polynomial) -> SeparationResult:
    """Extract univariate factors of a totally separable polynomial.

    The singleton case of `separate_by_partition`: the factor for variable r
    is the coefficient slice through the leading corner, normalized monic,
    and the leading product coefficient becomes the overall constant.
    Deciding separability and reading the slices is one sparse pass (see
    `coeff_criterion_total`).
    """
    partition = Partition.singletons(poly.var_count)
    leading, slices, violation = _slice_identity(poly, partition)
    if violation is not None:
        raise NotSeparableError(
            f"not totally separable: coefficient condition fails at index {violation}"
        )
    return _factors(poly, partition, leading, slices)


def separate_by_partition(poly: Polynomial, partition: Partition) -> SeparationResult:
    """Factor the polynomial according to a partition of its variables.

    The slice identity (see `_slice_identity`) decides whether F separates
    by the partition, i.e. whether the partition is a coarsening of the
    finest partition, and supplies the factors: for r blocks with corner
    coefficient L, F = L^(1-r) * prod_k slice_k.  It compares every
    coefficient, so it proves what re-multiplication would, without
    multiplying.  Each slice is normalized monic and the scalars are folded
    into the constant, so the result does not depend on how the factors
    were scaled.  When F does not separate it raises NotSeparableError,
    naming the finest partition, which is derived only on this path.
    """
    _require_nonzero(poly)
    n = poly.var_count
    if partition.var_count != n:
        raise ValueError(f"partition covers {partition.var_count} variables, polynomial has {n}")
    leading, slices, violation = _slice_identity(poly, partition)
    if violation is not None:
        finest = finest_partition(poly).partition
        raise NotSeparableError(
            f"polynomial does not separate according to {partition.blocks}; "
            f"finest partition is {finest.blocks}"
        )
    return _factors(poly, partition, leading, slices)


def additive_separability(poly: Polynomial) -> Verdict:
    """SEPARABLE when the polynomial is a sum of univariate pieces,
    i.e. every monomial involves at most one variable."""
    for exps in poly.terms:
        if sum(1 for e in exps if e > 0) > 1:
            return Verdict.NOT_SEPARABLE
    return Verdict.SEPARABLE
