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

* witnesses: at seeded integer points with nonzero coordinates, integer term
  sums of the denominator-free polynomial give the pair values.  A nonzero
  value at a pair whose ends lie in different components proves an edge that
  joins them, with the point as its witness: a spanning forest of the blocks;
* certification: the witnessed edges give a partition at least as fine as
  the finest one.  When the slice identity shows that F separates by that
  partition, no further edge exists.  This is the coefficient route's
  identity, so the two routes rest on separate arguments only where a
  witness decides;
* one exit rule, read before every point: stop at one block or once the
  identity certifies.  The partition starts as the singletons, and before
  the first point the identity is tried only when |supp F| equals the
  product over the variables of the number of distinct exponents (a totally
  separable F has a product set as support).  So no point is evaluated for
  fewer than two variables or when the singletons certify;
* fresh points: after the fixed points, fresh seeded points are drawn until
  the identity certifies; a nonzero entry, of degree at most 2*deg F, vanishes
  at one with probability at most 2*deg F / FRESH_BOUND.  Only the number of
  points is random: every answer is certified (a Las Vegas algorithm).

The same slice identity yields the factors through `separate_by_partition`,
for singletons (total separation) and for any partition alike.  It compares
every coefficient, so an emitted factorization multiplies back to F by
construction.  One certificate per polynomial object and partition is
shared by finest_partition, separate_by_partition and coeff_criterion_total.

Both the witnesses and the slice identity run on Python integers: F is
scaled once by D, the lcm of its coefficient denominators.  Both sides of
the identity have degree r in the coefficients, so scaling by D changes no
verdict and no violation index, and the factors' constant is divided by D.

Additive separation is read off the AST by residues mod 2^61 - 1 at seeded
points a, b.  F is additive when no top-level summand (through factors and
divisors without a variable) mixes variables and F(a) != 0; it is not when
F(b) - F(b_A, a_B) - F(a_A, b_B) + F(a) != 0 for the split (A, B) of the
indexes by a bit below bit_length(n - 1); any two indexes differ in one.

The routes return evidence (a partition with witnesses, a violation index
or None, a factorization or a NotSeparableError carrying its violation, a
bool); the CLI words the verdict.  Each route that takes a Polynomial raises
ZeroPolynomialError on F == 0 (`_require_nonzero`).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from . import expr
from ._record import Record
from .partition import Partition, UnionFind
from .poly import Polynomial, ZeroPolynomialError


class NotSeparableError(Exception):
    """F does not separate by `partition`: the slice identity fails at
    `violation`, its first failing key flattened in block order (for
    singletons the index `coeff_criterion_total` returns)."""

    def __init__(self, partition: Partition, violation: tuple[int, ...]):
        # the fields as args, so pickle can call the class with them
        super().__init__(partition, violation)
        self.partition = partition
        self.violation = violation

    def __str__(self) -> str:
        partition, violation = self.args
        return f"no separation by {partition.blocks}: slice identity fails at {violation}"


class SepMatrixReport(Record):
    """The finest `partition` of `names` by the pair entries F*F_ij - F_i*F_j.

    `witnesses` maps each edge (i, j), i < j, that joined two components to
    the integer point where its entry is nonzero: a spanning forest of each
    block.  Every pair in different blocks has an identically zero entry.
    Fields, in order:
    names: tuple[str, ...], partition: Partition,
    witnesses: dict[tuple[int, int], tuple[int, ...]].
    """

    __slots__ = ("names", "partition", "witnesses")


class SeparationResult(Record):
    """A verified factorization: `constant` * product of monic block factors.

    `factors` holds (block, factor) pairs, each block a tuple of variable
    indexes.  `verified` is True on every result: the slice identity that
    produced it compares every coefficient of F.  Fields, in order:
    constant: Fraction,
    factors: tuple[tuple[tuple[int, ...], Polynomial], ...], verified: bool.
    """

    __slots__ = ("constant", "factors", "verified")


def _require_nonzero(poly: Polynomial) -> None:
    """The zero rule of every exact route: F == 0 is degenerate input."""
    if poly.is_zero:
        raise ZeroPolynomialError("the zero polynomial is degenerate input")


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


# Pair tests run at WITNESS_POINTS fixed integer points with coordinates in
# +-[1, WITNESS_BOUND], then at fresh points in +-[1, FRESH_BOUND], until one
# stops the loop; both streams are seeded by n, with different seeds.
WITNESS_POINTS = 2
WITNESS_BOUND = 64
FRESH_BOUND = 2**61


@functools.cache
def _witness_points(n: int) -> tuple[tuple[int, ...], ...]:
    rng = random.Random(n)
    return tuple(
        tuple(rng.choice((-1, 1)) * rng.randint(1, WITNESS_BOUND) for _ in range(n))
        for _ in range(WITNESS_POINTS)
    )


def _points(n: int):
    """The fixed witness points, then fresh seeded points without end."""
    yield from _witness_points(n)
    rng = random.Random(f"fresh points {n}")
    while True:
        yield tuple(rng.choice((-1, 1)) * rng.randint(1, FRESH_BOUND) for _ in range(n))


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

    The partition starts as the singletons and grows by exact evaluation at
    the points of `_points`, one witness per edge that joins two components.
    Before every point, stop at one block or when F separates by the
    witnessed partition (the slice identity, see `separate_by_partition`);
    before the first point the identity is tried only when the support of F
    is a product set, a necessary condition for total separability.
    """
    n = poly.var_count
    cleared = _certificate(poly)[1]
    uf, partition, points, terms = UnionFind(n), Partition.singletons(n), _points(n), []
    witnesses: dict[tuple[int, int], tuple[int, ...]] = {}
    # before any point, only a product-set support can certify
    certify = len(cleared) == math.prod(len(set(column)) for column in zip(*cleared))
    while partition.block_count > 1 and not (certify and _certificate(poly, partition)[4] is None):
        point = next(points)
        # built at the first point, so an input that stops before it skips the work
        terms = terms or [(c, [(i, e) for i, e in enumerate(exps) if e]) for exps, c in cleared.items()]
        f, s1, s2 = _pair_sums(terms, point, n)
        for i in range(n):
            root = uf.find(i)  # union(i, j) keeps i's root
            for j in range(i + 1, n):
                if root != uf.find(j) and f * s2[i][j] != s1[i] * s1[j]:
                    witnesses[(i, j)] = point
                    uf.union(i, j)
        partition, certify = uf.partition(), True
    return SepMatrixReport(names=poly.vars, partition=partition, witnesses=witnesses)


def _cleared(poly: Polynomial) -> tuple[int, dict[tuple[int, ...], int]]:
    """(D, G) with D the lcm of F's coefficient denominators and G = D*F,
    the denominator-free polynomial, as a map from exponents to integers."""
    _require_nonzero(poly)
    scale = math.lcm(*(c.denominator for c in poly.terms.values()))
    return scale, {exps: c.numerator * (scale // c.denominator) for exps, c in poly.terms.items()}


# (F, D, G, partition, identity) for the last F, swapped whole so any thread
# reads one entry; it holds F, so no new object can match F's id
_last = (None,) * 5


def _certificate(poly: Polynomial, partition: Partition | None = None):
    """(D, G, L, slices, violation): `_cleared` and, by a partition,
    `_slice_identity`, each computed once per polynomial object and partition."""
    global _last
    last, scale, cleared, certified, identity = _last
    if last is not poly:
        scale, cleared = _cleared(poly)
        certified, identity = None, (None,) * 3
    if partition is not None and partition != certified:
        certified, identity = partition, _slice_identity(cleared, partition)
    _last = (poly, scale, cleared, certified, identity)
    return (scale, cleared, *identity)


def _slice_identity(
    cleared: dict[tuple[int, ...], int], partition: Partition
) -> tuple[int, list[dict[tuple[int, ...], int]], tuple[int, ...] | None]:
    """(L, slices, violation) for G = D*F (see `_cleared`) and blocks
    B_1, ..., B_r.

    A term's key is the tuple of its projections onto the blocks, compared
    lexicographically (for singletons, the exponent vector).  The corner's
    k-th part is the largest projection onto B_k, L is the corner's
    coefficient, and `slices[k]` maps each projection onto B_k to the
    coefficient of the term that matches the corner outside B_k (the corner
    term belongs to every slice).  A product of polynomials in disjoint
    variables never cancels, and its largest key is the product of the
    factors' largest keys, so F separates by the partition exactly when
    L^(r-1) * c[key] == prod_k slices[k][key_k] at every key.  Both sides
    have degree r in the coefficients, so the identity holds for G exactly
    when it holds for F, at the same keys, and it is checked on integers.

    violation is the first failing key, flattened in block order (for
    singletons the exponent index), or None.  When L is zero the left side
    vanishes, so the violation is the first key with a nonzero slice
    product, else the corner.  Otherwise the lazily enumerated slice
    products are walked beside the sorted terms up to the first mismatch:
    at most T steps, O(T*n + T log T) work for T terms.
    """
    blocks = partition.blocks
    r = len(blocks)
    # the keys come from transposing twice, one column per variable and
    # then one projection per block, which leaves the per-term work to C
    columns = list(zip(*cleared))
    projections = [zip(*[columns[i] for i in block]) for block in blocks]
    keyed = [(row[:-1], row[-1]) for row in zip(*projections, cleared.values())]
    corner = tuple(map(max, zip(*(key for key, _ in keyed))))
    leading = 0
    slices: list[dict[tuple[int, ...], int]] = [{} for _ in range(r)]
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
    elif r:
        # with no blocks F is the constant L, and L^-1 * L == 1 holds
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
    scale: int,
    leading: int,
    slices: list[dict[tuple[int, ...], int]],
) -> SeparationResult:
    """F = G/D = L^(1-r)/D * prod_k slice_k for the slices of G = D*F, with
    each slice made monic by its graded-lex leading coefficient and the
    scalars folded into the constant."""
    constant = Fraction(leading) ** (1 - partition.block_count) / scale
    factors = []
    for block, terms in zip(partition.blocks, slices):
        raw = Polynomial(tuple(poly.vars[i] for i in block), terms)
        lead = raw.leading_coefficient()
        constant *= lead
        factors.append((block, raw / lead))
    return SeparationResult(constant=constant, factors=tuple(factors), verified=True)


def coeff_criterion_total(poly: Polynomial) -> tuple[int, ...] | None:
    """Coefficient-tensor test for total separability.

    F is totally separable exactly when L^(n-1) * c[i_1,...,i_n] ==
    prod_r c[N_1,...,i_r,...,N_n] at every index, where N is the degree
    vector and L = c[N] the leading product coefficient; the homogenized form
    avoids normalizing the input.  Only the supports of the two sides are
    visited, by a sparse walk that takes at most |supp F| steps.  Returns
    None when F is totally separable, else the violation: the first index,
    in lexicographic order, where the identity fails.  When L is zero
    (anomalous polynomials) it is the first index whose slice product is
    nonzero or, when every slice product vanishes too, the absent leading
    monomial x_1^N_1...x_n^N_n, which a totally separable F contains.
    """
    return _certificate(poly, Partition.singletons(poly.var_count))[4]


def separate_by_partition(poly: Polynomial, partition: Partition) -> SeparationResult:
    """Factor the polynomial according to a partition of its variables.

    The slice identity (see `_slice_identity`) decides whether F separates
    by the partition, i.e. whether the partition is a coarsening of the
    finest partition, and supplies the factors: for r blocks with corner
    coefficient L, F = L^(1-r) * prod_k slice_k.  It compares every
    coefficient, so it proves what re-multiplication would, without
    multiplying.  Each slice is normalized monic and the scalars are folded
    into the constant, so the result does not depend on how the factors
    were scaled.  For singletons this is total separation.  When F does not
    separate it raises NotSeparableError carrying the partition and the
    violation; nothing else is derived on that path.
    """
    _require_nonzero(poly)
    n = poly.var_count
    if partition.var_count != n:
        raise ValueError(f"partition covers {partition.var_count} variables, polynomial has {n}")
    scale, _, leading, slices, violation = _certificate(poly, partition)
    if violation is not None:
        raise NotSeparableError(partition, violation)
    return _factors(poly, partition, scale, leading, slices)


def additive_separability(poly: Polynomial) -> bool:
    """True when every monomial has at most one variable (a sum of univariate
    pieces); raises ZeroPolynomialError on 0, as every exact route does."""
    _require_nonzero(poly)
    return all(sum(1 for e in exps if e > 0) <= 1 for exps in poly.terms)


def additive_by_residues(node: expr.ExprNode, names: list[str]) -> bool | None:
    """additive_separability(lower_to_polynomial(node, names)) by residues
    (module docstring) at the anchor a or, where a summand mixes variables, at
    a, b and two points per bit, in one walk; None where they certify neither or lowering raises."""
    rng = random.Random(len(names))
    anchor, moved = ([rng.randrange(1, expr.RESIDUE_PRIME) for _ in names] for _ in range(2))
    mixed, stack = False, [node]
    while stack and not mixed:
        e = stack.pop()
        if isinstance(e, expr.BinOp) and e.op in ("+", "-"):
            stack += (e.left, e.right)
        elif isinstance(e, expr.Neg):
            stack.append(e.operand)
        elif isinstance(e, expr.BinOp) and e.op in ("*", "/") and not expr._variables(e.right):
            stack.append(e.left)
        elif isinstance(e, expr.BinOp) and e.op == "*" and not expr._variables(e.left):
            stack.append(e.right)
        else:
            mixed = len(expr._variables(e)) > 1
    sides = ([b if i >> bit & 1 == side else a for i, (a, b) in enumerate(zip(anchor, moved))]
             for bit in range((len(names) - 1).bit_length()) for side in (0, 1))
    points = [anchor, moved, *sides] if mixed else [anchor]
    if (values := expr.eval_residues(node, names, points)) is None:
        return None
    if any((values[1] - f_0 - f_1 + values[0]) % expr.RESIDUE_PRIME for f_0, f_1 in zip(values[2::2], values[3::2])):
        return False
    return True if values[0] and not mixed else None
