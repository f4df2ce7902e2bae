"""Tolerance-based separability tests for black-box expressions.

The derivative-free route: a function f separates across a variable split
exactly when f(a)*f(x) == f(x_I, a_J)*f(a_I, x_J) for an anchor a with
f(a) != 0.  On floats the two products are compared through a scale-free
relative residual, pairs of variables are tested around an anchor sampled
from a grid, and the connected components of the above-tolerance pairs give
the partition.

numeric_finest_partition evaluates f at many points (the anchor scan alone
walks the grid up to its budget), so it compiles f once with
expr.compile_float and passes points as coordinate sequences in variable
order.  Every evaluation still goes through expr.eval_float, the one entry
point to evaluation at a point, so a wrapper or profiler on it sees each
sample.  margin_residual, which makes four evaluations, walks the AST.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

from . import expr
from .expr import EvalDomainError, ExprNode
from .partition import Partition, UnionFind

DEFAULT_TOLERANCE = 1e-8
DEGENERACY_FLOOR = 1e-300
DEFAULT_GRID_RANGE = (-1.3, 1.7)
DEFAULT_GRID_COUNT = 9

# A test point is informative only when at least one of the two products in
# the identity rises above the pair's dominant product scale by this factor;
# below it both sides are float cancellation noise and their ratio is
# meaningless.  The ceiling is scale invariant (it rescales with |f|^2).
PRODUCT_NOISE_RELATIVE_FLOOR = 1e-10


class DegenerateAnchorError(Exception):
    """No sampled point keeps |f| above the degeneracy floor."""


class DomainCoverageError(Exception):
    """Too many sample evaluations left the function's domain or overflowed."""


def linspace(start: float, stop: float, count: int) -> tuple[float, ...]:
    if count < 2:
        raise ValueError("a grid axis needs at least 2 coordinates")
    step = (stop - start) / (count - 1)
    return tuple(start + k * step for k in range(count))


def parse_grid_spec(spec: str) -> tuple[str, tuple[float, ...]]:
    """Parse the CLI grid syntax "var=start:stop:count"."""
    name, eq, rhs = spec.partition("=")
    parts = rhs.split(":")
    if not eq or not name or len(parts) != 3:
        raise ValueError(f"grid spec {spec!r} must look like 'x=-1:1:9'")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"grid spec {spec!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid spec {spec!r} needs finite endpoints")
    if count < 2:
        raise ValueError(f"grid spec {spec!r} needs at least 2 coordinates")
    if count > SampleGrid.budget:
        raise ValueError(f"grid spec {spec!r} has more than {SampleGrid.budget} coordinates")
    if stop == start:
        raise ValueError(f"grid spec {spec!r} has coinciding endpoints")
    return name.strip(), linspace(start, stop, count)


@dataclass(frozen=True)
class SampleGrid:
    """Per-variable sample coordinates.

    `sample` walks full coordinate products while they fit its cap and
    otherwise draws seeded random points, so verdicts are deterministic
    given the grid.  The anchor scan samples up to `budget` points, and the
    pair sweep shares it out among the pairs.  A grid spec may give an axis
    at most `budget` coordinates.
    """

    coords: tuple[tuple[float, ...], ...]
    budget: ClassVar[int] = 4096

    def __post_init__(self):
        for axis in self.coords:
            if len(set(axis)) < 2:
                raise ValueError("each variable needs at least 2 distinct coordinates")

    @classmethod
    def default(cls, var_count: int) -> SampleGrid:
        axis = linspace(*DEFAULT_GRID_RANGE, DEFAULT_GRID_COUNT)
        return cls(coords=(axis,) * var_count)

    @classmethod
    def from_specs(cls, names: Sequence[str], specs: Mapping[str, tuple[float, ...]]) -> SampleGrid:
        unknown = set(specs) - set(names)
        if unknown:
            raise ValueError(f"grid given for unknown variable(s): {', '.join(sorted(unknown))}")
        default_axis = linspace(*DEFAULT_GRID_RANGE, DEFAULT_GRID_COUNT)
        return cls(coords=tuple(specs.get(n, default_axis) for n in names))

    @property
    def var_count(self) -> int:
        return len(self.coords)

    def sample(self, axes: Sequence[int], cap: int, *salts: int) -> list[tuple[float, ...]]:
        """Coordinate tuples over `axes`: their full product when it has at
        most `cap` points, else `cap` random draws seeded by the salts."""
        coords = [self.coords[i] for i in axes]
        if math.prod(len(axis) for axis in coords) <= cap:
            return list(itertools.product(*coords))
        mixed = 0
        for salt in salts:
            mixed = mixed * 1_000_003 + salt + 1
        rng = random.Random(mixed)
        return [tuple(rng.choice(axis) for axis in coords) for _ in range(cap)]


@dataclass(frozen=True)
class NumericVerdict:
    """Residual matrix, anchor, tolerance, and the derived partition.

    `skipped` counts sample evaluations lost to domain errors or to
    products that overflow; `discarded` counts test points dropped as
    cancellation noise (both products far below the pair's dominant scale).
    """

    names: tuple[str, ...]
    residuals: tuple[tuple[float, ...], ...]
    anchor: tuple[float, ...]
    tolerance: float
    verdict: str
    partition: Partition
    evaluated: int
    skipped: int
    discarded: int


def margin_residual(
    f: ExprNode,
    names: Sequence[str],
    block: Sequence[int],
    anchor: Sequence[float],
    point: Sequence[float],
) -> float:
    """Scale-free residual of the separability identity at one test point.

    Returns |f(a)f(x) - f(x_I,a_J)f(a_I,x_J)| / max(|f(a)f(x)|,
    |f(x_I,a_J)f(a_I,x_J)|, DEGENERACY_FLOOR); zero in exact arithmetic
    whenever f separates across the split (I = `block`, J = the rest).
    """
    inside = set(block)

    def bind(values: Sequence[float]) -> dict[str, float]:
        return {name: float(v) for name, v in zip(names, values)}

    fa = expr.eval_float(f, bind(anchor))
    if abs(fa) <= DEGENERACY_FLOOR:
        raise DegenerateAnchorError(f"|f(anchor)| = {abs(fa)!r} is below the degeneracy floor")
    fx = expr.eval_float(f, bind(point))
    mixed_i = [point[k] if k in inside else anchor[k] for k in range(len(names))]
    mixed_j = [anchor[k] if k in inside else point[k] for k in range(len(names))]
    f_xi = expr.eval_float(f, bind(mixed_i))
    f_xj = expr.eval_float(f, bind(mixed_j))
    lhs = fa * fx
    rhs = f_xi * f_xj
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), DEGENERACY_FLOOR)


def _scan_anchor(evaluate: expr.CompiledFloat, grid: SampleGrid) -> tuple[tuple[float, ...], int, int]:
    best: tuple[float, ...] | None = None
    best_value = 0.0
    evaluated = skipped = 0
    for point in grid.sample(range(grid.var_count), grid.budget, 0):
        try:
            value = abs(expr.eval_float(evaluate, point))
        except EvalDomainError:
            skipped += 1
            continue
        evaluated += 1
        if value > best_value:
            best, best_value = point, value
    if best is None or best_value <= DEGENERACY_FLOOR:
        raise DegenerateAnchorError("no sampled grid point keeps |f| above the degeneracy floor")
    return best, evaluated, skipped


def numeric_finest_partition(
    f: ExprNode,
    grid: SampleGrid,
    tol: float = DEFAULT_TOLERANCE,
    *,
    names: Sequence[str] | None = None,
) -> NumericVerdict:
    """Pairwise margin-identity test on sampled points.

    For each unordered pair (i, j) the coordinates i and j vary around the
    anchor (all other variables held at the anchor); an edge is drawn when
    the maximum residual exceeds the tolerance, and the partition is the
    connected components.  Test points whose both products sit below the
    pair's dominant product scale by PRODUCT_NOISE_RELATIVE_FLOOR are
    discarded as cancellation noise before the maximum is taken.  Domain
    errors at sample points, and test points where a product overflows to a
    non-finite value, are skipped and counted; the test fails if more than
    half of all evaluations skip.
    """
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
    anchor, evaluated, skipped = _scan_anchor(evaluate, grid)
    fa = expr.eval_float(evaluate, anchor)

    cache: dict[tuple[int, float], float] = {}

    def margin_value(axis: int, coordinate: float) -> float:
        # f at the anchor with a single coordinate replaced
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
        products: list[tuple[float, float]] = []
        for ci, cj in grid.sample((i, j), per_pair, 1, i, j):
            full = list(anchor)
            full[i] = ci
            full[j] = cj
            try:
                lhs = fa * expr.eval_float(evaluate, full)
                rhs = margin_value(i, ci) * margin_value(j, cj)
            except EvalDomainError:
                skipped += 1
                continue
            if not (math.isfinite(lhs) and math.isfinite(rhs)):
                # an overflowed product has no scale to compare against
                skipped += 1
                continue
            evaluated += 1
            products.append((lhs, rhs))
        if not products:
            raise DomainCoverageError(
                f"every sample for pair ({names[i]}, {names[j]}) left the domain or overflowed"
            )
        ceiling = max(max(abs(lhs), abs(rhs)) for lhs, rhs in products)
        noise = ceiling * PRODUCT_NOISE_RELATIVE_FLOOR
        worst = 0.0
        for lhs, rhs in products:
            scale = max(abs(lhs), abs(rhs))
            if scale <= noise:
                discarded += 1
                continue
            worst = max(worst, abs(lhs - rhs) / max(scale, DEGENERACY_FLOOR))
        residuals[i][j] = residuals[j][i] = worst
        if worst > tol:
            uf.union(i, j)
    total = evaluated + skipped
    if total and skipped > total / 2:
        raise DomainCoverageError(f"{skipped} of {total} sample evaluations left the domain or overflowed")
    partition = uf.partition()
    if partition.is_all_singletons:
        verdict = "separable"
    elif partition.block_count == 1 and n > 1:
        verdict = "not separable"
    else:
        verdict = "partition"
    return NumericVerdict(
        names=names,
        residuals=tuple(tuple(row) for row in residuals),
        anchor=anchor,
        tolerance=tol,
        verdict=verdict,
        partition=partition,
        evaluated=evaluated,
        skipped=skipped,
        discarded=discarded,
    )
