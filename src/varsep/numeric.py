"""Tolerance-based separability tests for black-box expressions.

The derivative-free route: a function f separates across a variable split
exactly when f(a)*f(x) == f(x_I, a_J)*f(a_I, x_J) for an anchor a with
f(a) != 0.  On floats the two products are compared through a scale-free
relative residual, pairs of variables are tested around an anchor sampled
from a grid, and the connected components of the above-tolerance pairs give
the partition.

numeric_finest_partition evaluates f at many points (the anchor scan alone
samples the grid up to its budget), so both drawing and evaluating a point
are kept cheap: SampleGrid converts its coordinates to floats once, when it
is built, and sample draws random points one axis at a time and keeps the
last SAMPLE_MEMO_SIZE draws, so a process that tests many expressions on one
grid shape draws its points once; f is compiled once with expr.compile_float
into one generated function that takes points as float sequences in variable
order and converts nothing.  At a point where that function raises, it
replays the reference evaluator, one loop over the tree's postorder, so a
point outside the domain is skipped however long the expression.  A
one-shot CLI process draws once, as without the memo.  The
margin values f(a with one coordinate replaced) are computed once per
(axis, coordinate), and each pair is swept in one pass over its samples,
which keeps each kept point's product scale and margins and the pair's
largest scale for the noise filter.  Every evaluation still goes through
expr.eval_float, the one entry point to evaluation at a point; the anchor
scan and the sweep each look it up once per call, so a wrapper or profiler
installed on it before the call sees each sample.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import struct
from collections.abc import Mapping, Sequence

from . import expr
from ._record import Record
from .expr import EvalDomainError, ExprNode
from .partition import Partition, UnionFind

DEFAULT_TOLERANCE = 1e-8
DEGENERACY_FLOOR = 1e-300
DEFAULT_GRID_RANGE = (-1.3, 1.7)
DEFAULT_GRID_COUNT = 9

# A test point is noise when both products in the identity sit below the
# pair's dominant product scale and below |f(a)| times the point's larger
# margin by this factor: there both sides are float cancellation noise and
# their ratio is meaningless.  Both scales rescale with |f|^2.
PRODUCT_NOISE_RELATIVE_FLOOR = 1e-10

# How many random draws of SampleGrid.sample are kept, least recently used
# first out.  A draw depends only on the exact coordinates, the cap and the
# salts, and the default grid at 4, 5 and 6 variables takes most of them.
SAMPLE_MEMO_SIZE = 8


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
    name, parts = name.strip(), rhs.split(":")
    if not eq or not name or len(parts) != 3:
        raise ValueError(f"grid spec {spec!r} must look like 'x=-1:1:9'")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
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
    coords = linspace(start, stop, count)
    # finite endpoints more than the float range apart give an infinite step
    if not all(map(math.isfinite, coords)):
        raise ValueError(f"grid spec {spec!r} needs finite endpoints less than the float range apart")
    return name, coords


class SampleGrid(Record):
    """Per-variable sample coordinates, converted to floats once, here.

    `sample` walks full coordinate products while they fit its cap and
    otherwise draws seeded random points: all `cap` draws of one axis at a
    time, uniform, independent and with replacement, zipped into points.
    So verdicts are deterministic given the grid, and the last
    SAMPLE_MEMO_SIZE random draws are kept and handed out again as new
    lists.  The anchor scan samples up to `budget` points, and the pair
    sweep shares it out among the pairs.  A grid spec may give an axis at
    most `budget` coordinates.
    """

    __slots__ = ("coords",)
    budget = 4096

    def __init__(self, coords: tuple[tuple[float, ...], ...]):
        coords = [list(axis) for axis in coords]
        for i, axis in enumerate(coords):
            for k, c in enumerate(axis):
                try:
                    axis[k] = float(c)
                except OverflowError:
                    raise ValueError(f"coordinate {k} of axis {i} is beyond float range") from None
                if not math.isfinite(axis[k]):
                    raise ValueError(f"coordinate {k} of axis {i} is not finite")
            if len(set(axis)) < 2:
                raise ValueError("each variable needs at least 2 distinct coordinates")
        self.coords = tuple(map(tuple, coords))

    @classmethod
    def from_specs(cls, names: Sequence[str], specs: Mapping[str, tuple[float, ...]]) -> SampleGrid:
        if unknown := set(specs) - set(names):
            raise ValueError(f"grid given for unknown variable(s): {', '.join(sorted(unknown))}")
        default_axis = linspace(*DEFAULT_GRID_RANGE, DEFAULT_GRID_COUNT)
        return cls(coords=tuple(specs.get(n, default_axis) for n in names))

    @property
    def var_count(self) -> int:
        return len(self.coords)

    def sample(self, axes: Sequence[int], cap: int, *salts: int) -> list[tuple[float, ...]]:
        """Coordinate tuples over `axes`: their full product when it has at
        most `cap` points, else `cap` random draws seeded by the salts,
        drawn one axis at a time."""
        coords = [self.coords[i] for i in axes]
        if math.prod(len(axis) for axis in coords) <= cap:
            return list(itertools.product(*coords))
        mixed = 0
        for salt in salts:
            mixed = mixed * 1_000_003 + salt + 1
        # the key packs each axis as C doubles, whose bytes keep 0.0 and -0.0
        # apart, which compare equal as tuples
        return list(_draw(tuple(struct.pack(f"{len(axis)}d", *axis) for axis in coords), cap, mixed))


@functools.lru_cache(maxsize=SAMPLE_MEMO_SIZE)
def _draw(axes: tuple[bytes, ...], cap: int, seed: int) -> tuple[tuple[float, ...], ...]:
    """`cap` points drawn from the axes, packed as C doubles, seeded by `seed`."""
    rng = random.Random(seed)
    return tuple(zip(*(rng.choices(struct.unpack(f"{len(axis) // 8}d", axis), k=cap) for axis in axes)))


class NumericVerdict(Record):
    """Pair `residuals` of `names` at `anchor`, `tolerance` and `partition`.

    `evaluated` counts finite sample evaluations, `skipped` those lost to
    domain errors or to products that overflow, and `discarded` the test
    points dropped as cancellation noise (both products far below the
    pair's largest and |f(a)| times the larger margin).  The CLI words the
    verdict.  Fields, in order:
    names: tuple[str, ...], residuals: tuple[tuple[float, ...], ...],
    anchor: tuple[float, ...], tolerance: float, partition: Partition,
    evaluated: int, skipped: int, discarded: int.
    """

    __slots__ = ("names", "residuals", "anchor", "tolerance", "partition",
                 "evaluated", "skipped", "discarded")


def _residual(lhs: float, rhs: float, scale: float) -> float:
    """|lhs - rhs| / max(scale, DEGENERACY_FLOOR) for finite products of magnitude
    at most `scale`; a difference that overflows is divided term by term, in [1, 2]."""
    if scale < DEGENERACY_FLOOR:
        scale = DEGENERACY_FLOOR
    difference = abs(lhs - rhs)
    if difference == math.inf:
        return abs(lhs) / scale + abs(rhs) / scale
    return difference / scale


def _scan_anchor(evaluate: expr.CompiledFloat, grid: SampleGrid) -> tuple[tuple[float, ...], float, int, int]:
    """(point, f(point), evaluated, skipped) for the sampled point of largest |f|."""
    eval_float = expr.eval_float
    best: tuple[float, ...] | None = None
    best_value = best_abs = 0.0
    skipped = 0
    points = grid.sample(range(grid.var_count), grid.budget, 0)
    for point in points:
        try:
            value = eval_float(evaluate, point)
        except EvalDomainError:
            skipped += 1
            continue
        # comparisons rather than abs(), which costs more once per point
        if value > best_abs or -value > best_abs:
            best, best_abs, best_value = point, abs(value), value
    if best is None or best_abs <= DEGENERACY_FLOOR:
        raise DegenerateAnchorError("no sampled grid point keeps |f| above the degeneracy floor")
    return best, best_value, len(points) - skipped, skipped


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
    pair's largest product and |f(a)| times the point's larger margin, by
    PRODUCT_NOISE_RELATIVE_FLOOR, are discarded as cancellation noise before
    the maximum is taken.  Domain errors at sample points, and test points
    where a product overflows to a non-finite value, are skipped and
    counted; the test fails if more than half of all evaluations skip.
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
    anchor, fa, evaluated, skipped = _scan_anchor(evaluate, grid)

    eval_float = expr.eval_float
    # margins[axis][c] is f at the anchor with coordinate `axis` set to c,
    # kept once it evaluates; a margin value that raises is tried again
    margins: list[dict[float, float]] = [{} for _ in range(n)]
    pair_count = n * (n - 1) // 2
    per_pair = max(1, grid.budget // pair_count) if pair_count else grid.budget
    residuals = [[0.0] * n for _ in range(n)]
    discarded = 0
    anchor_noise = abs(fa) * PRODUCT_NOISE_RELATIVE_FLOOR
    uf = UnionFind(n)
    for i, j in itertools.combinations(range(n), 2):
        row_i, row_j = margins[i], margins[j]
        point = list(anchor)
        kept: list[tuple[float, float, float, float, float]] = []
        ceiling = 0.0
        for ci, cj in grid.sample((i, j), per_pair, 1, i, j):
            point[i] = ci
            point[j] = cj
            try:
                lhs = fa * eval_float(evaluate, point)
                margin_i = row_i.get(ci)
                if margin_i is None:
                    margin = list(anchor)
                    margin[i] = ci
                    margin_i = row_i[ci] = eval_float(evaluate, margin)
                margin_j = row_j.get(cj)
                if margin_j is None:
                    margin = list(anchor)
                    margin[j] = cj
                    margin_j = row_j[cj] = eval_float(evaluate, margin)
            except EvalDomainError:
                skipped += 1
                continue
            rhs = margin_i * margin_j
            if not (math.isfinite(lhs) and math.isfinite(rhs)):
                # an overflowed product has no scale to compare against
                skipped += 1
                continue
            evaluated += 1
            # comparisons rather than calls to max(), which cost more once per point
            scale = abs(lhs)
            if abs(rhs) > scale:
                scale = abs(rhs)
            if scale > ceiling:
                ceiling = scale
            kept.append((lhs, rhs, scale, margin_i, margin_j))
        if not kept:
            raise DomainCoverageError(
                f"every sample for pair ({names[i]}, {names[j]}) left the domain or overflowed"
            )
        noise = ceiling * PRODUCT_NOISE_RELATIVE_FLOOR
        worst = 0.0
        for lhs, rhs, scale, margin_i, margin_j in kept:
            if scale <= noise and scale <= anchor_noise * max(abs(margin_i), abs(margin_j)):
                discarded += 1
                continue
            residual = _residual(lhs, rhs, scale)
            if residual > worst:
                worst = residual
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
