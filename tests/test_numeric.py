import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import default_grid, evaluate, oracle_numeric_finest_partition, rand_poly
from test_expr import ast_nodes
from varsep import expr, numeric, parse, parse_polynomial
from varsep.exact import finest_partition
from varsep.expr import BinOp, Const
from varsep.numeric import (
    DegenerateAnchorError,
    DomainCoverageError,
    SampleGrid,
    linspace,
    numeric_finest_partition,
    parse_grid_spec,
)

GRID_2 = SampleGrid(coords=(linspace(-1.2, 1.2, 9),) * 2)


# --------------------------------------------------------------------- residual


def _random_grid(rng, lo, hi, count=12):
    return SampleGrid(tuple(tuple(rng.uniform(lo, hi) for _ in range(count)) for _ in range(2)))


def test_residual_vanishes_for_separable_quotient():
    rng = random.Random(3)
    verdict = numeric_finest_partition(parse("sin(x)/cos(y)"), _random_grid(rng, -1.2, 1.2))
    assert verdict.evaluated > 100 and verdict.discarded == 0
    assert verdict.residuals[0][1] <= 1e-12


def test_residual_frozen_value_for_sum_of_squares():
    # the anchor is the grid point of largest |f|, (2, 3), f(a) = 13; the
    # pair point (1, 1) gives |13*2 - f(1, 3)*f(2, 1)| / max(26, 50) = 24/50,
    # and every other pair point a smaller residual
    verdict = numeric_finest_partition(parse("x^2 + y^2"), SampleGrid(((1.0, 2.0), (1.0, 3.0))))
    assert verdict.anchor == (2.0, 3.0)
    assert verdict.residuals[0][1] == 24 / 50


def test_residual_zero_for_constants():
    verdict = numeric_finest_partition(parse("7"), GRID_2, names=("x", "y"))
    assert verdict.residuals == ((0.0, 0.0), (0.0, 0.0))
    assert verdict.partition.is_all_singletons


def test_residual_rejects_vanishing_anchor():
    # |f| <= 1e-320 at every grid point, below the degeneracy floor
    with pytest.raises(DegenerateAnchorError):
        numeric_finest_partition(parse("x*y"), SampleGrid(((0.0, 1e-160), (0.0, 1e-160))))


def test_residual_is_finite_when_the_difference_overflows():
    # anchor (-1, 1), f(a) = -2.6e154; at the pair point (0, -0.5) the products
    # f(a)*f(x) = -1.69e308 and f(x_I,a_J)*f(a_I,x_J) = 8.45e307 are finite,
    # their difference is not
    f = parse("10^154*(x - y)*1.3")
    verdict = numeric_finest_partition(f, SampleGrid(((-1.0, 0.0), (-0.5, 1.0))))
    assert verdict.anchor == (-1.0, 1.0)
    assert 1.0 <= verdict.residuals[0][1] <= 2.0
    assert 1.0 <= numeric._residual(-1.69e308, 8.45e307, 1.69e308) <= 2.0


@pytest.mark.parametrize("source", ["10^200*x*y", "10^200*(x^2 + y^2)"])
def test_residual_raises_when_a_product_overflows(source):
    # both products pass 1e400 at every pair point; a NaN residual would make
    # the separable and the non-separable input read alike, so the sweep
    # skips each such point and raises when none is left
    with pytest.raises(DomainCoverageError, match=r"every sample for pair \(x, y\)"):
        numeric_finest_partition(parse(source), SampleGrid(((1.0, 2.0), (1.0, 3.0))))


def test_residual_scale_invariance_in_floats():
    f = parse("x^2 + y^2")
    scaled = BinOp("*", Const(Fraction(37, 10)), f)
    for seed in range(3):
        grid = _random_grid(random.Random(seed), -1.2, 1.2)
        r1 = numeric_finest_partition(f, grid).residuals[0][1]
        r2 = numeric_finest_partition(scaled, grid).residuals[0][1]
        assert r1 > 0.1
        assert r2 == pytest.approx(r1, abs=1e-12)


def test_residual_scale_invariance_exact_shadow():
    # the same residual computed in exact rationals is invariant under f -> c*f
    def exact_residual(poly, block, anchor, point):
        inside = set(block)
        mixed_i = [point[k] if k in inside else anchor[k] for k in range(len(anchor))]
        mixed_j = [anchor[k] if k in inside else point[k] for k in range(len(anchor))]
        lhs = evaluate(poly, anchor) * evaluate(poly, point)
        rhs = evaluate(poly, mixed_i) * evaluate(poly, mixed_j)
        denominator = max(abs(lhs), abs(rhs))
        return abs(lhs - rhs) / denominator if denominator else Fraction(0)

    p = parse_polynomial("x^2 + y^2")
    anchor = (Fraction(1), Fraction(1))
    point = (Fraction(2), Fraction(3))
    base = exact_residual(p, [0], anchor, point)
    assert base == Fraction(24, 50)
    for c in (Fraction(3), Fraction(-7, 2), Fraction(1, 9)):
        assert exact_residual(p * c, [0], anchor, point) == base


def test_residual_anchor_independent_for_separable_functions():
    # grids on different ranges put the anchor at different points
    f = parse("sin(x)/cos(y)")
    rng = random.Random(5)
    anchors = set()
    for _ in range(5):
        verdict = numeric_finest_partition(f, _random_grid(rng, rng.uniform(-1.2, 0.0), rng.uniform(0.3, 1.2)))
        anchors.add(verdict.anchor)
        assert verdict.residuals[0][1] <= 1e-12
    assert len(anchors) == 5


# --------------------------------------------------------------------- partition detection


def test_partition_of_separable_quotient():
    verdict = numeric_finest_partition(parse("sin(x)/cos(y)"), GRID_2, 1e-8)
    assert verdict.partition.blocks == ((0,), (1,))
    assert max(max(row) for row in verdict.residuals) <= 1e-10


def test_partition_of_sum_of_squares_is_one_block():
    verdict = numeric_finest_partition(parse("x^2 + y^2"), GRID_2, 1e-8)
    assert verdict.partition.blocks == ((0, 1),)
    assert max(max(row) for row in verdict.residuals) >= 0.1


def test_partition_of_three_factor_product():
    verdict = numeric_finest_partition(parse("exp(x + y)*sin(z)"), default_grid(3), 1e-8)
    assert verdict.partition.blocks == ((0,), (1,), (2,))


def test_partial_separation_reports_partition_verdict():
    verdict = numeric_finest_partition(parse("(x*y + 1)*exp(z)"), default_grid(3), 1e-8)
    assert verdict.partition.blocks == ((0, 1), (2,))


def test_residual_matrix_is_symmetric():
    verdict = numeric_finest_partition(parse("(x*y + 1)*exp(z)"), default_grid(3), 1e-8)
    n = len(verdict.names)
    for i in range(n):
        for j in range(n):
            assert verdict.residuals[i][j] == verdict.residuals[j][i]


def test_verdict_is_deterministic():
    f = parse("x^2 + y^2 + x*y")
    a = numeric_finest_partition(f, GRID_2, 1e-8)
    b = numeric_finest_partition(f, GRID_2, 1e-8)
    assert a == b


def test_domain_errors_are_skipped_and_counted():
    grid = SampleGrid(coords=((-0.5, 0.5, 1.0, 1.5, 2.0), (0.5, 1.0, 1.5, 2.0, 2.5)))
    verdict = numeric_finest_partition(parse("ln(x)*y"), grid, 1e-8)
    assert verdict.skipped > 0
    assert verdict.partition.blocks == ((0,), (1,))


def test_mostly_undefined_function_fails():
    grid = SampleGrid(coords=((-2.0, -1.5, -1.0, 0.5), (-2.0, -1.5, -1.0, 0.5)))
    with pytest.raises((DomainCoverageError, DegenerateAnchorError)):
        numeric_finest_partition(parse("ln(x) + ln(y)"), grid, 1e-8)


def test_grid_must_match_variable_count():
    with pytest.raises(ValueError):
        numeric_finest_partition(parse("x + y"), default_grid(3), 1e-8)


def test_budget_must_cover_the_pair_tests():
    # 92 variables make 4186 pair tests, more than the 4096-point budget
    f = parse(" + ".join(f"x{k}" for k in range(92)))
    with pytest.raises(ValueError, match="budget 4096 is below the 4186 pair tests"):
        numeric_finest_partition(f, default_grid(92), 1e-8)


def test_test_points_with_overflowing_products_are_skipped():
    # with f near 1e155, f(a)*f(x) overflows at the points far from the axes;
    # they are skipped and the remaining points still decide
    verdict = numeric_finest_partition(parse("1" + "0" * 155 + "*x*y"), GRID_2)
    assert verdict.partition.blocks == ((0,), (1,))
    assert verdict.skipped > 0 and verdict.evaluated > verdict.skipped


def test_the_noise_floor_keeps_rounding_noise_from_joining_a_separable_pair(monkeypatch):
    # (x + 0.175)*(y + 1), expanded: x = -0.175 is a default grid point where
    # both products are rounding noise, so their relative residual is not small
    f = parse("x*y + x + 0.175*y + 0.175")
    verdict = numeric_finest_partition(f, default_grid(2))
    assert verdict.partition.blocks == ((0,), (1,)) and verdict.discarded > 0
    monkeypatch.setattr(numeric, "PRODUCT_NOISE_RELATIVE_FLOOR", 0.0)
    assert numeric_finest_partition(f, default_grid(2)).partition.blocks == ((0, 1),)


def test_agreement_with_exact_route_on_random_polynomials():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 3)
        names = ("x", "y", "z")[:n]
        poly = rand_poly(rng, names, max_deg=3, max_terms=6, lo=-3, hi=3)
        node = parse(str(poly))
        numeric_verdict = numeric_finest_partition(node, default_grid(n), 1e-8, names=names)
        assert numeric_verdict.partition == finest_partition(poly).partition, poly


# --------------------------------------------------------------------- grids


def test_grid_spec_parsing():
    name, coords = parse_grid_spec("x=-1:1:9")
    assert name == "x"
    assert len(coords) == 9
    assert coords[0] == -1 and coords[-1] == 1
    with pytest.raises(ValueError):
        parse_grid_spec("x=-1:1")
    with pytest.raises(ValueError):
        parse_grid_spec("x=a:b:9")
    with pytest.raises(ValueError):
        parse_grid_spec("x=-1:1:1")
    for spec in ("=0:1:3", " =0:1:3"):
        with pytest.raises(ValueError, match="must look like"):
            parse_grid_spec(spec)
    with pytest.raises(ValueError, match="a grid axis needs at least 2 coordinates"):
        linspace(0, 1, 1)
    with pytest.raises(ValueError):
        parse_grid_spec("y=2:2:5")
    for spec in ("x=0:inf:5", "x=nan:1:5", "x=-inf:inf:3"):
        with pytest.raises(ValueError, match="finite endpoints"):
            parse_grid_spec(spec)


def test_grid_spec_count_is_bounded_by_the_sample_budget(monkeypatch):
    _, coords = parse_grid_spec(f"x=0:1:{SampleGrid.budget}")
    assert len(coords) == SampleGrid.budget == 4096

    def refuse(*args):
        raise AssertionError("an oversized axis must be rejected before it is built")

    monkeypatch.setattr(numeric, "linspace", refuse)
    with pytest.raises(ValueError, match="more than 4096 coordinates"):
        parse_grid_spec("x=0:1:4097")


def test_numeric_routes_validate_their_arguments():
    f = parse("x*y")
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            numeric_finest_partition(f, GRID_2, tol)
    with pytest.raises(ValueError, match="duplicate variable names"):
        numeric_finest_partition(f, GRID_2, names=("x", "x"))


def test_grid_validation():
    message = "each variable needs at least 2 distinct coordinates"
    with pytest.raises(ValueError, match=message):
        SampleGrid(((1.0, 1.0),))
    with pytest.raises(ValueError, match=message):
        SampleGrid(coords=((0.0, 1.0), (1.0, 1.0)))
    assert SampleGrid.budget == GRID_2.budget == 4096


def test_grid_converts_its_coordinates_to_floats_once():
    with pytest.raises(ValueError, match="coordinate 0 of axis 0 is beyond float range"):
        SampleGrid(((10**400, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match="coordinate 2 of axis 1 is beyond float range"):
        SampleGrid(((0.0, 1.0), (1, Fraction(1, 2), -Fraction(10**400, 3))))
    # NaN would be counted as skipped samples and inf blamed on the function
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^coordinate 0 of axis 0 is not finite$"):
            SampleGrid(((bad, 1.0, 2.0), (1.0, 2.0, 3.0)))
        with pytest.raises(ValueError, match="^coordinate 1 of axis 1 is not finite$"):
            SampleGrid(((0.0, 1.0), (1.0, bad, 3.0)))
    grid = SampleGrid(((0, 1, 10**17 + 1), (Fraction(1, 2), 3)))
    assert grid.coords == ((0.0, 1.0, float(10**17 + 1)), (0.5, 3.0))
    assert all(type(c) is float for axis in grid.coords for c in axis)
    # coordinates that are distinct only as ints are one coordinate as floats
    with pytest.raises(ValueError, match="at least 2 distinct coordinates"):
        SampleGrid(((10**17, 10**17 + 1), (0.0, 1.0)))


def test_grid_from_specs_rejects_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable"):
        SampleGrid.from_specs(("x",), ["q=0:1:2"])
    with pytest.raises(ValueError, match="^grid given twice for variable 'x'$"):
        SampleGrid.from_specs(("x", "y"), ["x=0:1:2", "x=5:6:2"])
    # the specs are read in order, so the first bad one gives the error
    with pytest.raises(ValueError, match="must look like"):
        SampleGrid.from_specs(("x",), ["x=0:1", "x=0:1:2", "x=0:1:2"])
    with pytest.raises(ValueError, match="given twice"):
        SampleGrid.from_specs(("x",), ["x=0:1:2", "x=0:1:2", "q=0:1"])
    # the repeat is found before the unknown name
    with pytest.raises(ValueError, match="given twice"):
        SampleGrid.from_specs(("x",), ["q=0:1:2", "q=0:1:2"])
    grid = SampleGrid.from_specs(("x", "y"), ["y=0:1:3"])
    assert grid.coords == (linspace(-1.3, 1.7, 9), (0.0, 0.5, 1.0))


def test_grid_sample_is_exhaustive_when_it_fits():
    grid = SampleGrid(coords=((0.0, 1.0), (2.0, 3.0, 4.0), (5.0, 6.0)))
    assert grid.sample((1, 2), 6, 1, 1, 2) == [
        (2.0, 5.0), (2.0, 6.0), (3.0, 5.0), (3.0, 6.0), (4.0, 5.0), (4.0, 6.0),
    ]
    drawn = grid.sample((1, 2), 5, 1, 1, 2)
    assert len(drawn) == 5 and drawn == grid.sample((1, 2), 5, 1, 1, 2)
    assert drawn != grid.sample((1, 2), 5, 1, 2, 1)


def test_random_fallback_is_seeded_and_deterministic():
    # 9^4 = 6561 grid points exceed the budget, so the anchor scan draws
    f = parse("(x*y + 1)*(z + w + 3)")
    grid = default_grid(4)
    assert len(grid.sample(range(4), grid.budget, 0)) == grid.budget
    first = numeric_finest_partition(f, grid)
    assert first == numeric_finest_partition(f, default_grid(4))
    assert all(c in axis for c, axis in zip(first.anchor, grid.coords))
    assert first.partition.blocks == ((0, 1), (2, 3))


def _fresh_draw(grid, axes, cap, *salts):
    """The seeded random draw of SampleGrid.sample, made afresh."""
    mixed = 0
    for salt in salts:
        mixed = mixed * 1_000_003 + salt + 1
    rng = random.Random(mixed)
    return list(zip(*(rng.choices(grid.coords[i], k=cap) for i in axes)))


def _bits(points):
    # float.hex tells -0.0 from 0.0, which compare equal
    return [tuple(map(float.hex, point)) for point in points]


def test_memoized_draws_equal_fresh_draws():
    shifted = SampleGrid(tuple(tuple(c + 0.25 for c in axis) for axis in default_grid(4).coords))
    for grid in (default_grid(4), shifted, default_grid(4), shifted):
        drawn = grid.sample(range(4), grid.budget, 0)
        assert _bits(drawn) == _bits(_fresh_draw(grid, range(4), grid.budget, 0))
    # each call hands out a list of its own
    first = default_grid(4).sample(range(4), 5000, 0)
    first.clear()
    assert len(default_grid(4).sample(range(4), 5000, 0)) == 5000


def test_a_signed_zero_grid_does_not_share_a_memoized_draw():
    axis = (0.0, 0.5, 1.0, 1.5)
    signed = (-0.0, 0.5, 1.0, 1.5)
    positive, negative = SampleGrid((axis,) * 4), SampleGrid((signed,) * 4)
    assert positive == negative
    for grid in (positive, negative):
        drawn = grid.sample(range(4), 100, 7)
        assert _bits(drawn) == _bits(_fresh_draw(grid, range(4), 100, 7))
    assert "-0x0.0p+0" in {c for point in _bits(negative.sample(range(4), 100, 7)) for c in point}


def test_the_draw_memo_stays_within_its_size():
    grid = default_grid(5)
    for salt in range(numeric.SAMPLE_MEMO_SIZE + 3):
        assert grid.sample(range(5), 50, salt) == _fresh_draw(grid, range(5), 50, salt)
    info = numeric._draw.cache_info()
    assert info.maxsize == numeric.SAMPLE_MEMO_SIZE and info.currsize <= numeric.SAMPLE_MEMO_SIZE


# --------------------------------------------------------------------- the sweep against the oracle


def _outcome(function, f, grid):
    """The verdict as bits and counts, or the error's type and message."""
    try:
        verdict = function(f, grid)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        [tuple(map(float.hex, row)) for row in verdict.residuals],
        tuple(map(float.hex, verdict.anchor)),
        verdict.evaluated,
        verdict.skipped,
        verdict.discarded,
        verdict.partition,
    )


def _traced_outcome(monkeypatch, function, f, grid):
    """The outcome, and every point expr.eval_float saw, as bits, in order."""
    calls = []
    original = expr.eval_float

    def recording(node, point):
        calls.append(tuple(map(float.hex, point)))
        return original(node, point)

    monkeypatch.setattr(expr, "eval_float", recording)
    try:
        return _outcome(function, f, grid), calls
    finally:
        monkeypatch.setattr(expr, "eval_float", original)


_HUNDRED = linspace(-1.3, 1.7, 100)
_SKIP_GRID = SampleGrid(coords=((-0.5, 0.5, 1.0, 1.5, 2.0), (0.5, 1.0, 1.5, 2.0, 2.5)))
_ORACLE_CASES = [
    ("sin(x)/cos(y)", default_grid(2)),
    ("x^2 + y^2 + x*y", default_grid(2)),
    ("exp(x + y)*sin(z)", default_grid(3)),
    ("(x*y + 1)*exp(z)", default_grid(3)),
    # 9^4 and more grid points exceed the budget, so the scan draws at random
    ("(x*y + 1)*(z + w + 3)", default_grid(4)),
    ("(a*b + 1)*exp(c - d)*cos(e)", default_grid(5)),
    ("(a*b + 1)*exp(c - d)*cos(e)*ln(2 + g)", default_grid(6)),
    ("ln(a)*b*c*d*e", default_grid(5)),
    # 100 x 100 points exceed the pair's 4096 cap, so the sweep draws at random
    ("x^2*y + exp(x)*cos(y)", SampleGrid((_HUNDRED, _HUNDRED))),
    ("ln(x)*y", _SKIP_GRID),
    ("1" + "0" * 155 + "*x*y", GRID_2),
    ("exp(1000*x)*y", default_grid(2)),
    # every product lies below the degeneracy floor, which divides the residual
    ("(x^2 + y^2 + 1)/10^152", default_grid(2)),
    ("exp(x*y)", SampleGrid((linspace(0.0, 10.0, 9),) * 2)),
    ("10^200*x*y", SampleGrid(((1.0, 2.0), (1.0, 3.0)))),
    ("ln(x) + ln(y)", SampleGrid(((-2.0, -1.5, -1.0, 0.5),) * 2)),
    ("x*y", SampleGrid(((0.0, 1e-160),) * 2)),
]


@pytest.mark.parametrize(("source", "grid"), _ORACLE_CASES, ids=[source[:40] for source, _ in _ORACLE_CASES])
def test_sweep_agrees_with_the_oracle(monkeypatch, source, grid):
    f = parse(source)
    expected, expected_calls = _traced_outcome(monkeypatch, oracle_numeric_finest_partition, f, grid)
    actual, calls = _traced_outcome(monkeypatch, numeric_finest_partition, f, grid)
    assert actual == expected
    assert calls == expected_calls


def test_oracle_cases_reach_each_branch():
    outcomes = {source: _outcome(numeric_finest_partition, parse(source), grid) for source, grid in _ORACLE_CASES}
    assert outcomes["ln(x)*y"][3] > 0
    assert outcomes["1" + "0" * 155 + "*x*y"][3] > 0
    assert outcomes["exp(1000*x)*y"][2:5] == (90, 72, 27)
    # products span e^200 here, so 78 of 81 points lay below the pair's noise
    # ceiling; only the 67 also small beside f(a) times their margin are noise
    assert outcomes["exp(x*y)"][4] == 67 and outcomes["exp(x*y)"][5].blocks == ((0, 1),)
    assert outcomes["10^200*x*y"][0] is DomainCoverageError
    assert outcomes["ln(x) + ln(y)"][0] is DomainCoverageError
    assert outcomes["x*y"][0] is DegenerateAnchorError


@settings(max_examples=100, deadline=None)
@given(ast_nodes)
def test_sweep_agrees_with_the_oracle_on_random_expressions(node):
    grid = default_grid(len(expr.free_variables(node)))
    assert _outcome(numeric_finest_partition, node, grid) == _outcome(oracle_numeric_finest_partition, node, grid)


@settings(max_examples=100, deadline=None)
@given(ast_nodes, st.data())
def test_an_int_grid_gives_the_verdict_of_the_same_grid_as_floats(node, data):
    n = len(expr.free_variables(node))
    axis = st.lists(st.integers(-3, 3) | st.sampled_from([10**17 + 1, -(2**60)]), min_size=2, max_size=4, unique=True)
    axes = data.draw(st.lists(axis, min_size=n, max_size=n))
    ints = SampleGrid(tuple(map(tuple, axes)))
    floats = SampleGrid(tuple(tuple(map(float, a)) for a in axes))
    # _outcome reads the anchor and residuals through float.hex, which takes floats only
    assert _outcome(numeric_finest_partition, node, ints) == _outcome(numeric_finest_partition, node, floats)


@pytest.mark.parametrize(("source", "calls", "evaluated", "skipped"), [
    ("exp(x + y)*sin(z)", 999, 972, 0),
    ("exp(1000*x)*y", 177, 90, 72),
])
def test_every_sample_goes_through_eval_float(monkeypatch, source, calls, evaluated, skipped):
    # 729 scan points, 3 x 81 pair points and 3 x 9 margin values; a margin
    # value that raises is evaluated again when a later point needs it
    count = 0
    original = expr.eval_float

    def counting(node, point):
        nonlocal count
        count += 1
        return original(node, point)

    monkeypatch.setattr(expr, "eval_float", counting)
    f = parse(source)
    verdict = numeric_finest_partition(f, default_grid(len(expr.free_variables(f))))
    assert (count, verdict.evaluated, verdict.skipped) == (calls, evaluated, skipped)
