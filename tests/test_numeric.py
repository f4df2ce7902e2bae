import random
from fractions import Fraction

import pytest

from conftest import rand_poly
from varsep import numeric, parse, parse_polynomial
from varsep.exact import finest_partition
from varsep.expr import BinOp, Const
from varsep.numeric import (
    DegenerateAnchorError,
    DomainCoverageError,
    SampleGrid,
    linspace,
    margin_residual,
    numeric_finest_partition,
    parse_grid_spec,
)

GRID_2 = SampleGrid(coords=(linspace(-1.2, 1.2, 9),) * 2)


# --------------------------------------------------------------------- residual


def test_residual_vanishes_for_separable_quotient():
    f = parse("sin(x)/cos(y)")
    rng = random.Random(3)
    for _ in range(20):
        point = (rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        r = margin_residual(f, ("x", "y"), [0], (1.0, 0.0), point)
        assert r <= 1e-12


def test_residual_frozen_value_for_sum_of_squares():
    # f(a)=2, f(x)=13, f(x_I,a_J)=5, f(a_I,x_J)=10:
    # |2*13 - 5*10| / max(26, 50) = 24/50
    f = parse("x^2 + y^2")
    r = margin_residual(f, ("x", "y"), [0], (1.0, 1.0), (2.0, 3.0))
    assert r == pytest.approx(24 / 50, abs=1e-15)
    assert r > 0.1


def test_residual_zero_for_constants():
    f = parse("7")
    assert margin_residual(f, ("x", "y"), [0], (1.0, 2.0), (3.0, 4.0)) == 0.0


def test_residual_rejects_vanishing_anchor():
    with pytest.raises(DegenerateAnchorError):
        margin_residual(parse("x*y"), ("x", "y"), [0], (0.0, 5.0), (1.0, 1.0))


def test_residual_scale_invariance_in_floats():
    f = parse("x^2 + y^2")
    scaled = BinOp("*", Const(Fraction(37, 10)), f)
    for point in ((2.0, 3.0), (0.7, -1.1), (-0.4, 0.9)):
        r1 = margin_residual(f, ("x", "y"), [0], (1.0, 1.0), point)
        r2 = margin_residual(scaled, ("x", "y"), [0], (1.0, 1.0), point)
        assert r2 == pytest.approx(r1, abs=1e-12)


def test_residual_scale_invariance_exact_shadow():
    # the same residual computed in exact rationals is invariant under f -> c*f
    def exact_residual(poly, block, anchor, point):
        inside = set(block)
        mixed_i = [point[k] if k in inside else anchor[k] for k in range(len(anchor))]
        mixed_j = [anchor[k] if k in inside else point[k] for k in range(len(anchor))]
        lhs = poly.evaluate(anchor) * poly.evaluate(point)
        rhs = poly.evaluate(mixed_i) * poly.evaluate(mixed_j)
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
    f = parse("sin(x)/cos(y)")
    rng = random.Random(5)
    for _ in range(5):
        anchor = (rng.uniform(0.3, 1.2), rng.uniform(-1.0, 1.0))
        worst = max(
            margin_residual(f, ("x", "y"), [0], anchor, (rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)))
            for _ in range(20)
        )
        assert worst <= 1e-12


# --------------------------------------------------------------------- partition detection


def test_partition_of_separable_quotient():
    verdict = numeric_finest_partition(parse("sin(x)/cos(y)"), GRID_2, 1e-8)
    assert verdict.verdict == "separable"
    assert verdict.partition.blocks == ((0,), (1,))
    assert max(max(row) for row in verdict.residuals) <= 1e-10


def test_partition_of_sum_of_squares_is_one_block():
    verdict = numeric_finest_partition(parse("x^2 + y^2"), GRID_2, 1e-8)
    assert verdict.verdict == "not separable"
    assert verdict.partition.blocks == ((0, 1),)
    assert max(max(row) for row in verdict.residuals) >= 0.1


def test_partition_of_three_factor_product():
    verdict = numeric_finest_partition(parse("exp(x + y)*sin(z)"), SampleGrid.default(3), 1e-8)
    assert verdict.verdict == "separable"
    assert verdict.partition.blocks == ((0,), (1,), (2,))


def test_partial_separation_reports_partition_verdict():
    verdict = numeric_finest_partition(parse("(x*y + 1)*exp(z)"), SampleGrid.default(3), 1e-8)
    assert verdict.verdict == "partition"
    assert verdict.partition.blocks == ((0, 1), (2,))


def test_residual_matrix_is_symmetric():
    verdict = numeric_finest_partition(parse("(x*y + 1)*exp(z)"), SampleGrid.default(3), 1e-8)
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
        numeric_finest_partition(parse("x + y"), SampleGrid.default(3), 1e-8)


def test_budget_must_cover_the_pair_tests():
    # 92 variables make 4186 pair tests, more than the 4096-point budget
    f = parse(" + ".join(f"x{k}" for k in range(92)))
    with pytest.raises(ValueError, match="budget 4096 is below the 4186 pair tests"):
        numeric_finest_partition(f, SampleGrid.default(92), 1e-8)


def test_test_points_with_overflowing_products_are_skipped():
    # with f near 1e155, f(a)*f(x) overflows at the points far from the axes;
    # they are skipped and the remaining points still decide
    verdict = numeric_finest_partition(parse("1" + "0" * 155 + "*x*y"), GRID_2)
    assert verdict.verdict == "separable"
    assert verdict.skipped > 0 and verdict.evaluated > verdict.skipped


def test_agreement_with_exact_route_on_random_polynomials():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 3)
        names = ("x", "y", "z")[:n]
        poly = rand_poly(rng, names, max_deg=3, max_terms=6, lo=-3, hi=3)
        node = parse(str(poly))
        numeric_verdict = numeric_finest_partition(node, SampleGrid.default(n), 1e-8, names=names)
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
    with pytest.raises(ValueError):
        SampleGrid(coords=((1.0, 1.0),))


def test_grid_from_specs_rejects_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable"):
        SampleGrid.from_specs(("x",), {"q": (0.0, 1.0)})


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
    grid = SampleGrid.default(4)
    assert len(grid.sample(range(4), grid.budget, 0)) == grid.budget
    first = numeric_finest_partition(f, grid)
    assert first == numeric_finest_partition(f, SampleGrid.default(4))
    assert all(c in axis for c, axis in zip(first.anchor, grid.coords))
    assert first.partition.blocks == ((0, 1), (2, 3))
