"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from fractions import Fraction

from conftest import (
    P43_FACTOR_X,
    P43_FACTOR_Y,
    P234_FACTORS,
    build_p43,
    build_p234,
    default_grid,
    is_coarsening,
    oracle_finest,
    rand_block_separable,
    rand_poly,
    rand_separable_product,
    random_partition,
)
from varsep import (
    Partition,
    Polynomial,
    coeff_criterion_total,
    finest_partition,
    parse,
    parse_polynomial,
    sep_matrix_entry,
    separate_by_partition,
)
from varsep.cli import run as run_cli
from varsep.numeric import SampleGrid, linspace, numeric_finest_partition


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_reference_two_variable_separation(capsys):
    p43 = build_p43()
    assert len(p43.terms) == 20
    start = time.perf_counter()
    result = separate_by_partition(p43, Partition.singletons(2))
    elapsed = time.perf_counter() - start
    exact = (
        result.constant == Fraction(1)
        and result.factors[0][1] == parse_polynomial(P43_FACTOR_X)
        and result.factors[1][1] == parse_polynomial(P43_FACTOR_Y)
        and result.verified
    )
    code = run_cli(["separate", str(p43), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    cli_exact = code == 0 and payload["factors"] == [P43_FACTOR_X, P43_FACTOR_Y] and payload["constant"] == "1"
    report(
        1,
        exact and cli_exact and elapsed < 0.010,
        f"20-term reference separates exactly in {elapsed * 1000:.2f} ms (< 10 ms)",
    )


def test_criterion_2_reference_three_variable_separation():
    p234 = build_p234()
    result = separate_by_partition(p234, Partition.singletons(3))
    ok = result.constant == Fraction(1) and all(
        factor == parse_polynomial(expected)
        for (_, factor), expected in zip(result.factors, P234_FACTORS)
    )
    report(2, ok, "three-variable reference splits into (x^2+2x+3)(y^3+y)(z^4+2z), constant 1")


def test_criterion_3_negative_suite():
    negatives = [
        "x^2 + y^2",
        "x^3*y + x^2*y^2 + x*y + y^2",
        "x^2*y^4 + x^3*y^3",
        "x^3*y^3 + x*y^4",
        "x^2 - y^2",
    ]
    failures = []
    for source in negatives:
        poly = parse_polynomial(source)
        by_matrix = finest_partition(poly).partition.is_all_singletons
        by_coeffs = coeff_criterion_total(poly) is None
        if by_matrix or by_coeffs:
            failures.append(source)
    report(3, not failures, f"all {len(negatives)} known non-separable inputs refuted by both routes")


def test_criterion_4_round_trip_recovery():
    rng = random.Random(20260810)
    cases = 1000
    exact = 0
    for _ in range(cases):
        n = rng.choice((2, 3, 4))
        names = ("x1", "x2", "x3", "x4")[:n]
        product, constant, factors = rand_separable_product(rng, names, max_deg=4, lo=-5, hi=5)
        result = separate_by_partition(product, Partition.singletons(n))
        if (
            result.verified
            and result.constant == constant
            and all(got == want for (_, got), want in zip(result.factors, factors))
        ):
            exact += 1
    report(4, exact == cases, f"{exact}/{cases} randomized products recovered exactly")


def test_criterion_5_route_equivalence():
    rng = random.Random(5115)
    cases = 1000
    agreements = 0
    for _ in range(cases):
        n = rng.randint(1, 3)
        poly = rand_poly(rng, ("x", "y", "z")[:n], max_deg=3, max_terms=6, lo=-2, hi=2)
        by_matrix = finest_partition(poly).partition.is_all_singletons
        by_coeffs = coeff_criterion_total(poly) is None
        agreements += by_matrix == by_coeffs
    report(5, agreements == cases, f"{agreements}/{cases} coefficient-route verdicts match the pair-matrix route")


def test_criterion_6_partition_oracle():
    rng = random.Random(4242)
    cases = 200
    ok = 0
    for _ in range(cases):
        blocks = random_partition(rng, 4, rng.choice((2, 3)))
        names = ("a", "b", "c", "d")
        product = rand_block_separable(rng, names, blocks)
        generating = Partition(blocks)
        finest = finest_partition(product).partition
        refines = is_coarsening(generating, finest)
        verified = separate_by_partition(product, finest).verified
        brute_force = oracle_finest(product) == finest
        ok += refines and verified and brute_force
    report(6, ok == cases, f"{ok}/{cases} block-separable inputs match the 15-partition brute-force oracle")


def test_criterion_7_high_order_identity():
    rng = random.Random(777)
    cases = 100
    holds = 0
    for _ in range(cases):
        product, _, _ = rand_separable_product(rng, ("x", "y", "z"), max_deg=3)
        mixed = product
        for i in range(3):
            mixed = mixed.partial_derivative(i)
        lhs = product * product * mixed
        rhs = Polynomial.constant(1, product.vars)
        for i in range(3):
            rhs = rhs * product.partial_derivative(i)
        holds += lhs == rhs
    counterexample = parse_polynomial("x^2 + y^2 + z^2")
    mixed = counterexample
    for i in range(3):
        mixed = mixed.partial_derivative(i)
    lhs = counterexample * counterexample * mixed
    rhs = Polynomial.constant(1, counterexample.vars)
    for i in range(3):
        rhs = rhs * counterexample.partial_derivative(i)
    fails_on_sum = not (lhs - rhs).is_zero
    report(
        7,
        holds == cases and fails_on_sum,
        f"F^2*F_123 == F_1*F_2*F_3 on {holds}/{cases} separable inputs and fails on x^2+y^2+z^2",
    )


def test_criterion_8_numeric_suite():
    grid2 = SampleGrid(coords=(linspace(-1.2, 1.2, 9),) * 2)

    start = time.perf_counter()
    quotient = numeric_finest_partition(parse("sin(x)/cos(y)"), grid2, 1e-8)
    t1 = time.perf_counter() - start
    quotient_ok = (
        quotient.partition.blocks == ((0,), (1,))
        and max(max(row) for row in quotient.residuals) <= 1e-10
        and t1 < 0.100
    )

    start = time.perf_counter()
    squares = numeric_finest_partition(parse("x^2 + y^2"), grid2, 1e-8)
    t2 = time.perf_counter() - start
    squares_ok = (
        squares.partition.blocks == ((0, 1),)
        and max(max(row) for row in squares.residuals) >= 0.1
        and t2 < 0.100
    )

    start = time.perf_counter()
    mixed = numeric_finest_partition(parse("exp(x + y)*sin(z)"), default_grid(3), 1e-8)
    t3 = time.perf_counter() - start
    mixed_ok = mixed.partition.blocks == ((0,), (1,), (2,)) and t3 < 0.100

    report(
        8,
        quotient_ok and squares_ok and mixed_ok,
        f"numeric verdicts correct in {t1 * 1000:.1f}/{t2 * 1000:.1f}/{t3 * 1000:.1f} ms (each < 100 ms)",
    )


def test_criterion_9_exact_numeric_agreement():
    rng = random.Random(909)
    cases = 200
    tol = 1e-8
    agreements = 0
    boundary_ok = True
    for _ in range(cases):
        n = rng.randint(2, 4)
        names = ("x", "y", "z", "w")[:n]
        poly = rand_poly(rng, names, max_deg=3, max_terms=6, lo=-3, hi=3)
        exact_partition = finest_partition(poly).partition
        verdict = numeric_finest_partition(parse(str(poly)), default_grid(n), tol, names=names)
        if verdict.partition == exact_partition:
            agreements += 1
        else:
            # a disagreement is tolerable only right at the tolerance boundary:
            # compare per-pair edges and demand every differing residual sit
            # within a factor of 10 of the tolerance
            differing = [
                verdict.residuals[i][j]
                for i in range(n)
                for j in range(i + 1, n)
                if (verdict.residuals[i][j] > tol) != (not sep_matrix_entry(poly, i, j).is_zero)
            ]
            if not all(tol / 10 <= r <= tol * 10 for r in differing):
                boundary_ok = False
    report(
        9,
        agreements >= cases * 0.99 and boundary_ok,
        f"{agreements}/{cases} numeric partitions agree with the exact route (>= 99% required)",
    )


def test_criterion_10_affine_counterexample_end_to_end():
    # x*y under the rotation x -> x + y, y -> x - y
    image = parse_polynomial("(x + y)*(x - y)")
    ok = image == parse_polynomial("x^2 - y^2") and finest_partition(image).partition.blocks == ((0, 1),)
    report(10, ok, "x*y maps to x^2 - y^2 under the rotation and becomes a single block")
