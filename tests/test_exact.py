import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    P43_FACTOR_X,
    P43_FACTOR_Y,
    P234_FACTORS,
    all_partitions,
    oracle_coeff_violation,
    oracle_anchor,
    oracle_finest,
    oracle_margin_factors,
    oracle_partition_valid,
    rand_block_separable,
    rand_poly,
    rand_separable_product,
    random_partition,
)
from varsep import (
    NotSeparableError,
    Partition,
    Polynomial,
    Verdict,
    ZeroPolynomialError,
    additive_separability,
    coeff_criterion_total,
    finest_partition,
    parse_polynomial,
    sep_matrix_entry,
    separate_by_partition,
    separate_total,
)
from varsep import exact
from varsep.partition import UnionFind


def P(source, vars=None):
    return parse_polynomial(source, vars)


FOUR_VAR_PRODUCT = P("(x1*x2 + 1)*(x3 + x4)", ("x1", "x2", "x3", "x4"))


# --------------------------------------------------------------------- pair matrix


def test_pair_entry_vanishes_on_the_minimal_product():
    assert sep_matrix_entry(P("x*y"), 0, 1).is_zero


def test_pair_entry_of_sum_of_squares():
    assert sep_matrix_entry(P("x^2 + y^2"), 0, 1) == P("-4*x*y")


def test_pair_entry_of_difference_of_squares():
    # x*y under the rotation x -> x + y, y -> x - y
    transformed = P("(x + y)*(x - y)")
    assert transformed == P("x^2 - y^2")
    assert sep_matrix_entry(transformed, 0, 1) == P("4*x*y")


def test_pair_entry_rejects_diagonal_and_zero():
    with pytest.raises(ValueError):
        sep_matrix_entry(P("x*y"), 1, 1)
    with pytest.raises(ZeroPolynomialError):
        sep_matrix_entry(Polynomial.zero(("x", "y")), 0, 1)
    with pytest.raises(IndexError):
        sep_matrix_entry(P("x*y"), 0, 5)


def test_pair_entry_is_symmetric():
    rng = random.Random(7)
    for _ in range(25):
        p = rand_poly(rng, ("x", "y", "z"))
        assert sep_matrix_entry(p, 0, 2) == sep_matrix_entry(p, 2, 0)


def test_pair_identity_holds_on_separable_inputs():
    # the r = s = 1 case of the derivative identity for separable functions
    rng = random.Random(11)
    for _ in range(25):
        product, _, _ = rand_separable_product(rng, ("x", "y", "z"), max_deg=3)
        for i in range(3):
            for j in range(i + 1, 3):
                assert sep_matrix_entry(product, i, j).is_zero


# --------------------------------------------------------------------- finest partition


def test_finest_partition_of_two_block_product():
    report = finest_partition(FOUR_VAR_PRODUCT)
    assert report.partition.blocks == ((0, 1), (2, 3))
    assert oracle_finest(FOUR_VAR_PRODUCT) == report.partition


def test_finest_partition_of_monomial_is_all_singletons():
    report = finest_partition(P("x*y*z"))
    assert report.partition.is_all_singletons


def test_finest_partition_of_sum_of_squares_is_one_block():
    report = finest_partition(P("x^2 + y^2"))
    assert report.partition.blocks == ((0, 1),)


def test_absent_variable_is_its_own_singleton():
    p = P("x*y + 1", ("x", "y", "z"))
    report = finest_partition(p)
    assert ((2,) in report.partition.blocks)


def test_finest_partition_matches_oracle_on_random_inputs():
    rng = random.Random(23)
    names = ("a", "b", "c", "d")
    for _ in range(40):
        p = rand_poly(rng, names, max_deg=2, max_terms=5, lo=-2, hi=2)
        assert finest_partition(p).partition == oracle_finest(p)


def test_binary_split_oracle_agrees_with_partition_for_small_n():
    # all 2^(n-1) - 1 binary splits, checked through margins, versus the
    # component structure of the pair matrix
    rng = random.Random(31)
    for n, names in ((2, ("x", "y")), (3, ("x", "y", "z")), (4, ("a", "b", "c", "d"))):
        for _ in range(15):
            p = rand_poly(rng, names, max_deg=3, max_terms=5, lo=-2, hi=2)
            blocks = finest_partition(p).partition.blocks
            seen = set()
            for size in range(1, n):
                for combo in itertools.combinations(range(n), size):
                    left = frozenset(combo)
                    key = min(left, frozenset(range(n)) - left, key=sorted)
                    if key in seen:
                        continue
                    seen.add(key)
                    by_margin = oracle_partition_valid(
                        p, [sorted(left), sorted(set(range(n)) - left)]
                    )
                    # the split is valid iff no finest block straddles it
                    by_matrix = all(
                        set(block) <= left or set(block).isdisjoint(left) for block in blocks
                    )
                    assert by_margin == by_matrix, (p, sorted(left))
            assert len(seen) == 2 ** (n - 1) - 1


# --------------------------------------------------------------------- witnesses, certification and fallback


def symbolic_finest(poly):
    """The finest partition from the symbolic pair entries alone."""
    n = poly.var_count
    uf = UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if not sep_matrix_entry(poly, i, j).is_zero:
                uf.union(i, j)
    return uf.partition()


def with_fraction_coefficients(rng, poly):
    terms = {exps: coef / rng.choice((1, 2, 3, 7)) for exps, coef in poly.terms.items()}
    return Polynomial(poly.vars, terms)


def with_absent_variable(rng, poly, name):
    """The same polynomial over a registry with one more, unused variable."""
    slot = rng.randint(0, poly.var_count)
    names = poly.vars[:slot] + (name,) + poly.vars[slot:]
    return Polynomial(names, {exps[:slot] + (0,) + exps[slot:]: c for exps, c in poly.terms.items()})


def random_pair_test_input(rng):
    names = ("a", "b", "c", "d", "e", "f")
    n = rng.randint(1, 5)
    kind = rng.randrange(3)
    if kind == 0:
        poly = rand_poly(rng, names[:n], max_deg=2, max_terms=4, lo=-3, hi=3)
    else:
        blocks = random_partition(rng, n, rng.randint(1, n))
        poly = rand_block_separable(rng, names[:n], blocks, max_deg=2, max_terms=2)
        if kind == 2:
            # perturb the product by one monomial
            exps = tuple(rng.randint(0, 1) for _ in range(n))
            poly = poly + Polynomial(names[:n], {exps: rng.choice((-1, 1))})
            if poly.is_zero:
                poly = rand_poly(rng, names[:n])
    if rng.random() < 0.5:
        poly = with_fraction_coefficients(rng, poly)
    if rng.random() < 0.3:
        poly = with_absent_variable(rng, poly, "z")
    return poly


def test_witness_route_agrees_with_symbolic_entries_on_random_inputs():
    rng = random.Random(2718)
    for _ in range(300):
        poly = random_pair_test_input(rng)
        assert poly.var_count <= 6
        report = finest_partition(poly)
        assert report.partition == symbolic_finest(poly), poly
        owner = {i: k for k, block in enumerate(report.partition.blocks) for i in block}
        for i, j in itertools.combinations(range(poly.var_count), 2):
            if owner[i] != owner[j]:
                assert sep_matrix_entry(poly, i, j).is_zero, (poly, i, j)


def test_every_witness_gives_a_nonzero_exact_pair_value():
    rng = random.Random(3141)
    checked = 0
    for _ in range(60):
        poly = random_pair_test_input(rng)
        report = finest_partition(poly)
        owner = {i: k for k, block in enumerate(report.partition.blocks) for i in block}
        for (i, j), point in report.witnesses.items():
            assert i < j
            assert owner[i] == owner[j]
            assert all(c != 0 for c in point)
            assert sep_matrix_entry(poly, i, j).evaluate(point) != 0, (poly, i, j, point)
            checked += 1
    assert checked > 0


def test_witnesses_are_deterministic():
    poly = P("(x1*x2 + 1)*(x3 + x4) + x1*x3", ("x1", "x2", "x3", "x4"))
    first, second = finest_partition(poly), finest_partition(poly)
    assert first.witnesses == second.witnesses
    assert list(first.witnesses.items()) == list(second.witnesses.items())
    assert first.witnesses


def test_forced_fallback_when_witness_points_miss_the_edge(monkeypatch):
    # G_xy = -2*(x - 1) vanishes at every point with x = 1, so no witness is
    # found, the slice identity of the all-singletons partition fails, and
    # the symbolic entries decide the pair
    monkeypatch.setattr(exact, "_witness_points", lambda n: ((1, 3), (1, -5)))
    poly = P("(x - 1)^2 + y")
    report = finest_partition(poly)
    assert report.partition.blocks == ((0, 1),)
    assert report.witnesses == {}


def test_witness_points_where_f_vanishes(monkeypatch):
    # F = x*y - 1 vanishes at both points, yet G_xy = -1 witnesses the edge
    monkeypatch.setattr(exact, "_witness_points", lambda n: ((1, 1), (-1, -1)))
    report = finest_partition(P("x*y - 1"))
    assert report.partition.blocks == ((0, 1),)
    assert report.witnesses == {(0, 1): (1, 1)}
    # F = (x + 1)*(y - 1) vanishes at both points, and the slice identity,
    # which evaluates nothing, still certifies the all-singletons partition
    product = P("(x + 1)*(y - 1)")
    monkeypatch.setattr(exact, "_witness_points", lambda n: ((-1, 2), (3, 1)))
    report = finest_partition(product)
    assert report.partition.is_all_singletons
    assert report.witnesses == {}
    assert sep_matrix_entry(product, 0, 1).is_zero


def test_separate_by_partition_does_not_derive_the_finest_partition(monkeypatch):
    calls = []
    original = exact.finest_partition

    def counting(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(exact, "finest_partition", counting)
    result = separate_by_partition(FOUR_VAR_PRODUCT, Partition(((0, 1), (2, 3))))
    assert result.verified
    assert calls == []
    with pytest.raises(NotSeparableError, match=r"finest partition is \(\(0, 1\), \(2, 3\)\)"):
        separate_by_partition(FOUR_VAR_PRODUCT, Partition(((0, 2), (1, 3))))
    assert len(calls) == 1


# --------------------------------------------------------------------- coefficient route


def test_anomalous_precheck_examples():
    # an anomalous input lacks its leading product monomial x^N, so the
    # coefficient route refutes it; x*y has that monomial and is separable
    for source in ("x^2*y^4 + x^3*y^3", "x^3*y^3 + x*y^4"):
        p = P(source)
        assert p.coefficient(p.degree_vector()) == 0, source
        assert coeff_criterion_total(p).verdict is Verdict.NOT_SEPARABLE, source
    p = P("x*y")
    assert p.coefficient(p.degree_vector()) == 1
    assert coeff_criterion_total(p).verdict is Verdict.SEPARABLE


def test_coeff_criterion_accepts_reference_polynomials(p43, p234):
    assert coeff_criterion_total(p43).verdict is Verdict.SEPARABLE
    assert coeff_criterion_total(p234).verdict is Verdict.SEPARABLE


def test_coeff_criterion_rejects_mixed_quartic():
    report = coeff_criterion_total(P("x^3*y + x^2*y^2 + x*y + y^2"))
    assert report.verdict is Verdict.NOT_SEPARABLE
    assert report.violation is not None
    assert report.violation <= (2, 2)


def test_coeff_criterion_handles_vanishing_leading_product_coefficient():
    # a totally separable polynomial contains its leading product monomial,
    # so every input here, which lacks it, is refuted
    cases = {
        "x^2*y^4 + x^3*y^3": (2, 3),
        "x^3*y^3 + x*y^4": (1, 3),
        "x^2*y + x*y^2": (1, 1),
        "x*y + z": (1, 1, 1),  # a slice is empty: the absent corner is the violation
    }
    for source, violation in cases.items():
        report = coeff_criterion_total(P(source))
        assert report.verdict is Verdict.NOT_SEPARABLE, source
        assert report.violation == violation == oracle_coeff_violation(P(source)), source


def _random_coefficient(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))


def _random_coeff_route_input(rng, names):
    """A sparse polynomial, a non-monic product of univariate factors (some
    constant, so their variable is absent), or such a product with one term
    perturbed or with its leading product term removed."""
    kind = rng.randrange(4)
    if kind == 0:
        terms = {}
        for _ in range(rng.randint(1, 6)):
            terms[tuple(rng.randint(0, 3) for _ in names)] = _random_coefficient(rng)
        return Polynomial(names, terms)
    product = Polynomial.constant(_random_coefficient(rng), names)
    for name in names:
        degree = rng.choice((0, 1, 2, 3))
        terms = {(degree,): _random_coefficient(rng)}
        for i in range(degree):
            if rng.random() < 0.6:
                terms[(i,)] = _random_coefficient(rng)
        product = product * Polynomial((name,), terms)
    if kind == 2:
        exps = tuple(rng.randint(0, 3) for _ in names)
        delta = rng.choice((_random_coefficient(rng), -product.coefficient(exps)))
        product = product + Polynomial(names, {exps: delta})
    elif kind == 3 and names:
        corner = product.degree_vector()
        product = product - Polynomial(names, {corner: product.coefficient(corner)})
    return product


def test_coeff_criterion_matches_the_dense_oracle_on_random_inputs():
    rng = random.Random(71)
    names = ("x1", "x2", "x3", "x4")
    kinds = {"separable": 0, "vanishing corner": 0}
    tested = 0
    for _ in range(1200):
        poly = _random_coeff_route_input(rng, names[:rng.randint(0, 4)])
        if poly.is_zero:
            continue
        tested += 1
        report = coeff_criterion_total(poly)
        expected = oracle_coeff_violation(poly)
        assert report.violation == expected, poly
        assert (report.verdict is Verdict.SEPARABLE) == (expected is None), poly
        if poly.var_count and poly.coefficient(poly.degree_vector()) == 0:
            kinds["vanishing corner"] += 1
        if expected is None:
            kinds["separable"] += 1
            result = separate_total(poly)
            assert result.verified and result.product(poly.vars) == poly
            assert result == separate_by_partition(poly, Partition.singletons(poly.var_count))
        else:
            with pytest.raises(NotSeparableError):
                separate_total(poly)
    assert tested >= 1000 and min(kinds.values()) >= 200, (tested, kinds)


def test_separate_total_on_a_sparse_high_degree_product_is_bounded():
    # the dense box of this 4-term input has 3001^2 entries
    start = time.perf_counter()
    result = separate_total(P("x^3000*y^3000 + x^3000 + y^3000 + 1"))
    assert time.perf_counter() - start < 1.0
    assert result.constant == 1
    assert [factor for _, factor in result.factors] == [P("x^3000 + 1"), P("y^3000 + 1")]


def test_coeff_criterion_walk_stops_at_the_first_mismatch():
    # three full slices of 201 terms each through the corner x^N*y^N*z^N: the
    # product of the slices has 201^3 terms, the input only 601
    N = 200
    names = ("x", "y", "z")
    terms = {(N, N, N): 1}
    for r in range(3):
        for i in range(N):
            terms[(N,) * r + (i,) + (N,) * (2 - r)] = 1
    poly = Polynomial(names, terms)
    assert len(poly.terms) == 601
    start = time.perf_counter()
    report = coeff_criterion_total(poly)
    assert time.perf_counter() - start < 1.0
    assert report.verdict is Verdict.NOT_SEPARABLE
    assert report.violation == (0, 0, 0)


def test_route_equivalence_on_random_polynomials():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 3)
        p = rand_poly(rng, ("x", "y", "z")[:n], max_deg=4, max_terms=6, lo=-2, hi=2)
        by_matrix = finest_partition(p).partition.is_all_singletons
        by_coeffs = coeff_criterion_total(p).verdict is Verdict.SEPARABLE
        assert by_matrix == by_coeffs, p


# --------------------------------------------------------------------- total separation


def test_separate_total_reference(p43):
    result = separate_total(p43)
    assert result.verified
    assert result.constant == 1
    assert result.factors[0][1] == P(P43_FACTOR_X)
    assert result.factors[1][1] == P(P43_FACTOR_Y)


def test_separate_total_three_variables(p234):
    result = separate_total(p234)
    assert result.constant == 1
    for (block, factor), expected in zip(result.factors, P234_FACTORS):
        assert factor == P(expected)


def test_separate_total_moves_scalar_into_constant():
    result = separate_total(P("6*x*y"))
    assert result.constant == 6
    assert result.factors[0][1] == P("x")
    assert result.factors[1][1] == P("y")


def test_separate_total_raises_on_non_separable():
    with pytest.raises(NotSeparableError):
        separate_total(P("x^2 + y^2"))


def test_separate_total_round_trip_randomized():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(2, 4)
        names = ("x1", "x2", "x3", "x4")[:n]
        product, constant, factors = rand_separable_product(rng, names)
        result = separate_total(product)
        assert result.verified
        assert result.constant == constant
        for (_, recovered), original in zip(result.factors, factors):
            assert recovered == original


def test_factor_support_stays_inside_blocks():
    names = ("x", "y")
    result = separate_total(P("6*x*y"))
    for block, factor in result.factors:
        assert set(factor.vars) <= {names[i] for i in block}
        assert factor.leading_coefficient() == 1


# --------------------------------------------------------------------- partition separation


def test_separate_by_partition_two_blocks():
    partition = Partition(((0, 1), (2, 3)))
    result = separate_by_partition(FOUR_VAR_PRODUCT, partition)
    assert result.verified
    assert result.constant == 1
    assert result.factors[0][1] == P("x1*x2 + 1", ("x1", "x2"))
    assert result.factors[1][1] == P("x3 + x4", ("x3", "x4"))


def test_separate_by_partition_does_not_depend_on_the_anchor():
    # the margin factorizations at two different anchors, normalized, agree
    # with each other and with the slice factorization
    partition = Partition(((0, 1), (2, 3)))
    result = separate_by_partition(FOUR_VAR_PRODUCT, partition)
    assert result.constant == 1
    factors = [factor for _, factor in result.factors]
    assert factors == [P("x1*x2 + 1", ("x1", "x2")), P("x3 + x4", ("x3", "x4"))]
    raw = []
    for anchor in (oracle_anchor(FOUR_VAR_PRODUCT), (2, -3, 5, 7)):
        raw.append([FOUR_VAR_PRODUCT.margin({i: anchor[i] for i in range(4) if i not in block})
                    for block in partition.blocks])
        expected = oracle_margin_factors(FOUR_VAR_PRODUCT, partition.blocks, anchor)
        assert expected == (result.constant, factors)
    # the margins themselves differ: x1*x2 + 1 and x3 + x4 at (0, 0, 0, 1),
    # 12*(x1*x2 + 1) and -5*(x3 + x4) at (2, -3, 5, 7)
    assert raw[0] == [P("x1*x2 + 1", ("x1", "x2")), P("x3 + x4", ("x3", "x4"))]
    assert raw[1] == [P("12*x1*x2 + 12", ("x1", "x2")), P("-5*x3 - 5*x4", ("x3", "x4"))]


def _random_partition_input(rng):
    """(F, partition, corner dropped) for the margin-oracle test: a product
    of random block factors (in Fraction coefficients, sometimes perturbed
    or missing its corner term, sometimes over a registry with one more,
    unused variable) and a partition that is the true one, a coarsening of
    it, or random."""
    names = ("a", "b", "c", "d", "e")
    n = rng.randint(2, 5)
    blocks = random_partition(rng, n, rng.randint(1, n))
    poly = rand_block_separable(rng, names[:n], blocks, max_deg=2, max_terms=3)
    poly = with_fraction_coefficients(rng, poly)
    kind = rng.randrange(4)
    if kind == 1:
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        poly = poly + Polynomial(names[:n], {exps: _random_coefficient(rng)})
    if rng.random() < 0.25:
        poly = with_absent_variable(rng, poly, "z")
        slot = poly.vars.index("z")
        blocks = [[i + (i >= slot) for i in block] for block in blocks] + [[slot]]
    if kind == 2:
        blocks = random_partition(rng, poly.var_count, rng.randint(1, poly.var_count))
    elif kind == 3 and len(blocks) > 1:
        blocks = [blocks[0] + blocks[1]] + blocks[2:]
    partition = Partition.from_blocks(blocks)
    drop = rng.random() < 0.2 and not poly.is_zero
    if drop:
        # drop the corner term: the term whose projection onto every block
        # is the largest one there
        corner = [0] * poly.var_count
        for block in partition.blocks:
            top = max(tuple(exps[i] for i in block) for exps in poly.terms)
            for i, e in zip(block, top):
                corner[i] = e
        poly = poly - Polynomial(poly.vars, {tuple(corner): poly.coefficient(corner)})
    return poly, partition, drop


def test_separate_by_partition_matches_the_margin_oracle_on_random_inputs():
    rng = random.Random(1009)
    kinds = Counter()
    for _ in range(500):
        poly, partition, dropped = _random_partition_input(rng)
        if poly.is_zero:
            continue
        kinds["tested"] += 1
        kinds["corner dropped"] += dropped
        expected = oracle_margin_factors(poly, partition.blocks)
        if any(list(block) != list(range(block[0], block[-1] + 1)) for block in partition.blocks):
            kinds["non-contiguous block"] += 1
        if "z" in poly.vars:
            kinds["absent variable"] += 1
        if expected is None:
            kinds["not separable"] += 1
            with pytest.raises(NotSeparableError):
                separate_by_partition(poly, partition)
            continue
        kinds["separable"] += 1
        if not partition.is_all_singletons and partition.block_count > 1:
            kinds["separable by blocks"] += 1
        result = separate_by_partition(poly, partition)
        assert [block for block, _ in result.factors] == list(partition.blocks)
        assert (result.constant, [factor for _, factor in result.factors]) == expected, (poly, partition)
        assert result.verified and result.product(poly.vars) == poly
    assert kinds["tested"] >= 450 and min(kinds.values()) >= 40, kinds


def test_separate_by_partition_rejects_a_vanishing_block_corner():
    # the largest projections are x (onto {x, y}) and z (onto {z}), so the
    # corner x*z is absent, although each slice is nonempty; likewise the
    # corner x^2*y^2 for the blocks {x, z}, {y}
    for source, vars, blocks in (
        ("x + z", ("x", "y", "z"), ((0, 1), (2,))),
        ("x*y^2 + x^2*y + z*y", ("x", "y", "z"), ((0, 2), (1,))),
    ):
        poly = P(source, vars)
        assert oracle_margin_factors(poly, blocks) is None
        with pytest.raises(NotSeparableError):
            separate_by_partition(poly, Partition(blocks))


def test_separate_by_partition_singletons_matches_total(p43):
    result = separate_by_partition(p43, Partition.singletons(2))
    assert result.constant == 1
    assert result.factors[0][1] == P(P43_FACTOR_X)
    assert result.factors[1][1] == P(P43_FACTOR_Y)


def test_separate_by_partition_trivial_block():
    p = P("x^2 + y^2")
    result = separate_by_partition(p, Partition(((0, 1),)))
    assert result.constant == 1
    assert result.factors[0][1] == p


def test_separate_by_partition_rejects_non_coarsening():
    with pytest.raises(NotSeparableError):
        separate_by_partition(P("x^2 + y^2"), Partition.singletons(2))
    with pytest.raises(NotSeparableError):
        separate_by_partition(FOUR_VAR_PRODUCT, Partition(((0, 2), (1, 3))))


def test_coarsening_contract_randomized():
    rng = random.Random(53)
    names = ("a", "b", "c", "d")
    for _ in range(25):
        blocks = random_partition(rng, 4, rng.choice((2, 3)))
        product = rand_block_separable(rng, names, blocks)
        finest = finest_partition(product).partition
        for candidate in all_partitions(list(range(4))):
            candidate_partition = Partition.from_blocks(candidate)
            if candidate_partition.is_coarsening_of(finest):
                result = separate_by_partition(product, candidate_partition)
                assert result.verified
                assert result.product(product.vars) == product
            else:
                with pytest.raises(NotSeparableError):
                    separate_by_partition(product, candidate_partition)


# --------------------------------------------------------------------- derivative refutation and identities


def test_non_separable_derivative_refutes_the_mixed_quartic():
    # every partial derivative of a separable function is separable
    poly = P("x^3*y + x^2*y^2 + x*y + y^2")
    second = poly.partial_derivative(0).partial_derivative(0)
    assert second == P("6*x*y + 2*y^2")
    assert finest_partition(second).partition.blocks == ((0, 1),)
    assert coeff_criterion_total(poly).verdict is Verdict.NOT_SEPARABLE


def test_separable_derivatives_do_not_make_the_sum_of_squares_separable():
    poly = P("x^2 + y^2")
    for i in range(2):
        assert finest_partition(poly.partial_derivative(i)).partition.is_all_singletons
    assert finest_partition(poly).partition.blocks == ((0, 1),)


def test_derivatives_of_separable_polynomials_are_separable_or_zero():
    poly = P("x*y")
    assert poly.partial_derivative(0).partial_derivative(1) == P("1", ("x", "y"))
    derivative = poly
    for _ in range(5):
        derivative = derivative.partial_derivative(0)
    assert derivative.is_zero
    rng = random.Random(61)
    for _ in range(20):
        product, _, _ = rand_separable_product(rng, ("x", "y", "z"), max_deg=3)
        for i in range(3):
            assert coeff_criterion_total(product.partial_derivative(i)).verdict is Verdict.SEPARABLE


def test_high_order_product_identity():
    # F^(n-1) * d^n F / dx_1...dx_n == F_1 * ... * F_n for separable F
    rng = random.Random(59)
    names = ("x", "y", "z")
    for _ in range(20):
        product, _, _ = rand_separable_product(rng, names, max_deg=3)
        mixed = product
        for i in range(3):
            mixed = mixed.partial_derivative(i)
        lhs = product * product * mixed
        rhs = Polynomial.constant(1, names)
        for i in range(3):
            rhs = rhs * product.partial_derivative(i)
        assert lhs == rhs


def test_high_order_product_identity_fails_on_sum_of_squares():
    p = P("x^2 + y^2 + z^2")
    mixed = p.partial_derivative(0).partial_derivative(1).partial_derivative(2)
    lhs = p * p * mixed
    rhs = p.partial_derivative(0) * p.partial_derivative(1) * p.partial_derivative(2)
    assert lhs != rhs
    assert (lhs - rhs) == P("-8*x*y*z")


# --------------------------------------------------------------------- additive route


def test_additive_separability_examples():
    assert additive_separability(P("x^2 + y^2")) is Verdict.SEPARABLE
    assert additive_separability(P("x*y")) is Verdict.NOT_SEPARABLE
    assert additive_separability(P("x^3 + 2*y + 5")) is Verdict.SEPARABLE


# --------------------------------------------------------------------- affine interplay


def test_affine_image_of_product_is_not_separable():
    # x*y under the rotation x -> x + y, y -> x - y
    image = P("(x + y)*(x - y)")
    assert finest_partition(image).partition.blocks == ((0, 1),)
    with pytest.raises(NotSeparableError):
        separate_total(image)
