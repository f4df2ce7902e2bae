import contextlib
import inspect
import io
import itertools
import json
import math
import pickle
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    P43_FACTOR_X,
    P43_FACTOR_Y,
    P234_FACTORS,
    all_partitions,
    both_points_miss_source,
    degree_vector,
    embed,
    evaluate,
    is_coarsening,
    oracle_coeff_violation,
    oracle_anchor,
    oracle_finest,
    oracle_margin_factors,
    oracle_partition_valid,
    oracle_slice_factors,
    oracle_slice_identity,
    oracle_witnessed_partition,
    rand_block_separable,
    rand_poly,
    rand_separable_product,
    random_partition,
    remultiply,
    substitute,
)
from varsep import (
    NotSeparableError,
    Partition,
    Polynomial,
    SeparationResult,
    ZeroPolynomialError,
    additive_separability,
    coeff_criterion_total,
    finest_partition,
    parse_polynomial,
    sep_matrix_entry,
    separate_by_partition,
)
from varsep import cli, exact
from varsep._record import Record
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
        sep_matrix_entry(Polynomial(("x", "y")), 0, 1)
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


# --------------------------------------------------------------------- partitions and reports


@pytest.mark.parametrize("blocks, message", [
    (((0, 1), (1, 2)), "block (1, 2) overlaps another block"),
    (((1, 0),), "block (1, 0) is not sorted"),
    (((0,), (2,)), "blocks must cover a contiguous index range, got [0, 2]"),
    (((1,), (0,)), "blocks must be ordered by smallest member"),
    (((0,), ()), "partition blocks must be nonempty"),
])
def test_partition_rejects_malformed_blocks(blocks, message):
    for construct in (lambda: Partition(blocks), lambda: Partition(blocks=blocks)):
        with pytest.raises(ValueError) as info:
            construct()
        assert str(info.value) == message


def test_partitions_and_reports_compare_as_values():
    partition = Partition(((0, 1), (2,)))
    assert partition == Partition.from_blocks([[2], [1, 0]]) == Partition(blocks=((0, 1), (2,)))
    assert hash(partition) == hash(Partition.from_blocks([[2], [1, 0]]))
    assert partition != Partition.singletons(3) and partition != ((0, 1), (2,))
    assert finest_partition(FOUR_VAR_PRODUCT) == finest_partition(FOUR_VAR_PRODUCT)
    result = separate_by_partition(P("6*x*y"), Partition.singletons(2))
    assert SeparationResult(result.constant, result.factors, True) == result
    assert SeparationResult(constant=result.constant, factors=result.factors, verified=True) == result
    assert SeparationResult(result.constant * 2, result.factors, True) != result


def _writes_its_initialiser(kind):
    """Whether the class's __init__ is written in its module, not generated by Record."""
    return kind.__init__.__code__.co_filename == inspect.getsourcefile(kind)


# every record class in the package whose initialiser Record generates
# from its __slots__: the AST nodes and the reports
_GENERATED = [kind for kind in Record.__subclasses__()
              if kind.__module__.startswith("varsep.") and not _writes_its_initialiser(kind)]


def test_only_partition_and_sample_grid_write_an_initialiser():
    assert "__init__" not in vars(Record)
    written = {kind.__name__ for kind in Record.__subclasses__() if _writes_its_initialiser(kind)}
    assert written == {"Partition", "SampleGrid"}
    assert {kind.__name__ for kind in _GENERATED} == {
        "Const", "Var", "Neg", "BinOp", "Call", "SepMatrixReport", "SeparationResult", "NumericVerdict"}


@pytest.mark.parametrize("kind", _GENERATED, ids=lambda kind: kind.__name__)
def test_reports_are_built_positionally_or_by_keyword(kind):
    names = kind.__slots__
    assert str(inspect.signature(kind)) == f"({', '.join(names)})"
    fields = [f"{name} {k}" for k, name in enumerate(names)]  # a distinct value per field
    record = kind(*fields)
    assert [getattr(record, name) for name in names] == fields
    assert kind(**dict(zip(names, fields))) == record
    assert kind(*fields[:1], **dict(zip(names[1:], fields[1:]))) == record
    if kind.__module__ != "varsep.expr":
        assert all(f"{name}: " in kind.__doc__ for name in names)  # a report's docstring types each field
    wrong_calls = [
        lambda: kind(*fields[:-1]),  # missing
        lambda: kind(**dict(zip(names[1:], fields[1:]))),  # missing, by keyword
        lambda: kind(*fields, **{names[0]: fields[0]}),  # repeated
        lambda: kind(*fields, unknown=1),  # unknown
        lambda: kind(*fields[:-1], unknown=1),  # unknown in place of a field
        lambda: kind(*fields, 1),  # one positional too many
    ]
    for call in wrong_calls:
        with pytest.raises(TypeError, match=rf"^{kind.__name__}\.__init__\(\) "):
            call()


@st.composite
def union_sequences(draw):
    n = draw(st.integers(0, 8))
    index = st.integers(0, max(n - 1, 0))
    return n, draw(st.lists(st.tuples(index, index), max_size=12 if n else 0))


def _components_by_search(n, edges):
    """The connected components of the graph on 0..n-1, by breadth-first search."""
    neighbours = {i: set() for i in range(n)}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen, components = set(), []
    for start in range(n):
        if start not in seen:
            seen.add(start)
            component = [start]
            for i in component:  # the list grows while it is walked: a queue
                for j in neighbours[i] - seen:
                    seen.add(j)
                    component.append(j)
            components.append(component)
    return components


@settings(max_examples=300, deadline=None)
@given(union_sequences())
def test_union_find_partition_is_the_normal_form_of_the_components(drawn):
    n, edges = drawn
    uf = UnionFind(n)
    for a, b in edges:
        assert uf.union(a, b) is None
    partition = uf.partition()
    assert partition == Partition.from_blocks(_components_by_search(n, edges))
    # the scan already gives sorted blocks in order of their smallest member
    assert partition.blocks == tuple(sorted((tuple(sorted(b)) for b in partition.blocks), key=min))
    assert all(type(b) is tuple for b in partition.blocks)


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


# --------------------------------------------------------------------- witnesses, certification and fresh points


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
    # the witnesses are a spanning forest of each block: taken in order,
    # every pair joins two components, and together they give the partition
    rng = random.Random(3141)
    checked = 0
    for _ in range(60):
        poly = random_pair_test_input(rng)
        report = finest_partition(poly)
        n = poly.var_count
        assert len(report.witnesses) == n - report.partition.block_count
        uf = UnionFind(n)
        for (i, j), point in report.witnesses.items():
            assert i < j
            assert uf.find(i) != uf.find(j), (poly, i, j)
            uf.union(i, j)
            assert all(c != 0 for c in point)
            assert evaluate(sep_matrix_entry(poly, i, j), point) != 0, (poly, i, j, point)
            checked += 1
        assert uf.partition() == report.partition
    assert checked > 0


def test_witnesses_are_deterministic():
    poly = P("(x1*x2 + 1)*(x3 + x4) + x1*x3", ("x1", "x2", "x3", "x4"))
    first, second = finest_partition(poly), finest_partition(poly)
    assert first.witnesses == second.witnesses
    assert list(first.witnesses.items()) == list(second.witnesses.items())
    assert first.witnesses


def test_witness_points_are_computed_once_per_variable_count():
    for n in (1, 2, 5):
        assert exact._witness_points(n) == exact._witness_points.__wrapped__(n)
        assert exact._witness_points(n) is exact._witness_points(n)


def test_not_separable_error_survives_a_pickle_round_trip():
    with pytest.raises(NotSeparableError) as info:
        separate_by_partition(parse_polynomial("x + y"), Partition.singletons(2))
    error = info.value
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is NotSeparableError and str(copy) == str(error)
    assert (copy.partition, copy.violation) == (error.partition, error.violation) == (Partition.singletons(2), (0, 0))


def test_a_fresh_point_witnesses_the_edge_both_fixed_points_miss(monkeypatch):
    # G_xy = -2*(x - 1) vanishes at every point with x = 1, so neither fixed
    # point witnesses the edge and the slice identity of the all-singletons
    # partition fails; a fresh point then witnesses the pair
    points = ((1, 3), (1, -5))
    monkeypatch.setattr(exact, "_witness_points", lambda n: points)
    poly = P("(x - 1)^2 + y")
    report = finest_partition(poly)
    assert report.partition.blocks == ((0, 1),)
    witness = report.witnesses[(0, 1)]
    assert witness not in points
    assert all(c != 0 for c in witness)
    assert evaluate(sep_matrix_entry(poly, 0, 1), witness) != 0


def test_the_pair_both_fixed_points_miss_is_witnessed_at_the_third_point(monkeypatch):
    # the (x, y) entry is a multiple of (x - a)*(x - b), with a and b the x
    # of the two fixed points, so only the first fresh point witnesses it
    calls = _second_arguments(monkeypatch, "_pair_sums")
    poly = P(both_points_miss_source())
    assert len(poly.terms) == 486
    report = finest_partition(poly)
    assert len(calls) == 3 and calls[:2] == list(exact._witness_points(6))
    assert report.partition.blocks == ((0, 1), (2,), (3,), (4,), (5,))
    assert report.witnesses == {(0, 1): calls[2]}


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


@st.composite
def block_products(draw):
    """Products of 1-4 factors over disjoint variable sets (n <= 6), some
    perturbed by one term that mixes two factors' variables."""
    n = draw(st.integers(1, 6))
    owner = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    names = tuple(f"x{i}" for i in range(n))
    poly = Polynomial.constant(1, names)
    for k in sorted(set(owner)):
        block = tuple(names[i] for i in range(n) if owner[i] == k)
        exps = st.tuples(*(st.integers(0, 2) for _ in block))
        terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
        poly = poly * embed(Polynomial(block, terms), names)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if owner[i] != owner[j]:
            cross = [0] * n
            cross[i], cross[j] = draw(st.integers(1, 2)), draw(st.integers(1, 2))
            poly = poly + Polynomial(names, {tuple(cross): draw(st.integers(-3, 3).filter(bool))})
    assume(not poly.is_zero)
    return poly


# coordinates of +-1 make pair values vanish often, so the second point
# and fresh points run too
_missing_points = st.lists(st.tuples(*[st.sampled_from((-1, 1))] * 6), min_size=2, max_size=2)


@st.composite
def hidden_edges(draw):
    """(F, points, 2): F = g(x_i, x_j) times nonzero univariate factors of
    the other variables (n >= 3), with g = c*(x_i - a)^2 + d*x_j^q and a the
    first point's x_i.  The pair value of (i, j) is a multiple of x_i - a, so
    it vanishes at the first point and not at the second: the identity fails
    on all singletons, then certifies {x_i, x_j} and singletons."""
    n = draw(st.integers(3, 6))
    nonzero = st.integers(-5, 5).filter(bool)
    first, second = draw(st.tuples(*[nonzero] * n)), draw(st.tuples(*[nonzero] * n))
    i, j, *others = draw(st.permutations(range(n)))
    a = first[i]
    assume(second[i] != a)
    names = tuple(f"x{k}" for k in range(n))
    c, d, q = draw(nonzero), draw(nonzero), draw(st.integers(1, 2))
    poly = embed(Polynomial((names[i], names[j]), {(2, 0): c, (1, 0): -2 * a * c, (0, 0): c * a * a, (0, q): d}), names)
    for k in others:
        terms = draw(st.dictionaries(st.integers(0, 2), st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
        assume(sum(coef * second[k] ** e for e, coef in terms.items()))
        poly = poly * embed(Polynomial((names[k],), {(e,): coef for e, coef in terms.items()}), names)
    return poly, (first, second), 2


@st.composite
def edges_hidden_at_both_points(draw):
    """(F, points, i, j): F = g(x_i, x_j) times univariate factors of the
    other variables, with g = c*(x_i - a)^2*(x_i - b)^2 + d*x_j^q and a != b
    the x_i of the two points in use, the fixed ones or drawn ones.  The
    pair value of (i, j) is a multiple of (x_i - a)*(x_i - b), so it
    vanishes at both points and only a fresh point can witness the edge.
    n = 2..4 keeps the symbolic reference cheap."""
    n = draw(st.integers(2, 4))
    nonzero = st.integers(-5, 5).filter(bool)
    points = draw(st.one_of(st.just(exact._witness_points(n)), st.tuples(*[st.tuples(*[nonzero] * n)] * 2)))
    i, j, *others = draw(st.permutations(range(n)))
    a, b = (point[i] for point in points)
    assume(a != b)
    names = tuple(f"x{k}" for k in range(n))
    pair = (names[i], names[j])
    c, d, q = draw(nonzero), draw(nonzero), draw(st.integers(1, 2))
    root_a, root_b = (Polynomial(pair, {(1, 0): 1, (0, 0): -r}) for r in (a, b))
    poly = embed(c * root_a**2 * root_b**2 + Polynomial(pair, {(0, q): d}), names)
    for k in others:
        terms = draw(st.dictionaries(st.integers(0, 2), st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
        poly = poly * embed(Polynomial((names[k],), {(e,): coef for e, coef in terms.items()}), names)
    return poly, points, min(i, j), max(i, j)


@settings(max_examples=100, deadline=None)
@given(edges_hidden_at_both_points())
def test_fresh_points_decide_an_edge_both_points_in_use_miss(case):
    poly, points, i, j = case

    def expanded(*args):
        raise AssertionError("finest_partition expanded a symbolic pair entry")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_witness_points", lambda n: points)
        patch.setattr(exact, "sep_matrix_entry", expanded)
        report = finest_partition(poly)
    assert any({i, j} <= set(block) for block in report.partition.blocks)
    assert report.witnesses[(i, j)] not in points
    for (k, l), point in report.witnesses.items():
        assert all(c != 0 for c in point)
        assert evaluate(sep_matrix_entry(poly, k, l), point) != 0, (poly, k, l, point)
    assert report.partition == symbolic_finest(poly)


def _second_arguments(monkeypatch, name):
    """Patch `exact.<name>` to record the second argument of each call: the
    point of `_pair_sums`, the partition of `_slice_identity`."""
    calls = []
    original = getattr(exact, name)

    def recording(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(exact, name, recording)
    return calls


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(block_products(), st.one_of(st.none(), _missing_points), st.just(0)), hidden_edges()))
def test_finest_partition_matches_the_oracle_that_reads_the_exit_rule_after_each_point(case):
    poly, points, certified = case
    points = exact._witness_points(poly.var_count) if points is None else [p[:poly.var_count] for p in points]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_witness_points", lambda n: points)
        partition, witnesses = oracle_witnessed_partition(poly)
        identities = _second_arguments(patch, "_slice_identity")
        drawn = _second_arguments(patch, "_pair_sums")
        report = finest_partition(poly)
    assert report.partition == partition == symbolic_finest(poly)
    assert list(report.witnesses.items()) == list(witnesses.items())
    # the identity runs at most once for each distinct witnessed partition,
    # and on at least `certified` of them; fresh points drawn count as points
    assert certified <= len(identities) == len(set(identities)) <= max(len(points), len(drawn))


@pytest.mark.parametrize("source, vars, points, certified", [
    ("(x1*x2 + 1)*(x3 + x4)", ("x1", "x2", "x3", "x4"), 1, [((0, 1), (2, 3))]),
    # the support is a product set, so the slice identity on singletons
    # certifies before any point is evaluated
    ("(x + 1)*(y - 2)*(z^2 + 3)", ("x", "y", "z"), 0, [((0,), (1,), (2,))]),
])
def test_a_first_point_whose_witnessed_partition_certifies_is_the_only_one(
    source, vars, points, certified, monkeypatch
):
    calls = _second_arguments(monkeypatch, "_pair_sums")
    identities = _second_arguments(monkeypatch, "_slice_identity")
    poly = P(source, vars)
    report = finest_partition(poly)
    assert calls == list(exact._witness_points(len(vars))[:points])
    assert [p.blocks for p in identities] == certified
    assert (report.partition, report.witnesses) == oracle_witnessed_partition(poly)


@st.composite
def univariate_products(draw):
    """(F, changed): F a product of one univariate in each of x0, ...,
    x{n-1}, n = 2..5, expanded term by term, so its support is a product
    set.  When `changed`, one coefficient is replaced by another nonzero
    value; each univariate then has two terms or more, so some 2x2 minor of
    the coefficient tensor through that term no longer vanishes and F is not
    totally separable, though its support is still a product set."""
    n = draw(st.integers(2, 5))
    changed = draw(st.booleans())
    coefficient = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    factors = [
        draw(st.dictionaries(st.integers(0, 3), coefficient, min_size=1 + changed, max_size=3))
        for _ in range(n)
    ]
    terms = {
        tuple(e for e, _ in choice): math.prod(c for _, c in choice)
        for choice in itertools.product(*(f.items() for f in factors))
    }
    if changed:
        key = draw(st.sampled_from(sorted(terms)))
        terms[key] = draw(st.integers(-9, 9).filter(lambda v: v and v != terms[key]))
    return Polynomial(tuple(f"x{i}" for i in range(n)), terms), changed


@settings(max_examples=200, deadline=None)
@given(univariate_products())
def test_a_product_set_support_is_certified_before_any_point_only_when_it_separates(case):
    poly, changed = case
    with pytest.MonkeyPatch.context() as patch:
        partition, witnesses = oracle_witnessed_partition(poly)
        points = _second_arguments(patch, "_pair_sums")
        report = finest_partition(poly)
    assert report.partition == partition
    assert list(report.witnesses.items()) == list(witnesses.items())
    if not changed:
        assert partition.is_all_singletons and witnesses == {} and points == []
        return
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["check", str(poly), "--vars", ",".join(poly.vars), "--format", "json"])
    payload = json.loads(out.getvalue())
    assert (code, payload["separable"], payload["partition"]) == (1, False, partition.name_blocks(poly.vars))
    # one witness per edge that joined two components, each inside a block
    # and checked on its own: the pair entry is nonzero at the witness point
    assert payload["witnesses"] == [
        {"pair": [poly.vars[i], poly.vars[j]], "point": list(point)} for (i, j), point in sorted(witnesses.items())
    ]
    block_of = {v: k for k, block in enumerate(partition.blocks) for v in block}
    for (i, j), point in witnesses.items():
        assert block_of[i] == block_of[j]
        fi = poly.partial_derivative(i)
        at = [evaluate(g, point) for g in (poly, fi.partial_derivative(j), fi, poly.partial_derivative(j))]
        assert at[0] * at[1] != at[2] * at[3]


def test_a_pair_inside_a_block_the_first_point_misses_needs_no_second_point(monkeypatch):
    # for g = x*y + y*z + x*z + 1 the pair entries are G_xy = 1 - z^2,
    # G_yz = 1 - x^2 and G_xz = 1 - y^2, so y = 1 hides the edge (x, z); the
    # first point still joins x, y, z through (x, y) and (y, z), and the
    # slice identity certifies {x,y,z} {w}, so the second point never runs
    first, second = (2, 1, 3, 5), (3, 2, 5, 7)
    monkeypatch.setattr(exact, "_witness_points", lambda n: (first, second))
    calls = _second_arguments(monkeypatch, "_pair_sums")
    poly = P("(x*y + y*z + x*z + 1)*(w + 2)", ("x", "y", "z", "w"))
    report = finest_partition(poly)
    assert calls == [first]
    assert report.partition.blocks == ((0, 1, 2), (3,))
    assert report.witnesses == {(0, 1): first, (1, 2): first}
    assert (report.partition, report.witnesses) == oracle_witnessed_partition(poly)


def test_one_block_after_the_first_point_stops_without_the_identity(monkeypatch):
    points = _second_arguments(monkeypatch, "_pair_sums")
    identities = _second_arguments(monkeypatch, "_slice_identity")
    report = finest_partition(P("x*y + y*z + 1"))
    first = exact._witness_points(3)[0]
    assert points == [first] and identities == []
    assert report.partition.blocks == ((0, 1, 2),)
    # (x, y) and (x, z) join all three, so (y, z) is never tested
    assert report.witnesses == {(0, 1): first, (0, 2): first}


@pytest.mark.parametrize("source, blocks", [("3", ()), ("x^2 + 1", ((0,),))])
def test_no_pair_means_no_point_no_witness_and_no_identity(source, blocks, monkeypatch):
    points = _second_arguments(monkeypatch, "_pair_sums")
    identities = _second_arguments(monkeypatch, "_slice_identity")
    report = finest_partition(P(source))
    assert report.partition.blocks == blocks and report.witnesses == {}
    assert points == [] and identities == []


@pytest.mark.parametrize("source, points, certified, blocks", [
    # x = 1 hides the edge (x, y) at both points: the same partition twice
    # gets one identity, which fails, and a fresh point joins x and y
    ("(x - 1)^2 + y", ((1, 3), (1, -5)), [((0,), (1,))], ((0, 1),)),
    # the first point leaves all singletons, the second joins x and y
    ("((x - 1)^2 + y)*(z + 1)", ((1, 3, 2), (2, 5, 3)), [((0,), (1,), (2,)), ((0, 1), (2,))], ((0, 1), (2,))),
])
def test_the_identity_runs_once_for_each_distinct_witnessed_partition(source, points, certified, blocks, monkeypatch):
    monkeypatch.setattr(exact, "_witness_points", lambda n: points)
    identities = _second_arguments(monkeypatch, "_slice_identity")
    report = finest_partition(P(source))
    assert [p.blocks for p in identities] == certified
    assert report.partition.blocks == blocks


def test_separate_by_partition_does_not_derive_the_finest_partition(monkeypatch):
    calls = []
    original = exact.finest_partition

    def counting(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(exact, "finest_partition", counting)
    result = separate_by_partition(FOUR_VAR_PRODUCT, Partition(((0, 1), (2, 3))))
    assert result.verified
    wrong = Partition(((0, 2), (1, 3)))
    with pytest.raises(NotSeparableError) as info:
        separate_by_partition(FOUR_VAR_PRODUCT, wrong)
    # the failure carries its evidence instead of deriving the finest partition
    assert calls == []
    assert info.value.partition == wrong
    assert info.value.violation == oracle_slice_identity(FOUR_VAR_PRODUCT, wrong)[2] == (1, 0, 1, 0)


def test_a_partition_over_another_variable_count_is_refused():
    with pytest.raises(ValueError) as info:
        separate_by_partition(P("x*y"), Partition(((0,),)))
    assert str(info.value) == "partition covers 1 variables, polynomial has 2"


# --------------------------------------------------------------------- coefficient route


def test_anomalous_precheck_examples():
    # an anomalous input lacks its leading product monomial x^N, so the
    # coefficient route refutes it; x*y has that monomial and is separable
    for source in ("x^2*y^4 + x^3*y^3", "x^3*y^3 + x*y^4"):
        p = P(source)
        assert degree_vector(p) not in p.terms, source
        assert coeff_criterion_total(p) is not None, source
    p = P("x*y")
    assert p.terms[degree_vector(p)] == 1
    assert coeff_criterion_total(p) is None


def test_coeff_criterion_accepts_reference_polynomials(p43, p234):
    assert coeff_criterion_total(p43) is None
    assert coeff_criterion_total(p234) is None


def test_coeff_criterion_rejects_mixed_quartic():
    violation = coeff_criterion_total(P("x^3*y + x^2*y^2 + x*y + y^2"))
    assert violation is not None
    assert violation <= (2, 2)


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
        assert coeff_criterion_total(P(source)) == violation == oracle_coeff_violation(P(source)), source


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
        product = product * embed(Polynomial((name,), terms), names)
    if kind == 2:
        exps = tuple(rng.randint(0, 3) for _ in names)
        delta = rng.choice((_random_coefficient(rng), -product.terms.get(exps, 0)))
        product = product + Polynomial(names, {exps: delta})
    elif kind == 3 and names:
        corner = degree_vector(product)
        product = product - Polynomial(names, {corner: product.terms.get(corner, 0)})
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
        expected = oracle_coeff_violation(poly)
        assert coeff_criterion_total(poly) == expected, poly
        if poly.var_count and degree_vector(poly) not in poly.terms:
            kinds["vanishing corner"] += 1
        singletons = Partition.singletons(poly.var_count)
        if expected is None:
            kinds["separable"] += 1
            result = separate_by_partition(poly, singletons)
            assert result.verified and remultiply(result, poly.vars) == poly
        else:
            with pytest.raises(NotSeparableError) as info:
                separate_by_partition(poly, singletons)
            assert (info.value.partition, info.value.violation) == (singletons, expected)
    assert tested >= 1000 and min(kinds.values()) >= 200, (tested, kinds)


def test_separate_total_on_a_sparse_high_degree_product_is_bounded():
    # the dense box of this 4-term input has 3001^2 entries
    start = time.perf_counter()
    result = separate_by_partition(P("x^3000*y^3000 + x^3000 + y^3000 + 1"), Partition.singletons(2))
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
    violation = coeff_criterion_total(poly)
    assert time.perf_counter() - start < 1.0
    assert violation == (0, 0, 0)


def test_route_equivalence_on_random_polynomials():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 3)
        p = rand_poly(rng, ("x", "y", "z")[:n], max_deg=4, max_terms=6, lo=-2, hi=2)
        by_matrix = finest_partition(p).partition.is_all_singletons
        by_coeffs = coeff_criterion_total(p) is None
        assert by_matrix == by_coeffs, p


# --------------------------------------------------------------------- total separation


def test_separate_total_reference(p43):
    result = separate_by_partition(p43, Partition.singletons(2))
    assert result.verified
    assert result.constant == 1
    assert result.factors[0][1] == P(P43_FACTOR_X)
    assert result.factors[1][1] == P(P43_FACTOR_Y)


def test_separate_total_three_variables(p234):
    result = separate_by_partition(p234, Partition.singletons(3))
    assert result.constant == 1
    for (block, factor), expected in zip(result.factors, P234_FACTORS):
        assert factor == P(expected)


def test_separate_total_moves_scalar_into_constant():
    result = separate_by_partition(P("6*x*y"), Partition.singletons(2))
    assert result.constant == 6
    assert result.factors[0][1] == P("x")
    assert result.factors[1][1] == P("y")


def test_separate_total_raises_on_non_separable():
    with pytest.raises(NotSeparableError) as info:
        separate_by_partition(P("x^2 + y^2"), Partition.singletons(2))
    assert info.value.violation == coeff_criterion_total(P("x^2 + y^2")) == (0, 0)


def test_separate_total_round_trip_randomized():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(2, 4)
        names = ("x1", "x2", "x3", "x4")[:n]
        product, constant, factors = rand_separable_product(rng, names)
        result = separate_by_partition(product, Partition.singletons(n))
        assert result.verified
        assert result.constant == constant
        for (_, recovered), original in zip(result.factors, factors):
            assert recovered == original


def test_factor_support_stays_inside_blocks():
    names = ("x", "y")
    result = separate_by_partition(P("6*x*y"), Partition.singletons(2))
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
        raw.append([substitute(FOUR_VAR_PRODUCT, {i: anchor[i] for i in range(4) if i not in block})
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
        poly = poly - Polynomial(poly.vars, {tuple(corner): poly.terms.get(tuple(corner), 0)})
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
        assert result.verified and remultiply(result, poly.vars) == poly
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
            if is_coarsening(candidate_partition, finest):
                result = separate_by_partition(product, candidate_partition)
                assert result.verified
                assert remultiply(result, product.vars) == product
            else:
                with pytest.raises(NotSeparableError):
                    separate_by_partition(product, candidate_partition)


def test_not_separable_error_carries_the_oracle_violation():
    # a failed separation carries the violation of the Fraction oracle, and
    # for singletons the coefficient route's violation as well
    rng = random.Random(2027)
    names = ("a", "b", "c", "d")
    kinds = Counter()
    for _ in range(400):
        n = rng.randint(2, 4)
        blocks = random_partition(rng, n, rng.randint(2, n))
        partition = Partition.from_blocks(blocks)
        if rng.random() < 0.2:
            poly = rand_block_separable(rng, names[:n], blocks)
        else:
            poly = rand_poly(rng, names[:n])
        violation = oracle_slice_identity(poly, partition)[2]
        if violation is None:
            kinds["separable"] += 1
            assert separate_by_partition(poly, partition).verified
            continue
        with pytest.raises(NotSeparableError) as info:
            separate_by_partition(poly, partition)
        assert (info.value.partition, info.value.violation) == (partition, violation), (poly, partition)
        if partition.is_all_singletons:
            kinds["singletons"] += 1
            assert info.value.violation == coeff_criterion_total(poly)
        else:
            kinds["blocks"] += 1
    assert min(kinds.values()) >= 60, kinds


# --------------------------------------------------------------------- the shared certificate


def _separation_or_violation(poly, partition):
    try:
        result = separate_by_partition(poly, partition)
    except NotSeparableError as error:
        assert error.partition == partition
        return error.violation
    return result.constant, result.factors


def _oracle_separation_or_violation(poly, partition):
    expected = oracle_slice_factors(poly, partition)
    if expected is None:
        return oracle_slice_identity(poly, partition)[2]
    return expected.constant, expected.factors


def test_interleaved_polynomials_and_partitions_get_their_own_certificates():
    names = ("x1", "x2", "x3", "x4")
    polys = [FOUR_VAR_PRODUCT, P("(x1 + 2)*(x2*x3 - 1)*(x4 + 3)", names)]
    partitions = [Partition(((0, 1), (2, 3))), Partition(((0,), (1, 2), (3,)))]
    expected = {(a, b): _oracle_separation_or_violation(polys[a], partitions[b]) for a in range(2) for b in range(2)}
    # two of the four pairs separate
    assert sum(isinstance(v, tuple) and isinstance(v[0], Fraction) for v in expected.values()) == 2
    for a, b in [(0, 0), (1, 0), (0, 1), (1, 1), (1, 1), (0, 0), (0, 1), (1, 0), (0, 0)]:
        assert _separation_or_violation(polys[a], partitions[b]) == expected[(a, b)], (a, b)
        assert coeff_criterion_total(polys[a]) == oracle_slice_identity(polys[a], Partition.singletons(4))[2]


def test_an_equal_but_distinct_polynomial_is_certified_afresh(monkeypatch):
    calls = _second_arguments(monkeypatch, "_slice_identity")
    source, names = "(x1*x2 + 1)*(x3 + x4)", ("x1", "x2", "x3", "x4")
    first, second = P(source, names), P(source, names)
    assert first == second and first is not second
    partition = Partition(((0, 1), (2, 3)))
    expected = _oracle_separation_or_violation(first, partition)
    assert _separation_or_violation(first, partition) == expected
    assert _separation_or_violation(first, partition) == expected
    assert len(calls) == 1
    assert _separation_or_violation(second, partition) == expected
    assert len(calls) == 2
    # the factor step: finest_partition certifies, separate_by_partition reuses it
    report = finest_partition(first)
    assert report.partition == partition
    assert _separation_or_violation(first, report.partition) == expected
    assert len(calls) == 3


def test_a_failing_partition_raises_the_same_violation_on_every_call():
    wrong = Partition(((0, 2), (1, 3)))
    violation = oracle_slice_identity(FOUR_VAR_PRODUCT, wrong)[2]
    for _ in range(3):
        with pytest.raises(NotSeparableError) as info:
            separate_by_partition(FOUR_VAR_PRODUCT, wrong)
        assert (info.value.partition, info.value.violation) == (wrong, violation)
    # a certified report of the same polynomial between the calls changes nothing
    assert finest_partition(FOUR_VAR_PRODUCT).partition == Partition(((0, 1), (2, 3)))
    with pytest.raises(NotSeparableError) as info:
        separate_by_partition(FOUR_VAR_PRODUCT, wrong)
    assert info.value.violation == violation


def test_threads_separating_their_own_polynomials_see_only_their_own_factors():
    # four threads, each with its own polynomial, interleaved by a short switch interval
    names = ("x", "y", "z")
    polys = [P(source, names) for source in (
        "(x + 1)*(y - 2)*(z + 3)", "(2*x^2 - 1)*(y^3 + y)*(5*z - 7)", "x + y*z", "(x^2 + 3)*(y*z - 1)")]
    partition = Partition.singletons(3)
    expected = [_oracle_separation_or_violation(poly, partition) for poly in polys]
    assert len({repr(e) for e in expected}) == len(polys)
    seen = [[] for _ in polys]
    start = threading.Barrier(len(polys))

    def work(k):
        start.wait(timeout=10)
        for _ in range(200):
            seen[k].append(_separation_or_violation(polys[k], partition))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(polys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so they interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(len(polys)):
        assert len(seen[k]) == 200 and all(result == expected[k] for result in seen[k]), k


# --------------------------------------------------------------------- integer slice identity

# small denominators and two large primes, so D can exceed 2^64
_DENOMINATORS = (1, 2, 3, 7, 12, 2**31 - 1, 2**61 - 1)


def _mixed_denominators(rng, poly):
    return Polynomial(poly.vars, {e: c / rng.choice(_DENOMINATORS) for e, c in poly.terms.items()})


def _check_against_the_fraction_oracle(poly, partition):
    """The integer identity on G = D*F against the Fraction identity on F:
    L and the slices divided by D, the violation, and the factors of
    separate_by_partition or the violation its failure carries."""
    scale, cleared = exact._cleared(poly)
    assert all(type(c) is int for c in cleared.values())
    leading, slices, violation = exact._slice_identity(cleared, partition)
    oracle_leading, oracle_slices, oracle_violation = oracle_slice_identity(poly, partition)
    assert Fraction(leading, scale) == oracle_leading
    assert [{k: Fraction(v, scale) for k, v in s.items()} for s in slices] == oracle_slices
    assert violation == oracle_violation
    expected = oracle_slice_factors(poly, partition)
    if partition.is_all_singletons:
        assert coeff_criterion_total(poly) == oracle_violation
    if expected is None:
        with pytest.raises(NotSeparableError) as info:
            separate_by_partition(poly, partition)
        assert info.value.violation == oracle_violation
    else:
        result = separate_by_partition(poly, partition)
        assert (result.constant, result.factors) == (expected.constant, expected.factors)
    return scale, oracle_leading, expected


def test_integer_slice_identity_matches_the_fraction_oracle_on_random_inputs():
    rng = random.Random(4099)
    kinds = Counter()
    for _ in range(400):
        poly, partition, _ = _random_partition_input(rng)
        if poly.is_zero:
            continue
        if rng.random() < 0.5:
            poly = _mixed_denominators(rng, poly)
        if rng.random() < 0.2:
            partition = Partition.singletons(poly.var_count)
        scale, leading, expected = _check_against_the_fraction_oracle(poly, partition)
        kinds["tested"] += 1
        kinds["separable" if expected is not None else "not separable"] += 1
        kinds["L = 0"] += leading == 0
        kinds["D > 2^64"] += scale > 2**64
        kinds["singletons"] += partition.is_all_singletons
    assert kinds["tested"] >= 350 and min(kinds.values()) >= 30, kinds


def test_integer_slice_identity_with_a_common_denominator_beyond_64_bits():
    names = ("x", "y", "z")
    poly = P(f"(x/{2**61 - 1} + 1/3)*(y^2 + y/{2**31 - 1})*(7*z + 1/1000000007)", names)
    scale, _, expected = _check_against_the_fraction_oracle(poly, Partition.singletons(3))
    assert scale > 2**64 and expected is not None
    assert remultiply(expected, names) == poly
    assert finest_partition(poly).partition.is_all_singletons
    # one perturbed term breaks the identity at the same index for F and D*F
    perturbed = poly + P(f"x*y/{2**61 - 1}", names)
    _check_against_the_fraction_oracle(perturbed, Partition.singletons(3))
    _check_against_the_fraction_oracle(perturbed, Partition(((0, 1), (2,))))
    assert coeff_criterion_total(perturbed) is not None


@pytest.mark.parametrize("source", ["5", "93.5", "843.5", "12781/7", "-2/3"])
def test_integer_slice_identity_on_a_constant(source):
    # no variables, so no blocks: the identity L^-1 * L == 1 holds at once
    poly = P(source)
    assert poly.var_count == 0
    expected = _check_against_the_fraction_oracle(poly, Partition.singletons(0))[2]
    assert expected.constant == poly.constant_value() and expected.factors == ()
    assert coeff_criterion_total(poly) is None


@pytest.mark.parametrize("source, vars, blocks", [
    ("x^2*y^4/3 + x^3*y^3/5", ("x", "y"), ((0,), (1,))),
    ("x^3*y^3/7 + x*y^4/2", ("x", "y"), ((0,), (1,))),
    ("x/3 + z/4", ("x", "y", "z"), ((0, 1), (2,))),
    ("x*y^2/5 + x^2*y/6 + z*y/7", ("x", "y", "z"), ((0, 2), (1,))),
])
def test_integer_slice_identity_on_a_vanishing_corner(source, vars, blocks):
    leading = _check_against_the_fraction_oracle(P(source, vars), Partition(blocks))[1]
    assert leading == 0


# --------------------------------------------------------------------- derivative refutation and identities


def test_non_separable_derivative_refutes_the_mixed_quartic():
    # every partial derivative of a separable function is separable
    poly = P("x^3*y + x^2*y^2 + x*y + y^2")
    second = poly.partial_derivative(0).partial_derivative(0)
    assert second == P("6*x*y + 2*y^2")
    assert finest_partition(second).partition.blocks == ((0, 1),)
    assert coeff_criterion_total(poly) is not None


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
            assert coeff_criterion_total(product.partial_derivative(i)) is None


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
    assert additive_separability(P("x^2 + y^2")) is True
    assert additive_separability(P("x*y")) is False
    assert additive_separability(P("x^3 + 2*y + 5")) is True


# --------------------------------------------------------------------- affine interplay


def test_affine_image_of_product_is_not_separable():
    # x*y under the rotation x -> x + y, y -> x - y
    image = P("(x + y)*(x - y)")
    assert finest_partition(image).partition.blocks == ((0, 1),)
    with pytest.raises(NotSeparableError):
        separate_by_partition(image, Partition.singletons(2))
