"""The certificates of `check` and `separate`, re-verified by sympy from the
JSON the CLI prints.

The only varsep code called is `cli.run`, so neither `poly` nor `exact` takes
part in the checking.  Each input goes in as text with `--vars`, so the
coordinates of each witness point come in a known order.  F_i is dF/dx_i,
and the pair entry of x_i and x_j is F·F_ij − F_i·F_j.
"""

import contextlib
import io
import itertools
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from varsep.cli import run

sympy = pytest.importorskip("sympy")


def run_json(command, text, names):
    """The exit code and JSON payload of one CLI run; no payload when stdout is empty."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run([command, "--format", "json", "--vars", ",".join(names), "--", text])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def read(text, symbols):
    """Expression text of the CLI's grammar as an exact sympy expression."""
    return sympy.sympify(text.replace("^", "**"), locals=symbols, rational=True)


def check_certificate(text, names):
    """Run `check` on `text`, re-verify its JSON, and return the verdict."""
    symbols = {name: sympy.Symbol(name) for name in names}
    f = read(text, symbols)
    code, payload = run_json("check", text, names)
    blocks = payload["partition"]
    separable = code == 0
    assert payload["separable"] == separable == all(len(b) == 1 for b in blocks) == (payload["violation"] is None)
    block_of = {name: k for k, block in enumerate(blocks) for name in block}
    assert sorted(block_of) == sorted(names) and sum(map(len, blocks)) == len(names)

    def entry(x, y):
        fx, fy = f.diff(symbols[x]), f.diff(symbols[y])
        return f * fx.diff(symbols[y]) - fx * fy

    for x, y in itertools.combinations(names, 2):
        if block_of[x] != block_of[y]:
            assert sympy.expand(entry(x, y)) == 0, (text, x, y)
    # each witness is a nonzero entry at its point, and the witnessed pairs
    # join the variables of each block and no more
    joined = {name: {name} for name in names}
    for witness in payload["witnesses"]:
        x, y = witness["pair"]
        point = {symbols[name]: sympy.Integer(c) for name, c in zip(names, witness["point"])}
        assert entry(x, y).xreplace(point) != 0, (text, witness)
        union = joined[x] | joined[y]
        joined.update((name, union) for name in union)
    assert {frozenset(block) for block in blocks} == {frozenset(group) for group in joined.values()}
    return separable


def check_factors(text, names, separable):
    """Run `separate` on `text`.  On separable input, re-verify that the
    constant times the factors expands to F and that each factor lies in
    its block; on other input, expect exit 1 and no output."""
    symbols = {name: sympy.Symbol(name) for name in names}
    code, payload = run_json("separate", text, names)
    if not separable:
        assert (code, payload) == (1, None), text
        return
    assert code == 0, text
    assert sorted(name for block in payload["blocks"] for name in block) == sorted(names)
    factors = [read(factor, symbols) for factor in payload["factors"]]
    for block, factor in zip(payload["blocks"], factors, strict=True):
        assert factor.free_symbols <= {symbols[name] for name in block}, (text, block, factor)
    product = read(payload["constant"], symbols) * math.prod(factors)
    assert sympy.expand(product - read(text, symbols)) == 0, text


def _monomial(coefficient, names, exponents):
    powers = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e]
    return "*".join([str(coefficient), *powers])


@st.composite
def dealt_products(draw):
    """(names, text): 2-4 names in `--vars` order, dealt into 1-3 disjoint
    sets, one factor of degree at most 3 per set, their product, and
    sometimes one cross term over all the names added."""
    names = draw(st.lists(st.sampled_from("xyzwuv"), min_size=2, max_size=4, unique=True))
    owner = draw(st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names)))
    coefficients = st.sampled_from([c for c in range(-5, 6) if c])
    factors = []
    for k in sorted(set(owner)):
        block = [name for name, o in zip(names, owner) if o == k]
        exponents = st.tuples(*(st.integers(0, 3) for _ in block)).filter(lambda e: sum(e) <= 3)
        terms = draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=3))
        factors.append("(" + " + ".join(_monomial(c, block, e) for e, c in terms.items()) + ")")
    text = "*".join(factors)
    if draw(st.booleans()):
        exponents = draw(st.tuples(*(st.integers(0, 2) for _ in names)))
        text += " + " + _monomial(draw(coefficients), names, exponents)
    return names, text


@settings(max_examples=100, deadline=None)
@given(dealt_products())
def test_check_and_separate_certificates_hold_by_sympy(case):
    names, text = case
    assume(sympy.expand(read(text, {name: sympy.Symbol(name) for name in names})) != 0)
    check_factors(text, names, check_certificate(text, names))
