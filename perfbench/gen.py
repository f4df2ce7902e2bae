"""Seeded query streams with answers fixed by construction.

Every input is built here from factors whose structure is known, with this
module's own integer polynomial arithmetic; varsep only ever sees the
generated expression strings.  Expected verdicts, partitions and factor
products therefore never come from the code under test.

A workload is an endless sequence of rounds, taken in cycles of TEMPLATES
rounds.  Every cycle of a workload has the same composition (the same query
classes, of the same cost, in the same order); only the seeded draws inside
each class differ between cycles and seeds, so figures over whole cycles are
comparable between runs.  Known defects that pass the deadline appear once
per cycle, the others in every round.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

Terms = dict  # exponent tuple -> nonzero int (or Fraction) coefficient

# ---------------------------------------------------------------- own exact arithmetic


def mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def product(factors: list[Terms], n: int) -> Terms:
    out: Terms = {(0,) * n: 1}
    for f in factors:
        out = mul(out, f)
    return out


def embed(terms: Terms, slots: tuple[int, ...], n: int) -> Terms:
    """Place a factor over len(slots) variables into n-variable exponent space."""
    out = {}
    for exps, c in terms.items():
        full = [0] * n
        for slot, e in zip(slots, exps):
            full[slot] = e
        out[tuple(full)] = c
    return out


def evaluate(terms: Terms, point: tuple) -> Fraction:
    total = Fraction(0)
    for exps, c in terms.items():
        value = Fraction(c)
        for x, e in zip(point, exps):
            if e:
                value *= x**e
        total += value
    return total


def rank_at_most_one(terms: Terms, left: frozenset) -> bool:
    """True when the coefficient matrix with rows indexed by the monomial in
    the `left` variables and columns by the rest has rank <= 1, i.e. when the
    polynomial factors across that split."""
    n = len(next(iter(terms)))
    matrix: dict[tuple, dict[tuple, int]] = {}
    for exps, c in terms.items():
        row = tuple(exps[i] for i in range(n) if i in left)
        col = tuple(exps[i] for i in range(n) if i not in left)
        matrix.setdefault(row, {})[col] = c
    rows = list(matrix.values())
    ref = rows[0]
    (c0, v0), = itertools.islice(ref.items(), 1)
    for row in rows[1:]:
        if row.keys() != ref.keys():
            return False
        # every 2x2 minor through (ref, c0) vanishes
        w0 = row[c0]
        if any(row[c] * v0 != w0 * ref[c] for c in ref):
            return False
    return True


def finest_blocks(terms: Terms) -> frozenset:
    """Finest separating partition by exhaustive split tests (small n only).

    Two variables share a block exactly when no two-block split that
    separates them is valid, since valid partitions are closed under common
    refinement.
    """
    n = len(next(iter(terms)))
    together = [[True] * n for _ in range(n)]
    for size in range(1, n):
        for left in itertools.combinations(range(n), size):
            if 0 not in left:
                continue
            lset = frozenset(left)
            if rank_at_most_one(terms, lset):
                for i in range(n):
                    for j in range(n):
                        if (i in lset) != (j in lset):
                            together[i][j] = False
    blocks, seen = [], set()
    for i in range(n):
        if i not in seen:
            block = frozenset(j for j in range(n) if together[i][j])
            seen |= block
            blocks.append(block)
    return frozenset(blocks)


def nonseparable(terms: Terms) -> bool:
    """True when the polynomial factors across no split of its variables."""
    n = len(next(iter(terms)))
    if n == 1:
        return any(exps[0] for exps in terms)
    return finest_blocks(terms) == frozenset([frozenset(range(n))])


def to_text(names: tuple[str, ...], terms: Terms, rng: random.Random | None = None) -> str:
    """Expanded expression text; term order shuffled when an rng is given."""
    items = sorted(terms.items(), key=lambda kv: (-sum(kv[0]), kv[0]))
    if rng is not None:
        rng.shuffle(items)
    pieces = []
    for exps, c in items:
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


def parse_canonical(text: str, names: tuple[str, ...]) -> Terms:
    """Read varsep's canonical polynomial text (e.g. "3/2*x^2*y - y + 7")
    over the given variables; coefficients become Fractions."""
    where = {name: i for i, name in enumerate(names)}
    out: Terms = {}
    sign = 1
    tokens = text.split(" ")
    for tok in tokens:
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coef = Fraction(1)
        exps = [0] * len(names)
        for part in tok.split("*"):
            if part[0].isdigit():
                coef *= Fraction(part)
            else:
                name, _, power = part.partition("^")
                exps[where[name]] += int(power) if power else 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coef
        sign = 1
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------- queries


@dataclass(frozen=True)
class Query:
    """One request.  `argv` goes to varsep.cli.run; a query with `source` and
    no argv is the in-process factor step (parse, finest partition, then
    separate_by_partition).  `expect` holds the known answer."""

    cls: str
    argv: tuple[str, ...] = ()
    source: str = ""
    expect: dict = field(default_factory=dict, compare=False)
    known_defect: str = ""


def _cli(cls, command, text, expect, *extra, defect=""):
    # "--" ends the options, so an expression with a leading minus stays an expression
    return Query(cls=cls, argv=(command, "--format", "json", *extra, "--", text), expect=expect, known_defect=defect)


def _exact_queries(rng, cls, kinds, names, terms, blocks, defect=""):
    """check / partition / separate / factor queries on one polynomial."""
    text = to_text(names, terms, rng)
    named = frozenset(frozenset(names[i] for i in b) for b in blocks)
    total = all(len(b) == 1 for b in blocks)
    base = {"names": names, "terms": terms, "blocks": named, "separable": total}
    out = []
    for kind in kinds:
        if kind == "factor":
            out.append(Query(cls=f"{cls}.factor", source=text, expect={"kind": "factor", **base}))
        else:
            out.append(_cli(f"{cls}.{kind}", kind, text, {"kind": kind, **base}, defect=defect))
    return out


def _nonzero(rng, lo=-5, hi=5):
    c = 0
    while c == 0:
        c = rng.randint(lo, hi)
    return c


def _univariate(shape_rng, rng, nterms, max_deg=3):
    degrees = shape_rng.sample(range(max_deg + 1), nterms)
    if max(degrees) == 0:
        degrees[0] = shape_rng.randint(1, max_deg)
    return {(d,): _nonzero(rng) for d in degrees}


def _block_factor(shape_rng, rng, k, nterms):
    """Polynomial over k variables with nterms monomials of total degree 1
    to 3 that factors across no split of its variables.  The monomials come
    from shape_rng, the coefficients from rng."""
    while True:
        monomials = set()
        while len(monomials) < nterms:
            exps = [0] * k
            for _ in range(shape_rng.randint(1, 3)):
                exps[shape_rng.randrange(k)] += 1
            monomials.add(tuple(exps))
        for _ in range(20):
            terms = {m: _nonzero(rng) for m in sorted(monomials)}
            if nonseparable(terms):
                return terms


def _pair_product(shape_rng, rng, n, shape):
    """Expanded product of block factors over n variables.  `shape` lists
    (block size, term count) per factor; variables are dealt to blocks at
    random.  Returns (terms, blocks), blocks as tuples of variable indexes.
    Factors in disjoint variables never cancel, so the product has exactly
    the product of the term counts."""
    order = list(range(n))
    rng.shuffle(order)
    blocks, factors, at = [], [], 0
    for size, nterms in shape:
        block = tuple(sorted(order[at:at + size]))
        at += size
        if size == 1:
            f = _univariate(shape_rng, rng, nterms)
        else:
            f = _block_factor(shape_rng, rng, size, nterms)
        blocks.append(block)
        factors.append(embed(f, block, n))
    return product(factors, n), blocks


# Fixed factor shapes per class, (block size, term count) per factor, so that
# a class costs about the same in every cycle and for every seed.  Sizes keep
# the slowest ordinary query (a factor step, which derives the finest
# partition twice) several times below the deadline.
TEMPLATES = 3
PAIR_SHAPES = {
    3: {"one": [(3, 4)], "partial": [(2, 3), (1, 3)], "total": [(1, 4), (1, 3), (1, 3)]},
    4: {"one": [(4, 5)], "partial": [(2, 3), (1, 3), (1, 2)], "total": [(1, 3), (1, 3), (1, 2), (1, 2)]},
    5: {"one": [(5, 6)], "partial": [(2, 3), (2, 3), (1, 3)], "total": [(1, 3), (1, 3), (1, 2), (1, 2), (1, 1)]},
    6: {"one": [(6, 7)], "partial": [(3, 4), (2, 3), (1, 2)],
        "total": [(1, 3), (1, 2), (1, 2), (1, 2), (1, 1), (1, 1)]},
    7: {"total": [(1, 2), (1, 2), (1, 2), (1, 2), (1, 2), (1, 1), (1, 1)]},
    8: {"total": [(1, 2), (1, 2), (1, 2), (1, 2), (1, 2), (1, 1), (1, 1), (1, 1)]},
}


# Reference inputs from the project's roadmap, under fixed ids.
def _fixed_product(univariates, names):
    n = len(names)
    return product([embed(dict(f), (i,), n) for i, f in enumerate(univariates)], n)


P43 = (("x", "y"), [{(4,): 1, (3,): -3, (2,): 5, (1,): 2, (0,): 7}, {(3,): 1, (2,): 2, (1,): -1, (0,): 3}])
P234 = (("x", "y", "z"), [{(2,): 1, (1,): 2, (0,): 3}, {(3,): 1, (1,): 1}, {(4,): 1, (1,): 2}])
N4_40 = (
    ("x1", "x2", "x3", "x4"),
    [{(1,): 1, (0,): 1}, {(1,): 1, (0,): -2}, {(2,): 1, (0,): 3},
     {(4,): 1, (3,): -1, (2,): 2, (1,): -3, (0,): 5}],
)
N6_72 = (
    ("x1", "x2", "x3", "x4", "x5", "x6"),
    [{(1,): 1, (0,): 1}, {(1,): 1, (0,): -2}, {(1,): 1, (0,): 3},
     {(2,): 1, (1,): -1, (0,): 2}, {(3,): 1, (1,): 2, (0,): -1}, {(2,): 1}],
)
N8_864 = (
    ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8"),
    [{(1,): 1, (0,): 1}, {(1,): 1, (0,): -1}, {(1,): 1, (0,): 2}, {(1,): 1, (0,): -2},
     {(1,): 1, (0,): 3}, {(2,): 1, (1,): 1, (0,): 1}, {(2,): 1, (1,): -2, (0,): 3},
     {(3,): 1, (1,): 1, (0,): -2}],
)


def _ref(cls, command, spec, defect=""):
    names, univariates = spec
    terms = _fixed_product(univariates, names)
    blocks = [(i,) for i in range(len(names))]
    (q,) = _exact_queries(random.Random(cls), cls, (command,), names, terms, blocks, defect)
    return Query(cls=cls, argv=q.argv, expect=q.expect, known_defect=defect)


def _dense_sum(rng, a, b):
    """Expanded product of two dense univariates: a*b terms."""
    return mul(embed(_dense_univariate(rng, a - 1), (0,), 2), embed(_dense_univariate(rng, b - 1), (1,), 2))


@functools.cache
def reference_queries() -> tuple[Query, ...]:
    """The roadmap's reference inputs under fixed ids, the same for every seed."""
    sum432 = _dense_sum(random.Random("ref-sum432"), 24, 18)
    return (
        _ref("ref-p43", "partition", P43),
        _ref("ref-p234", "partition", P234),
        _ref("ref-n4-40", "partition", N4_40),
        _ref("ref-n6-72", "partition", N6_72),
        _ref("ref-n8-864", "partition", N8_864, defect="deadline: pair matrix on 864 terms in 8 variables"),
        _ref("ref-n8-864-separate", "separate", N8_864),
        *_exact_queries(random.Random("ref-sum432"), "ref-sum432", ("separate",), ("x", "y"), sum432, [(0,), (1,)]),
        _cli("ref-exp-xy-sin-z", "numeric", "exp(x + y)*sin(z)", _numeric_expect(("x", "y", "z"), [(0,), (1,), (2,)])),
    )


def pair_matrix_round(shape: random.Random, rng: random.Random, r: int) -> list[Query]:
    out = []
    classes = [(n, structure, kind) for n in (3, 4, 5, 6) for structure in ("one", "partial", "total")
               for kind in ("check", "partition", "factor")]
    # heavy tail: totally separable products in 7 and 8 variables
    classes += [(7, "total", "check"), (8, "total", "partition")]
    for n, structure, kind in classes:
        cls = f"pm.n{n}.{structure}"
        # a template generator per class, so that a retry in one class cannot
        # shift the monomials of the next
        shape_rng = random.Random(f"{cls}.{kind}/{r % TEMPLATES}")
        terms, blocks = _pair_product(shape_rng, rng, n, PAIR_SHAPES[n][structure])
        out += _exact_queries(rng, cls, (kind,), tuple(f"x{i + 1}" for i in range(n)), terms, blocks)
    refs = {q.cls: q for q in reference_queries()}
    out += [refs[cls] for cls in ("ref-p43", "ref-p234", "ref-n4-40")]
    # the two slowest references once per cycle
    if r % TEMPLATES < 2:
        out.append(refs[("ref-n8-864", "ref-n6-72")[r % TEMPLATES]])
    return out


# ---------------------------------------------------------------- coefficient workload


def _sparse_univariate(shape, rng, degree, nterms):
    lower = set()
    while len(lower) < nterms - 1:
        lower.add(min(degree - 1, int(math.exp(shape.uniform(0, math.log(degree))))))
    terms = {(degree,): _nonzero(rng)}
    for d in lower:
        terms[(d,)] = _nonzero(rng)
    return terms


def _dense_univariate(rng, degree):
    return {(d,): _nonzero(rng, -9, 9) for d in range(degree + 1)}


def _jitter(shape, value, spread=0.2):
    """Per-template spread around a ladder level, so that the costs of the
    three templates fill the steps between levels."""
    return max(2, int(round(value * shape.uniform(1 - spread, 1 + spread))))


def _separable_sparse(shape, rng, names, degrees):
    n = len(names)
    return product([embed(_sparse_univariate(shape, rng, d, 3), (i,), n) for i, d in enumerate(degrees)], n)


def _perturbed(rng, base):
    """Add one cross term in the middle of the degree box so the polynomial
    stops factoring; a coefficient scan in index order meets it half way.
    Non-separability is confirmed by this module's own split test."""
    n = len(next(iter(base)))
    degrees = [max(e[i] for e in base) for i in range(n)]
    middle = [max(1, d // 2) for d in degrees]
    for shift in itertools.count():
        terms = dict(base)
        exps = tuple(middle[:-1] + [middle[-1] + shift])
        terms[exps] = terms.get(exps, 0) + _nonzero(rng)
        terms = {k: c for k, c in terms.items() if c}
        if not rank_at_most_one(terms, frozenset([0])):
            return terms


X3000 = {(3000, 3000): 1, (3000, 0): 1, (0, 3000): 1, (0, 0): 1}


def timeout_defects() -> list[Query]:
    names = ("x", "y")
    blocks = frozenset([frozenset(["x"]), frozenset(["y"])])
    expect = {"kind": "separate", "names": names, "terms": X3000, "blocks": blocks, "separable": True}
    return [
        _cli("cd.defect-x3000-separate", "separate", to_text(names, X3000), expect,
             defect="deadline: dense coefficient box of 3001^2 entries"),
        _cli("cd.defect-power-1e8", "additive", "x^100000000 + y", {"kind": "additive", "additive": True},
             defect="deadline: x^100000000 multiplied out one factor at a time"),
    ]


# Degree ladders: geometric, spread between the templates.  The gap between the top of
# the 2-variable ladder and the 3000-degree defect keeps every ordinary
# query far below the deadline and the defect far above it.
LADDER_2 = [10 * (16 ** (k / 7)) for k in range(8)]  # 10 .. 160
LADDER_3 = [5 * (5 ** (k / 3)) for k in range(4)]  # 5 .. 25
DENSE_SUMS = [(20, 15), (24, 18)]  # 300 and 432 terms
LONG_SUMS = [(50, 26), (50, 40)]  # 1300 and 2000 terms: parser recursion defect
POWERS = [100, 1000, 10000]


def coeff_degree_round(shape: random.Random, rng: random.Random, r: int) -> list[Query]:
    out = []
    xy = ("x", "y")
    for k, level in enumerate(LADDER_2):
        terms = _separable_sparse(shape, rng, xy, [_jitter(shape, level), _jitter(shape, level)])
        out += _exact_queries(rng, f"cd.sparse2.L{k}", ("separate", "check"), xy, terms, [(0,), (1,)])
        if k % 2:
            bad = _perturbed(rng, terms)
            out += _exact_queries(rng, f"cd.perturbed2.L{k}", ("separate", "check"), xy, bad, [(0, 1)])
    xyz = ("x", "y", "z")
    for k, level in enumerate(LADDER_3):
        terms = _separable_sparse(shape, rng, xyz, [_jitter(shape, level) for _ in xyz])
        out += _exact_queries(rng, f"cd.sparse3.L{k}", ("separate", "check"), xyz, terms, [(0,), (1,), (2,)])
    # x-factor times a non-factoring (y, z) block
    d = _jitter(shape, LADDER_3[2])
    fx = embed(_sparse_univariate(shape, rng, d, 3), (0,), 3)
    yz = _perturbed(rng, _separable_sparse(shape, rng, ("y", "z"), [d, d]))
    out += _exact_queries(rng, "cd.perturbed3", ("separate", "check"), xyz, mul(fx, embed(yz, (1, 2), 3)), [(0,), (1, 2)])
    for a, b in DENSE_SUMS:
        out += _exact_queries(rng, f"cd.dense{a * b}", ("separate",), xy, _dense_sum(rng, a, b), [(0,), (1,)])
    for a, b in LONG_SUMS:
        out += _exact_queries(rng, f"cd.defect-sum{a * b}", ("separate",), xy, _dense_sum(rng, a, b), [(0,), (1,)],
                              defect="exception: RecursionError on a sum of 990 or more terms")
    for k, p in enumerate(POWERS):
        a, b = _jitter(shape, p), _jitter(shape, p)
        out.append(_cli(f"cd.power.P{k}", "additive", f"x^{a} + {_nonzero(rng)}*y^{b} - 2",
                        {"kind": "additive", "additive": True}))
        out.append(_cli(f"cd.power-cross.P{k}", "additive", f"x^{a}*y + y^{b}",
                        {"kind": "additive", "additive": False}))
    # the defects that pass the deadline: one per round, each once per cycle
    defects = timeout_defects()
    if r % TEMPLATES < len(defects):
        out.append(defects[r % TEMPLATES])
    return out


# ---------------------------------------------------------------- numeric workload


def _coef(rng):
    return round(rng.choice((-1, 1)) * rng.uniform(0.5, 1.5), 2)


def _lin(rng, names):
    text = ""
    for name in names:
        c = _coef(rng)
        sign = ("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")
        text += f"{sign}{abs(c)}*{name}"
    return text


def _uni_fn(shape, rng, v):
    a = abs(_coef(rng))
    return shape.choice((
        f"sin({a}*{v} + 0.3)",
        f"cos({a}*{v})",
        f"exp({a}*{v})",
        f"(2 + {v}^2)",
        f"(1.5 + cos({v}))",
        f"(abs({v}) + 0.5)",
    ))


def _multi_fn(shape, rng, vs):
    lin = _lin(rng, vs)
    return shape.choice((
        f"sin({lin})",
        f"cos({lin})",
        f"ln(2 + ({lin})^2)",
        f"(1/(1 + ({lin})^2))",
        f"(({lin})^2 + 1)",
    ))


def _numeric_expect(names, blocks, skipped=False):
    named = frozenset(frozenset(names[i] for i in b) for b in blocks)
    n = len(names)
    if all(len(b) == 1 for b in blocks):
        verdict = "separable"
    elif len(blocks) == 1 and n > 1:
        verdict = "not separable"
    else:
        verdict = "partition"
    return {"kind": "numeric", "blocks": named, "verdict": verdict, "skipped": skipped}


def _numeric_product(shape, rng, n, structure):
    names = tuple("xyzuvw"[:n])
    order = list(range(n))
    rng.shuffle(order)
    count = {"one": 1, "total": n}.get(structure) or shape.randint(2, n - 1)
    cuts = sorted(shape.sample(range(1, n), count - 1))
    blocks = [tuple(sorted(order[a:b])) for a, b in zip([0] + cuts, cuts + [n])]
    parts = []
    for block in blocks:
        vs = [names[i] for i in block]
        parts.append(_uni_fn(shape, rng, vs[0]) if len(vs) == 1 else _multi_fn(shape, rng, vs))
    return names, blocks, "*".join(parts)


# queries per round by variable count: most numeric queries are small
NUMERIC_MIX = {2: 8, 3: 8, 4: 4, 5: 2, 6: 2}


def numeric_round(shape: random.Random, rng: random.Random, r: int) -> list[Query]:
    out = [
        _cli("nb.c8-quotient", "numeric", "sin(x)/cos(y)",
             _numeric_expect(("x", "y"), [(0,), (1,)]), "--grid", "x=-1.2:1.2:9", "--grid", "y=-1.2:1.2:9"),
        _cli("nb.c8-squares", "numeric", "x^2 + y^2",
             _numeric_expect(("x", "y"), [(0, 1)]), "--grid", "x=-1.2:1.2:9", "--grid", "y=-1.2:1.2:9"),
        next(q for q in reference_queries() if q.cls == "ref-exp-xy-sin-z"),
    ]
    for n, count in NUMERIC_MIX.items():
        structures = ("total", "one", "partial") if n > 2 else ("total", "one")
        for k in range(count):
            structure = structures[k % len(structures)]
            names, blocks, text = _numeric_product(shape, rng, n, structure)
            out.append(_cli(f"nb.n{n}.{structure}", "numeric", text, _numeric_expect(names, blocks)))
    # non-separable sums of univariate functions
    for n in (2, 3, 4):
        names = tuple("xyzuvw"[:n])
        text = " + ".join(_uni_fn(shape, rng, v) for v in names)
        out.append(_cli(f"nb.sum{n}", "numeric", text, _numeric_expect(names, [tuple(range(n))])))
    # domain gaps: ln of negative grid values, division by a grid zero
    names = ("x", "y", "z")
    out.append(_cli("nb.gap-ln", "numeric", f"ln(x + 1)*{_multi_fn(shape, rng, ['y', 'z'])}",
                    _numeric_expect(names, [(0,), (1, 2)], skipped=True)))
    out.append(_cli("nb.gap-div", "numeric", f"{_uni_fn(shape, rng, 'x')}*{_multi_fn(shape, rng, ['y', 'z'])}/z",
                    _numeric_expect(names, [(0,), (1, 2)], skipped=True), "--grid", "z=-1:1:9"))
    out.append(_cli("nb.gap-ln-sum", "numeric", f"ln(2 + x + y)*{_uni_fn(shape, rng, 'z')}",
                    _numeric_expect(names, [(0, 1), (2,)], skipped=True)))
    # tan over a custom grid that straddles its poles at +-pi/2
    a = abs(_coef(rng))
    out.append(_cli("nb.tan-grid", "numeric", f"tan(x)*{_uni_fn(shape, rng, 'y')}",
                    _numeric_expect(("x", "y"), [(0,), (1,)]), "--grid", "x=-2:2:11", "--grid", f"y=-{a}:{a}:7"))
    return out


WORKLOADS = {
    "pair-matrix": pair_matrix_round,
    "coeff-degree": coeff_degree_round,
    "numeric-blackbox": numeric_round,
}


def round_queries(workload: str, seed: int, r: int) -> list[Query]:
    """The r-th round of a workload's stream for a seed.

    Two generators feed a round: `shape`, the same for every seed, draws
    what sets a query's cost (monomial structure, degrees, function forms),
    from one of TEMPLATES fixed draws taken in turn by successive rounds;
    `rng`, from the seed, draws coefficients, the dealing of variables to
    blocks and the order of terms."""
    shape = random.Random(f"{workload}/template/{r % TEMPLATES}")
    rng = random.Random(f"{workload}/{seed}/{r}")
    return WORKLOADS[workload](shape, rng, r)
