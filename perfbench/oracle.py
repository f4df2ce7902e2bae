"""Judging answers against the known answers fixed by the generator.

Factor products are checked by exact evaluation at seeded rational points,
with this benchmark's own evaluator over the factors' terms, so a wrong
factorization is caught whichever route produced it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from gen import Query, evaluate, parse_canonical

POINTS = 3


def _named(blocks) -> frozenset:
    return frozenset(frozenset(block) for block in blocks)


def _points(query: Query, names) -> list[dict]:
    rng = random.Random(query.cls)
    return [{v: Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for v in names} for _ in range(POINTS)]


def _product_mismatch(query: Query, constant: Fraction, factors) -> str | None:
    """factors: (variable names, terms) pairs; None when constant * product
    agrees with the expected polynomial at every seeded point."""
    names = query.expect["names"]
    expected = query.expect["terms"]
    for point in _points(query, names):
        want = evaluate(expected, tuple(point[v] for v in names))
        got = constant
        for vs, terms in factors:
            got *= evaluate(terms, tuple(point[v] for v in vs))
        if got != want:
            return f"factor product differs from the input at {point}"
    return None


def judge_cli(query: Query, code: int, out: str) -> str | None:
    """None when the exit code and JSON output are right, else the reason."""
    e = query.expect
    kind = e["kind"]
    want_code = 0
    if kind in ("check", "separate") and not e["separable"]:
        want_code = 1
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if want_code == 1 and kind == "separate":
        return None
    try:
        payload = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if kind == "check":
        if payload["separable"] is not e["separable"]:
            return f"separable={payload['separable']}"
        if _named(payload["partition"]) != e["blocks"]:
            return f"partition {payload['partition']}"
        if (payload["violation"] is None) != e["separable"]:
            return f"violation {payload['violation']}"
    elif kind == "partition":
        if _named(payload["blocks"]) != e["blocks"]:
            return f"partition {payload['blocks']}"
    elif kind == "separate":
        if payload["verified"] is not True or _named(payload["blocks"]) != e["blocks"]:
            return f"blocks {payload['blocks']} verified={payload['verified']}"
        factors = [(tuple(vs), parse_canonical(text, tuple(vs)))
                   for vs, text in zip(payload["blocks"], payload["factors"])]
        return _product_mismatch(query, Fraction(payload["constant"]), factors)
    elif kind == "additive":
        if payload["additively_separable"] is not e["additive"]:
            return f"additively_separable={payload['additively_separable']}"
    elif kind == "numeric":
        if payload["verdict"] != e["verdict"] or _named(payload["blocks"]) != e["blocks"]:
            return f"verdict {payload['verdict']} blocks {payload['blocks']}"
        if e["skipped"] and not payload["skipped"] > 0:
            return "no evaluation skipped on an input with domain gaps"
    return None


def judge_factor(query: Query, report, result) -> str | None:
    """The in-process factor step: finest partition report, then the
    SeparationResult of separate_by_partition."""
    e = query.expect
    names = report.names
    found = _named([names[i] for i in block] for block in report.partition.blocks)
    if found != e["blocks"]:
        return f"finest partition {sorted(map(sorted, found))}"
    if result.verified is not True:
        return "factorization not verified"
    if _named(factor.vars for _, factor in result.factors) != e["blocks"]:
        return "factor blocks differ from the partition"
    factors = [(factor.vars, factor.terms) for _, factor in result.factors]
    return _product_mismatch(query, result.constant, factors)
