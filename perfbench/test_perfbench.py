"""Tests of the benchmark itself: seeding, the oracle, tracing, the deadline.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import signal
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import calib  # noqa: E402
import estimate  # noqa: E402
import gen  # noqa: E402
import layertrace  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import varsep  # noqa: E402
import varsep.cli  # noqa: E402


def _inputs(workload, seed, r=0):
    return [(q.cls, q.argv, q.source) for q in gen.round_queries(workload, seed, r)]


def test_same_seed_same_inputs_other_seed_other_inputs():
    for workload in gen.WORKLOADS:
        first = _inputs(workload, 11)
        assert first == _inputs(workload, 11)
        assert first != _inputs(workload, 12)
        assert first != _inputs(workload, 11, r=1)
        # every round of a workload has the same composition
        assert [cls for cls, _, _ in first] == [cls for cls, _, _ in _inputs(workload, 12)]


def test_generated_partitions_match_the_split_test():
    for q in gen.round_queries("pair-matrix", 3, 0):
        e = q.expect
        if len(e["names"]) <= 6:
            found = gen.finest_blocks(e["terms"])
            assert frozenset(frozenset(e["names"][i] for i in b) for b in found) == e["blocks"], q.cls


def test_canonical_text_round_trip():
    names = ("x", "y")
    terms = {(2, 1): Fraction(3, 2), (0, 1): -1, (0, 0): 7}
    poly = varsep.Polynomial(names, terms)
    assert gen.parse_canonical(str(poly), names) == terms


def _cli(query):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = varsep.cli.run(list(query.argv))
    return code, out.getvalue()


def test_oracle_accepts_right_answers_and_rejects_corrupted_ones():
    query = gen._ref("t.p43", "separate", gen.P43)
    code, out = _cli(query)
    assert oracle.judge_cli(query, code, out) is None
    payload = json.loads(out)
    payload["factors"][0] = payload["factors"][0].replace("+ 7", "+ 8")
    assert "differs" in oracle.judge_cli(query, code, json.dumps(payload))
    assert "exit code" in oracle.judge_cli(query, 1, "")

    check = gen._ref("t.p234", "check", gen.P234)
    code, out = _cli(check)
    assert oracle.judge_cli(check, code, out) is None
    payload = json.loads(out)
    payload["partition"] = [["x", "y"], ["z"]]
    assert "partition" in oracle.judge_cli(check, code, json.dumps(payload))


def test_oracle_checks_factor_products_by_evaluation():
    query = next(q for q in gen.round_queries("pair-matrix", 5, 0) if q.cls == "pm.n5.partial.factor")
    report, result = run.execute(varsep, query)
    assert oracle.judge_factor(query, report, result) is None
    bad = varsep.SeparationResult(result.constant * 2, result.factors, True)
    assert "differs" in oracle.judge_factor(query, report, bad)


def _clock(ticks):
    state = {"t": 0.0}

    def clock():
        state["t"] += ticks.pop(0) if ticks else 1.0
        return state["t"]

    return clock


def test_traced_self_times_sum_to_each_parent_span():
    tracer = layertrace.Tracer(clock=_clock([]))

    def leaf():
        tracer.clock()  # one tick of own work

    def middle():
        tracer.call("exact.leaf", "exact", leaf, (), {})
        tracer.clock()
        tracer.call("poly.leaf", "poly", leaf, (), {})

    tracer.call("bench.query", "bench", lambda: tracer.call("cli.middle", "cli", middle, (), {}), (), {})
    spans = tracer.spans
    total = {name: agg[1] for name, agg in spans.items()}
    own = {name: agg[2] for name, agg in spans.items()}
    assert own["cli.middle"] == total["cli.middle"] - total["exact.leaf"] - total["poly.leaf"]
    assert own["bench.query"] == total["bench.query"] - total["cli.middle"]
    assert sum(tracer.layer_self.values()) == total["bench.query"]


def test_installed_wrappers_account_for_a_real_query_and_come_off():
    originals = (varsep.exact.finest_partition, varsep.expr.eval_float, varsep.Polynomial.__mul__)
    tracer = layertrace.Tracer()
    installation = layertrace.Installation(tracer, layertrace.varsep_modules())
    try:
        query = gen._ref("t.n4", "check", gen.N4_40)
        tracer.call("bench.query", "bench", _cli, (query,), {})
        tracer.call("bench.query", "bench", _cli, (gen._cli("t.num", "numeric", "exp(x + y)*sin(z)", {}),), {})
    finally:
        installation.remove()
    assert (varsep.exact.finest_partition, varsep.expr.eval_float, varsep.Polynomial.__mul__) == originals
    root = tracer.spans["bench.query"][1]
    assert abs(sum(tracer.layer_self.values()) - root) < 1e-9 * max(root, 1.0)
    assert tracer.spans["exact.finest_partition"][0] == 1
    assert tracer.counts["exact.pair_entries"] == 10
    assert tracer.counts["numeric.evaluated"] > 0
    # eval_float is spanned at top level only, not once per recursive call
    assert tracer.counts["numeric.evaluated"] <= tracer.spans["expr.eval_float"][0] < 2 * tracer.counts["numeric.evaluated"]


def test_query_past_the_deadline_is_abandoned_and_counted_as_failed(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        normaliser = calib.Normaliser()
        runner = run.Runner(varsep, normaliser)
        query = gen.timeout_defects()[0]
        record = runner.run(query, 0)
        traced = runner.run(query, 0, traced=True)
        normaliser.finish()
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert record.kind == traced.kind == "deadline"
    assert record.wall_s < 2.0
    assert record.norm_s == 0.05
    assert varsep.expr.eval_float.__module__ == "varsep.expr"


def test_normaliser_scales_each_query_by_its_bracketing_samples():
    samples = iter([1e-3, 3e-3])
    normaliser = calib.Normaliser(sampler=lambda: next(samples))
    record = run.Record("t", 0, True, wall_s=2.0)
    normaliser.before_query()
    normaliser.add(record)
    normaliser.finish()
    assert record.scale == calib.NOMINAL_S / 2e-3


def test_quantile_estimates_match_known_values():
    uniform = [float(i) for i in range(1, 1001)]
    assert abs(estimate.quantile(uniform, 0.99) - 990.5) < 1e-6
    assert abs(estimate.quantile(uniform, 0.5) - 500.5) < 1e-6
    assert estimate.quantile([3.0] * 7, 0.9) == 3.0
    # integer case of the incomplete beta: P(Binomial(7, 0.3) >= 3)
    exact = sum(math.comb(7, k) * 0.3**k * 0.7 ** (7 - k) for k in range(3, 8))
    assert abs(estimate.beta_cdf(0.3, 3, 5) - exact) < 1e-12


def test_tail_percentiles_keep_ten_samples_beyond():
    assert estimate.tail([float(i) for i in range(1, 201)], 90)[1] == 20
    for p in (90, 99, run.TAIL_PERCENTILE):
        n = estimate.min_queries(p)
        assert estimate.tail([1.0] * n, p)[1] == 10
