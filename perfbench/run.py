"""varsep benchmark: seeded query streams through varsep's public entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pair-matrix --seed 1 --seconds 13 --trace 0

A run executes whole cycles of rounds until `--seconds` reference seconds
(kernel-normalised, see calib.py) of query time have been spent.
`--workload all` runs every workload in turn.  With `--trace 0` the last
line of standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run instead.  The
lines before it repeat every metric by name and unit, with diagnostics.

Load model: closed loop, one client, no threads.  Queries go to
`varsep.cli.run(argv)` in-process, plus the factor step
(`parse_polynomial`, `exact.finest_partition`, `exact.separate_by_partition`),
which the CLI does not expose.  See README.md in this directory for the
workloads and the reasons behind them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import calib
import estimate
import gen
import oracle
import layertrace

# Per-query deadline in reference seconds (kernel-normalised), enforced with
# a wall-clock interval timer rescaled by the latest kernel sample.  Input
# sizes keep the slowest ordinary query several times below it, and the
# known defects take many times longer, so no query's fate hangs on the
# machine's speed.
DEADLINE_S = 2.0
SETUP_CHILDREN = 9
IMPORT_CHILDREN = 3
# Tail percentile: the highest of p99 and p90 that has at least 10 samples
# beyond it at the workloads' query counts (about 250 to 900 per run at
# --seconds 13).  It is fixed, and a run goes on until 10 samples lie beyond
# it, so that a faster commit cannot switch to another percentile.
TAIL_PERCENTILE = 90

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in varsep catches it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Record:
    """One query's outcome; it keeps the query's ids, not its inputs."""

    cls: str
    round: int
    cli: bool
    known_defect: str = ""
    wall_s: float = 0.0
    scale: float = 1.0
    kind: str = "ok"  # ok | wrong | exception | deadline
    detail: str = ""
    spans: dict = field(default_factory=dict)
    layer_self: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def norm_s(self) -> float:
        # an abandoned query used up exactly its budget of reference seconds
        return DEADLINE_S if self.kind == "deadline" else self.wall_s * self.scale


# ---------------------------------------------------------------- queries


def execute(varsep, query: gen.Query):
    """Send one query to varsep; returns what the oracle needs to judge it."""
    if query.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = varsep.cli.run(list(query.argv))
        return code, out.getvalue()
    poly = varsep.parse_polynomial(query.source)
    report = varsep.exact.finest_partition(poly)
    return report, varsep.exact.separate_by_partition(poly, report.partition)


class Runner:
    def __init__(self, varsep, normaliser: calib.Normaliser):
        self.varsep = varsep
        self.normaliser = normaliser
        self.tracer = layertrace.Tracer()
        # reference seconds of query time so far, each query scaled by the
        # kernel sample before it (its final scale needs the sample after)
        self.spent_s = 0.0

    def run(self, query: gen.Query, r: int, traced: bool = False) -> Record:
        record = Record(query.cls, r, bool(query.argv), query.known_defect)
        self.normaliser.before_query()
        wall_deadline = DEADLINE_S * self.normaliser.current / calib.NOMINAL_S
        if traced:
            installation = layertrace.Installation(self.tracer, layertrace.varsep_modules())
            self.tracer.begin_query()
        outcome = None
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, wall_deadline)
                if traced:
                    outcome = self.tracer.call("bench.query", "bench", execute, (self.varsep, query), {})
                else:
                    outcome = execute(self.varsep, query)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                record.wall_s = time.perf_counter() - start
        except DeadlineExceeded:
            record.kind, record.detail = "deadline", f"abandoned after {DEADLINE_S} s (reference)"
        except Exception as exc:  # an uncaught exception is a failed query, not a crash of the benchmark
            record.kind, record.detail = "exception", f"{type(exc).__name__}: {str(exc)[:120]}"
        if traced:
            installation.repair()
            installation.remove()
            record.spans = dict(self.tracer.spans)
            record.layer_self = dict(self.tracer.layer_self)
            record.counts = dict(self.tracer.counts)
        if record.kind == "deadline":
            self.spent_s += DEADLINE_S
        else:
            self.spent_s += record.wall_s * calib.NOMINAL_S / self.normaliser.current
        if outcome is not None:
            try:
                reason = (oracle.judge_cli if query.argv else oracle.judge_factor)(query, *outcome)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                reason = f"output not in the expected form: {exc!r}"
            if reason:
                record.kind, record.detail = "wrong", reason
        self.normaliser.add(record)
        return record


def warm_up(varsep) -> None:
    """First calls fill caches and finish lazy set-up before timing starts."""
    for argv in (["check", "x*y + x"], ["separate", "x*y"], ["partition", "x*y*z + 1"],
                 ["additive", "x^3 + y"], ["numeric", "sin(x)*y"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            varsep.cli.run(argv + ["--format", "json"])
    poly = varsep.parse_polynomial("x*y + x")
    varsep.exact.separate_by_partition(poly, varsep.exact.finest_partition(poly).partition)


# ---------------------------------------------------------------- set-up time


CHILD = r"""
import json, sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import varsep.cli
varsep.cli.build_parser()
t1 = time.perf_counter()
import calib
print(json.dumps({{"import_s": t1 - t0, "kernel_s": min(calib.sample() for _ in range(3))}}))
"""


def _child(src: str, importtime: bool = False) -> tuple[dict, str]:
    flags = ["-X", "importtime"] if importtime else []
    done = subprocess.run(
        [sys.executable, "-I", *flags, "-c", CHILD.format(src=src, bench=BENCH_DIR)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def setup_times(src: str) -> tuple[list[float], list[float]]:
    """Normalised and raw seconds for a fresh interpreter to import
    varsep.cli and build its parser, once per child process."""
    _child(src)  # compile the modules' bytecode caches
    norm, raw = [], []
    for _ in range(SETUP_CHILDREN):
        data, _ = _child(src)
        raw.append(data["import_s"])
        norm.append(data["import_s"] * calib.NOMINAL_S / data["kernel_s"])
    return norm, raw


IMPORT_MODULES = ("varsep", "varsep.poly", "varsep.partition", "varsep.expr", "varsep.exact",
                  "varsep.numeric", "varsep.cli")


def import_profile(src: str) -> dict[str, float]:
    """Median normalised self time per varsep module from -X importtime,
    plus the whole import as cli.import_s."""
    runs = []
    for _ in range(IMPORT_CHILDREN):
        data, stderr = _child(src, importtime=True)
        scale = calib.NOMINAL_S / data["kernel_s"]
        row = {"cli.import_s": data["import_s"] * scale}
        for line in stderr.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                self_us, _, module = (part.strip() for part in line[len("import time:"):].split("|"))
                if module in IMPORT_MODULES:
                    row[f"import.{module}_s"] = int(self_us) / 1e6 * scale
        runs.append(row)
    keys = ["cli.import_s"] + [f"import.{module}_s" for module in IMPORT_MODULES]
    return {key: statistics.median(row.get(key, 0.0) for row in runs) for key in keys}


# ---------------------------------------------------------------- metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def machine_info() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"


def end_to_end(records: list[Record], setup_norm: list[float], p: int) -> tuple[dict, list[str]]:
    times = [r.norm_s for r in records]
    correct = sum(r.kind == "ok" for r in records)
    tail_value, beyond = estimate.tail(times, p)
    failed = len(records) - correct
    metrics = {
        "queries_per_s": (correct / sum(times), "1/s"),
        "latency_p50_ms": (estimate.quantile(times, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "correct_share": (correct / len(records), "ratio"),
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "latency_tail_ms": f"p{p}, {len(records)} queries, {beyond} beyond it",
        "correct_share": f"{correct} of {len(records)}",
        "setup_s": f"median of {SETUP_CHILDREN} fresh interpreters",
    }
    lines = [f"{name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
             for name, (value, unit) in metrics.items()]
    lines.append(f"failed_share = {failed / len(records):.6g} ratio  ({failed} of {len(records)})")
    return metrics, lines


REFS = {
    "ref.p43.finest_partition_ms": ("ref-p43", "exact.finest_partition"),
    "ref.p234.finest_partition_ms": ("ref-p234", "exact.finest_partition"),
    "ref.n4_40.finest_partition_ms": ("ref-n4-40", "exact.finest_partition"),
    "ref.n6_72.finest_partition_ms": ("ref-n6-72", "exact.finest_partition"),
    "ref.n8_864.finest_partition_ms": ("ref-n8-864", "exact.finest_partition"),
    "ref.n8_864.coeff_criterion_ms": ("ref-n8-864-separate", "exact.coeff_criterion_total"),
    "ref.sum432.lower_ms": ("ref-sum432.separate", "expr.lower_to_polynomial"),
    "ref.exp_xy_sin_z.numeric_ms": ("ref-exp-xy-sin-z", "numeric.numeric_finest_partition"),
}


def per_layer(traced: list[Record], plain: list[Record], refs: list[Record],
              imports: dict, wall_s: float, calib_s: float) -> tuple[dict, list[str]]:
    n = len(traced)
    spans: dict[str, list] = {}
    layer_self: dict[str, float] = {}
    counts: dict[str, float] = {}
    for r in traced:
        for name, (calls, total, own) in r.spans.items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total * r.scale
            agg[2] += own * r.scale
        for layer, own in r.layer_self.items():
            layer_self[layer] = layer_self.get(layer, 0.0) + own * r.scale
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0.0) + (value * r.scale if key.endswith("_s") else value)

    def total(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[1] for name in names)

    def calls(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[0] for name in names)

    query_s = total("bench.query")
    ok = [(t, p) for t, p in zip(traced, plain) if t.kind == p.kind == "ok"]
    overhead = (sum(t.norm_s for t, _ in ok) / sum(p.norm_s for _, p in ok) - 1) if ok else 0.0
    cli_queries = sum(1 for r in traced if r.cli)
    box = counts.get("exact.coeff_box_entries", 0.0)
    evaluated = counts.get("numeric.evaluated", 0.0)
    skipped = counts.get("numeric.skipped", 0.0)
    anchor_points = counts.get("numeric.anchor_points", 0.0)
    fp_s = total("exact.finest_partition")
    per_q = "count/query"
    s_q = "s/query"
    metrics = {
        **{key: (value, "s") for key, value in imports.items()},
        "cli.self_ms_per_query": (layer_self.get("cli", 0.0) * 1e3 / max(cli_queries, 1), "ms"),
        "expr.parse_s": (total("expr.parse") / n, s_q),
        "expr.tokens": (counts.get("expr.tokens", 0.0) / n, per_q),
        "expr.lower_s": (total("expr.lower_to_polynomial") / n, s_q),
        "expr.lower_terms": (counts.get("expr.lower_terms", 0.0) / n, per_q),
        "expr.eval_float_calls": (calls("expr.eval_float") / n, per_q),
        "expr.eval_float_s": (total("expr.eval_float") / n, s_q),
        "poly.mul_calls": (calls("poly.Polynomial.__mul__", "poly.Polynomial.__rmul__") / n, per_q),
        "poly.mul_term_pairs": (counts.get("poly.mul_term_pairs", 0.0) / n, per_q),
        "poly.mul_s": (total("poly.Polynomial.__mul__", "poly.Polynomial.__rmul__") / n, s_q),
        "poly.constructed": (calls("poly.Polynomial.__init__") / n, per_q),
        "poly.init_s": (total("poly.Polynomial.__init__") / n, s_q),
        "poly.evaluate_calls": (calls("poly.Polynomial.evaluate") / n, per_q),
        "poly.evaluate_s": (total("poly.Polynomial.evaluate") / n, s_q),
        "poly.partial_derivative_s": (total("poly.Polynomial.partial_derivative") / n, s_q),
        "poly.margin_s": (total("poly.Polynomial.margin") / n, s_q),
        "exact.finest_partition_s": (fp_s / n, s_q),
        "exact.finest_partition_calls_per_query": (calls("exact.finest_partition") / n, per_q),
        "exact.pair_entries": (counts.get("exact.pair_entries", 0.0) / n, per_q),
        "exact.redundant_finest_share": (counts.get("exact.redundant_finest_s", 0.0) / fp_s if fp_s else 0.0, "ratio"),
        "exact.coeff_criterion_s": (total("exact.coeff_criterion_total") / n, s_q),
        "exact.coeff_box_entries": (box / n, per_q),
        "exact.box_per_term": (box / counts["exact.coeff_terms"] if box else 0.0, "ratio"),
        "exact.separate_total_s": (total("exact.separate_total") / n, s_q),
        "exact.verify_mul_term_pairs": (counts.get("exact.verify_mul_term_pairs", 0.0) / n, per_q),
        "exact.anchor_search_s": (total("exact.anchor_search") / n, s_q),
        "exact.anchor_evals": (counts.get("exact.anchor_evals", 0.0) / n, per_q),
        "numeric.finest_partition_s": (total("numeric.numeric_finest_partition") / n, s_q),
        "numeric.anchor_scan_s": (total("numeric._scan_anchor") / n, s_q),
        "numeric.evaluated": (evaluated / n, per_q),
        "numeric.skipped": (skipped / n, per_q),
        "numeric.discarded": (counts.get("numeric.discarded", 0.0) / n, per_q),
        "numeric.evaluated_share": (evaluated / (evaluated + skipped) if evaluated + skipped else 0.0, "ratio"),
        "numeric.anchor_points": (anchor_points / n, per_q),
        "numeric.pair_points": ((evaluated + skipped - anchor_points) / n, per_q),
        **{f"{layer}.self_s": (layer_self.get(layer, 0.0) / n, s_q) for layer in layertrace.LAYERS},
        "trace.overhead_share": (overhead, "ratio"),
        "trace.unattributed_share": (layer_self.get("bench", 0.0) / query_s if query_s else 0.0, "ratio"),
        "bench.wall_s": (wall_s, "s"),
        "bench.calib_s": (calib_s, "s"),
        "bench.failed_share": (sum(r.kind != "ok" for r in traced) / n, "ratio"),
    }
    by_cls = {r.cls: r for r in refs}
    for key, (cls, span) in REFS.items():
        r = by_cls[cls]
        metrics[key] = (r.spans.get(span, (0, 0.0, 0.0))[1] * r.scale * 1e3, "ms")
    shares = ", ".join(f"{layer} {layer_self.get(layer, 0.0) / query_s:.1%}"
                       for layer in (*layertrace.LAYERS, "bench")) if query_s else "no traced time"
    lines = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"layer self time as a share of traced query time: {shares}")
    return metrics, lines


# ---------------------------------------------------------------- run loop and entry point


def run_workload(varsep, workload: str, seed: int, seconds: float, traced: bool, src: str):
    setup_norm = setup_raw = imports = None
    if traced:
        imports = import_profile(src)
    else:
        setup_norm, setup_raw = setup_times(src)
    warm_up(varsep)
    gc.freeze()
    normaliser = calib.Normaliser()
    runner = Runner(varsep, normaliser)
    p = TAIL_PERCENTILE
    records: list[Record] = []
    plain: list[Record] = []
    start = time.perf_counter()
    r = 0
    # Whole cycles of the template rotation, so every run has the same
    # composition, until `seconds` reference seconds of query time are spent:
    # a count of cycles that does not depend on the machine's speed.
    while True:
        for query in gen.round_queries(workload, seed, r):
            if traced:
                plain.append(runner.run(query, r))
                records.append(runner.run(query, r, traced=True))
            else:
                records.append(runner.run(query, r))
        r += 1
        # What the benchmark keeps would otherwise be rescanned by every full
        # collection inside varsep's queries, which a one-shot CLI process
        # does not pay.
        gc.freeze()
        if r % gen.TEMPLATES == 0 and runner.spent_s >= seconds and (traced or len(records) >= estimate.min_queries(p)):
            break
    wall_s = time.perf_counter() - start
    refs = [runner.run(q, -1, traced=True) for q in gen.reference_queries()] if traced else []
    normaliser.finish()

    lines = [f"workload {workload}, seed {seed}: {r} rounds, {len(records)} queries, "
             f"{sum(rec.norm_s for rec in records + plain):.2f} s reference query time, "
             f"{wall_s:.2f} s wall, {normaliser.calib_s:.2f} s in {len(normaliser.samples)} kernel samples",
             f"machine: {machine_info()}"]
    failures: dict[tuple, int] = {}
    for rec in records:
        if rec.kind != "ok":
            key = (rec.cls, rec.kind, rec.detail, rec.known_defect)
            failures[key] = failures.get(key, 0) + 1
    for (cls, kind, detail, defect), count in sorted(failures.items()):
        lines.append(f"failed {count}x {cls}: {kind} ({detail})" + (f" [known defect: {defect}]" if defect else ""))
    answered = [rec for rec in records if rec.kind == "ok"]
    raw = [rec.wall_s for rec in records]
    slowest = max(answered, key=lambda rec: rec.norm_s, default=None)
    if slowest is not None:
        lines.append(f"deadline {DEADLINE_S} s (reference); slowest answered query {slowest.cls} "
                     f"{slowest.norm_s:.3f} s, gap {DEADLINE_S / slowest.norm_s:.1f}x")
    lines.append(f"raw wall: p50 {statistics.median(raw) * 1e3:.3f} ms, qps "
                 f"{len(answered) / sum(raw):.3f} 1/s; kernel median {statistics.median(normaliser.samples) * 1e3:.4f} ms "
                 f"(nominal {calib.NOMINAL_S * 1e3} ms)")
    if traced:
        metrics, more = per_layer(records, plain, refs, imports, wall_s, normaliser.calib_s)
        write_trace(workload, seed, records + refs)
    else:
        metrics, more = end_to_end(records, setup_norm, p)
        lines.append(f"setup raw: median {statistics.median(setup_raw):.6f} s")
    wrong = sum(rec.kind == "wrong" for rec in records)
    summary = {"correct": wrong == 0, "attempted": len(records),
               "failed": sum(rec.kind != "ok" for rec in records),
               "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    return lines + more, summary


def write_trace(workload: str, seed: int, records: list[Record]) -> None:
    """Per-query span aggregates, written once the run is over."""
    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    rows = [{"round": r.round, "class": r.cls, "kind": r.kind, "norm_ms": r.norm_s * 1e3,
             "spans": {name: [calls, total * r.scale * 1e3, own * r.scale * 1e3]
                       for name, (calls, total, own) in r.spans.items()}}
            for r in records]
    with open(os.path.join(out_dir, f"trace-{workload}-seed{seed}.json"), "w") as handle:
        json.dump(rows, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="reference seconds of query time to spend, in whole cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "varsep", "cli.py")):
        print("perfbench: no varsep sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import varsep
    import varsep.cli

    if not os.path.abspath(varsep.__file__).startswith(src + os.sep):
        print(f"perfbench: imported varsep from {varsep.__file__}, not from ./src", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        lines, summary = run_workload(varsep, workload, args.seed, args.seconds, bool(args.trace), src)
        print("\n".join(lines), flush=True)
        results[workload] = summary
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in results.values()),
            "attempted": sum(s["attempted"] for s in results.values()),
            "failed": sum(s["failed"] for s in results.values()),
            "metrics": {f"{w}.{name}": m for w, s in results.items() for name, m in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
