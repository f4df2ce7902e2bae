"""Outside-in layer tracing: wrappers installed from the benchmark's files.

`Installation` replaces the public functions of varsep's modules, and
methods of its classes, with wrappers that record a span per call; `remove`
puts the originals back.  A module-level
function is rebound in every varsep module that holds it, so calls through
module globals (exact re-entering finest_partition), through module
attributes (the CLI) and through the package's re-exports are all caught.

Spans are aggregated per query as they close: for every span name, the call
count, the total time and the self time (duration minus the time covered by
child spans).  Every span belongs to one layer, so the layers' self times
add up to the root span, the query itself.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "expr", "poly", "exact", "numeric", "partition")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        self.open: Counter = Counter()
        self.begin_query()

    def begin_query(self) -> None:
        self.spans: dict[str, list] = {}
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.stack.clear()
        self.open.clear()

    def call(self, name, layer, fn, args, kwargs, pre=None, post=None):
        if pre is not None:
            pre(self, args)
        frame = [0.0]
        self.stack.append(frame)
        self.open[name] += 1
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self.stack.pop()
            self.open[name] -= 1
            if self.stack:
                self.stack[-1][0] += duration
            own = duration - frame[0]
            agg = self.spans.get(name)
            if agg is None:
                agg = self.spans[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
            self.layer_self[layer] += own
        if post is not None:
            post(self, args, result, duration)
        return result


# ---------------------------------------------------------------- counters


def _term_count(value) -> int:
    return len(value.terms) if hasattr(value, "terms") else 1


def _mul_pre(tracer, args):
    pairs = len(args[0].terms) * _term_count(args[1])
    tracer.counts["poly.mul_term_pairs"] += pairs
    if tracer.open["exact.SeparationResult.product"]:
        tracer.counts["exact.verify_mul_term_pairs"] += pairs


def _evaluate_pre(tracer, args):
    if tracer.open["exact.anchor_search"]:
        tracer.counts["exact.anchor_evals"] += 1


def _finest_pre(tracer, args):
    n = len(args[0].vars)
    tracer.counts["exact.pair_entries"] += n * (n + 1) // 2


def _finest_post(tracer, args, result, duration):
    if tracer.open["exact.separate_by_partition"]:
        tracer.counts["exact.redundant_finest_s"] += duration


def _coeff_pre(tracer, args):
    terms = args[0].terms
    if terms:
        n = len(args[0].vars)
        tracer.counts["exact.coeff_box_entries"] += math.prod(max(e[i] for e in terms) + 1 for i in range(n))
        tracer.counts["exact.coeff_terms"] += len(terms)


def _tokenize_post(tracer, args, result, duration):
    tracer.counts["expr.tokens"] += len(result)


def _lower_post(tracer, args, result, duration):
    tracer.counts["expr.lower_terms"] += len(result.terms)


def _numeric_pre(tracer, args):
    grid = args[1]
    tracer.counts["numeric.anchor_points"] += min(grid.budget, math.prod(len(a) for a in grid.coords))


def _numeric_post(tracer, args, result, duration):
    for field in ("evaluated", "skipped", "discarded"):
        tracer.counts[f"numeric.{field}"] += getattr(result, field, 0)


FUNCTIONS = {
    "cli": ("cli", ["run", "build_parser", "emit_json"]),
    "expr": ("expr", ["tokenize", "parse", "free_variables", "to_source", "lower_to_polynomial"]),
    "poly": ("poly", ["aligned"]),
    "exact": ("exact", [
        "sep_matrix_entry", "finest_partition", "anomalous_precheck", "coeff_criterion_total",
        "separate_total", "anchor_search", "separate_by_partition", "refute_by_derivative",
        "additive_separability",
    ]),
    "numeric": ("numeric", [
        "linspace", "parse_grid_spec", "margin_residual", "numeric_finest_partition",
        "numeric_factor_samples", "_scan_anchor",
    ]),
}

METHODS = {
    "poly": [("poly", "Polynomial", [
        "__init__", "_embed", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__rmul__", "__pow__", "__truediv__", "__eq__", "__ne__", "partial_derivative", "evaluate",
        "margin", "degree_vector", "total_degree", "support", "leading_monomial",
        "leading_coefficient", "monic", "sorted_terms", "__str__", "to_json_dict", "constant",
        "variable", "zero", "apply_affine_transform",
    ])],
    "exact": [("exact", "SeparationResult", ["product"])],
    "numeric": [("numeric", "SampleGrid", ["from_specs", "default", "iter_points", "iter_axis_pairs"])],
    "partition": [
        ("partition", "Partition", ["__post_init__", "from_blocks", "singletons", "is_coarsening_of", "name_blocks"]),
        ("partition", "UnionFind", ["__init__", "find", "union", "partition"]),
    ],
}

HOOKS = {
    "poly.Polynomial.__mul__": (_mul_pre, None),
    "poly.Polynomial.__rmul__": (_mul_pre, None),
    "poly.Polynomial.evaluate": (_evaluate_pre, None),
    "exact.finest_partition": (_finest_pre, _finest_post),
    "exact.coeff_criterion_total": (_coeff_pre, None),
    "expr.tokenize": (None, _tokenize_post),
    "expr.lower_to_polynomial": (None, _lower_post),
    "numeric.numeric_finest_partition": (_numeric_pre, _numeric_post),
}


def _wrapper(tracer, name, layer, fn):
    pre, post = HOOKS.get(name, (None, None))

    def traced(*args, **kwargs):
        return tracer.call(name, layer, fn, args, kwargs, pre, post)

    return traced


class Installation:
    """The patched attributes of one install, undone by `remove`."""

    def __init__(self, tracer, modules: dict):
        self.tracer = tracer
        self.modules = modules
        self.undo: list[tuple] = []
        package = list(modules.values())
        # names a later version of varsep no longer has are skipped
        for layer, (mod_name, names) in FUNCTIONS.items():
            module = modules[mod_name]
            for attr in names:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                traced = _wrapper(tracer, f"{layer}.{attr}", layer, original)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, key, traced, original)
        self._install_eval_float(modules["expr"])
        for layer, classes in METHODS.items():
            for mod_name, cls_name, names in classes:
                cls = getattr(modules[mod_name], cls_name, None)
                for attr in names:
                    raw = vars(cls).get(attr) if cls is not None else None
                    if raw is None:
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        traced = classmethod(_wrapper(tracer, name, layer, raw.__func__))
                    else:
                        traced = _wrapper(tracer, name, layer, raw)
                    self._set(cls, attr, traced, raw)

    def _set(self, holder, key, value, original):
        self.undo.append((holder, key, original))
        setattr(holder, key, value)

    def _install_eval_float(self, expr):
        # eval_float recurses through its module global: only top-level calls
        # get a span, by pointing the global at the original during the call.
        original = expr.eval_float
        tracer = self.tracer

        def eval_float(node, point):
            expr.eval_float = original
            try:
                return tracer.call("expr.eval_float", "expr", original, (node, point), {})
            finally:
                expr.eval_float = eval_float

        self.eval_float = eval_float
        self._set(expr, "eval_float", eval_float, original)

    def repair(self) -> None:
        """Restore state a deadline may have interrupted mid-bookkeeping."""
        self.modules["expr"].eval_float = self.eval_float
        self.tracer.stack.clear()
        self.tracer.open.clear()

    def remove(self) -> None:
        for holder, key, original in reversed(self.undo):
            setattr(holder, key, original)
        self.undo.clear()


def varsep_modules() -> dict:
    import varsep
    from varsep import cli, exact, expr, numeric, partition, poly

    return {"varsep": varsep, "cli": cli, "exact": exact, "expr": expr,
            "numeric": numeric, "partition": partition, "poly": poly}
