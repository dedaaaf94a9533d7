"""Spans around the package's public functions, and per-layer metrics.

The tracer wraps functions and methods from outside the package: every
module attribute bound to a traced function is replaced, which also
catches names re-bound by ``from .x import y``.  Each span records its
name, start, end, parent span and task; spans stay in memory until the
run writes them out.  A span's self time is its duration minus the
durations of its direct children, which in one thread are disjoint and
nested inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from littlejacobi import awalgebra, cli, eigensolver, family, operators, polys, susyqm, transforms, verify
from littlejacobi.family import MomentFunctional
from littlejacobi.operators import BandedOp
from littlejacobi.polys import Poly
from littlejacobi.susyqm import PhiPoly

MODULES = ("polys", "family", "operators", "transforms", "awalgebra", "eigensolver", "susyqm", "verify", "cli")
SERIES_CAP = getattr(eigensolver, "_TRUNC_CAP", 400)


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or -1, task index]
        self.spans: list[list] = []
        self.task = None
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self.errors: Counter = Counter()
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, observe=None):
        module = name.split(".", 1)[0]
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self
        self.names.add(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                stack.pop()
                tracer.errors[module] += 1
                raise
            span[2] = clock()
            stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return functools.wraps(fn)(traced)

    def function(self, name: str, original, observe=None) -> None:
        """Replace ``original`` in every package module that binds it."""
        wrapped = self.wrap(name, original, observe)
        for module_name, module in list(sys.modules.items()):
            if module_name != "littlejacobi" and not module_name.startswith("littlejacobi."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(functools.partial(setattr, module, attr, original))

    def method(self, cls, attr: str, name: str, observe=None) -> None:
        """Replace a method, and every alias of it in the class."""
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, observe))
        else:
            wrapped = self.wrap(name, raw, observe)
        for key, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, key, wrapped)
                self._undo.append(functools.partial(setattr, cls, key, raw))

    def table_entries(self, table: dict, prefix: str) -> None:
        for key, original in list(table.items()):
            table[key] = self.wrap(f"{prefix}.{key}", original)
            self._undo.append(functools.partial(table.__setitem__, key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


# -- counters recorded at the boundaries -------------------------------------


def _coeff_bits(poly: Poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def _observe_poly_mul(tracer, args, result):
    left, right = args
    if isinstance(right, Poly):
        products = sum(1 for c in left.coeffs if c) * sum(1 for c in right.coeffs if c)
    else:
        products = len(left.coeffs)
    tracer.counters["polys.mul.coeff_products"] += products
    bits = _coeff_bits(result)
    if bits > tracer.maxima["polys.mul.max_coeff_bits"]:
        tracer.maxima["polys.mul.max_coeff_bits"] = bits


def _observe_compose(tracer, args, result):
    outer, inner = args
    tracer.counters["operators.compose.row_products"] += sum(
        len(outer.actions[k]) for n in range(len(result.actions)) for k in inner.actions[n]
    )


def _observe_solution(tracer, args, result):
    lengths = (len(result.f_series_coeffs), len(result.g_series_coeffs))
    tracer.counters["eigensolver.series_terms"] += sum(lengths)
    tracer.counters["eigensolver.series_cap_hits"] += sum(n >= SERIES_CAP for n in lengths)


def _observe_checks(tracer, args, result):
    tracer.counters["verify.checks"] += len(result)
    tracer.counters["verify.checks_failed"] += sum(1 for r in result if not r.passed)


def instrument(tracer: Tracer) -> None:
    """Wrap the public boundaries of every layer the metrics name."""
    tracer.method(Poly, "__mul__", "polys.mul", _observe_poly_mul)
    tracer.method(Poly, "__add__", "polys.add")
    tracer.method(Poly, "compose", "polys.compose")
    tracer.method(Poly, "__divmod__", "polys.divmod")
    tracer.function("polys.terminating_2f1", polys.terminating_2f1)

    for name in (
        "generate_monic", "recurrence_coeffs", "moments", "norm_square", "explicit_poly",
        "qlimit_error", "weight_moment", "weight_eval",
    ):
        tracer.function(f"family.{name}", getattr(family, name))
    tracer.method(MomentFunctional, "inner_product", "family.inner_product")
    tracer.method(MomentFunctional, "hankel_determinant", "family.hankel_determinant")

    tracer.method(BandedOp, "__matmul__", "operators.compose", _observe_compose)
    tracer.method(BandedOp, "__add__", "operators.add")
    tracer.method(BandedOp, "apply", "operators.apply")
    tracer.method(BandedOp, "from_monomial", "operators.build")
    tracer.function("operators.op_equal", operators.op_equal)
    tracer.function("operators.identity_scalar", operators.identity_scalar)

    for name in ("verify_relations", "verify_casimir", "generators"):
        tracer.function(f"awalgebra.{name}", getattr(awalgebra, name))
    for name in (
        "identify_little", "intertwiner_check", "dunkl_classical_check", "raising_check",
        "symmetric_gegenbauer", "christoffel_transform", "extract_recurrence",
    ):
        tracer.function(f"transforms.{name}", getattr(transforms, name))

    tracer.function("eigensolver.build_solution", eigensolver.build_solution, _observe_solution)
    tracer.function("eigensolver.sample_rows", eigensolver.sample_rows)

    for name in ("eigenstate", "apply_L1", "apply_H1", "node_count", "potential"):
        tracer.function(f"susyqm.{name}", getattr(susyqm, name))
    for name in ("value", "d1", "d2"):
        tracer.method(PhiPoly, name, "susyqm.eval")

    tracer.function("verify.run_suites", verify.run_suites, _observe_checks)
    tracer.table_entries(verify.SUITES, "verify")
    tracer.function("cli.main", cli.main)


def layer_metrics(tracer: Tracer, cache_stats: dict) -> tuple[dict, dict]:
    """(metric name -> value, metric name -> note) from the spans."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - covered[index]

    values, notes = {}, {}
    for name in tracer.names:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = own[name]
        values[f"{name}.total_s"] = total[name]
        if not calls[name]:
            notes[name] = "not called on this workload; reported as 0"
    values["verify.self_s"] = sum(v for k, v in own.items() if k.startswith("verify."))
    values.update(tracer.counters)
    values.update(tracer.maxima)
    for key in (
        "polys.mul.coeff_products", "polys.mul.max_coeff_bits", "operators.compose.row_products",
        "eigensolver.series_terms", "eigensolver.series_cap_hits", "verify.checks",
        "verify.checks_failed",
    ):
        values.setdefault(key, 0)
    for module in MODULES:
        values[f"{module}.errors"] = tracer.errors[module]
    hits, misses = cache_stats["generate_monic"]
    values["family.generate_monic.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if not hits + misses:
        notes["family.generate_monic.cache_hit_ratio"] = "no lookups on this workload; reported as 0"
    return values, notes
