"""Span tracing of pstiefel's public functions, installed from outside.

``Tracer.install`` wraps every public function of the measured modules
and ``TruncatedSeries.mul/inv/int_pow``, and rebinds every name that
refers to one of them in any pstiefel module, so that copies made by
``from .x import y`` are traced too. The package source is untouched.

A span is ``(name, start, end, parent, request)``: the span's defining
function as ``module.function``, perf_counter times, the index of the
enclosing span (-1 at top level) and the request id. Spans are kept in
memory; the caller writes them out when the run ends.

Alongside the spans, work counts are computed from arguments and
results, never from time, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("ring", "series", "weights", "cohomology", "geometry", "verify",
           "cli")
SERIES_METHODS = ("mul", "inv", "int_pow")

# Span-name groups whose busy time is reported as one metric.
GROUPS = {
    "series.int_pow": ("series.int_pow",),
    "geometry.sweep": ("geometry.best_span_bound",
                       "geometry.best_immersion_bound"),
    "geometry.claims": ("geometry.check_span_theorem",
                        "geometry.check_immersion_theorem"),
    "geometry.rank": ("geometry.cp_complement_min_rank",
                      "geometry.lens_rank_bound",
                      "geometry.lens_sq2_criterion"),
    "ring.is_prime": ("ring.is_prime",),
    "ring.primes_upto": ("ring.primes_upto",),
    "verify.run_all": ("verify.run_all",),
}
CERTIFICATES = ("geometry.span_certificate", "geometry.immersion_certificate")
PONTRJAGIN = ("geometry.tangent_pontrjagin", "geometry.normal_pontrjagin")

# (name, unit, better, computed): computed metrics are derived from
# arguments and results and must repeat exactly for one seed.
PER_LAYER = [
    ("series.mul.calls", "count", "lower", True),
    ("series.mul.self_s", "s", "lower", False),
    ("series.mul.products", "count", "lower", True),
    ("series.inv.calls", "count", "lower", True),
    ("series.inv.self_s", "s", "lower", False),
    ("series.int_pow.calls", "count", "lower", True),
    ("series.int_pow.busy_s", "s", "lower", False),
    ("series.max_truncation", "count", "lower", True),
    ("series.max_coeff_bits", "bits", "lower", True),
    ("geometry.tangent_pontrjagin.self_s", "s", "lower", False),
    ("geometry.normal_pontrjagin.self_s", "s", "lower", False),
    ("geometry.certificate.attempts", "count", "lower", True),
    ("geometry.certificate.found", "count", "higher", True),
    ("geometry.certificate.yield", "ratio", "higher", True),
    ("geometry.certificate.skipped_low_order", "count", "higher", True),
    ("geometry.sweep.busy_s", "s", "lower", False),
    ("geometry.claims.busy_s", "s", "lower", False),
    ("geometry.rank.busy_s", "s", "lower", False),
    ("weights.homogeneous_sum.calls", "count", "lower", True),
    ("weights.homogeneous_sum.self_s", "s", "lower", False),
    ("weights.homogeneous_sum.cells", "count", "lower", True),
    ("cohomology.nilpotency_order.calls", "count", "lower", True),
    ("cohomology.nilpotency_order.self_s", "s", "lower", False),
    ("cohomology.nilpotency_order.scan_len", "count", "lower", True),
    ("cohomology.poincare_polynomial.calls", "count", "lower", True),
    ("cohomology.poincare_polynomial.self_s", "s", "lower", False),
    ("cohomology.poincare_polynomial.cells", "count", "lower", True),
    ("ring.is_prime.calls", "count", "lower", True),
    ("ring.is_prime.busy_s", "s", "lower", False),
    ("ring.primes_upto.calls", "count", "lower", True),
    ("ring.primes_upto.busy_s", "s", "lower", False),
    ("verify.run_all.calls", "count", "lower", True),
    ("verify.run_all.busy_s", "s", "lower", False),
    ("cli.main.calls", "count", "lower", True),
    ("cli.main.self_s", "s", "lower", False),
    ("cli.report_bytes", "B", "lower", True),
    ("tracing.overhead_s", "s", "lower", False),
] + [(f"{m}.self_s", "s", "lower", False) for m in MODULES]

COMPUTED = [name for name, _, _, computed in PER_LAYER if computed]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _series_extent(tracer, args, kwargs, result):
    peak = tracer.peaks
    peak["series.max_truncation"] = max(peak["series.max_truncation"],
                                        args[0].truncation)
    bits = max(abs(c).bit_length() for c in result.coeffs)
    peak["series.max_coeff_bits"] = max(peak["series.max_coeff_bits"], bits)


def _count_mul(tracer, args, kwargs, result):
    T = args[0].truncation
    tracer.counts["series.mul.products"] += T * (T + 1) // 2
    _series_extent(tracer, args, kwargs, result)


def _count_homogeneous_sum(tracer, args, kwargs, result):
    ell, r = _arg(args, kwargs, 0, "ell"), _arg(args, kwargs, 1, "r")
    tracer.counts["weights.homogeneous_sum.cells"] += len(ell) * r


def _count_nilpotency(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    tracer.counts["cohomology.nilpotency_order.scan_len"] += (
        result - (params.n - params.k))


def _count_poincare(tracer, args, kwargs, result):
    pres = _arg(args, kwargs, 0, "pres")
    tracer.counts["cohomology.poincare_polynomial.cells"] += (
        len(pres.exterior_degrees) * len(result))


def _count_certificate(tracer, args, kwargs, result):
    tracer.counts["geometry.certificate.found"] += result is not None


COUNTERS = {
    "series.mul": _count_mul,
    "series.inv": _series_extent,
    "series.int_pow": _series_extent,
    "weights.homogeneous_sum": _count_homogeneous_sum,
    "cohomology.nilpotency_order": _count_nilpotency,
    "cohomology.poincare_polynomial": _count_poincare,
    "geometry.span_certificate": _count_certificate,
    "geometry.immersion_certificate": _count_certificate,
}


class Tracer:
    """Records spans and computed counts for one pass at a time."""

    def __init__(self):
        self.request = None
        self._stack = []
        self._restore = []
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.peaks = Counter()

    def _wrap(self, name, fn):
        stack = self._stack
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.request)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every pstiefel name of a measured function to its wrapper."""
        targets = {}
        for short in MODULES:
            module = sys.modules[f"pstiefel.{short}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    targets[id(obj)] = (obj, f"{short}.{attr}")
        series_cls = sys.modules["pstiefel.series"].TruncatedSeries
        for method in SERIES_METHODS:
            fn = vars(series_cls)[method]
            targets[id(fn)] = (fn, f"series.{method}")
        wrappers = {key: self._wrap(name, fn)
                    for key, (fn, name) in targets.items()}
        owners = [m for name, m in sys.modules.items()
                  if name == "pstiefel" or name.startswith("pstiefel.")]
        for owner in owners + [series_cls]:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and targets[id(obj)][0] is obj:
                    setattr(owner, attr, wrappers[id(obj)])
                    self._restore.append((owner, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        out = {}
        for name in ("series.mul", "series.inv", "series.int_pow",
                     "weights.homogeneous_sum", "cohomology.nilpotency_order",
                     "cohomology.poincare_polynomial", "ring.is_prime",
                     "ring.primes_upto", "verify.run_all", "cli.main"):
            out[f"{name}.calls"] = calls[name]
        for name in ("series.mul", "series.inv", "weights.homogeneous_sum",
                     "cohomology.nilpotency_order",
                     "cohomology.poincare_polynomial", "cli.main", *PONTRJAGIN):
            out[f"{name}.self_s"] = self_s[name]
        for group, names in GROUPS.items():
            out[f"{group}.busy_s"] = _busy(spans, set(names))
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                t for name, t in self_s.items()
                if name.startswith(module + "."))
        built = {parent for name, _, _, parent, _ in spans
                 if name in PONTRJAGIN}
        attempts = [i for i, span in enumerate(spans)
                    if span[0] in CERTIFICATES]
        found = self.counts["geometry.certificate.found"]
        out["geometry.certificate.attempts"] = len(attempts)
        out["geometry.certificate.found"] = found
        out["geometry.certificate.yield"] = (
            found / len(attempts) if attempts else 0.0)
        out["geometry.certificate.skipped_low_order"] = sum(
            i not in built for i in attempts)
        for key in ("series.mul.products", "weights.homogeneous_sum.cells",
                    "cohomology.nilpotency_order.scan_len",
                    "cohomology.poincare_polynomial.cells"):
            out[key] = self.counts[key]
        out.update({key: self.peaks[key] for key in
                    ("series.max_truncation", "series.max_coeff_bits")})
        return out


def _busy(spans, names: set) -> float:
    """Time inside spans named in ``names``, nested occurrences once.

    A parent span is appended before its children, so one forward pass
    knows whether any ancestor already belongs to the group.
    """
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = parent >= 0 and inside[parent]
        inside[i] = covered or name in names
        if name in names and not covered:
            total += end - start
    return total
