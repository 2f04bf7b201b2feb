"""Per-layer tracing, installed from outside the program.

Each boundary is wrapped where it lives and at every module that bound the
same object at import (`from .series import poly_compose_series` binds it in
`nash` and `arcs` too), so no call escapes the trace.  Methods are wrapped on
their class.  Spans (name, start, end, parent, op id) are kept in memory and
written out when the run ends; self time is computed from them afterwards.
The two hottest methods are counted without spans, because a span per call
would swamp the trace.

A boundary that no longer exists (renamed or removed by a later change) is
reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List

# (module, attribute, spans?, failures reported?)
BOUNDARIES = (
    ("cli", "main", True, False),
    ("cli", "verify_main_theorem", True, False),
    ("cli", "_sample_arcs", True, False),
    ("parsing", "load_presentation", True, False),
    ("parsing", "parse_arc", True, False),
    ("presentation", "elimination_algebra", True, False),
    ("presentation", "ambient_algebra", True, False),
    ("rees", "diff_closure", True, False),
    ("rees", "onedim_resolution_steps", True, False),
    ("arcs", "validate_arc", True, True),
    ("arcs", "contact_order", True, True),
    ("arcs", "contact_order_without_x", True, False),
    ("arcs", "image_of_algebra", True, False),
    ("nash", "nash_sequence_presentation", True, True),
    ("nash", "nash_sequence_equation", True, True),
    ("nash", "nash_step", True, True),
    ("nash", "NashState.check_arc_on_transform", True, False),
    ("generic", "construct_generic_arc", True, True),
    ("generic", "lift_to_presentation", True, True),
    ("generic", "lift_monomial_base", True, True),
    ("generic", "_newton_puiseux_root", True, True),
    ("generic", "_rational_roots", True, False),
    ("series", "poly_compose_series", True, False),
    ("series", "PowerSeries.compose", True, False),
    ("series", "PowerSeries.__mul__", False, False),
    ("poly", "MultiPoly.substitute", True, False),
    ("poly", "MultiPoly.translate", True, False),
    ("poly", "MultiPoly.__mul__", False, False),
)

# Ratios and counts derived at particular boundaries, beside calls/busy/self.
EXTRA_METRICS = (
    ("series.PowerSeries.__mul__.coeff_products", "count", "lower"),
    ("poly.MultiPoly.__mul__.term_products", "count", "lower"),
    ("generic.construct_generic_arc.units_tried", "count", "lower"),
    ("generic.lift_success_ratio", "ratio", "higher"),
    ("generic.max_coeff_bits", "bits", "lower"),
    ("presentation.elimination_algebra.reuse_ratio", "ratio", "lower"),
    ("cli._sample_arcs.fallback_ratio", "ratio", "lower"),
    ("nash.steps_per_sequence", "count", "lower"),
)


def boundary_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute}"


def metric_names() -> List[tuple]:
    """Every per-boundary metric as (name, unit, better)."""
    out = []
    for module, attribute, spans, failures in BOUNDARIES:
        name = boundary_name(module, attribute)
        out.append((f"{name}.calls", "count", "lower"))
        if spans:
            out.append((f"{name}.busy_s", "s", "lower"))
            out.append((f"{name}.self_s", "s", "lower"))
        if failures:
            out.append((f"{name}.failed", "count", "lower"))
    return out + list(EXTRA_METRICS)


def _series_products(a, b) -> int:
    """Coefficient products the schoolbook series multiply performs."""
    if not a.coeffs or not b.coeffs:
        return 0
    precisions = [p for p in (a.precision, b.precision) if p is not None]
    n = min([len(a.coeffs) + len(b.coeffs) - 1] + precisions)
    lb = len(b.coeffs)
    return sum(min(lb, n - i) for i, c in enumerate(a.coeffs[:n]) if c != 0)


# Count-only boundaries: the product count each call adds.
_PRODUCTS = {
    "series.PowerSeries.__mul__": ("series.PowerSeries.__mul__.coeff_products", _series_products),
    "poly.MultiPoly.__mul__": (
        "poly.MultiPoly.__mul__.term_products",
        lambda a, b: len(a.terms) * len(b.terms),
    ),
}


def _coeff_bits(arc) -> int:
    bits = 0
    for s in arc.coords.values():
        for c in s.coeffs:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: List[str] = []
        self.spans: List[list] = []  # [name id, parent span, op id, start, end]
        self.stack: List[int] = []
        self.op = -1
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self.elimination_inputs = set()
        self.max_coeff_bits = 0
        self.absent: List[str] = []

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        package = [
            m for n, m in list(sys.modules.items()) if n == "nashres" or n.startswith("nashres.")
        ]
        after_hooks, error_hooks = self._after_hooks(), self._error_hooks()
        for module, attribute, spans, _ in BOUNDARIES:
            name = boundary_name(module, attribute)
            owner = sys.modules.get(f"nashres.{module}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            if spans:
                wrapped = self._wrap(name, original, after_hooks.get(name), error_hooks.get(name))
            else:
                wrapped = self._wrap_count(name, original)
            sites = [(owner, leaf)]
            if not path:
                sites += [
                    (m, key) for m in package for key, value in vars(m).items()
                    if value is original and (m, key) != (owner, leaf)
                ]
            for site, key in sites:
                setattr(site, key, wrapped)

    def _wrap(self, name: str, fn, after, on_error):
        nid = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [nid, parent, self.op, perf_counter(), 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.failed[name] += 1
                if on_error is not None:
                    on_error(err, parent)
                raise
            finally:
                span[4] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapped

    def _wrap_count(self, name: str, fn):
        key, products = _PRODUCTS[name]
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def wrapped(a, b):
            calls[name] += 1
            counts[key] += products(a, b)
            return fn(a, b)

        return wrapped

    # -- counters taken at particular boundaries -------------------------------

    def _after_hooks(self) -> Dict[str, object]:
        def generic_arc(args, result):
            self.counts["generic.construct_generic_arc.units_tried"] += result.units_tried

        def lifted(args, result):
            self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(result.arc))

        def samples(args, result):
            self.counts["cli._sample_arcs.samples"] += len(result)

        def elimination(args, result):
            self.elimination_inputs.add(args[0])

        return {
            "generic.construct_generic_arc": generic_arc,
            "generic.lift_monomial_base": lifted,
            "cli._sample_arcs": samples,
            "presentation.elimination_algebra": elimination,
        }

    def _error_hooks(self) -> Dict[str, object]:
        sampler = "cli._sample_arcs"

        def swallowed(err, parent):
            # _sample_arcs catches ExtensionRequiredError from its own lift
            # calls and substitutes a reparametrized generic arc.
            if parent >= 0 and self.names[self.spans[parent][0]] == sampler:
                if type(err).__name__ == "ExtensionRequiredError":
                    self.counts["cli._sample_arcs.fallbacks"] += 1

        return {
            "generic.lift_to_presentation": swallowed,
            "generic.lift_monomial_base": swallowed,
        }

    # -- results ------------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.stack.clear()

    def metrics(self) -> Dict[str, float]:
        busy = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        child = [0.0] * len(self.spans)
        for nid, parent, _, start, end in self.spans:
            if end and parent >= 0:
                child[parent] += end - start
        for i, (nid, _, _, start, end) in enumerate(self.spans):
            if end:  # a span left open by an op that passed its deadline has none
                busy[nid] += end - start
                self_time[nid] += end - start - child[i]
                calls[nid] += 1

        out: Dict[str, float] = {}
        for module, attribute, spans, failures in BOUNDARIES:
            name = boundary_name(module, attribute)
            if name in self.absent:
                continue
            if spans:
                nid = self.names.index(name)
                out[f"{name}.calls"] = calls[nid]
                out[f"{name}.busy_s"] = busy[nid]
                out[f"{name}.self_s"] = self_time[nid]
            else:
                out[f"{name}.calls"] = self.calls[name]
            if failures:
                out[f"{name}.failed"] = self.failed[name]

        def ratio(num, den):
            return num / den if den else 0.0

        for key in (
            "series.PowerSeries.__mul__.coeff_products",
            "poly.MultiPoly.__mul__.term_products",
            "generic.construct_generic_arc.units_tried",
        ):
            out[key] = self.counts[key]
        lifts = out.get("generic.lift_monomial_base.calls", 0)
        out["generic.lift_success_ratio"] = ratio(
            lifts - out.get("generic.lift_monomial_base.failed", 0), lifts
        )
        out["generic.max_coeff_bits"] = self.max_coeff_bits
        out["presentation.elimination_algebra.reuse_ratio"] = ratio(
            len(self.elimination_inputs), out.get("presentation.elimination_algebra.calls", 0)
        )
        out["cli._sample_arcs.fallback_ratio"] = ratio(
            self.counts["cli._sample_arcs.fallbacks"], self.counts["cli._sample_arcs.samples"]
        )
        out["nash.steps_per_sequence"] = ratio(
            out.get("nash.nash_step.calls", 0), out.get("nash.nash_sequence_equation.calls", 0)
        )
        return out

    def write_spans(self, path: str) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for nid, parent, op, start, end in self.spans:
                fh.write(f"{self.names[nid]}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{op}\n")
