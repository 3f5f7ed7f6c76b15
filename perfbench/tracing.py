"""Spans around the calls into each nvrelax module, recorded from outside.

A :class:`Tracer` replaces public callables with timing wrappers for the
duration of a ``with tracer.recording(pass_index):`` block and restores the
originals on exit.  A callable is wrapped under every name the package holds it by
(``fitting.orbach_factor`` is the same object as ``models.orbach_factor``),
so calls made through a module's own namespace are seen too.  Third-party
callables (scipy's ``least_squares`` and ``simpson``) are wrapped only in
the one module named, because several modules share them.

Each span records its name, start, end, parent span and item identifier.
Spans stay in memory; :meth:`Tracer.write_jsonl` writes them out once the
run ends.  Names missing from the package are reported as absent and the
metrics derived from them are omitted, so a refactor that removes a name
never breaks a run.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time

# (span name, module, attribute); the span name is the module that owns the
# callable, so an alias held by another module is counted with its owner
OWN_CALLABLES = (
    ("core.load_dataset", "nvrelax.core", "load_dataset"),
    ("models.orbach_factor", "nvrelax.models", "orbach_factor"),
    ("models.orbach_factor_ddelta", "nvrelax.models", "orbach_factor_ddelta"),
    ("fitting.fit", "nvrelax.fitting", "fit"),
    ("fitting.estimate_covariance", "nvrelax.fitting", "estimate_covariance"),
    ("spectral.build_spectral_function", "nvrelax.spectral", "build_spectral_function"),
    ("spectral.two_peak_reference_functions", "nvrelax.spectral", "two_peak_reference_functions"),
    ("spectral.rate_curve", "nvrelax.spectral", "rate_curve"),
    ("spectral.second_order_rate", "nvrelax.spectral", "second_order_rate"),
    ("spectral.spectral_to_csv_text", "nvrelax.spectral", "spectral_to_csv_text"),
    ("spectral.refit_theory_curve", "nvrelax.spectral", "refit_theory_curve"),
    ("dynamics.simulate_experiment", "nvrelax.dynamics", "simulate_experiment"),
    ("dynamics.evolve", "nvrelax.dynamics", "evolve"),
    ("dynamics.extract_rates", "nvrelax.dynamics", "extract_rates"),
    ("cli.main", "nvrelax.cli", "main"),
)

FOREIGN_CALLABLES = (
    ("fitting.solve", "nvrelax.fitting", "least_squares"),
    ("spectral.simpson", "nvrelax.spectral", "simpson"),
    ("dynamics.exp_fit", "nvrelax.dynamics", "least_squares"),
)


def _solve_counts(args, kwargs, result):
    return {"nfev": int(result.nfev), "njev": int(result.njev or 0)}


def _simpson_counts(args, kwargs, result):
    y = args[0]
    x = kwargs.get("x", args[1] if len(args) > 1 else None)
    # bytes the call reads, computed from array shapes (not measured traffic)
    nbytes = y.nbytes + (0 if x is None else x.nbytes)
    return {"points": int(y.size), "bytes": int(nbytes)}


def _fit_counts(args, kwargs, result):
    best = min(result.start_chi2)
    useful = sum(1 for c in result.start_chi2 if c <= best + 1e-6 * abs(best))
    return {"starts": len(result.start_chi2), "useful_starts": useful,
            "nonconverged": int(not result.converged)}


def _csv_counts(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _extract_counts(args, kwargs, result):
    return {"rows": int(not result.gamma_negative)}


# per-span attributes read from a call's arguments and result
_COUNTERS = {
    "fitting.solve": _solve_counts,
    "dynamics.exp_fit": _solve_counts,
    "spectral.simpson": _simpson_counts,
    "fitting.fit": _fit_counts,
    "spectral.spectral_to_csv_text": _csv_counts,
    "dynamics.extract_rates": _extract_counts,
}


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Span:
    __slots__ = ("index", "name", "parent", "item", "pass_index", "start",
                 "end", "error", "attrs")

    def __init__(self, index, name, parent, item, pass_index, start):
        self.index = index
        self.name = name
        self.parent = parent
        self.item = item
        self.pass_index = pass_index
        self.start = start
        self.end = None
        self.error = None
        self.attrs = None

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.index, "name": self.name, "parent": self.parent,
                "item": self.item, "pass": self.pass_index,
                "start_ns": self.start, "end_ns": self.end,
                "error": self.error, "attrs": self.attrs}


class Tracer:
    """Records spans at module boundaries while recording.

    ``item_of(name, args)`` returns an item identifier when a span opens a
    new unit of work (one model fit, one temperature point) and ``None``
    otherwise.  Other spans inherit the item of their parent; a top-level
    span inherits the item last opened at top level in the same pass (the
    refit that follows a sweep's reference functions), or else carries the
    pass identifier.
    """

    def __init__(self, item_of):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        # spans whose call result no longer has the fields a counter reads
        self.unreadable: set[str] = set()
        self._stack: list[Span] = []
        self._item_of = item_of
        self._pass_index = None
        self._top_item = None

    # -- recording

    def _open(self, name, args) -> Span:
        parent = self._stack[-1] if self._stack else None
        item = self._item_of(name, args)
        if item is not None and parent is None:
            self._top_item = item
        elif item is None:
            item = parent.item if parent else self._top_item
        span = Span(len(self.spans), name, None if parent is None else parent.index,
                    item, self._pass_index, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                span.error = type(exc).__name__
                raise
            self._close(span)
            if counter is not None:
                try:
                    span.attrs = counter(args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.unreadable.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def recording(self, pass_index: int):
        """Wrap every known callable for one pass; restore them on exit."""
        self._pass_index = pass_index
        self._top_item = f"pass-{pass_index}"
        patches = []   # (module, attribute, original)
        absent = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nvrelax" or n.startswith("nvrelax."))]
        for name, module_name, attr in OWN_CALLABLES:
            original = getattr(_module(module_name), attr, None)
            if original is None:
                absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, module_name, attr in FOREIGN_CALLABLES:
            module = _module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                absent.append(name)
                continue
            patches.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        self.absent = absent
        try:
            yield self
        finally:
            for module, key, original in reversed(patches):
                setattr(module, key, original)

    # -- analysis

    def self_ns(self, span: Span, children: dict[int, list[Span]]) -> int:
        """Span duration minus the durations of its child spans.

        Spans come from one call stack, so children never overlap and lie
        inside their parent.  ``children`` is :meth:`children`, passed in so
        it is built once.
        """
        return span.duration - sum(c.duration for c in children.get(span.index, ()))

    def children(self) -> dict[int, list[Span]]:
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return children

    def write_jsonl(self, path, header: dict) -> None:
        """Write ``header`` and then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


# (metric, span it is read from, statistic, attribute, unit); "calls" and
# "sum" are per pass, "ms" and "self_ms" the median over passes of each
# pass's total, "ratio" the attribute summed over all passes divided by the
# second attribute (or by the number of calls)
LAYER_METRICS = (
    ("core.load_dataset.calls", "core.load_dataset", "calls", None, "count"),
    ("core.load_dataset.ms", "core.load_dataset", "ms", None, "ms"),
    ("models.orbach_factor.calls", "models.orbach_factor", "calls", None, "count"),
    ("models.orbach_factor.ms", "models.orbach_factor", "ms", None, "ms"),
    ("models.orbach_factor_ddelta.calls", "models.orbach_factor_ddelta", "calls", None, "count"),
    ("models.orbach_factor_ddelta.ms", "models.orbach_factor_ddelta", "ms", None, "ms"),
    ("fitting.fit.calls", "fitting.fit", "calls", None, "count"),
    ("fitting.fit.ms", "fitting.fit", "ms", None, "ms"),
    ("fitting.solve.calls", "fitting.solve", "calls", None, "count"),
    ("fitting.solve.self_ms", "fitting.solve", "self_ms", None, "ms"),
    ("fitting.nfev", "fitting.solve", "sum", "nfev", "count"),
    ("fitting.njev", "fitting.solve", "sum", "njev", "count"),
    ("fitting.start_useful_ratio", "fitting.fit", "ratio", ("useful_starts", "starts"), "ratio"),
    ("fitting.estimate_covariance.ms", "fitting.estimate_covariance", "ms", None, "ms"),
    ("fitting.nonconverged", "fitting.fit", "sum", "nonconverged", "count"),
    ("spectral.second_order_rate.calls", "spectral.second_order_rate", "calls", None, "count"),
    ("spectral.second_order_rate.ms", "spectral.second_order_rate", "ms", None, "ms"),
    ("spectral.rate_curve.ms", "spectral.rate_curve", "ms", None, "ms"),
    ("spectral.simpson.calls", "spectral.simpson", "calls", None, "count"),
    ("spectral.simpson.ms", "spectral.simpson", "ms", None, "ms"),
    ("spectral.quad_points", "spectral.simpson", "sum", "points", "count"),
    ("spectral.quad_bytes_computed", "spectral.simpson", "sum", "bytes", "B"),
    ("spectral.build_spectral_function.ms", "spectral.build_spectral_function", "ms", None, "ms"),
    ("spectral.two_peak_reference_functions.ms", "spectral.two_peak_reference_functions",
     "ms", None, "ms"),
    ("spectral.spectral_to_csv_text.ms", "spectral.spectral_to_csv_text", "ms", None, "ms"),
    ("spectral.csv_bytes", "spectral.spectral_to_csv_text", "sum", "bytes", "B"),
    ("spectral.refit_theory_curve.ms", "spectral.refit_theory_curve", "ms", None, "ms"),
    ("spectral.quadrature_errors", "spectral.second_order_rate", "errors", "QuadratureError",
     "count"),
    ("dynamics.simulate_experiment.calls", "dynamics.simulate_experiment", "calls", None, "count"),
    ("dynamics.simulate_experiment.ms", "dynamics.simulate_experiment", "ms", None, "ms"),
    ("dynamics.evolve.calls", "dynamics.evolve", "calls", None, "count"),
    ("dynamics.extract_rates.calls", "dynamics.extract_rates", "calls", None, "count"),
    ("dynamics.extract_rates.ms", "dynamics.extract_rates", "ms", None, "ms"),
    ("dynamics.exp_fit.nfev", "dynamics.exp_fit", "sum", "nfev", "count"),
    ("dynamics.row_ratio", "dynamics.extract_rates", "ratio", ("rows", None), "ratio"),
    ("cli.main.self_ms", "cli.main", "self_ms", None, "ms"),
)


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics from the spans of ``n_passes`` traced passes.

    Metrics read from a callable the package no longer has, or from result
    fields it no longer returns, are omitted.
    """
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    children = tracer.children()

    def per_pass_median(spans, value):
        totals = [0] * n_passes
        for span in spans:
            totals[span.pass_index] += value(span)
        return statistics.median(totals) / 1e6

    def statistic(spans, kind, attr):
        if kind == "calls":
            return len(spans) / n_passes
        if kind == "ms":
            return per_pass_median(spans, lambda s: s.duration)
        if kind == "self_ms":
            return per_pass_median(spans, lambda s: tracer.self_ns(s, children))
        if kind == "sum":
            return sum(s.attrs[attr] for s in spans if s.attrs) / n_passes
        if kind == "errors":
            return sum(s.error == attr for s in spans) / n_passes
        # ratio; a call that raised has no attributes but counts as attempted
        num, den = attr
        hits = sum(s.attrs[num] for s in spans if s.attrs)
        total = sum(s.attrs[den] for s in spans if s.attrs) if den else len(spans)
        return hits / total if total else 0.0

    return {
        metric: (float(statistic(by_name.get(source, []), kind, attr)), unit)
        for metric, source, kind, attr, unit in LAYER_METRICS
        if source not in tracer.absent
        and not (kind in ("sum", "ratio") and source in tracer.unreadable)
    }
