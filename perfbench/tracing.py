"""Layer spans recorded from outside the package.

A :class:`Tracer` replaces the public functions of each layer, at the module
attributes the package calls them through, with wrappers that record one
span per call: name, start, end and the span that was open when the call
began.  Spans stay in memory while the workload runs; :meth:`Tracer.save`
writes them out at the end and :meth:`Tracer.summary` turns them into the
per-layer metrics.  Nothing in the package is edited, and :meth:`uninstall`
puts every original attribute back.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

LAYERS = ("special", "distributions", "limits", "estimators", "simulate", "cli")

#: (module the program calls through, attribute, span name)
TARGETS = (
    ("threshdist.special", "integrate_rho", "special.integrate_rho"),
    ("threshdist.special", "noncentral_t_cdf", "special.noncentral_t_cdf"),
    ("threshdist.distributions", "cdf", "distributions.cdf"),
    ("threshdist.distributions", "ac_density", "distributions.ac_density"),
    ("threshdist.distributions", "deletion_probability", "distributions.deletion_probability"),
    ("threshdist.limits", "limit_distribution", "limits.limit_distribution"),
    ("threshdist.limits", "tv_distance", "limits.tv_distance"),
    ("threshdist.simulate", "lasso", "estimators.lasso"),
    ("threshdist.simulate", "adaptive_lasso", "estimators.adaptive_lasso"),
    ("threshdist.simulate", "RegressionData", "estimators.RegressionData"),
    ("threshdist.estimators", "least_squares", "estimators.least_squares"),
    ("threshdist.estimators", "xi_values", "estimators.xi_values"),
    ("threshdist.simulate", "xi_values", "estimators.xi_values"),
    ("threshdist.simulate", "threshold_estimate", "estimators.threshold_estimate"),
    ("threshdist.simulate", "replication_noise", "simulate.replication_noise"),
    ("threshdist.simulate", "run_study", "simulate.run_study"),
    ("threshdist.simulate", "reproduce_figures", "simulate.reproduce_figures"),
    ("threshdist.cli", "main", "cli.main"),
)

#: methods of the limit-law classes, which hold the work of evaluating a law
LIMIT_METHODS = ("cdf", "ac_density")

#: spans split by (kind, variance mode), read from the first two arguments
BY_VARIANT = ("distributions.cdf", "distributions.ac_density")

#: spans whose NonConvergenceError is counted before it propagates
SOLVERS = ("estimators.lasso", "estimators.adaptive_lasso")


def _per_layer():
    out = []

    def add(name, *fields):
        for f in fields:
            unit = {"calls": "count", "per_call_us": "us"}.get(f, "s")
            out.append((f"{name}.{f}", unit))

    add("special.integrate_rho", "calls", "total_s")
    add("special.noncentral_t_cdf", "calls", "total_s")
    for fn in ("cdf", "ac_density"):
        add(f"distributions.{fn}", "calls", "total_s")
    for fn in ("cdf", "ac_density"):
        for kind in ("hard", "soft", "adaptive"):
            for mode in ("known", "unknown"):
                add(f"distributions.{fn}.{kind}.{mode}", "per_call_us")
    add("distributions.deletion_probability", "calls", "total_s")
    add("limits.limit_distribution", "calls", "total_s")
    for meth in LIMIT_METHODS:
        add(f"limits.LimitDistribution.{meth}", "calls", "total_s")
    add("limits.tv_distance", "calls", "total_s", "self_s")
    for fn in ("lasso", "adaptive_lasso"):
        add(f"estimators.{fn}", "calls", "total_s", "per_call_us")
    out.append(("estimators.nonconverged", "count"))
    for fn in ("RegressionData", "least_squares", "xi_values", "threshold_estimate"):
        add(f"estimators.{fn}", "calls", "total_s")
    add("simulate.replication_noise", "calls", "total_s", "per_call_us")
    add("simulate.run_study", "self_s")
    add("simulate.reproduce_figures", "self_s")
    add("cli.main", "calls", "self_s")
    for layer in LAYERS:
        add(layer, "self_s")
    add("trace", "wall_s", "unaccounted_s")
    out.append(("trace_overhead_s", "s"))
    return tuple(out)


#: every per-layer metric of a traced run, with its unit; values are per round
PER_LAYER = _per_layer()


def _variant(args) -> str:
    kind, mode = args[0], args[1]
    return f"{kind}.{'known' if mode.dof is None else 'unknown'}"


class Tracer:
    """Wrap the layer functions and record their spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one tuple per span: (name id, parent span index or -1, start, end)
        self.spans: list = []
        self.rounds: list[tuple[int, int, float]] = []  # (first span, end span, wall)
        self.nonconverged = 0
        self._stack: list[int] = []
        self._saved: list = []
        self._first = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        spans, stack, ident = self.spans, self._stack, self._id
        clock = time.perf_counter
        base = ident(name)
        variant = name in BY_VARIANT
        solver = name in SOLVERS
        from threshdist.estimators import NonConvergenceError

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except NonConvergenceError:
                if solver:
                    self.nonconverged += 1
                raise
            finally:
                end = clock()
                stack.pop()
                key = ident(f"{name}.{_variant(args)}") if variant else base
                spans[index] = (key, parent, start, end)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists; missing ones simply record nothing."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
        limits = importlib.import_module("threshdist.limits")
        for cls in vars(limits).values():
            if isinstance(cls, type) and issubclass(cls, limits.LimitDistribution):
                for meth in LIMIT_METHODS:
                    if meth in vars(cls):
                        original = vars(cls)[meth]
                        self._saved.append((cls, meth, original))
                        setattr(cls, meth, self._wrap(original, f"limits.LimitDistribution.{meth}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_round(self) -> None:
        self._first = len(self.spans)

    def end_round(self, wall: float) -> None:
        """Close a round whose traced operations took ``wall`` seconds."""
        self.rounds.append((self._first, len(self.spans), wall))

    def save(self, path: str) -> None:
        """Write every span as columns of a compressed numpy archive."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(self.names), name=arr[:, 0].astype(np.int32),
                            parent=arr[:, 1].astype(np.int64), start=arr[:, 2],
                            end=arr[:, 3], rounds=np.array(self.rounds, dtype=float))

    def summary(self) -> dict:
        """Per-layer metrics, per round (times are medians over traced rounds)."""
        per_round = [self._round_totals(a, b, wall) for a, b, wall in self.rounds]
        nrounds = len(per_round)
        keys = sorted({k for totals in per_round for k in totals})
        out = {}
        for key in keys:
            values = [totals.get(key, 0.0) for totals in per_round]
            out[key] = statistics.median(values)
        calls = {k: sum(t.get(k, 0.0) for t in per_round) / nrounds
                 for k in keys if k.endswith(".calls")}
        out.update(calls)
        totals = {k: sum(t.get(k, 0.0) for t in per_round) for k in keys if k.endswith(".total_s")}
        for key, total in totals.items():
            name = key[: -len(".total_s")]
            n = calls.get(f"{name}.calls", 0.0) * nrounds
            out[f"{name}.per_call_us"] = 1e6 * total / n if n else 0.0
        out["estimators.nonconverged"] = self.nonconverged / nrounds
        return out

    def _round_totals(self, first: int, end: int, wall: float) -> dict:
        spans = self.spans[first:end]
        child = [0.0] * len(spans)
        for key, parent, start, stop in spans:
            if parent >= first:
                child[parent - first] += stop - start
        totals: dict[str, float] = {}
        covered = 0.0
        for i, (key, parent, start, stop) in enumerate(spans):
            name = self.names[key]
            dur = stop - start
            own = dur - child[i]
            names = [name]
            base = next((b for b in BY_VARIANT if name.startswith(b + ".")), None)
            if base:
                names.append(base)
            for n in names:
                totals[f"{n}.calls"] = totals.get(f"{n}.calls", 0.0) + 1
                totals[f"{n}.total_s"] = totals.get(f"{n}.total_s", 0.0) + dur
                totals[f"{n}.self_s"] = totals.get(f"{n}.self_s", 0.0) + own
            layer = name.split(".", 1)[0]
            totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + own
            if parent < first:
                covered += dur
        totals["trace.wall_s"] = wall
        totals["trace.unaccounted_s"] = wall - covered
        return totals
