"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces the module attributes each layer is called
through with wrappers that record a span (name, parent, start, end) and,
for a few names, a count taken from the call's arguments or result.  Spans
stay in memory until ``Tracer.metrics`` turns them into per-layer numbers;
``Tracer.uninstall`` puts the original functions back.

A layer's time is the self time of its spans: the span's duration minus
the time covered by its direct child spans.  So curvature work inside the
covector transport counts for ``geometry`` and not for ``transport``.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

# (module, attribute) pairs wrapped, named "<module>.<attribute>".
TRACED = (
    ("cli", "load_config"), ("cli", "run_experiment"),
    ("runner", "sample_initial_conditions"), ("runner", "run_trajectory"),
    ("runner", "flow"), ("runner", "transport_covector"), ("runner", "adjoint_residual"),
    ("runner", "verify_monotonicity"), ("runner", "verify_growth"),
    ("runner", "series_records"), ("runner", "_write_csv"),
    ("transport", "curvature_at"), ("transport", "transport_tangent"),
    ("dynamics", "next_collision"), ("dynamics", "_window_candidates"),
)
ROOT = "cli.main"


def _samples(args, kwargs, result):
    """Grid points a diagnostics call evaluates: (interior + 2) per segment."""
    return len(args[0].segments) * (kwargs.get("interior", 8) + 2)


# Counts recorded at the boundary, from the call's arguments and result.
COUNTERS = {
    "dynamics.next_collision": lambda args, kwargs, result: result is not None,
    "runner._write_csv": lambda args, kwargs, result: os.path.getsize(args[0]),
    "runner.verify_monotonicity": _samples,
    "runner.verify_growth": _samples,
    "runner.series_records": _samples,
}


class Tracer:
    """In-memory span recorder for one traced pass of a workload."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts[name] = self.counts.get(name, 0) + int(counter(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        for mod_name, attr in TRACED:
            module = self._modules[mod_name]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.span(f"{mod_name}.{attr}", fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset.

        ``*_us_per_event`` is a layer's self time over the collision count.
        ``trace.coverage`` is the share of ``run_experiment`` time spent in
        the layer spans below it, i.e. outside the self time of
        ``run_experiment`` and ``run_trajectory``.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        self_time = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                self_time[p] -= dur[i]
        total: dict[str, float] = {}
        selfs: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, d, s in zip(self.names, dur, self_time):
            total[name] = total.get(name, 0.0) + d
            selfs[name] = selfs.get(name, 0.0) + s
            calls[name] = calls.get(name, 0) + 1
        traj = sorted(d for n, d in zip(self.names, dur) if n == "runner.run_trajectory")

        events = self.counts.get("dynamics.next_collision", 0)
        windows = calls.get("dynamics._window_candidates", 0)
        per_event = 1e6 / max(events, 1)

        def us_per_event(*names):
            return per_event * sum(selfs.get(n, 0.0) for n in names)

        run_total = total.get("cli.run_experiment", 0.0)
        uncovered = selfs.get("cli.run_experiment", 0.0) + selfs.get("runner.run_trajectory", 0.0)
        p50, p90 = _p50_p90(traj)
        return {
            "dynamics.flow_us_per_event": us_per_event(
                "runner.flow", "dynamics.next_collision", "dynamics._window_candidates"),
            "dynamics.window_us": 1e6 * total.get("dynamics._window_candidates", 0.0)
            / max(windows, 1),
            "dynamics.events": events,
            "dynamics.window_scans": windows,
            "dynamics.hit_ratio": events / max(windows, 1),
            "geometry.curvature_calls": calls.get("transport.curvature_at", 0),
            "geometry.curvature_us_per_event": us_per_event("transport.curvature_at"),
            "transport.covector_us_per_event": us_per_event("runner.transport_covector"),
            "transport.adjoint_us_per_event": us_per_event(
                "runner.adjoint_residual", "transport.transport_tangent"),
            "transport.tangent_transports": calls.get("transport.transport_tangent", 0),
            "diagnostics.monotonicity_us_per_event": us_per_event("runner.verify_monotonicity"),
            "diagnostics.growth_us_per_event": us_per_event("runner.verify_growth"),
            "diagnostics.records_us_per_event": us_per_event("runner.series_records"),
            "diagnostics.samples": sum(self.counts.get(n, 0) for n in (
                "runner.verify_monotonicity", "runner.verify_growth", "runner.series_records")),
            "runner.traj_ms_p50": 1e3 * p50,
            "runner.traj_ms_p90": 1e3 * p90,
            "runner.traj_count": len(traj),
            "runner.sample_ms": 1e3 * total.get("runner.sample_initial_conditions", 0.0),
            "runner.csv_ms": 1e3 * total.get("runner._write_csv", 0.0),
            "runner.csv_bytes": self.counts.get("runner._write_csv", 0),
            "runner.self_ms": 1e3 * selfs.get("cli.run_experiment", 0.0),
            "config.load_ms": 1e3 * total.get("cli.load_config", 0.0),
            "cli.report_ms": 1e3 * selfs.get(ROOT, 0.0),
            "trace.coverage": 1.0 - uncovered / run_total if run_total > 0.0 else 0.0,
        }


def _p50_p90(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]
