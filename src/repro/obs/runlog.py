"""Wall-clock run telemetry: a second clock domain for the PR 1 exporters.

Every tracer in :mod:`repro.sim.trace` records *simulated* picoseconds.
A suite run also has a wall-clock story — workers forking, entries
queueing, the cache answering — and that story fits the very same
:class:`~repro.sim.trace.TraceRecord` / Perfetto machinery, just with a
different meaning for the timestamp: a :class:`RunLog` stamps records
with **host nanoseconds since the log opened, scaled to the exporter's
picosecond unit** (1 ns of wall time = 1000 "ps"), so
``tca-bench suite --trace-out`` produces a Perfetto file where one
nanosecond of wall clock renders exactly like one nanosecond of
simulated time would.

The log also owns a wall-clock :class:`~repro.obs.metrics.MetricsRegistry`
(cache hit/miss latency histograms, worker gauges) whose gauge clock is
the same scaled wall clock.

Cross-process spans: worker processes report *offsets from the parent's
origin*.  ``time.perf_counter_ns`` reads ``CLOCK_MONOTONIC`` on the
platforms we run on, which is machine-wide, and fork workers inherit the
origin directly — good enough for a timeline whose spans are
milliseconds long.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, List

from repro.obs import exporters
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import TraceRecord

#: Scale between the wall clock (ns) and TraceRecord's unit (ps).
PS_PER_WALL_NS = 1000


class RunLog:
    """Wall-clock spans + instants + metrics for one run of something."""

    def __init__(self, label: str = "suite",
                 clock_ns: Callable[[], int] = time.perf_counter_ns):
        self.label = label
        self._clock_ns = clock_ns
        self.origin_ns = clock_ns()
        self.records: List[TraceRecord] = []
        self.metrics = MetricsRegistry(clock=self.now_ps)

    # -- the wall clock, in the exporter's unit ----------------------------

    def now_ps(self) -> int:
        """Scaled nanoseconds since the log opened."""
        return (self._clock_ns() - self.origin_ns) * PS_PER_WALL_NS

    # -- recording ----------------------------------------------------------

    def event(self, component: str, kind: str, **detail: Any) -> None:
        """One instant record at the current wall time."""
        self.records.append(
            TraceRecord(self.now_ps(), component, kind, detail))

    def add_span(self, component: str, kind: str, start_ps: int,
                 dur_ps: int, **detail: Any) -> None:
        """One complete span from explicit (scaled) wall timestamps.

        Follows the tracer's span convention: the record is stamped at
        the interval's *end* and carries ``dur_ps``.
        """
        detail["dur_ps"] = int(dur_ps)
        self.records.append(
            TraceRecord(int(start_ps) + int(dur_ps), component, kind,
                        detail))

    @contextlib.contextmanager
    def span(self, component: str, kind: str, **detail: Any):
        """Context manager recording the enclosed block as a span."""
        start = self.now_ps()
        try:
            yield
        finally:
            self.add_span(component, kind, start, self.now_ps() - start,
                          **detail)

    def timed(self, component: str, kind: str, fn: Callable[[], Any],
              **detail: Any) -> Any:
        """Run ``fn()`` inside a span; returns its result."""
        with self.span(component, kind, **detail):
            return fn()

    # -- export -------------------------------------------------------------

    def perfetto_trace(self) -> Dict[str, Any]:
        """The Perfetto document for this wall-clock domain alone."""
        return exporters.perfetto_trace([(self.label, self.records, None)])

    def write_trace(self, path: str) -> None:
        """Write the Perfetto-loadable JSON for this run to ``path``."""
        exporters.write_perfetto(path, [(self.label, self.records, None)])

    def summary(self) -> Dict[str, Any]:
        """Compact JSON telemetry: record count + every metric's dump."""
        return {
            "label": self.label,
            "records": len(self.records),
            "wall_ms": round(self.now_ps() / PS_PER_WALL_NS / 1e6, 3),
            "metrics": self.metrics.to_dict(self.now_ps()),
        }
