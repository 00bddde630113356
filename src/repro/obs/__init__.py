"""repro.obs — cross-cutting observability for the simulated fabric.

Seven pieces, layered on the :class:`repro.sim.trace.Tracer` hook that
every component already funnels through:

* :mod:`repro.obs.events` — the structured-event taxonomy (kind names);
* :mod:`repro.obs.metrics` — counters, time-weighted gauges, histograms;
* :mod:`repro.obs.attribution` — decompose a measured interval into named
  segments (the Fig. 10 / Fig. 9 latency budgets);
* :mod:`repro.obs.exporters` — Chrome/Perfetto trace JSON + metrics dumps;
* :mod:`repro.obs.profile` — statistical host-time sampler (which layer
  and which code site spent the wall time);
* :mod:`repro.obs.runlog` — wall-clock run telemetry for the suite runner
  (worker timelines, cache latencies) in a second Perfetto clock domain;
* :mod:`repro.obs.critpath` — collective critical-path analyzer (which
  dependency dominates each allreduce step: queue, wire, or flag stall).

:class:`Observability` ties them together; the bench CLI exposes it as
``tca-bench <exp> --trace out.json --metrics out.json``.  Disabled-path
cost at every instrumentation site is one attribute check (``engine.tracer
is None`` / ``engine.metrics is None``), so paper numbers are unchanged.
"""

from repro.obs.attribution import (AttributionError, Segment, attribute_dma,
                                   attribute_pio, pio_reference_budget,
                                   render, total_ps)
from repro.obs.critpath import (CollectiveRecorder, CritPathReport,
                                StepReport, analyze, record_collective,
                                trace_collective)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry)
from repro.obs.profile import ProfileEntry, ProfileReport, Sampler
from repro.obs.runlog import PS_PER_WALL_NS, RunLog
from repro.obs.session import Observability

__all__ = [
    "AttributionError",
    "CollectiveRecorder",
    "Counter",
    "CritPathReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "PS_PER_WALL_NS",
    "ProfileEntry",
    "ProfileReport",
    "RunLog",
    "Sampler",
    "Segment",
    "StepReport",
    "analyze",
    "attribute_dma",
    "attribute_pio",
    "pio_reference_budget",
    "record_collective",
    "render",
    "total_ps",
    "trace_collective",
]
