"""The Observability facade: attach tracing + metrics to engines.

One :class:`Observability` owns a tracer and a metrics registry *per
engine* (experiments build a fresh engine per rig, and mixing their
picosecond timelines would be meaningless), and knows how to export the
union — a multi-process Perfetto trace and a per-engine metrics document.

Two ways to wire it up::

    obs = Observability()
    obs.attach(engine, label="loopback")      # explicit, one engine

    with obs.session():                        # implicit, every engine
        experiments.latency()                  # created inside the block

The session form hooks :func:`repro.sim.core.register_engine_observer`,
which is how ``tca-bench <exp> --trace out.json`` captures rigs it never
sees constructed.  Attaching only sets the engine's ``tracer``/``metrics``
attributes — it schedules nothing, so instrumented runs are cycle-exact
with uninstrumented ones.
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Tuple

from repro.obs import exporters
from repro.obs.attribution import AttributionError, Segment, attribute_pio
from repro.obs.metrics import MetricsRegistry
from repro.sim.core import (Engine, register_engine_observer,
                            unregister_engine_observer)
from repro.sim.trace import Tracer

#: Generous default: a 255-descriptor chain emits a few thousand events.
DEFAULT_MAX_RECORDS = 1_000_000


class Observability:
    """Cross-cutting tracing + metrics for any number of engines."""

    def __init__(self, tracing: bool = True, metrics: bool = True,
                 max_records: Optional[int] = DEFAULT_MAX_RECORDS,
                 histogram_reservoir: Optional[int] = None):
        self.tracing = tracing
        self.metrics = metrics
        self.max_records = max_records
        #: Bounded-memory mode for long runs: cap every histogram at this
        #: many sampled values (see :class:`repro.obs.metrics.Histogram`).
        self.histogram_reservoir = histogram_reservoir
        #: (label, engine, tracer, registry) per attached engine.
        self.attached: List[Tuple[str, Engine, Tracer, MetricsRegistry]] = []

    # -- wiring -------------------------------------------------------------

    def attach(self, engine: Engine, label: Optional[str] = None) -> None:
        """Install a fresh tracer/registry pair on ``engine``."""
        label = label or f"engine{len(self.attached)}"
        tracer = Tracer(max_records=self.max_records)
        registry = MetricsRegistry(
            clock=lambda e=engine: e.now_ps,
            histogram_reservoir=self.histogram_reservoir)
        if self.tracing:
            engine.tracer = tracer
        if self.metrics:
            engine.metrics = registry
        self.attached.append((label, engine, tracer, registry))

    @contextlib.contextmanager
    def session(self):
        """Attach to every :class:`Engine` constructed inside the block."""
        register_engine_observer(self.attach)
        try:
            yield self
        finally:
            unregister_engine_observer(self.attach)

    # -- access -------------------------------------------------------------

    def tracer_for(self, engine: Engine) -> Optional[Tracer]:
        for _, eng, tracer, _ in self.attached:
            if eng is engine:
                return tracer
        return None

    def registry_for(self, engine: Engine) -> Optional[MetricsRegistry]:
        for _, eng, _, registry in self.attached:
            if eng is engine:
                return registry
        return None

    @property
    def total_records(self) -> int:
        return sum(len(t) for _, _, t, _ in self.attached)

    @property
    def total_dropped(self) -> int:
        return sum(t.dropped for _, _, t, _ in self.attached)


    # -- export -------------------------------------------------------------

    def _trace_tuples(self):
        tuples = []
        for label, _, tracer, _ in self.attached:
            segments: List[Segment] = []
            try:
                segments = attribute_pio(tracer.records)
            except AttributionError:
                pass
            tuples.append((label, tracer.records, segments))
        return tuples

    def _metric_tuples(self):
        return [(label, registry, engine.now_ps)
                for label, engine, _, registry in self.attached]

    def perfetto_trace(self) -> dict:
        """The merged Perfetto document (one process per engine)."""
        return exporters.perfetto_trace(self._trace_tuples())

    def write_trace(self, path: str) -> None:
        """Write the merged Perfetto JSON trace to ``path``."""
        exporters.write_perfetto(path, self._trace_tuples())

    def metrics_document(self) -> dict:
        """The merged metrics document (one entry per engine)."""
        return exporters.metrics_document(self._metric_tuples())

    def write_metrics(self, path: str) -> None:
        """Write the merged metrics JSON to ``path``."""
        exporters.write_metrics(path, self._metric_tuples())

    def render_metrics(self) -> str:
        """Terminal-friendly dump of every attached registry."""
        return exporters.render_metrics(self._metric_tuples())
