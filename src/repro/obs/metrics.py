"""Counters, time-weighted gauges, histograms, and their registry.

The registry is the quantitative half of :mod:`repro.obs` (the tracer is
the event half): components increment counters for discrete happenings
(TLPs forwarded, chains completed), sample gauges for instantaneous state
whose *time-weighted* average matters (link busy/idle, egress queue
depth), and feed histograms with per-item durations (chain latency).

Everything is pure bookkeeping in simulated time — no engine events are
scheduled, so attaching a registry can never perturb a measurement.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence


class Metric:
    """Base: a named instrument owned by one registry."""

    def __init__(self, name: str):
        self.name = name

    def to_dict(self, now_ps: Optional[int] = None) -> Dict[str, Any]:
        raise NotImplementedError  # pragma: no cover - abstract


class Counter(Metric):
    """A monotonically increasing count (events, bytes...)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (defaults to one event)."""
        self.value += n

    def to_dict(self, now_ps: Optional[int] = None) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge(Metric):
    """A sampled level whose **time-weighted** statistics matter.

    ``set(value, time_ps)`` records the level from ``time_ps`` onward; the
    mean integrates level x duration, so a link that is busy (1) for 30 ns
    out of a 100 ns window reports a 0.3 utilization no matter how many
    samples were taken.  The observation window starts at the first sample.
    """

    def __init__(self, name: str, clock: Optional[Callable[[], int]] = None):
        super().__init__(name)
        self._clock = clock
        self.last: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples = 0
        self._start_ps: Optional[int] = None
        self._last_ps: Optional[int] = None
        self._integral = 0.0  # sum of level * dt since _start_ps

    def set(self, value: float, time_ps: Optional[int] = None) -> None:
        """Record that the level is ``value`` from ``time_ps`` onward."""
        if time_ps is None:
            if self._clock is None:
                raise ValueError(f"gauge {self.name!r} has no clock; "
                                 "pass time_ps explicitly")
            time_ps = self._clock()
        last_ps = self._last_ps
        if last_ps is not None:
            self._integral += self.last * (time_ps - last_ps)
        else:
            self._start_ps = time_ps
        self._last_ps = time_ps
        self.last = value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.samples += 1

    def mean(self, now_ps: Optional[int] = None) -> Optional[float]:
        """Time-weighted average over [first sample, ``now_ps``].

        With no clock wired and ``now_ps`` omitted, the window closes at
        the *last sample time* instead of failing — the mean over every
        observed transition is always computable, so exporters never have
        to drop it.
        """
        if self._last_ps is None:
            return None
        if now_ps is not None:
            t = now_ps
        elif self._clock is not None:
            t = self._clock()
        else:
            t = self._last_ps
        span = t - self._start_ps
        if span <= 0:
            return float(self.last)
        return (self._integral + self.last * (t - self._last_ps)) / span

    def to_dict(self, now_ps: Optional[int] = None) -> Dict[str, Any]:
        return {"type": "gauge", "last": self.last,
                "min": self.min, "max": self.max,
                "samples": self.samples, "mean": self.mean(now_ps)}


class Histogram(Metric):
    """A distribution of observed values (durations, sizes...).

    By default values are kept verbatim — experiment runs observe at most
    a few hundred thousand items, and exact percentiles beat bucket error
    when the point is to *explain* a latency budget.

    Long-running jobs (chaos soaks, hour-scale sweeps) instead pass a
    ``reservoir`` size: the histogram then keeps a uniform random sample
    of that many values (Vitter's Algorithm R) in bounded memory.
    ``count``, ``mean``, ``min`` and ``max`` stay exact; percentiles are
    estimated from the reservoir.  Sampling uses a private RNG seeded from
    the metric name, so runs stay deterministic, and draws happen only in
    bookkeeping — never on the engine — so measurements are unperturbed.
    """

    def __init__(self, name: str, reservoir: Optional[int] = None):
        super().__init__(name)
        if reservoir is not None and reservoir <= 0:
            raise ValueError(f"histogram {name!r}: reservoir size must be "
                             f"positive, got {reservoir}")
        self.reservoir = reservoir
        self.values: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        """Record one value (O(1) memory when a reservoir is set)."""
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self.reservoir is None or len(self.values) < self.reservoir:
            self.values.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.reservoir:
                self.values[slot] = value

    @property
    def count(self) -> int:
        """Exact number of observations (not the reservoir occupancy)."""
        return self._count

    def mean(self) -> Optional[float]:
        """Exact mean over every observation."""
        if not self._count:
            return None
        return self._sum / self._count

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100].

        p=0 and p=100 return the exact observed min/max even when a
        reservoir is set — the extremes are tracked outside the sample,
        so they never degrade with sampling.
        """
        if not self.values:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if p == 0:
            return self._min
        if p == 100:
            return self._max
        ordered = sorted(self.values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> Dict[str, Any]:
        """count/mean/min/p50/p90/p99/max in one dict.

        count/mean/min/max are exact even in reservoir mode; the
        percentiles come from the (possibly sampled) ``values``.
        """
        if not self._count:
            return {"count": 0}
        return {
            "count": self._count,
            "mean": self.mean(),
            "min": self._min,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self._max,
        }

    def to_dict(self, now_ps: Optional[int] = None) -> Dict[str, Any]:
        out: Dict[str, Any] = {"type": "histogram"}
        out.update(self.summary())
        return out


class MetricsRegistry:
    """Get-or-create home for one engine's instruments.

    ``clock`` (usually ``lambda: engine.now_ps``) stamps gauge samples so
    call sites never pass time explicitly on the hot path.
    ``histogram_reservoir`` caps every histogram created through this
    registry at that many sampled values (bounded memory for long runs);
    ``None`` keeps the default store-everything behaviour.
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None,
                 histogram_reservoir: Optional[int] = None):
        self._clock = clock
        self._histogram_reservoir = histogram_reservoir
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(f"metric {name!r} is a "
                             f"{type(metric).__name__}, not a {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, clock=self._clock)

    def histogram(self, name: str,
                  reservoir: Optional[int] = None) -> Histogram:
        if reservoir is None:
            reservoir = self._histogram_reservoir
        return self._get(name, Histogram, reservoir=reservoir)

    def names(self) -> Sequence[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def to_dict(self, now_ps: Optional[int] = None) -> Dict[str, Any]:
        """All instruments as plain JSON-ready data, sorted by name."""
        return {name: self._metrics[name].to_dict(now_ps)
                for name in self.names()}

    def render_text(self, now_ps: Optional[int] = None) -> str:
        """Flat ``name key=value ...`` lines for terminal consumption."""
        lines = []
        for name, data in self.to_dict(now_ps).items():
            kind = data.pop("type")
            items = " ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in data.items() if v is not None)
            lines.append(f"{name} [{kind}] {items}")
        return "\n".join(lines)
