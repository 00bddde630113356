"""Statistical host-time sampler: which layer of :mod:`repro` spent it.

Every other instrument in :mod:`repro.obs` watches *simulated* time; this
one answers where *host* time goes.  A :class:`Sampler` arms
``signal.setitimer(ITIMER_PROF)``; on every SIGPROF its handler walks out
from the interrupted frame to the innermost ``repro.*`` frame and books
one sample to

* **layer** — the package under ``repro.`` (``sim``, ``pcie``,
  ``peach2``, ``hw``, ``bench``, …), and
* **site** — that frame's ``module.qualname``, the thing a human
  optimizes.

A stack with no ``repro`` frame at all is booked to :data:`OTHER`.
Nothing in the simulator is hooked: engines dispatch on their production
path (batch-advance included) and every simulated-time output is
picosecond-identical to an unprofiled run.

``ITIMER_PROF`` counts process CPU time, and the kernel delivers it at
its own tick: a requested 1 ms interval arrived at ~230 Hz on a 2-core
Linux VM.  A report therefore turns sample counts into wall estimates by
the measured window (``window_ns * samples / total``), never by
:data:`INTERVAL_S`.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
from dataclasses import dataclass
from types import FrameType
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError

#: Requested SIGPROF interval in CPU seconds (see the module docstring
#: for why the delivered rate is lower).
INTERVAL_S = 0.001

#: Layer and site of a sample whose stack holds no ``repro`` frame.
OTHER = "(other)"


def classify(frame: Optional[FrameType]) -> Tuple[str, str]:
    """``(layer, site)`` of the innermost ``repro.*`` frame at or below
    ``frame`` on the call stack, or ``(OTHER, OTHER)`` if there is none."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro."):
            code = frame.f_code
            # co_qualname is Python 3.11+; on 3.10 a site names the bare
            # function, without its class.
            name = getattr(code, "co_qualname", code.co_name)
            return module.split(".", 2)[1], f"{module}.{name}"
        frame = frame.f_back
    return OTHER, OTHER


@dataclass(frozen=True)
class ProfileEntry:
    """Samples booked to one (layer, site) bucket."""

    layer: str
    site: str
    samples: int
    #: Estimated host nanoseconds: the bucket's share of the window.
    wall_ns: int

    def to_dict(self, total: int) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "site": self.site,
            "samples": self.samples,
            "share": round(self.samples / total, 4),
            "wall_ns": self.wall_ns,
        }


class ProfileReport:
    """One sampling window's layers and sites, ready to rank and render."""

    def __init__(self, counts: Dict[Tuple[str, str], int], window_ns: int,
                 label: str = ""):
        self.samples = sum(counts.values())
        self.window_ns = window_ns
        self.label = label
        per_sample = window_ns / self.samples if self.samples else 0.0
        self.entries = sorted(
            (ProfileEntry(layer, site, n, round(n * per_sample))
             for (layer, site), n in counts.items()),
            key=lambda e: (-e.samples, e.site))

    def top(self, n: int = 10) -> List[ProfileEntry]:
        """The ``n`` most-sampled sites."""
        return self.entries[:n]

    def layers(self) -> Dict[str, float]:
        """Layer -> share of all samples, largest first; sums to 1."""
        totals: Dict[str, int] = {}
        for e in self.entries:
            totals[e.layer] = totals.get(e.layer, 0) + e.samples
        return {layer: n / self.samples for layer, n
                in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))}

    @property
    def rate_hz(self) -> float:
        """Delivered sample rate over the window."""
        return self.samples * 1e9 / self.window_ns if self.window_ns else 0.0

    def to_dict(self, top_n: int = 25) -> Dict[str, Any]:
        return {
            "schema": "tca-bench-profile/2",
            "label": self.label,
            "window_ns": self.window_ns,
            "samples": self.samples,
            "interval_s": INTERVAL_S,
            "rate_hz": round(self.rate_hz, 1),
            "layers": {layer: round(share, 4)
                       for layer, share in self.layers().items()},
            "hotspots": [e.to_dict(self.samples) for e in self.top(top_n)],
        }

    def render(self, top_n: int = 15) -> str:
        """Terminal table: layers, then the most-sampled sites."""
        total = self.samples or 1
        lines = [f"{'layer':<12} {'share':>7} {'est_ms':>9}", "-" * 30]
        for layer, share in self.layers().items():
            lines.append(f"{layer:<12} {100 * share:>6.1f}% "
                         f"{share * self.window_ns / 1e6:>9.1f}")
        lines.append("")
        header = f"{'layer':<12} {'samples':>8} {'share':>7}  site"
        lines += [header, "-" * len(header)]
        for e in self.top(top_n):
            lines.append(f"{e.layer:<12} {e.samples:>8} "
                         f"{100 * e.samples / total:>6.1f}%  {e.site}")
        lines.append("")
        lines.append(
            f"{self.samples} samples over a {self.window_ns / 1e6:.1f} ms "
            f"window ({self.rate_hz:.0f} Hz delivered, "
            f"{1 / INTERVAL_S:.0f} Hz requested)")
        return "\n".join(lines)


class Sampler:
    """Books SIGPROF samples by (layer, site); run code in ``session()``.

    Sessions may repeat; samples and window time accumulate across them.
    """

    def __init__(self) -> None:
        self._counts: Dict[Tuple[str, str], int] = {}
        self._window_ns = 0

    def _on_sample(self, signum: int, frame: Optional[FrameType]) -> None:
        key = classify(frame)
        self._counts[key] = self._counts.get(key, 0) + 1

    @contextlib.contextmanager
    def session(self) -> Iterator["Sampler"]:
        """Sample the block; the previous SIGPROF handler and a disarmed
        ``ITIMER_PROF`` are restored on exit, also when the block raises.

        Python runs signal handlers on the main thread only, so the
        session must start there.
        """
        if threading.current_thread() is not threading.main_thread():
            raise ConfigError("the sampler must start on the main thread "
                              "(SIGPROF handlers run only there)")
        previous = signal.signal(signal.SIGPROF, self._on_sample)
        start = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self._window_ns += time.perf_counter_ns() - start

    def report(self, label: str = "") -> ProfileReport:
        """Snapshot the samples into a rankable report."""
        return ProfileReport(dict(self._counts), self._window_ns, label=label)
