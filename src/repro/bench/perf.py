"""Wall-clock performance harness for the simulator itself, and its gate.

Every other module in :mod:`repro.bench` measures *simulated* time; this
one measures *host* time — how fast the event loop chews through a
representative slice of the paper's experiments.  It exists so that
performance work on the engine has a trajectory: run ``tca-bench perf``
before and after a change, compare events/second, and commit the JSON
document (``tca-bench perf --bench-json BENCH_PR9.json``) so the next
change has a baseline to beat.

Each experiment is timed twice — **bare** (no observability attached) and
**instrumented** (a full :class:`~repro.obs.session.Observability` session:
tracing + metrics on every engine) — because the instrumented path is the
one humans actually iterate with, and its overhead factor is itself a
regression target.  Engines are collected via the same
:func:`~repro.sim.core.register_engine_observer` hook the observability
session uses, so the harness adds zero events to any engine: wall-clock
numbers vary run to run, but every simulated-time output stays
picosecond-identical to an unharnessed run.

The **gate** (:func:`check_against_baseline`, behind ``tca-bench perf
--check``) compares a fresh ``tca-bench-perf/1`` document to a committed
baseline and fails on a >15 % bare events/s regression or an
instrumented/bare overhead ratio over budget; CI hangs on its exit
status.  It compares per experiment and only over experiments present
in *both* documents, so a tiny CI budget (``--perf-experiments
contention``) can gate against the full committed baseline.
"""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench import experiments
from repro.sim.core import (Engine, register_engine_observer,
                            unregister_engine_observer)

#: What ``tca-bench perf`` times: a PIO sweep (fig7), a DMA chain sweep
#: (fig9), the cross-technology comparison (comparison-gpu) and the
#: many-flow congestion scenario (contention) — together they exercise
#: every hot path: stores, links, switches, DMA engines and collectives.
PERF_EXPERIMENTS: Dict[str, Callable[[], object]] = {
    "fig7": experiments.fig7,
    "fig9": experiments.fig9,
    "comparison-gpu": experiments.comparison_gpu,
    "contention": experiments.contention,
}

#: Version tag of the JSON document written by ``--bench-json``.
SCHEMA = "tca-bench-perf/1"

#: Default gate limits: fail on >15 % bare events/s regression, or an
#: instrumented/bare overhead ratio above 2.0x (contention measures
#: 1.2-1.5x since trace records are stored as rows, so 2.0x means
#: "observability cost regressed badly").
DEFAULT_THRESHOLD = 0.15
DEFAULT_OVERHEAD_BUDGET = 2.0


@dataclass
class PerfSample:
    """One timed run of one experiment in one mode."""

    experiment: str
    mode: str  # "bare" | "instrumented"
    wall_s: float
    events: int
    engines: int

    @property
    def events_per_s(self) -> float:
        """Throughput; 0.0 for a degenerate zero-duration run."""
        if self.wall_s <= 0:
            return 0.0
        return self.events / self.wall_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "mode": self.mode,
            "wall_s": round(self.wall_s, 4),
            "events": self.events,
            "engines": self.engines,
            "events_per_s": round(self.events_per_s, 1),
        }


@dataclass
class PerfReport:
    """All samples of one harness run plus environment provenance."""

    samples: List[PerfSample] = field(default_factory=list)
    unix_time: float = 0.0

    def overhead(self, experiment: str) -> Optional[float]:
        """Instrumented/bare wall-clock ratio for one experiment."""
        bare = inst = None
        for s in self.samples:
            if s.experiment == experiment:
                if s.mode == "bare":
                    bare = s.wall_s
                elif s.mode == "instrumented":
                    inst = s.wall_s
        if not bare or inst is None:
            return None
        return inst / bare

    def overall_overhead(self) -> Optional[float]:
        """Aggregate instrumented/bare wall ratio across all experiments."""
        bare = sum(s.wall_s for s in self.samples if s.mode == "bare")
        inst = sum(s.wall_s for s in self.samples
                   if s.mode == "instrumented")
        if not bare or not inst:
            return None
        return inst / bare

    def to_dict(self) -> Dict[str, Any]:
        """The ``--bench-json`` document (see docs/performance.md)."""
        totals = {
            "wall_s": round(sum(s.wall_s for s in self.samples), 4),
            "events": sum(s.events for s in self.samples),
        }
        wall = totals["wall_s"]
        totals["events_per_s"] = round(totals["events"] / wall, 1) if wall else 0.0
        overall = self.overall_overhead()
        if overall is not None:
            totals["overhead_ratio"] = round(overall, 3)
        return {
            "schema": SCHEMA,
            "unix_time": round(self.unix_time, 3),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "results": [s.to_dict() for s in self.samples],
            "totals": totals,
        }

    def __str__(self) -> str:
        header = (f"{'experiment':<16} {'mode':<13} {'wall_s':>8} "
                  f"{'events':>10} {'events/s':>12} {'overhead':>9}")
        lines = [header, "-" * len(header)]
        for s in self.samples:
            ratio = (self.overhead(s.experiment)
                     if s.mode == "instrumented" else None)
            overhead = f"x{ratio:.2f}" if ratio is not None else ""
            lines.append(f"{s.experiment:<16} {s.mode:<13} {s.wall_s:>8.2f} "
                         f"{s.events:>10} {s.events_per_s:>12.0f} "
                         f"{overhead:>9}")
        ratios = []
        for name in dict.fromkeys(s.experiment for s in self.samples):
            ratio = self.overhead(name)
            if ratio is not None:
                ratios.append(f"{name} x{ratio:.2f}")
        if ratios:
            lines.append("")
            lines.append("observability overhead: " + ", ".join(ratios))
        return "\n".join(lines)


def _timed(fn: Callable[[], object], instrumented: bool) -> PerfSample:
    """Run ``fn`` once, collecting every engine it constructs.

    Every perf experiment runs its sweep inline, so the observer hook
    sees each engine the run builds.
    """
    engines: List[Engine] = []
    collect = engines.append
    register_engine_observer(collect)
    try:
        if instrumented:
            from repro.obs import Observability

            obs = Observability()
            start = time.perf_counter()
            with obs.session():
                fn()
            wall = time.perf_counter() - start
        else:
            start = time.perf_counter()
            fn()
            wall = time.perf_counter() - start
    finally:
        unregister_engine_observer(collect)
    return PerfSample(
        experiment="", mode="instrumented" if instrumented else "bare",
        wall_s=wall, events=sum(e.events_processed for e in engines),
        engines=len(engines))


def run_perf(names: Optional[Sequence[str]] = None) -> PerfReport:
    """Time each experiment bare and instrumented; returns the report.

    ``names`` defaults to every entry of :data:`PERF_EXPERIMENTS`; unknown
    names raise ``KeyError`` so typos fail loudly rather than silently
    shrinking the benchmark.
    """
    names = list(PERF_EXPERIMENTS) if names is None else list(names)
    report = PerfReport(unix_time=time.time())
    for name in names:
        fn = PERF_EXPERIMENTS[name]
        for instrumented in (False, True):
            sample = _timed(fn, instrumented)
            sample.experiment = name
            report.samples.append(sample)
    return report


def run_profile(names: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Run each experiment once under a :class:`~repro.obs.profile.Sampler`.

    Returns ``{experiment: ProfileReport}`` — the ``perf --profile``
    payload.  Each experiment gets a fresh sampler so its layer shares
    are not diluted by the others'.
    """
    from repro.obs.profile import Sampler

    names = list(PERF_EXPERIMENTS) if names is None else list(names)
    reports: Dict[str, Any] = {}
    for name in names:
        fn = PERF_EXPERIMENTS[name]
        sampler = Sampler()
        with sampler.session():
            fn()
        reports[name] = sampler.report(label=name)
    return reports


# -- the regression gate ----------------------------------------------------------

def _rows(doc: Dict[str, Any]) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Perf-doc results regrouped as experiment -> mode -> row."""
    out: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for row in doc.get("results", []):
        out.setdefault(row["experiment"], {})[row["mode"]] = row
    return out


def experiment_stats(doc: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per-experiment throughput and overhead from one perf document."""
    stats: Dict[str, Dict[str, float]] = {}
    for name, modes in _rows(doc).items():
        entry: Dict[str, float] = {}
        bare = modes.get("bare")
        inst = modes.get("instrumented")
        if bare is not None:
            entry["bare_events_per_s"] = float(bare["events_per_s"])
        if inst is not None:
            entry["instrumented_events_per_s"] = float(inst["events_per_s"])
        if bare and inst and bare["wall_s"]:
            entry["overhead_ratio"] = round(
                inst["wall_s"] / bare["wall_s"], 3)
        stats[name] = entry
    return stats


def validate_perf_doc(doc: Any, what: str = "perf document"
                      ) -> Optional[str]:
    """One-line actionable error for a malformed perf document, or None.

    ``tca-bench perf --check`` runs its baseline through this before
    touching its rows, so a stale, truncated, or foreign-schema baseline
    produces a clear message instead of a raw ``KeyError`` traceback.
    """
    fix = ("regenerate it with 'tca-bench perf --bench-json PATH'")
    if not isinstance(doc, dict):
        return f"{what} is not a JSON object; {fix}"
    schema = doc.get("schema")
    if schema != SCHEMA:
        return (f"{what} has schema {schema!r} but the gate needs "
                f"{SCHEMA!r}; {fix}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return f"{what} has no 'results' rows; {fix}"
    required = ("experiment", "mode", "wall_s", "events_per_s")
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            return f"{what} results[{i}] is not an object; {fix}"
        missing = [k for k in required if k not in row]
        if missing:
            return (f"{what} results[{i}] is missing "
                    f"{', '.join(missing)}; {fix}")
    return None


@dataclass(frozen=True)
class GateCheck:
    """One gate comparison: a measured number against its limit."""

    experiment: str
    metric: str       # "events_per_s" | "overhead_ratio" | "coverage"
    ok: bool
    measured: float
    limit: float
    detail: str

    def __str__(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"  [{mark}] {self.experiment:<16} {self.detail}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "metric": self.metric,
            "ok": self.ok,
            "measured": round(self.measured, 3),
            "limit": round(self.limit, 3),
            "detail": self.detail,
        }


@dataclass
class GateResult:
    """Outcome of one gate evaluation against a baseline."""

    baseline: str
    threshold: float
    overhead_budget: float
    checks: List[GateCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[GateCheck]:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "tca-bench-gate/1",
            "baseline": self.baseline,
            "threshold": self.threshold,
            "overhead_budget": self.overhead_budget,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = [f"perf gate vs {self.baseline} "
                 f"(regression threshold {self.threshold:.0%}, "
                 f"overhead budget x{self.overhead_budget:g})"]
        lines += [str(c) for c in self.checks]
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"gate: {verdict} ({len(self.failures)} of "
                     f"{len(self.checks)} checks failed)")
        return "\n".join(lines)


def check_against_baseline(doc: Dict[str, Any], baseline: Dict[str, Any],
                           baseline_name: str = "baseline",
                           threshold: float = DEFAULT_THRESHOLD,
                           overhead_budget: float = DEFAULT_OVERHEAD_BUDGET,
                           events_floor: Optional[float] = None
                           ) -> GateResult:
    """Gate one perf run against a committed baseline document.

    Only experiments present in **both** documents are compared (a
    subset run gates against the full baseline); an empty intersection
    is itself a failure, so a typo'd experiment list cannot silently
    pass.

    ``events_floor`` adds an **absolute** bound on top of the relative
    per-experiment checks: the run's overall bare throughput (total
    bare events over total bare wall) must meet it.  The relative gate
    catches drift against the committed baseline; the floor catches the
    slow boil — a sequence of individually-passing regressions eroding
    the engine across many PRs.
    """
    result = GateResult(baseline=baseline_name, threshold=threshold,
                        overhead_budget=overhead_budget)
    if events_floor is not None:
        bare = [s for s in doc.get("results", [])
                if s.get("mode") == "bare"]
        wall = sum(float(s.get("wall_s", 0.0)) for s in bare)
        events = sum(int(s.get("events", 0)) for s in bare)
        measured = events / wall if wall > 0 else 0.0
        result.checks.append(GateCheck(
            experiment="(overall)", metric="events_floor",
            ok=measured >= events_floor, measured=measured,
            limit=events_floor,
            detail=(f"overall bare {measured:,.0f} events/s >= "
                    f"absolute floor {events_floor:,.0f}")))
    current = experiment_stats(doc)
    base = experiment_stats(baseline)
    shared = [name for name in current if name in base]
    if not shared:
        result.checks.append(GateCheck(
            experiment="(none)", metric="coverage", ok=False,
            measured=0.0, limit=1.0,
            detail="no experiment appears in both run and baseline"))
        return result
    for name in shared:
        cur, ref = current[name], base[name]
        if "bare_events_per_s" in cur and "bare_events_per_s" in ref:
            floor = ref["bare_events_per_s"] * (1.0 - threshold)
            measured = cur["bare_events_per_s"]
            result.checks.append(GateCheck(
                experiment=name, metric="events_per_s",
                ok=measured >= floor, measured=measured, limit=floor,
                detail=(f"bare {measured:,.0f} events/s >= floor "
                        f"{floor:,.0f} (baseline "
                        f"{ref['bare_events_per_s']:,.0f} "
                        f"- {threshold:.0%})")))
        if "overhead_ratio" in cur:
            measured = cur["overhead_ratio"]
            result.checks.append(GateCheck(
                experiment=name, metric="overhead_ratio",
                ok=measured <= overhead_budget, measured=measured,
                limit=overhead_budget,
                detail=(f"overhead x{measured:.2f} <= budget "
                        f"x{overhead_budget:g}")))
    return result
