"""The benchmark's three workloads, their repetitions and their metrics.

Every workload is a closed loop with one client: a repetition starts
when the previous one ends.  Host time is measured; simulated results
are verified by :mod:`gate` on every repetition.

* ``dma-stream`` — the Fig. 7 and Fig. 9 sweeps at their registry smoke
  parameters, 24 points, each on a fresh ``SingleNodeRig``, inline.
* ``fabric-16`` — E23 antipodal shifts and E22 allreduce, each on a
  16-node ring and a 4x4 torus.
* ``suite-smoke`` — one cold ``run_suite(mode="smoke", shards=2)`` into
  fresh cache and journal directories, then warm passes over that cache.
"""

from __future__ import annotations

import gc
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench import experiments
from repro.bench import suite
from repro.bench.cache import ResultCache, cache_key, sources_fingerprint
from repro.bench.harness import SingleNodeRig
from repro.bench.jobs import JobScheduler, Journal
from repro.bench.suite import payload_json, run_suite
from repro.collectives import TCACollectives
from repro.model.anchors import calibration_fingerprint
from repro.obs import Observability, RunLog
from repro.sim.core import (Engine, register_engine_observer,
                            unregister_engine_observer)
from repro.tca.subcluster import TCASubCluster

import gate
import spans

#: Warm fetches run after every bare repetition of an engine workload.
WARM_PER_BARE = 100

#: Fewest rounds of repetitions a run makes, however short.
MIN_REPS = 1

#: Fewest warm passes of each kind a suite-smoke run makes.
MIN_WARM_ROUNDS = 20

#: A step runs only if this multiple of its last duration still fits
#: before the deadline: when host speed drops, a repetition can take up
#: to a third longer than the one before it, and the run must not
#: overshoot ``--seconds``.
STEP_HEADROOM = 1.3

#: Spans around calls into the simulator and the models it drives.
ENGINE_POINTS = [
    (Engine, "run", "sim:Engine.run", False),
    (Engine, "run_process", "sim:Engine.run_process", False),
    (Engine, "step", "sim:Engine.step", True),
    (SingleNodeRig, "__init__", "harness:SingleNodeRig", False),
    (TCASubCluster, "__init__", "tca:TCASubCluster", False),
    (TCACollectives, "allreduce", "collectives:TCACollectives.allreduce",
     False),
]

#: Exact counts each kind of repetition carries and must repeat.
BARE_COUNTS = ("sim.engines", "sim.events")
TRACED_COUNTS = BARE_COUNTS + ("sim.step_calls",)
OBS_COUNTS = BARE_COUNTS + tuple(gate.COUNTER_SUMS) + ("obs.records",
                                                       "obs.dropped")
COLD_COUNTS = ("cache.puts", "jobs.journal_records")
SUITE_OBS_COUNTS = ("obs.records",)

#: Spans around calls into the suite harness, as run_suite makes them.
HARNESS_POINTS = [
    (suite, "sources_fingerprint", "cache:sources_fingerprint", False),
    (suite, "check_anchors", "anchors:check_anchors", False),
    (ResultCache, "get", "cache:ResultCache.get", False),
    (ResultCache, "put", "cache:ResultCache.put", False),
    (JobScheduler, "run", "jobs:JobScheduler.run", False),
    (Journal, "record", "jobs:Journal.record", False),
]


@dataclass(frozen=True)
class Entry:
    """One experiment call of an engine workload."""

    name: str
    fn: Callable[..., object]
    params: Mapping[str, object]

    def call(self) -> object:
        return self.fn(**self.params)

    @property
    def key_params(self) -> Dict[str, object]:
        """The parameters that address the result in the cache."""
        return {k: v for k, v in self.params.items() if k != "workers"}


def _smoke(name: str) -> Entry:
    """A registry entry at its smoke parameters, run inline."""
    spec = experiments.REGISTRY[name]
    return Entry(name, spec.fn, {**spec.params_for("smoke"), "workers": 1})


ENGINE_WORKLOADS: Dict[str, List[Entry]] = {
    "dma-stream": [_smoke("fig7"), _smoke("fig9")],
    "fabric-16": [
        Entry("bisection", experiments.bisection, {"node_counts": (16,)}),
        Entry("collective-torus", experiments.collective_torus,
              {"node_counts": (16,)}),
    ],
}

WORKLOADS = tuple(ENGINE_WORKLOADS) + ("suite-smoke",)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_engine_median(reps: Sequence[Sequence[float]]) -> float:
    """Host time of one repetition, robust to a slow sample.

    Each repetition is split at every engine construction into one slot
    per engine; the estimate is the sum over slots of each slot's median
    across repetitions.  If the slot counts differ (a failed
    repetition), it falls back to the median repetition total.
    """
    if not reps:
        return 0.0
    if len({len(r) for r in reps}) != 1:
        return median([sum(r) for r in reps])
    return sum(statistics.median(slot) for slot in zip(*reps))


class Tally:
    """Attempted and failed operations, with what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def add(self, ops: int, problems: Sequence[str], failed: int) -> None:
        self.attempted += ops
        self.failed += failed
        if problems and len(self.problems) < 20:
            self.problems.extend(problems[:20 - len(self.problems)])


def run_loop(steps: Sequence[Callable[[], None]], deadline: float,
             min_rounds: int, tally: Tally) -> None:
    """Cycle through ``steps`` until the next one might end after
    ``deadline`` (a ``perf_counter`` reading), after at least
    ``min_rounds`` rounds.  A step that raises counts as one failed
    operation; the loop goes on."""
    cost: Dict[Callable[[], None], float] = {}
    i = 0
    while True:
        step = steps[i % len(steps)]
        if (i >= min_rounds * len(steps) and time.perf_counter()
                + STEP_HEADROOM * cost[step] > deadline):
            return
        start = time.perf_counter()
        try:
            step()
        except Exception as exc:  # a broken program must still report
            if not tally.failed:
                traceback.print_exc()
            tally.add(1, [f"{step.__name__}: {exc!r}"], 1)
        cost[step] = time.perf_counter() - start
        i += 1


@dataclass
class Context:
    """What one run of a workload is given."""

    workload: str
    seed: int
    #: ``perf_counter`` reading by which the run should end.
    deadline: float
    trace: bool
    tmp: Path
    expected: Dict[str, object] = field(default_factory=dict)

    @property
    def digests(self) -> Dict[str, str]:
        return self.expected.get("payload_sha256", {})

    @property
    def counts(self) -> Dict[str, int]:
        return self.expected.get("counts", {})


def prepare(ctx: Context) -> ResultCache:
    """Everything a run needs before its first timed repetition, beyond
    the imports and the temporary directory: the result cache."""
    return ResultCache(ctx.tmp / "cache")


# -- engine workloads (dma-stream, fabric-16) ------------------------------

@dataclass
class Rep:
    """One repetition of an engine workload."""

    payloads: Dict[str, str]
    slots: List[float]
    counts: Dict[str, int]
    rep_id: str = ""


def engine_rep(entries: Sequence[Entry], tracer=None,
               rep_id: str = "") -> Rep:
    """Run every entry once, timing each engine's slot."""
    marks: List[float] = []
    engines: List[Engine] = []

    def observe(engine: Engine) -> None:
        marks.append(time.perf_counter())
        engines.append(engine)

    gc.collect()
    register_engine_observer(observe)
    try:
        start = time.perf_counter()
        payloads = {}
        for entry in entries:
            if tracer is None:
                result = entry.call()
            else:
                with tracer.span(f"experiments:{entry.name}"):
                    result = entry.call()
            payloads[entry.name] = payload_json(result)
        end = time.perf_counter()
    finally:
        unregister_engine_observer(observe)
    bounds = [start] + marks[1:] + [end]
    counts = {"sim.engines": len(engines),
              "sim.events": sum(e.events_processed for e in engines)}
    return Rep(payloads, [b - a for a, b in zip(bounds, bounds[1:])],
               counts, rep_id)


def instrumented_rep(entries: Sequence[Entry]) -> Rep:
    """The same repetition inside a full Observability session."""
    obs = Observability()
    with obs.session():
        rep = engine_rep(entries)
    rep.counts.update(gate.counter_sums(obs.metrics_document()))
    rep.counts["obs.records"] = obs.total_records
    rep.counts["obs.dropped"] = obs.total_dropped
    return rep


def warm_fetch(cache: ResultCache, entries: Sequence[Entry],
               seed: int) -> Dict[str, Optional[str]]:
    """The workload's payloads served from a warm result cache."""
    sources = sources_fingerprint()
    calibration = calibration_fingerprint()
    return {e.name: cache.get(cache_key(e.name, e.key_params, calibration,
                                        sources, seed))
            for e in entries}


def _timed(fn: Callable[[], object]) -> Tuple[object, float]:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


class EngineRun:
    """One run of dma-stream or fabric-16."""

    def __init__(self, ctx: Context, cache: ResultCache):
        self.ctx = ctx
        self.cache = cache
        self.entries = ENGINE_WORKLOADS[ctx.workload]
        self.tally = Tally()
        self.tracer = spans.Tracer() if ctx.trace else None
        self.bare: List[Rep] = []
        self.traced: List[Rep] = []
        self.instrumented: List[Rep] = []
        self.warm: List[float] = []
        #: (near-anchor errors, passed, failed) of the first repetition.
        self.anchors: Tuple[Dict[str, float], List[str], List[str]] = (
            {}, [], [])

    def check(self, payloads: Mapping[str, Optional[str]],
              counts: Mapping[str, int], names: Sequence[str],
              label: str) -> None:
        """One operation: the payload digests and the ``names`` counts."""
        problems = [f"{label}: payload {n} digest differs"
                    for n in gate.digest_mismatches(payloads,
                                                    self.ctx.digests)]
        problems += [f"{label}: {p}" for p in gate.count_mismatches(
            counts, self.ctx.counts, names)]
        self.tally.add(1, problems, 1 if problems else 0)

    def _anchors(self, rep: Rep) -> None:
        self.anchors = gate.anchor_report(rep.payloads)
        failed = self.anchors[2]
        if failed:
            self.tally.add(0, [f"anchor {n} fails" for n in failed], 1)

    def _bare(self) -> None:
        rep = engine_rep(self.entries, rep_id=f"bare{len(self.bare)}")
        self.check(rep.payloads, rep.counts, BARE_COUNTS, rep.rep_id)
        if not self.bare:
            self._anchors(rep)
            self._fill_cache(rep)
        self.bare.append(rep)
        for _ in range(WARM_PER_BARE):
            self._warm()

    def _fill_cache(self, rep: Rep) -> None:
        calibration = calibration_fingerprint()
        sources = sources_fingerprint()
        for e in self.entries:
            key = cache_key(e.name, e.key_params, calibration, sources,
                            self.ctx.seed)
            self.cache.put(key, e.name, rep.payloads[e.name])

    def _warm(self) -> None:
        payloads, wall = _timed(lambda: warm_fetch(
            self.cache, self.entries, self.ctx.seed))
        self.warm.append(wall)
        self.check(payloads, {}, (), f"warm{len(self.warm)}")

    def _traced_bare(self) -> None:
        rep_id = f"traced{len(self.traced)}"
        self.tracer.rep = rep_id
        with self.tracer.installed(ENGINE_POINTS):
            rep = engine_rep(self.entries, self.tracer, rep_id)
        rep.counts["sim.step_calls"] = spans.LayerTotals(
            self.tracer, rep_id).named("sim:Engine.step")[0]
        self.check(rep.payloads, rep.counts, TRACED_COUNTS, rep_id)
        self.traced.append(rep)

    def _instrumented(self) -> None:
        rep = instrumented_rep(self.entries)
        rep.rep_id = f"obs{len(self.instrumented)}"
        self.check(rep.payloads, rep.counts, OBS_COUNTS, rep.rep_id)
        self.instrumented.append(rep)

    def run(self) -> None:
        # Two bare repetitions for each instrumented one: wall_s gets
        # the most samples, and both kinds are spread over the whole run.
        steps = [self._bare, self._instrumented, self._bare]
        if self.tracer is not None:
            steps = [self._bare, self._traced_bare, self._instrumented]
        run_loop(steps, self.ctx.deadline, MIN_REPS, self.tally)

    def golden(self) -> Dict[str, object]:
        """The digests and exact counts this run observed."""
        counts: Dict[str, int] = {}
        for rep in (self.bare[0], self.instrumented[0], self.traced[0]):
            counts.update(rep.counts)
        return {"payload_sha256": {name: gate.sha256(text) for name, text
                                   in self.bare[0].payloads.items()},
                "counts": counts}

    # -- results ---------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        return {
            "wall_s": per_engine_median([r.slots for r in self.bare]),
            "obs_wall_s": per_engine_median(
                [r.slots for r in self.instrumented]),
            "warm_wall_s": median(self.warm),
            "anchor_err_max": max(self.anchors[0].values(), default=0.0),
        }

    def per_layer(self) -> Dict[str, float]:
        m = zero_layers()
        bare = per_engine_median([r.slots for r in self.bare])
        instrumented = per_engine_median(
            [r.slots for r in self.instrumented])
        counts = dict(self.bare[0].counts) if self.bare else {}
        if self.instrumented:
            counts.update(self.instrumented[0].counts)
        if self.traced:
            counts["sim.step_calls"] = self.traced[0].counts["sim.step_calls"]
        for name in m:
            if name in counts:
                m[name] = counts[name]
        totals = [spans.LayerTotals(self.tracer, r.rep_id)
                  for r in self.traced]
        m["sim.run_s"] = median([t.inclusive_s("sim") for t in totals])
        m["experiments.self_s"] = median(
            [t.self_s("experiments") for t in totals])
        m["collectives.self_s"] = median(
            [t.self_s("collectives") for t in totals])
        m["tca.build_s"] = median([t.inclusive_s("tca") for t in totals])
        m["harness.build_s"] = median(
            [t.inclusive_s("harness") for t in totals])
        m["anchors.pass"] = len(self.anchors[1])
        m["anchors.fail"] = len(self.anchors[2])
        if m["sim.events"]:
            m["sim.ns_per_event"] = m["sim.run_s"] / m["sim.events"] * 1e9
        if m["pcie.tlps"]:
            m["pcie.ns_per_tlp"] = m["sim.run_s"] / m["pcie.tlps"] * 1e9
        if bare:
            m["obs.overhead_ratio"] = instrumented / bare
            m["trace.overhead_ratio"] = per_engine_median(
                [r.slots for r in self.traced]) / bare
        if m["obs.records"]:
            m["obs.ns_per_record"] = ((instrumented - bare)
                                      / m["obs.records"] * 1e9)
        return m


# -- suite-smoke -----------------------------------------------------------

class SuiteRun:
    """One run of suite-smoke: a cold pass, then warm passes."""

    def __init__(self, ctx: Context, cache: ResultCache):
        self.ctx = ctx
        self.cache = cache
        self.tally = Tally()
        self.tracer = spans.Tracer() if ctx.trace else None
        self.cold = None
        self.cold_wall = 0.0
        self.cold_counts: Dict[str, int] = {}
        self.warm: List[float] = []
        self.instrumented: List[float] = []
        self.traced: List[float] = []
        self.traced_ids: List[str] = []
        self.obs_records = 0
        self.warm_hits = 0
        self.warm_gets = 0

    def check(self, report, label: str, warm: bool,
              counts: Mapping[str, int], names: Sequence[str]) -> None:
        """One operation per suite entry; an entry fails on an error, a
        digest mismatch, a failed anchor or (warm) a cache miss.  A
        ``names`` count that differs from the recorded one fails the
        pass."""
        expected = self.ctx.digests
        texts = {e.name: e.payload_json for e in report.entries}
        bad = set(gate.digest_mismatches(texts, expected))
        bad |= {e.name for e in report.entries if e.error is not None}
        bad |= {c.anchor.experiment for c in report.checks
                if c.status == "fail"}
        if warm:
            bad |= {e.name for e in report.entries if e.cache != "hit"}
            self.warm_gets += len(report.entries)
            self.warm_hits += sum(e.cache == "hit" for e in report.entries)
        passed = sum(c.status == "pass" for c in report.checks)
        problems = [f"{label}: entry {n} failed" for n in sorted(bad)]
        if passed != len(suite.ANCHORS):
            problems.append(f"{label}: {passed}/{len(suite.ANCHORS)} "
                            "anchors pass")
        problems += [f"{label}: {p}" for p in gate.count_mismatches(
            counts, self.ctx.counts, names)]
        ops = max(len(expected), len(report.entries))
        self.tally.add(ops, problems,
                       max(len(bad), 1 if problems else 0))

    def _suite(self, **kwargs):
        return run_suite(mode="smoke", shards=2, cache=self.cache,
                         seed=self.ctx.seed, **kwargs)

    def _cold(self) -> None:
        gc.collect()
        journal = self.ctx.tmp / "journal"
        if self.tracer is None:
            self.cold, self.cold_wall = _timed(
                lambda: self._suite(journal_dir=journal))
        else:
            self.tracer.rep = "cold"
            with self.tracer.installed(HARNESS_POINTS):
                with self.tracer.span("suite:run_suite"):
                    self.cold, self.cold_wall = _timed(
                        lambda: self._suite(journal_dir=journal))
        # What the cold pass left on disk: one cache entry per put into
        # the fresh cache, and the journal's records.
        self.cold_counts = {
            "cache.puts": sum(1 for _ in self.cache.root.glob("??/*.json")),
            "jobs.journal_records": sum(
                len(Journal.read(path)) for path in journal.glob("*.jsonl")),
        }
        self.check(self.cold, "cold", False, self.cold_counts, COLD_COUNTS)

    def _warm(self) -> None:
        report, wall = _timed(self._suite)
        self.warm.append(wall)
        self.check(report, f"warm{len(self.warm)}", True, {}, ())

    def _instrumented(self) -> None:
        runlog = RunLog()
        obs = Observability()
        start = time.perf_counter()
        with obs.session():
            report = self._suite(runlog=runlog)
        self.instrumented.append(time.perf_counter() - start)
        self.obs_records = len(runlog.records) + obs.total_records
        self.check(report, f"obs{len(self.instrumented)}", True,
                   {"obs.records": self.obs_records}, SUITE_OBS_COUNTS)

    def _traced(self) -> None:
        rep_id = f"warm{len(self.traced)}"
        self.tracer.rep = rep_id
        with self.tracer.installed(HARNESS_POINTS):
            start = time.perf_counter()
            with self.tracer.span("suite:run_suite"):
                report = self._suite()
            self.traced.append(time.perf_counter() - start)
        self.traced_ids.append(rep_id)
        self.check(report, rep_id, True, {}, ())

    def run(self) -> None:
        try:
            self._cold()
        except Exception as exc:  # a broken program must still report
            traceback.print_exc()
            self.tally.add(len(self.ctx.digests) or 1,
                           [f"cold: {exc!r}"], len(self.ctx.digests) or 1)
            return
        steps = [self._warm, self._instrumented]
        if self.tracer is not None:
            steps.append(self._traced)
        gc.collect()
        run_loop(steps, self.ctx.deadline, MIN_WARM_ROUNDS, self.tally)

    def golden(self) -> Dict[str, object]:
        """The digests and exact counts this run observed.  The cold
        pass simulates in fork workers the benchmark cannot see into,
        so there are no simulator counts."""
        return {"payload_sha256": {e.name: gate.sha256(e.payload_json)
                                   for e in self.cold.entries},
                "counts": {**self.cold_counts,
                           "obs.records": self.obs_records}}

    # -- results ---------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        checks = self.cold.checks if self.cold is not None else []
        errors = [abs(c.measured / c.anchor.paper - 1)
                  for c in checks
                  if c.anchor.cmp == "near" and c.measured is not None
                  and c.anchor.paper]
        return {
            "wall_s": self.cold_wall,
            "obs_wall_s": median(self.instrumented),
            "warm_wall_s": median(self.warm),
            "anchor_err_max": max(errors, default=0.0),
        }

    def per_layer(self) -> Dict[str, float]:
        m = zero_layers()
        if self.cold is None:
            return m
        cold = spans.LayerTotals(self.tracer, "cold")
        warm = [spans.LayerTotals(self.tracer, rep)
                for rep in self.traced_ids]
        put_s = cold.named("cache:ResultCache.put")[1]
        m.update({
            "cache.fingerprint_s": median(
                [t.named("cache:sources_fingerprint")[1] for t in warm]),
            "cache.get_s": median(
                [t.named("cache:ResultCache.get")[1] for t in warm]),
            "cache.gets": (warm[0].named("cache:ResultCache.get")[0]
                           if warm else 0),
            "cache.hit_ratio": (self.warm_hits / self.warm_gets
                                if self.warm_gets else 0.0),
            "cache.put_s": put_s,
            "cache.puts": self.cold_counts["cache.puts"],
        })
        scheduler = cold.named("jobs:JobScheduler.run")[1]
        m["jobs.scheduler_s"] = scheduler
        busiest: Dict[object, float] = {}
        for e in self.cold.entries:
            if e.cache == "miss":
                busiest[e.shard] = busiest.get(e.shard, 0.0) + e.wall_s
        m["jobs.idle_s"] = scheduler - max(busiest.values(), default=0.0)
        m["jobs.journal_s"] = cold.named("jobs:Journal.record")[1]
        m["jobs.journal_records"] = self.cold_counts["jobs.journal_records"]
        m["jobs.retries"] = self.cold.robustness.get("retries", 0)
        m["jobs.requeues"] = self.cold.robustness.get("requeues", 0)
        summary = self.cold.summary()
        m["anchors.pass"] = summary["anchors_pass"]
        m["anchors.fail"] = summary["anchors_fail"]
        m["anchors.check_s"] = median(
            [t.named("anchors:check_anchors")[1] for t in warm])
        m["suite.self_s"] = median([t.self_s("suite") for t in warm])
        for e in self.cold.entries:
            m[f"suite.entry.{e.name}_s"] = e.wall_s
        bare = median(self.warm)
        if bare:
            m["obs.overhead_ratio"] = median(self.instrumented) / bare
            m["trace.overhead_ratio"] = median(self.traced) / bare
        m["obs.records"] = self.obs_records
        if self.obs_records:
            m["obs.ns_per_record"] = ((median(self.instrumented) - bare)
                                      / self.obs_records * 1e9)
        return m


#: Every per-layer metric and its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    "sim.step_calls": "count",
    "sim.events": "count",
    "sim.engines": "count",
    "experiments.self_s": "s",
    "collectives.self_s": "s",
    "tca.build_s": "s",
    "harness.build_s": "s",
    "pcie.tlps": "count",
    "pcie.wire_bytes": "bytes",
    "pcie.replayed_tlps": "count",
    "pcie.switch_forwarded": "count",
    "peach2.routed": "count",
    "peach2.dma_chains": "count",
    "hw.mem_bytes_written": "bytes",
    "hw.pio_stores": "count",
    "pcie.ns_per_tlp": "ns",
    "obs.overhead_ratio": "ratio",
    "obs.ns_per_record": "ns",
    "obs.records": "count",
    "obs.dropped": "count",
    "cache.fingerprint_s": "s",
    "cache.get_s": "s",
    "cache.gets": "count",
    "cache.hit_ratio": "ratio",
    "cache.put_s": "s",
    "cache.puts": "count",
    "jobs.scheduler_s": "s",
    "jobs.idle_s": "s",
    "jobs.journal_s": "s",
    "jobs.journal_records": "count",
    "jobs.retries": "count",
    "jobs.requeues": "count",
    "anchors.check_s": "s",
    "anchors.pass": "count",
    "anchors.fail": "count",
    "suite.self_s": "s",
    **{f"suite.entry.{name}_s": "s" for name in experiments.REGISTRY},
    "trace.overhead_ratio": "ratio",
}


def zero_layers() -> Dict[str, float]:
    """Every per-layer metric at zero: the value for a layer a workload
    never enters."""
    return {name: 0 for name in PER_LAYER_UNITS}


def make_run(ctx: Context, cache: ResultCache):
    if ctx.workload in ENGINE_WORKLOADS:
        return EngineRun(ctx, cache)
    return SuiteRun(ctx, cache)
