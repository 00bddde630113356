"""Sharded experiment-suite runner with result caching and anchor checks.

``tca-bench suite`` fans the full E1-E23 registry
(:data:`repro.bench.experiments.REGISTRY`) out across worker processes,
caches every result in a content-addressed store
(:mod:`repro.bench.cache`), and checks the full anchor table
(:data:`repro.model.anchors.ANCHORS`) against the live payloads.  It is
the single source of truth for "does this repo still reproduce the
paper":

* **Sharding** — cold entries run as jobs on one
  :class:`~repro.bench.jobs.JobScheduler`: in this process for
  ``--shards 1``, pulled by ``--shards N`` fork workers otherwise, in
  either case longest-processing-time first by each entry's cost hint,
  with ``random``/``numpy`` seeded deterministically per entry.
* **Caching** — the cache key covers the entry name, its exact
  parameters, the calibration fingerprint, the hash of every ``repro``
  source file, and the suite seed; a warm run returns byte-identical
  payloads without simulating anything.
* **Conformance** — the report (schema ``tca-bench-suite/1``) carries
  per-anchor pass/fail with paper-vs-measured values, per-entry cache
  hit/miss, and per-shard wall clock; ``--render-md`` regenerates the
  tables inside EXPERIMENTS.md from the same payloads, so the spec
  document and the simulator cannot drift.
* **Crash tolerance** — every entry runs as a
  :class:`~repro.bench.jobs.Job`: seeded retry backoff (plus per-entry
  deadlines and dead-worker requeue on a pool), and an append-only run
  journal
  (``tca-bench-journal/1``) that ``--resume RUN_ID`` replays to
  re-execute only unfinished entries, byte-identically.  Corrupted
  cache entries are quarantined and transparently re-run.  The
  ``robustness`` key of the report counts every such event, so
  degradation is observable, never silent.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bench.cache import (ResultCache, cache_key, canonical_json,
                               sources_fingerprint)
from repro.bench.experiments import EXPERIMENT_IDS, REGISTRY
from repro.bench.jobs import (DEFAULT_MAX_ATTEMPTS, DONE, FAILED, Job,
                              JobScheduler, Journal, default_deadline_s,
                              new_run_id)
from repro.errors import ConfigError
from repro.model.anchors import ANCHORS, AnchorCheck, calibration_fingerprint
from repro.units import pretty_size

#: Version tag of the conformance report document.
SCHEMA = "tca-bench-suite/1"

#: Where run journals live unless overridden (CLI: ``--journal-dir``).
DEFAULT_JOURNAL_DIR = ".tca-bench-journal"

#: Suite modes: full fidelity, anchor-preserving reduction, determinism-
#: test reduction.
MODES = ("full", "smoke", "tiny")


def derive_seed(seed: int, entry: str) -> int:
    """Deterministic per-entry seed: stable across runs and shardings."""
    digest = hashlib.sha256(f"{seed}:{entry}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def payload_json(result: object) -> str:
    """Canonical JSON text of one experiment result."""
    from repro.bench.cli import to_payload

    return canonical_json(to_payload(result))


def run_entry(name: str, mode: str, seed: int) -> Tuple[str, float]:
    """Run one registry entry; returns (canonical payload, wall seconds)."""
    spec = REGISTRY[name]
    entry_seed = derive_seed(seed, name)
    random.seed(entry_seed)
    np.random.seed(entry_seed & 0xFFFFFFFF)
    start = time.perf_counter()
    result = spec.run(mode)
    return payload_json(result), time.perf_counter() - start


@dataclass
class EntryResult:
    """One registry entry's outcome inside a suite run."""

    name: str
    eid: str
    mode: str
    key: str
    cache: str                   # "hit" | "miss" | "journal"
    shard: Optional[int]
    wall_s: float
    payload_json: Optional[str]
    error: Optional[str] = None

    @property
    def payload(self) -> object:
        return (json.loads(self.payload_json)
                if self.payload_json is not None else None)

    def to_dict(self, include_payload: bool = True) -> Dict[str, object]:
        spec = REGISTRY[self.name]
        doc: Dict[str, object] = {
            "name": self.name,
            "eid": self.eid,
            "title": spec.title,
            "kind": spec.kind,
            "mode": self.mode,
            "key": self.key,
            "cache": self.cache,
            "shard": self.shard,
            "wall_s": round(self.wall_s, 4),
        }
        if self.error is not None:
            doc["error"] = self.error
        elif include_payload:
            doc["payload"] = self.payload
        return doc


@dataclass
class SuiteReport:
    """Everything one ``tca-bench suite`` run produced."""

    mode: str
    shards: int
    seed: int
    calibration_fp: str
    sources_fp: str
    entries: List[EntryResult] = field(default_factory=list)
    checks: List[AnchorCheck] = field(default_factory=list)
    shard_walls: List[Dict[str, object]] = field(default_factory=list)
    wall_s: float = 0.0
    #: Journal identity of this run (None when journalling is off).
    run_id: Optional[str] = None
    journal_path: Optional[str] = None
    #: True when the run was cut short by SIGINT/SIGTERM; the report
    #: then covers only the entries that finished.
    interrupted: bool = False
    #: Supervision counters (retries, requeues, deadline kills, lost
    #: workers, quarantined cache entries, resumed entries) — the
    #: "degradation is observable" contract.
    robustness: Dict[str, object] = field(default_factory=dict)
    #: Wall-clock run telemetry (RunLog.summary()); only set when the
    #: suite ran with a runlog attached.  Never part of payloads_json,
    #: so payload byte-determinism is unaffected.
    telemetry: Optional[Dict[str, object]] = None

    @property
    def payloads(self) -> Dict[str, object]:
        """Entry name -> decoded payload (errors omitted)."""
        return {e.name: e.payload for e in self.entries
                if e.payload_json is not None}

    @property
    def ok(self) -> bool:
        """Complete, no anchor failed, and no entry errored."""
        return (not self.interrupted
                and all(c.status != "fail" for c in self.checks)
                and all(e.error is None for e in self.entries))

    def summary(self) -> Dict[str, object]:
        status = [c.status for c in self.checks]
        return {
            "entries": len(self.entries),
            "experiments": len({e.eid for e in self.entries}),
            "errors": sum(1 for e in self.entries if e.error),
            "cache_hits": sum(1 for e in self.entries if e.cache == "hit"),
            "cache_misses": sum(1 for e in self.entries
                                if e.cache == "miss"),
            "resumed": sum(1 for e in self.entries
                           if e.cache == "journal"),
            "anchors_pass": status.count("pass"),
            "anchors_fail": status.count("fail"),
            "anchors_skipped": status.count("skipped"),
            "wall_s": round(self.wall_s, 4),
            "interrupted": self.interrupted,
            "ok": self.ok,
        }

    def to_dict(self, include_payloads: bool = True) -> Dict[str, object]:
        doc = {
            "schema": SCHEMA,
            "mode": self.mode,
            "shards": self.shards,
            "seed": self.seed,
            "run_id": self.run_id,
            "interrupted": self.interrupted,
            "calibration_fingerprint": self.calibration_fp,
            "sources_fingerprint": self.sources_fp,
            "entries": [e.to_dict(include_payloads) for e in self.entries],
            "shard_walls": self.shard_walls,
            "anchors": [c.to_dict() for c in self.checks],
            "robustness": self.robustness,
            "summary": self.summary(),
        }
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry
        return doc

    def payloads_json(self) -> str:
        """Canonical entry-name -> payload document (byte-stable)."""
        return canonical_json({e.name: json.loads(e.payload_json)
                               for e in self.entries
                               if e.payload_json is not None})

    def render(self) -> str:
        s = self.summary()
        lines = [
            f"tca-bench suite  mode={self.mode} shards={self.shards} "
            f"seed={self.seed}"
            + (f"  run={self.run_id}" if self.run_id else ""),
            f"entries: {s['entries']} covering {s['experiments']} "
            f"experiments ({EXPERIMENT_IDS[0]}-{EXPERIMENT_IDS[-1]})  "
            f"cache: {s['cache_hits']} hits / {s['cache_misses']} misses  "
            f"wall: {s['wall_s']:.2f}s",
        ]
        if self.interrupted:
            lines.append("  INTERRUPTED: partial results only; resume "
                         f"with --resume {self.run_id}")
        for shard in self.shard_walls:
            names = ", ".join(shard["entries"])
            lines.append(f"  shard {shard['shard']}: "
                         f"{shard['wall_s']:.2f}s  [{names}]")
        for e in self.entries:
            if e.error:
                lines.append(f"  ERROR {e.name}: {e.error}")
        degraded = {k: v for k, v in self.robustness.items()
                    if isinstance(v, int) and v
                    and k not in ("workers_spawned", "heartbeats")}
        if degraded:
            lines.append("  robustness: " + ", ".join(
                f"{k}={v}" for k, v in sorted(degraded.items())))
        lines.append("")
        for check in self.checks:
            lines.append(str(check))
        lines.append(
            f"anchors: {s['anchors_pass']} pass, {s['anchors_fail']} fail, "
            f"{s['anchors_skipped']} skipped")
        return "\n".join(lines)


def check_anchors(payloads: Dict[str, object]) -> List[AnchorCheck]:
    """Evaluate every anchor whose experiment payload is present."""
    return [anchor.check(payloads[anchor.experiment])
            for anchor in ANCHORS if anchor.experiment in payloads]


def _resume_state(journal_dir: Path, run_id: str):
    """Load and sanity-check the journal of the run being resumed."""
    path = Journal.path_for(journal_dir, run_id)
    records = Journal.read(path)
    header, done = Journal.replay(records)
    if header is None:
        raise ConfigError(
            f"cannot resume run {run_id!r}: no journal header found at "
            f"{path} (was the run journalled?)")
    return header, done


def _make_jobs(cold: Sequence[str], keys: Dict[str, str], mode: str,
               seed: int, max_attempts: int,
               chaos: Optional[Dict[str, Dict[str, float]]]) -> List[Job]:
    """Cold entries as jobs in LPT order: largest cost hint first, then
    name — the order :class:`JobScheduler` hands them out."""
    chaos = chaos or {}
    deadline_over = chaos.get("deadline_s", {})
    hang = chaos.get("hang_s", {})
    jobs = []
    for name in sorted(cold, key=lambda n: (-REGISTRY[n].cost_s, n)):
        spec = REGISTRY[name]
        jobs.append(Job(
            name=name, eid=spec.eid, key=keys[name], mode=mode, seed=seed,
            cost_s=spec.cost_s,
            deadline_s=deadline_over.get(name,
                                         default_deadline_s(spec.cost_s)),
            max_attempts=max_attempts,
            hang_s=hang.get(name, 0.0)))
    return jobs


def run_suite(names: Optional[Sequence[str]] = None, shards: int = 1,
              mode: str = "full", cache: Optional[ResultCache] = None,
              force: bool = False, seed: int = 0,
              log: Optional[Callable[[str], None]] = None,
              runlog=None,
              journal_dir: Optional[Path] = None,
              resume: Optional[str] = None,
              max_attempts: int = DEFAULT_MAX_ATTEMPTS,
              chaos: Optional[Dict[str, Dict[str, float]]] = None,
              on_event: Optional[Callable] = None) -> SuiteReport:
    """Run the registry through supervised jobs and the cache.

    ``names`` defaults to every registry entry.  ``cache=None`` disables
    the store entirely; ``force=True`` keeps the store but ignores hits
    (results are still written back).

    ``journal_dir`` turns on the crash-safe run journal; ``resume`` (a
    run id from a previous journalled run) re-executes only entries
    that run did not finish and restores finished payloads from the
    journal, byte-identically.  A resume refuses to mix model versions:
    the journal's source/calibration fingerprints must match the
    working tree's.

    Cold entries run on one :class:`~repro.bench.jobs.JobScheduler`
    with ``shards`` workers: ``shards=1`` runs them in this process,
    more run them on a supervised fork pool (per-entry deadlines,
    dead-worker requeue).  Either way a raising entry is retried after
    a seeded backoff, and SIGINT/SIGTERM produce a partial report
    flagged ``interrupted`` instead of a traceback.

    ``chaos`` is the fault-injection side door used by
    :mod:`repro.faults.harness_chaos`:
    ``{"hang_s": {entry: s}, "deadline_s": {entry: s}}`` force an
    entry's first attempt to hang and/or tighten its deadline.
    ``on_event`` observes every job record and supervisor event (the
    harness uses it to SIGKILL workers mid-run).

    ``runlog`` (a :class:`repro.obs.runlog.RunLog`) turns on wall-clock
    run telemetry: per-shard worker timelines and per-entry spans land
    as trace records, cache hit/miss/store latencies as histograms, and
    the summary rides the report's ``telemetry`` key.  Payloads are
    byte-identical with or without it.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown suite mode {mode!r}")

    resumed_payloads: Dict[str, str] = {}
    if resume is not None:
        jdir = Path(journal_dir or DEFAULT_JOURNAL_DIR)
        header, resumed_payloads = _resume_state(jdir, resume)
        mode = header.get("mode", mode)
        seed = header.get("seed", seed)
        names = header.get("entries", names)
        journal_dir = jdir

    names = list(REGISTRY) if names is None else list(names)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise ConfigError(f"unknown registry entries: {', '.join(unknown)}")

    def cache_get(key: str) -> Optional[str]:
        if cache is None or force:
            return None
        if runlog is None:
            return cache.get(key)
        t0 = runlog.now_ps()
        hit = cache.get(key)
        bucket = "hit" if hit is not None else "miss"
        runlog.metrics.histogram(f"suite.cache.{bucket}_us").observe(
            (runlog.now_ps() - t0) / 1e6)
        return hit

    def cache_put(key: str, name: str, payload: str, meta) -> None:
        if runlog is None:
            cache.put(key, name, payload, meta=meta)
            return
        t0 = runlog.now_ps()
        cache.put(key, name, payload, meta=meta)
        runlog.metrics.histogram("suite.cache.store_us").observe(
            (runlog.now_ps() - t0) / 1e6)

    calib_fp = calibration_fingerprint()
    sources_fp = sources_fingerprint()
    if resume is not None:
        if (header.get("calibration_fingerprint") != calib_fp
                or header.get("sources_fingerprint") != sources_fp):
            raise ConfigError(
                f"cannot resume run {resume!r}: the repro sources or "
                "calibration changed since that run was journalled; "
                "results would not be comparable — run without --resume")

    report = SuiteReport(mode=mode, shards=max(1, shards), seed=seed,
                         calibration_fp=calib_fp, sources_fp=sources_fp)
    start = time.perf_counter()
    if runlog is not None:
        runlog.event("suite", "start", mode=mode, entries=len(names),
                     shards=max(1, shards))

    keys = {name: cache_key(name, REGISTRY[name].params_for(mode),
                            calib_fp, sources_fp, seed)
            for name in names}

    journal: Optional[Journal] = None
    if resume is not None:
        report.run_id = resume
        journal = Journal.resume(Path(journal_dir), resume)
    elif journal_dir is not None:
        report.run_id = new_run_id(mode, seed)
        journal = Journal.create(
            Path(journal_dir), report.run_id, mode=mode, seed=seed,
            shards=max(1, shards), entries=names,
            calibration_fingerprint=calib_fp,
            sources_fingerprint=sources_fp)
    if journal is not None:
        report.journal_path = str(journal.path)

    results: Dict[str, EntryResult] = {}
    cold: List[str] = []
    for name in names:
        if name in resumed_payloads:
            results[name] = EntryResult(
                name=name, eid=REGISTRY[name].eid, mode=mode,
                key=keys[name], cache="journal", shard=None, wall_s=0.0,
                payload_json=resumed_payloads[name])
            continue
        hit = cache_get(keys[name])
        if hit is not None:
            results[name] = EntryResult(
                name=name, eid=REGISTRY[name].eid, mode=mode,
                key=keys[name], cache="hit", shard=None, wall_s=0.0,
                payload_json=hit)
        else:
            cold.append(name)

    if log and cold:
        log(f"running {len(cold)} cold entries over "
            f"{min(max(1, shards), len(cold))} shard(s); "
            f"{len(results)} cached"
            + (f"; {len(resumed_payloads)} restored from journal"
               if resumed_payloads else ""))

    counters: Dict[str, int] = {}
    try:
        if cold:
            jobs = _make_jobs(cold, keys, mode, seed, max_attempts, chaos)
            outcome = JobScheduler(jobs, run_entry, workers=shards,
                                   journal=journal, runlog=runlog,
                                   on_event=on_event).run()
            counters = outcome.counters
            report.shard_walls = outcome.worker_walls
            report.interrupted = outcome.interrupted
            for job in jobs:
                if job.state == DONE:
                    results[job.name] = EntryResult(
                        name=job.name, eid=REGISTRY[job.name].eid,
                        mode=mode, key=job.key, cache="miss",
                        shard=job.worker, wall_s=job.wall_s,
                        payload_json=job.payload_json)
                    if cache is not None:
                        cache_put(job.key, job.name, job.payload_json,
                                  meta={"mode": mode,
                                        "wall_s": round(job.wall_s, 4),
                                        "seed": seed,
                                        "calibration": calib_fp})
                elif job.state == FAILED:
                    results[job.name] = EntryResult(
                        name=job.name, eid=REGISTRY[job.name].eid,
                        mode=mode, key=job.key, cache="miss",
                        shard=job.worker, wall_s=job.wall_s,
                        payload_json=None, error=job.error)
                # unfinished (interrupted) jobs stay out of the report

        report.entries = [results[name] for name in names
                          if name in results]
        # Tiny sweeps exist for byte-stability testing only; their
        # reduced fidelity makes anchor values meaningless, so no
        # anchor is checked.
        if runlog is not None:
            with runlog.span("suite", "anchors"):
                report.checks = (check_anchors(report.payloads)
                                 if mode != "tiny" else [])
        else:
            report.checks = (check_anchors(report.payloads)
                             if mode != "tiny" else [])
        report.wall_s = time.perf_counter() - start
        report.robustness = {
            **{name: counters.get(name, 0)
               for name in ("retries", "requeues", "deadline_kills",
                            "workers_lost", "workers_spawned",
                            "heartbeat_kills", "spill_recoveries")},
            "cache_corrupted": cache.corrupted if cache else 0,
            "cache_quarantined": list(cache.quarantined) if cache else [],
            "resumed_entries": len(resumed_payloads),
        }
        if runlog is not None:
            if cache is not None and cache.corrupted:
                runlog.metrics.counter(
                    "suite.cache.quarantined").inc(cache.corrupted)
            report.telemetry = runlog.summary()
        if journal is not None:
            journal.record("end", ok=report.ok,
                           interrupted=report.interrupted,
                           wall_s=round(report.wall_s, 4),
                           entries_done=len(report.entries))
    finally:
        if journal is not None:
            journal.close()
    return report


# -- EXPERIMENTS.md regeneration -----------------------------------------------------------------

def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---:" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def _sweep_columns(payload: Dict[str, object],
                   columns: Sequence[Tuple[str, str]],
                   x_header: str = "size", x_is_size: bool = True,
                   fmt: str = "{:.3f}") -> str:
    series = payload["series"]
    xs = sorted({x for label, _ in columns if label in series
                 for x, _ in series[label]})
    rows = []
    for x in xs:
        cell = pretty_size(int(x)) if x_is_size else f"{x:g}"
        row = [cell]
        for label, _ in columns:
            value = next((y for px, y in series.get(label, ())
                          if px == x), None)
            row.append(fmt.format(value) if value is not None else "—")
        rows.append(row)
    return _md_table([x_header] + [head for _, head in columns], rows)


def _md_fig9(p):
    points = dict(p["series"]["CPU (write)"])
    counts = sorted(points)
    return _md_table(["requests"] + [f"{c:g}" for c in counts],
                     [["CPU write (GB/s)"]
                      + [f"{points[c]:.2f}" for c in counts]])


def _md_theory(p):
    return _md_table(
        ["quantity", "paper", "measured"],
        [["Gen2 x8 post-encoding rate", "4 Gbytes/s",
          f"{p['gen2_x8_raw_gbytes']:.3f}"],
         ["payload ceiling at MPS 256 B", "3.66 Gbytes/s",
          f"{p['eq1_peak_gbytes']:.3f}"],
         ["GPU-read latency-bandwidth bound", "(implied by 830 MB/s)",
          f"{p['gpu_read_bound_gbytes']:.3f}"]])


def _md_limits(p):
    return _md_table(
        ["quantity", "paper", "measured"],
        [["GPU DMA-read ceiling", "830 Mbytes/s",
          f"{p['gpu_read_gbytes']:.3f} GB/s"],
         ["GPU write, same socket", "≈ CPU write",
          f"{p['gpu_write_same_socket_gbytes']:.2f} GB/s"],
         ["GPU write across QPI", "\"several hundred Mbytes/sec\"",
          f"{p['gpu_write_over_qpi_gbytes']:.2f} GB/s"]])


def _md_latency(p):
    return _md_table(
        ["quantity", "paper", "measured"],
        [["one-way store-to-commit, 2 chips + 1 cable",
          f"**{p['paper_ns']:g} ns**", f"**{p['pio_one_way_ns']:.1f} ns**"],
         ["observed by the polling driver", "—",
          f"{p['pio_polled_ns']:g} ns (poll quantization)"],
         ["vs InfiniBand FDR claim", "< 1 µs",
          f"{p['pio_one_way_ns']:g} < {p['infiniband_fdr_claim_ns']:g} ✓"]])


#: Registry entry name -> EXPERIMENTS.md table: a renderer function, or
#: the keyword arguments of a :func:`_sweep_columns` table, whose
#: ``columns`` are ``(series label, column header)`` pairs.
MD_RENDERERS: Dict[str, Union[Callable[[Dict[str, object]], str],
                              Dict[str, object]]] = {
    "theory": _md_theory,
    "fig7": {"columns": [("CPU (write)", "CPU write"),
                         ("CPU (read)", "CPU read"),
                         ("GPU (write)", "GPU write"),
                         ("GPU (read)", "GPU read")]},
    "fig9": _md_fig9,
    "limits": _md_limits,
    "latency": _md_latency,
    "fig12": {"columns": [("remote CPU", "remote CPU"),
                          ("local CPU (write)", "local CPU"),
                          ("remote GPU", "remote GPU"),
                          ("local GPU (write)", "local GPU")]},
    "pio-dma-crossover": {"columns": [("tca-pio", "PIO (µs)"),
                                      ("tca-dma", "DMA (µs)")],
                          "fmt": "{:.3g}"},
    "hierarchy": {"columns": [("local (TCA)", "local put (TCA)"),
                              ("global (IB)", "global put (IB)")],
                  "fmt": "{:.4g} µs"},
    "collectives": {"columns": [("tca", "TCA"), ("mpi-ib", "MPI over IB")],
                    "x_header": "block", "fmt": "{:.4g} µs"},
    "contention": {"columns": [("4-node ring", "4-node"),
                               ("8-node ring", "8-node"),
                               ("16-node ring", "16-node")],
                   "x_header": "hop distance", "x_is_size": False,
                   "fmt": "{:.2f}"},
    "collective-allreduce": {"columns": [("tca", "TCA"),
                                         ("mpi-ib", "MPI over IB")],
                             "x_header": "vector", "fmt": "{:.4g} µs"},
    "collective-dual-ring": {"columns": [("single-ring", "single ring"),
                                         ("dual-ring", "dual ring")],
                             "x_header": "vector", "fmt": "{:.4g} µs"},
    "collective-torus": {"columns": [("ring", "ring (µs)"),
                                     ("torus", "torus (µs)"),
                                     ("ring steps", "ring steps"),
                                     ("torus steps", "torus steps")],
                         "x_header": "nodes", "x_is_size": False,
                         "fmt": "{:.4g}"},
    "bisection": {"columns": [("ring", "ring (GB/s)"),
                              ("torus", "torus (GB/s)")],
                  "x_header": "nodes", "x_is_size": False,
                  "fmt": "{:.2f}"},
}


def render_experiments_md(payloads: Dict[str, object],
                          text: str) -> Tuple[str, List[str]]:
    """Replace every ``<!-- suite:NAME -->`` block with a live table.

    Returns (new text, names regenerated).  Raises
    :class:`~repro.errors.ConfigError` if a payload has a renderer but
    the document lacks its markers — the document must stay regenerable.
    """
    updated = []
    for name, renderer in MD_RENDERERS.items():
        if name not in payloads:
            continue
        begin, end = f"<!-- suite:{name} -->", f"<!-- /suite:{name} -->"
        i = text.find(begin)
        j = text.find(end)
        if i < 0 or j < 0 or j < i:
            raise ConfigError(
                f"EXPERIMENTS.md lacks the {begin} ... {end} markers")
        table = (renderer(payloads[name]) if callable(renderer)
                 else _sweep_columns(payloads[name], **renderer))
        text = (text[:i + len(begin)] + "\n" + table + "\n" + text[j:])
        updated.append(name)
    return text, updated
