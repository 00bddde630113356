"""Process-level chaos: prove the *harness* survives what the sim does.

:mod:`repro.faults.chaos` injects faults into the simulated fabric;
this module injects them into the machinery that runs the suite —
worker processes, deadlines, the result cache, the run journal — and
asserts the one property the whole robustness layer exists for:

    **a disturbed run produces byte-identical payloads to a clean
    run, with every anchor still green.**

Four scenarios, each independently checkable::

    worker-kill       SIGKILL a fork worker the moment it starts a
                      job; the supervisor must reap it, requeue the
                      job on the survivors, and finish.
    deadline-hang     force one entry to hang past an (injected) tiny
                      deadline; the supervisor must kill the worker
                      and retry with an escalated deadline.
    cache-corruption  bit-flip one cache entry and truncate another;
                      the next run must quarantine both and
                      transparently re-measure.
    kill-resume       SIGKILL an entire journalled suite run mid-way;
                      ``--resume`` must re-execute only the unfinished
                      entries and reassemble identical payloads.

Byte-identity holds by construction — a payload depends only on
``(entry, mode, seed)`` — so any divergence here is a real supervisor
bug (a lost job, a double-counted retry mutating state, a stale
message applied), which is exactly what this harness is for.

Run it directly (CI does, see ``suite-chaos``)::

    python -m repro.faults.harness_chaos --mode smoke
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.cache import ResultCache
from repro.bench.suite import run_suite
from repro.errors import ConfigError

#: Scenario registry order == execution and report order.
SCENARIOS = ("worker-kill", "deadline-hang", "cache-corruption",
             "kill-resume")

#: Pool size of the disturbed runs.  The worker-kill and deadline-hang
#: scenarios need a fork pool: one worker runs the suite in-process,
#: with no worker pid to kill and no deadline to fire.
WORKERS = 2


@dataclass
class Check:
    """One asserted property of one scenario."""

    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"    [{mark}] {self.name}: {self.detail}"


@dataclass
class ScenarioResult:
    """Everything one chaos scenario observed."""

    scenario: str
    checks: List[Check] = field(default_factory=list)
    robustness: Dict[str, object] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    def expect(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(Check(name=name, ok=bool(ok), detail=detail))

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "wall_s": round(self.wall_s, 3),
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
            "robustness": self.robustness,
        }


@dataclass
class HarnessChaosReport:
    """The full chaos-harness verdict (``tca-harness-chaos/1``)."""

    mode: str
    seed: int
    results: List[ScenarioResult] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "tca-harness-chaos/1",
            "mode": self.mode,
            "seed": self.seed,
            "workers": WORKERS,
            "ok": self.ok,
            "wall_s": round(self.wall_s, 3),
            "scenarios": [r.to_dict() for r in self.results],
        }

    def render(self) -> str:
        lines = [f"harness chaos  mode={self.mode} seed={self.seed} "
                 f"workers={WORKERS}"]
        for result in self.results:
            verdict = "pass" if result.ok else "FAIL"
            lines.append(f"  {result.scenario}: {verdict} "
                         f"({result.wall_s:.1f}s)")
            lines += [str(c) for c in result.checks]
        lines.append(f"chaos: {'PASS' if self.ok else 'FAIL'} "
                     f"({sum(r.ok for r in self.results)} of "
                     f"{len(self.results)} scenarios)  "
                     f"wall: {self.wall_s:.1f}s")
        return "\n".join(lines)


def _payload_map(report) -> Dict[str, Optional[str]]:
    """Entry name -> canonical payload text; the byte-identity basis."""
    return {e.name: e.payload_json for e in report.entries}


def _identical(result: ScenarioResult, clean: Dict[str, Optional[str]],
               disturbed) -> None:
    got = _payload_map(disturbed)
    diverged = sorted(n for n in clean
                      if got.get(n) != clean[n])
    missing = sorted(n for n in clean if n not in got)
    result.expect(
        "byte-identical", not diverged and not missing,
        "all payloads match the clean run" if not diverged and not missing
        else f"diverged: {diverged[:5]} missing: {missing[:5]}")


def _anchors_green(result: ScenarioResult, report, mode: str) -> None:
    summary = report.summary()
    if mode == "tiny":
        result.expect("anchors", True, "tiny mode: anchors skipped")
        return
    result.expect("anchors", summary["anchors_fail"] == 0,
                  f"{summary['anchors_pass']} pass, "
                  f"{summary['anchors_fail']} fail")


# -- scenarios ------------------------------------------------------------------------


def scenario_worker_kill(clean: Dict[str, Optional[str]], mode: str,
                         seed: int,
                         log: Callable[[str], None]) -> ScenarioResult:
    """SIGKILL the first worker to start a job; the run must survive."""
    result = ScenarioResult(scenario="worker-kill")
    killed: List[int] = []

    def on_event(kind: str, info: Dict[str, object]) -> None:
        # A fork worker's ``running`` job record carries its pid.
        if kind == "job" and not killed and info.get("pid"):
            pid = int(info["pid"])
            killed.append(pid)
            os.kill(pid, signal.SIGKILL)

    report = run_suite(mode=mode, cache=None, shards=WORKERS, seed=seed,
                       on_event=on_event)
    result.robustness = report.robustness
    result.expect("worker-killed", bool(killed),
                  f"SIGKILLed worker pid {killed[0]}" if killed
                  else "no running job record carried a pid")
    lost = report.robustness.get("workers_lost", 0)
    result.expect("supervisor-reaped", lost >= 1,
                  f"workers_lost={lost}")
    result.expect("run-completed", report.ok and not report.interrupted,
                  f"ok={report.ok} interrupted={report.interrupted}")
    _identical(result, clean, report)
    _anchors_green(result, report, mode)
    return result


def scenario_deadline_hang(clean: Dict[str, Optional[str]], mode: str,
                           seed: int,
                           log: Callable[[str], None]) -> ScenarioResult:
    """Hang one entry past a tiny injected deadline; retry must land."""
    result = ScenarioResult(scenario="deadline-hang")
    victim = "theory"  # cheap, present in every mode
    chaos = {"hang_s": {victim: 30.0}, "deadline_s": {victim: 0.5}}
    report = run_suite(mode=mode, cache=None, shards=WORKERS, seed=seed,
                       chaos=chaos)
    result.robustness = report.robustness
    kills = report.robustness.get("deadline_kills", 0)
    retries = report.robustness.get("retries", 0)
    result.expect("deadline-fired", kills >= 1,
                  f"deadline_kills={kills}")
    result.expect("retried", retries >= 1, f"retries={retries}")
    result.expect("run-completed", report.ok and not report.interrupted,
                  f"ok={report.ok} interrupted={report.interrupted}")
    _identical(result, clean, report)
    _anchors_green(result, report, mode)
    return result


def scenario_cache_corruption(clean: Dict[str, Optional[str]], mode: str,
                              seed: int,
                              log: Callable[[str], None]
                              ) -> ScenarioResult:
    """Damage two cache entries; the next run quarantines and re-runs."""
    result = ScenarioResult(scenario="cache-corruption")
    with tempfile.TemporaryDirectory(prefix="tca-chaos-cache-") as tmp:
        cache_dir = Path(tmp)
        warm = run_suite(mode=mode, cache=ResultCache(cache_dir),
                         shards=1, seed=seed)
        entries = sorted(p for p in cache_dir.rglob("*.json")
                         if p.parent.name != ResultCache.QUARANTINE_DIR)
        result.expect("cache-populated", len(entries) >= 2,
                      f"{len(entries)} cached documents")
        if len(entries) >= 2:
            # Bit-flip the middle byte of one document ...
            blob = bytearray(entries[0].read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            entries[0].write_bytes(bytes(blob))
            # ... and tear the tail off another (torn write).
            blob = entries[1].read_bytes()
            entries[1].write_bytes(blob[:len(blob) // 2])

        cache = ResultCache(cache_dir)
        report = run_suite(mode=mode, cache=cache, shards=1, seed=seed)
        result.robustness = report.robustness
        result.expect("quarantined", cache.corrupted == 2,
                      f"corrupted={cache.corrupted} "
                      f"({[q['reason'] for q in cache.quarantined]})")
        parked = list((cache_dir / ResultCache.QUARANTINE_DIR).glob("*"))
        result.expect("parked-for-postmortem", len(parked) >= 1,
                      f"{len(parked)} files in quarantine/")
        stats = cache.stats()
        result.expect("transparent-rerun",
                      stats["misses"] >= 2 and report.ok,
                      f"misses={stats['misses']} ok={report.ok}")
        _identical(result, _payload_map(warm), report)
        _identical(result, clean, report)
        _anchors_green(result, report, mode)
    return result


def scenario_kill_resume(clean: Dict[str, Optional[str]], mode: str,
                         seed: int,
                         log: Callable[[str], None]) -> ScenarioResult:
    """SIGKILL a whole journalled run mid-way; resume must complete it."""
    result = ScenarioResult(scenario="kill-resume")
    with tempfile.TemporaryDirectory(prefix="tca-chaos-resume-") as tmp:
        jdir = Path(tmp) / "journal"
        mode_flag = {"smoke": ["--smoke"], "tiny": ["--tiny"],
                     "full": []}[mode]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get(
            "PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.bench.cli", "suite",
             *mode_flag, "--no-cache", "--shards", str(WORKERS),
             "--seed", str(seed), "--journal-dir", str(jdir)],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        # Wait for the first journalled completion, then pull the plug.
        journal_path = None
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and proc.poll() is None:
            candidates = list(jdir.glob("*.jsonl")) if jdir.exists() \
                else []
            if candidates:
                journal_path = candidates[0]
                if '"state":"done"' in journal_path.read_text(
                        encoding="utf-8"):
                    break
            time.sleep(0.05)
        mid_run = proc.poll() is None
        if mid_run:
            proc.kill()
        proc.wait()
        result.expect("killed-mid-run", mid_run and journal_path is not None,
                      "SIGKILLed after first journalled completion"
                      if mid_run else "run finished before the kill "
                      "(machine too fast for this mode)")
        if journal_path is None:
            return result

        run_id = journal_path.stem
        report = run_suite(cache=None, journal_dir=jdir, resume=run_id)
        result.robustness = report.robustness
        resumed = report.robustness.get("resumed_entries", 0)
        reran = sum(1 for e in report.entries if e.cache == "miss")
        result.expect("partial-restore", resumed >= 1,
                      f"{resumed} entries restored from the journal")
        result.expect("partial-rerun", not mid_run or reran >= 1,
                      f"{reran} unfinished entries re-executed")
        result.expect("run-completed", report.ok and not report.interrupted,
                      f"ok={report.ok} interrupted={report.interrupted}")
        _identical(result, clean, report)
        _anchors_green(result, report, mode)
    return result


_SCENARIO_FNS: Dict[str, Callable] = {
    "worker-kill": scenario_worker_kill,
    "deadline-hang": scenario_deadline_hang,
    "cache-corruption": scenario_cache_corruption,
    "kill-resume": scenario_kill_resume,
}


def run_harness_chaos(mode: str = "smoke", seed: int = 0,
                      scenarios: Optional[Sequence[str]] = None,
                      log: Optional[Callable[[str], None]] = None
                      ) -> HarnessChaosReport:
    """Run the chaos scenarios against a clean-run baseline."""
    log = log or (lambda msg: None)
    scenarios = list(scenarios) if scenarios is not None \
        else list(SCENARIOS)
    unknown = [s for s in scenarios if s not in _SCENARIO_FNS]
    if unknown:
        raise ConfigError(
            f"unknown chaos scenarios: {', '.join(unknown)} "
            f"(known: {', '.join(SCENARIOS)})")
    report = HarnessChaosReport(mode=mode, seed=seed)
    start = time.perf_counter()
    log(f"clean baseline run (mode={mode}) ...")
    baseline = run_suite(mode=mode, cache=None, shards=1, seed=seed)
    if not baseline.ok:
        raise ConfigError(
            "clean baseline run failed; chaos verdicts would be "
            "meaningless — fix the suite first")
    clean = _payload_map(baseline)
    for name in scenarios:
        log(f"scenario {name} ...")
        t0 = time.perf_counter()
        result = _SCENARIO_FNS[name](clean, mode, seed, log)
        result.wall_s = time.perf_counter() - t0
        report.results.append(result)
        log(f"scenario {name}: {'pass' if result.ok else 'FAIL'}")
    report.wall_s = time.perf_counter() - start
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.faults.harness_chaos`` (the CI suite-chaos step)."""
    parser = argparse.ArgumentParser(
        prog="harness-chaos",
        description="Kill workers, hang entries, corrupt caches — then "
                    "assert the suite's output did not change by a byte.")
    parser.add_argument("--mode", choices=("full", "smoke", "tiny"),
                        default="smoke",
                        help="suite mode for every run (default smoke)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME", choices=SCENARIOS,
                        help="run only this scenario (repeatable)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the verdict document to PATH")
    args = parser.parse_args(argv)

    try:
        report = run_harness_chaos(
            mode=args.mode, seed=args.seed, scenarios=args.scenario,
            log=lambda msg: print(msg, file=sys.stderr))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        from repro.bench.ioutil import atomic_write_json

        atomic_write_json(args.json, report.to_dict())
        print(f"chaos verdict -> {args.json}", file=sys.stderr)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
