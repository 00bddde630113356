"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro.bench <experiment> [...]
    tca-bench --list
    tca-bench all --json
    tca-bench latency --trace trace.json --metrics metrics.json

``--trace`` / ``--metrics`` run the experiments under an observability
session (see :mod:`repro.obs`): every engine the experiments build gets a
tracer and a metrics registry, and the union is exported afterwards — a
Perfetto-loadable trace-event file and a per-engine metrics document.

``--fault-plan`` additionally arms a fault-injection plan (see
:mod:`repro.faults`) on every engine: ``--fault-plan chaos:7`` runs the
experiments over marginal links with a lost IRQ and a stuck doorbell,
seeded deterministically.  Combined with ``--metrics``, the injected
fault counts and every recovery counter (replays, NAKs, drops, IRQ
timeouts) land in the metrics document.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Callable, Dict, Optional

from repro.bench import experiments
from repro.bench.experiments import REGISTRY
from repro.bench.series import SweepTable
from repro.errors import ReproError


def _registry_runner(spec) -> Callable[[], object]:
    return lambda: spec.run("full")


#: Every runnable name: the E1-E19 registry plus the utility commands.
#: ``suite`` is handled separately (it orchestrates the registry).
EXPERIMENTS: Dict[str, Callable[[], object]] = {
    **{name: _registry_runner(spec) for name, spec in REGISTRY.items()},
    "validate": lambda: _validate(),
    "perf": lambda: _perf(),
}


#: The sweeps whose points ``--engine-workers`` spreads over fork workers.
MULTI_ENGINE = ("fig7", "fig9")


def _engine_workers_problem(args) -> Optional[str]:
    """Why ``--engine-workers`` cannot apply to this command, if it can't.

    Fork workers run their engines out of the parent's sight: traces,
    metrics and fault injection would silently miss them, so those
    combinations are refused rather than half-honoured.
    """
    workers = args.engine_workers
    if workers < 0:
        return f"--engine-workers must be >= 0, got {workers}"
    if workers <= 1:
        return None
    if args.experiment not in MULTI_ENGINE + ("all",):
        return ("--engine-workers > 1 applies only to "
                + ", ".join(MULTI_ENGINE) + " and all")
    for flag, value in (("--trace", args.trace),
                        ("--metrics", args.metrics),
                        ("--fault-plan", args.fault_plan)):
        if value:
            return (f"--engine-workers > 1 cannot be combined with {flag}:"
                    " fork workers are not observed; run inline")
    return None


def _perf():
    from repro.bench.perf import run_perf

    return run_perf()


def _validate() -> str:
    from repro.model.validate import render_validation, validate_calibration

    return render_validation(validate_calibration())


def _suite_main(args) -> int:
    """The ``tca-bench suite`` subcommand (see docs/experiments.md).

    SIGINT/SIGTERM are handled: workers are terminated, the journal and
    any requested ``--report`` are flushed with ``interrupted: true``,
    and the exit code is 128+signum — never a traceback.
    """
    import signal

    from repro.bench.cache import ResultCache
    from repro.bench.ioutil import atomic_write_json, atomic_write_text
    from repro.bench.suite import (DEFAULT_JOURNAL_DIR,
                                   render_experiments_md, run_suite)

    if args.smoke and args.tiny:
        print("error: --smoke and --tiny are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.resume and args.no_journal:
        print("error: --resume needs the journal; drop --no-journal",
              file=sys.stderr)
        return 2
    mode = "smoke" if args.smoke else "tiny" if args.tiny else "full"
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    journal_dir = (None if args.no_journal
                   else args.journal_dir or DEFAULT_JOURNAL_DIR)
    runlog = None
    if args.trace_out:
        from repro.obs.runlog import RunLog

        runlog = RunLog(label="suite")

    # A termination signal becomes KeyboardInterrupt, which the job
    # layer already turns into an orderly partial run.
    caught: list = []

    def _on_signal(signum, frame):
        if not caught:
            caught.append(signum)
            raise KeyboardInterrupt

    old_int = signal.signal(signal.SIGINT, _on_signal)
    old_term = signal.signal(signal.SIGTERM, _on_signal)
    try:
        report = run_suite(shards=args.shards, mode=mode, cache=cache,
                           force=args.force, seed=args.seed,
                           log=lambda msg: print(msg, file=sys.stderr),
                           runlog=runlog,
                           journal_dir=journal_dir, resume=args.resume)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Interrupted outside the job layer (startup/teardown): there
        # is no report to flush, but still no traceback.
        signum = caught[0] if caught else signal.SIGINT
        print(f"interrupted (signal {signum}) before any result; "
              "nothing to flush", file=sys.stderr)
        return 128 + signum
    finally:
        signal.signal(signal.SIGINT, old_int)
        signal.signal(signal.SIGTERM, old_term)

    if runlog is not None:
        try:
            runlog.write_trace(args.trace_out)
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return 1
        print(f"run trace -> {args.trace_out} "
              "(Perfetto; 1 wall ns = 1000 trace ps)", file=sys.stderr)

    if args.report:
        try:
            atomic_write_json(args.report, report.to_dict())
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
        print(f"conformance report -> {args.report}", file=sys.stderr)

    if args.render_md and not report.interrupted:
        try:
            with open(args.render_md, "r", encoding="utf-8") as fh:
                text = fh.read()
            text, updated = render_experiments_md(report.payloads, text)
            atomic_write_text(args.render_md, text)
        except OSError as exc:
            print(f"error: cannot render tables: {exc}", file=sys.stderr)
            return 1
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"regenerated {len(updated)} tables -> {args.render_md}",
              file=sys.stderr)

    if args.json:
        sys.stdout.write(report.payloads_json())
        print()
    else:
        print(report.render())
    if report.interrupted:
        return 128 + (caught[0] if caught else signal.SIGINT)
    return 0 if report.ok else 1


def _load_json(path: str, what: str):
    """Load one JSON document or print a CLI error; returns None on it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {what} {path!r}: {exc}",
              file=sys.stderr)
        return None


def _perf_main(args) -> int:
    """``tca-bench perf`` with sampler/gate/history flags."""
    import os

    from repro.bench import history as hist
    from repro.bench.perf import PERF_EXPERIMENTS, run_perf, run_profile

    names = None
    if args.perf_experiments:
        names = [n.strip() for n in args.perf_experiments.split(",")
                 if n.strip()]
        unknown = [n for n in names if n not in PERF_EXPERIMENTS]
        if unknown:
            print(f"error: unknown perf experiments: "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2

    threshold = (hist.DEFAULT_THRESHOLD if args.threshold is None
                 else args.threshold)
    budget = (hist.DEFAULT_OVERHEAD_BUDGET
              if args.overhead_budget is None else args.overhead_budget)

    baseline = None
    if args.check:
        baseline = _load_json(args.baseline, "baseline")
        if baseline is None:
            return 2
        problem = hist.validate_perf_doc(
            baseline, f"baseline {args.baseline!r}")
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2

    payload: Dict[str, object] = {}
    rc = 0
    report = None
    # --profile alone skips the bare/instrumented timing pass; any
    # gate/history/baseline work needs the timed report.
    if args.check or args.history or args.bench_json or not args.profile:
        report = run_perf(names)
        payload["perf"] = report.to_dict()
        if not args.json:
            print(report)

    if args.profile:
        profiles = run_profile(names)
        payload["profile"] = {name: rep.to_dict()
                              for name, rep in profiles.items()}
        if not args.json:
            for name, rep in profiles.items():
                print(f"==== profile: {name} ====")
                print(rep.render())
                print()

    if report is not None and args.bench_json:
        from repro.bench.ioutil import atomic_write_json

        try:
            atomic_write_json(args.bench_json, report.to_dict())
        except OSError as exc:
            print(f"error: cannot write benchmark output: {exc}",
                  file=sys.stderr)
            return 1
        print(f"benchmark -> {args.bench_json}", file=sys.stderr)

    if report is not None and args.history:
        try:
            hist.append_run(args.history, report.to_dict())
        except OSError as exc:
            print(f"error: cannot append history: {exc}", file=sys.stderr)
            return 1
        print(f"history -> {args.history}", file=sys.stderr)

    if report is not None and baseline is not None:
        gate = hist.check_against_baseline(
            report.to_dict(), baseline,
            baseline_name=os.path.basename(args.baseline),
            threshold=threshold, overhead_budget=budget,
            events_floor=args.events_floor)
        payload["gate"] = gate.to_dict()
        if not args.json:
            print(gate.render())
        if not gate.ok:
            rc = 1

    if args.json:
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
    return rc


def _report_main(args) -> int:
    """``tca-bench report --html``: render the perf dashboard."""
    import os

    from repro.bench import history as hist

    if not args.html:
        print("error: report requires --html PATH", file=sys.stderr)
        return 2

    history = hist.load_history(args.history) if args.history else []

    perf_doc = gate = None
    if args.perf_json:
        perf_doc = _load_json(args.perf_json, "perf document")
        if perf_doc is None:
            return 2
        problem = hist.validate_perf_doc(
            perf_doc, f"perf document {args.perf_json!r}")
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    if perf_doc is not None and os.path.exists(args.baseline):
        baseline = _load_json(args.baseline, "baseline")
        if baseline is None:
            return 2
        problem = hist.validate_perf_doc(
            baseline, f"baseline {args.baseline!r}")
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
        threshold = (hist.DEFAULT_THRESHOLD if args.threshold is None
                     else args.threshold)
        budget = (hist.DEFAULT_OVERHEAD_BUDGET
                  if args.overhead_budget is None
                  else args.overhead_budget)
        gate = hist.check_against_baseline(
            perf_doc, baseline,
            baseline_name=os.path.basename(args.baseline),
            threshold=threshold, overhead_budget=budget)

    suite_doc = None
    if args.suite_report:
        suite_doc = _load_json(args.suite_report, "suite report")
        if suite_doc is None:
            return 2

    profiles = None
    if args.profile_json:
        doc = _load_json(args.profile_json, "profile document")
        if doc is None:
            return 2
        # Accept both the bare {name: profile} map and the full
        # 'perf --profile --json' stdout document wrapping it.
        profiles = doc.get("profile", doc) if isinstance(doc, dict) \
            else None

    page = hist.render_dashboard(history=history, perf_doc=perf_doc,
                                 gate=gate, suite_doc=suite_doc,
                                 profiles=profiles)
    from repro.bench.ioutil import atomic_write_text

    try:
        atomic_write_text(args.html, page)
    except OSError as exc:
        print(f"error: cannot write dashboard: {exc}", file=sys.stderr)
        return 1
    print(f"dashboard -> {args.html}", file=sys.stderr)
    return 0


def render(result: object, chart: bool = False) -> str:
    """Uniform rendering for tables, sweeps and scalar dicts."""
    if isinstance(result, SweepTable):
        text = result.render()
        if chart:
            text += "\n\n" + result.render_chart()
        return text
    if isinstance(result, dict):
        if not result:
            return "(no results)"
        width = max(len(str(k)) for k in result)
        return "\n".join(f"{k:<{width}} : {v}" for k, v in result.items())
    return str(result)


def to_payload(result: object) -> object:
    """JSON-friendly form of one experiment's result."""
    if isinstance(result, SweepTable):
        return result.to_dict()
    if isinstance(result, dict):
        return result
    to_dict = getattr(result, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return {"text": str(result)}


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="tca-bench",
        description="Regenerate the paper's tables and figures from the "
                    "TCA/PEACH2 simulation.")
    parser.add_argument("experiment", nargs="?", default=None,
                        help="experiment name, or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--chart", action="store_true",
                        help="also render sweeps as ASCII charts")
    parser.add_argument("--json", action="store_true",
                        help="emit results as a JSON document on stdout")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Perfetto trace-event JSON file")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write collected metrics (JSON; text for "
                             "paths not ending in .json)")
    parser.add_argument("--fault-plan", metavar="PLAN", default=None,
                        help="arm a fault-injection plan on every engine: "
                             "a preset (none, flaky-links, lost-irq, chaos),"
                             " optionally NAME:SEED, or a JSON plan file "
                             "(see docs/robustness.md)")
    parser.add_argument("--engine-workers", type=int, default=1,
                        metavar="N",
                        help="with fig7, fig9 or all: measure the sweep "
                             "points on N fork workers; output stays "
                             "byte-identical to the inline run "
                             "(default 1, inline)")
    parser.add_argument("--bench-json", metavar="PATH", default=None,
                        help="with the 'perf' experiment: write the "
                             "wall-clock benchmark document to PATH "
                             "(see docs/performance.md)")
    group = parser.add_argument_group(
        "suite options", "only meaningful with the 'suite' experiment "
        "(see docs/experiments.md)")
    group.add_argument("--shards", type=int, default=1, metavar="N",
                       help="number of worker processes (default 1)")
    group.add_argument("--smoke", action="store_true",
                       help="reduced sweeps that keep every anchor point")
    group.add_argument("--tiny", action="store_true",
                       help="minimal sweeps (determinism testing; most "
                            "anchors are skipped)")
    group.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="result-cache directory (default "
                            "$TCA_BENCH_CACHE_DIR or .tca-bench-cache)")
    group.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    group.add_argument("--force", action="store_true",
                       help="ignore cache hits but still store results")
    group.add_argument("--seed", type=int, default=0,
                       help="suite seed, folded into every entry seed "
                            "and cache key (default 0)")
    group.add_argument("--report", metavar="PATH", default=None,
                       help="write the tca-bench-suite/1 conformance "
                            "report JSON to PATH")
    group.add_argument("--render-md", metavar="PATH", nargs="?",
                       const="EXPERIMENTS.md", default=None,
                       help="regenerate the marked tables of EXPERIMENTS.md"
                            " (or PATH) from the live results")
    group.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a wall-clock Perfetto trace of the "
                            "suite run itself (worker timelines, cache "
                            "latencies)")
    group.add_argument("--journal-dir", metavar="PATH", default=None,
                       help="crash-safe run-journal directory (default "
                            ".tca-bench-journal)")
    group.add_argument("--no-journal", action="store_true",
                       help="disable the run journal (and --resume)")
    group.add_argument("--resume", metavar="RUN_ID", default=None,
                       help="resume a journalled run: restore its "
                            "finished payloads and re-execute only the "
                            "unfinished entries")
    perf_group = parser.add_argument_group(
        "perf options", "only meaningful with the 'perf' experiment or "
        "the 'report' subcommand (see docs/performance.md)")
    perf_group.add_argument("--profile", action="store_true",
                            help="sample host time per experiment and "
                                 "print its layer shares and top sites")
    perf_group.add_argument("--check", action="store_true",
                            help="gate this run against --baseline; "
                                 "exit nonzero on regression")
    perf_group.add_argument("--baseline", metavar="PATH",
                            default="BENCH_PR9.json",
                            help="committed tca-bench-perf/1 baseline "
                                 "for --check (default BENCH_PR9.json)")
    perf_group.add_argument("--threshold", type=float, default=None,
                            metavar="FRAC",
                            help="allowed bare events/s regression "
                                 "(default 0.15)")
    perf_group.add_argument("--events-floor", type=float, default=None,
                            metavar="N",
                            help="with --check: absolute floor on the "
                                 "run's overall bare events/s (catches "
                                 "slow erosion the relative gate "
                                 "cannot)")
    perf_group.add_argument("--overhead-budget", type=float, default=None,
                            metavar="RATIO",
                            help="maximum instrumented/bare overhead "
                                 "ratio (default 3.0)")
    perf_group.add_argument("--history", metavar="PATH", default=None,
                            help="perf-history JSONL: 'perf' appends "
                                 "this run; 'report' plots the trend")
    perf_group.add_argument("--perf-experiments", metavar="NAMES",
                            default=None,
                            help="comma-separated subset of the perf "
                                 "experiments (tiny CI budgets)")
    serve_group = parser.add_argument_group(
        "serve options", "only meaningful with the 'serve' and "
        "'serve-bench' subcommands (see docs/serving.md)")
    serve_group.add_argument("--host", default="127.0.0.1",
                             help="serve: bind address "
                                  "(default 127.0.0.1)")
    serve_group.add_argument("--port", type=int, default=8023,
                             help="serve: TCP port; 0 picks an "
                                  "ephemeral port (default 8023)")
    serve_group.add_argument("--serve-workers", type=int, default=1,
                             metavar="N",
                             help="cold jobs per fork-worker generation;"
                                  " 1 runs them inline on the executor "
                                  "thread (default 1)")
    serve_group.add_argument("--entry", default="fig9",
                             help="serve-bench: registry entry to "
                                  "compute cold (default fig9)")
    serve_group.add_argument("--serve-bench-mode", default="smoke",
                             choices=("full", "smoke", "tiny"),
                             metavar="MODE",
                             help="serve-bench: experiment mode "
                                  "(default smoke)")
    serve_group.add_argument("--requests", type=int, default=2000,
                             metavar="N",
                             help="serve-bench: warm requests per phase "
                                  "(default 2000)")
    serve_group.add_argument("--concurrency", type=int, default=32,
                             metavar="C",
                             help="serve-bench: concurrent keep-alive "
                                  "connections (default 32)")
    serve_group.add_argument("--coalesce", type=int, default=16,
                             metavar="K",
                             help="serve-bench: concurrent identical "
                                  "cold submits (default 16)")
    serve_group.add_argument("--assert-speedup", type=float,
                             default=None, metavar="X",
                             help="serve-bench: exit nonzero unless "
                                  "cold-compute / warm-p50 >= X")
    report_group = parser.add_argument_group(
        "report options", "only meaningful with the 'report' subcommand")
    report_group.add_argument("--html", metavar="PATH", default=None,
                              help="write the self-contained dashboard "
                                   "HTML to PATH")
    report_group.add_argument("--perf-json", metavar="PATH", default=None,
                              help="latest tca-bench-perf/1 document "
                                   "(overhead ratios; gated against "
                                   "--baseline when that file exists)")
    report_group.add_argument("--suite-report", metavar="PATH",
                              default=None,
                              help="tca-bench-suite/1 report JSON "
                                   "(anchor pass/fail)")
    report_group.add_argument("--profile-json", metavar="PATH",
                              default=None,
                              help="profile document from "
                                   "'perf --profile --json' (hotspots)")
    args = parser.parse_args(argv)

    problem = _engine_workers_problem(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    if args.list or args.experiment is None:
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  suite")
        print("  serve")
        print("  serve-bench")
        print("  report")
        return 0

    if args.experiment == "suite":
        return _suite_main(args)

    if args.experiment == "serve":
        from repro.serve.server import serve_main

        return serve_main(args)

    if args.experiment == "serve-bench":
        from repro.serve.loadtest import loadtest_main

        return loadtest_main(args)

    if args.experiment == "report":
        return _report_main(args)

    if args.experiment == "perf" and (args.profile or args.check
                                      or args.history
                                      or args.perf_experiments):
        return _perf_main(args)

    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        for name in unknown:
            print(f"unknown experiment {name!r}; use --list",
                  file=sys.stderr)
        return 2

    obs = None
    if args.trace or args.metrics:
        from repro.obs import Observability

        obs = Observability()

    faults = None
    if args.fault_plan:
        from repro.faults import FaultPlan, FaultSession

        try:
            faults = FaultSession(FaultPlan.parse(args.fault_plan))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    results: Dict[str, object] = {}
    with contextlib.ExitStack() as stack:
        if obs is not None:
            stack.enter_context(obs.session())
        if faults is not None:
            stack.enter_context(faults.session())
        for name in names:
            try:
                if name in MULTI_ENGINE:
                    spec = REGISTRY[name]
                    results[name] = spec.fn(**spec.params_for("full"),
                                            workers=args.engine_workers)
                else:
                    results[name] = EXPERIMENTS[name]()
            except ReproError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1

    if faults is not None:
        print(faults.summary(), file=sys.stderr)

    if args.bench_json:
        perf_report = results.get("perf")
        if perf_report is None:
            print("error: --bench-json requires the 'perf' experiment",
                  file=sys.stderr)
            return 2
        try:
            with open(args.bench_json, "w", encoding="utf-8") as fh:
                json.dump(perf_report.to_dict(), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write benchmark output: {exc}",
                  file=sys.stderr)
            return 1
        print(f"benchmark -> {args.bench_json}", file=sys.stderr)

    if obs is not None:
        try:
            if args.trace:
                obs.write_trace(args.trace)
                print(f"trace: {obs.total_records} events -> {args.trace}"
                      + (f" ({obs.total_dropped} dropped)"
                         if obs.total_dropped else ""),
                      file=sys.stderr)
            if args.metrics:
                if args.metrics.endswith(".json"):
                    obs.write_metrics(args.metrics)
                else:
                    with open(args.metrics, "w", encoding="utf-8") as fh:
                        fh.write(obs.render_metrics() + "\n")
                print(f"metrics -> {args.metrics}", file=sys.stderr)
        except OSError as exc:
            print(f"error: cannot write observability output: {exc}",
                  file=sys.stderr)
            return 1

    if args.json:
        payload = {name: to_payload(result)
                   for name, result in results.items()}
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
        return 0

    for name, result in results.items():
        print(f"==== {name} ====")
        print(render(result, chart=args.chart))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
