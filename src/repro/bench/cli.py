"""Command-line entry point: regenerate any paper table or figure.

Usage::

    python -m repro.bench <command> [flags]
    tca-bench --list
    tca-bench all --json
    tca-bench latency --trace trace.json --metrics metrics.json

Every command is an argparse subcommand that accepts exactly the flags
it reads (``tca-bench <command> -h`` lists them); any other flag is
refused with exit 2 before anything runs.

``--trace`` / ``--metrics`` run the experiments under an observability
session (see :mod:`repro.obs`): every engine the experiments build gets a
tracer and a metrics registry, and the union is exported afterwards — a
Perfetto-loadable trace-event file and a per-engine metrics document.

``--fault-plan`` additionally arms a fault-injection plan (see
:mod:`repro.faults`) on every engine: ``--fault-plan chaos:7`` runs an
experiment over marginal links with a lost IRQ and a stuck doorbell,
seeded deterministically.  Combined with ``--metrics``, the injected
fault counts and every recovery counter (replays, NAKs, drops, IRQ
timeouts) land in the metrics document.

Plans that lose a completion IRQ (``lost-irq``, ``chaos``) deadlock the
DMA experiments: their rigs drive chains with the plain
``PEACH2Driver.run_chain``, which waits for the IRQ forever, so
``fig9`` exits 1 under ``chaos:7`` and ``fig7``, ``fig9``, ``fig12``
and ``contention`` exit 1 under ``lost-irq:1``.  ``flaky-links`` runs
them (``fig9 --fault-plan flaky-links:3`` exits 0), and so do
``latency`` and ``collective-torus`` under ``chaos:7``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.bench.experiments import REGISTRY
from repro.bench.series import SweepTable
from repro.errors import ReproError
from repro.model.anchors import AnchorCheck


@dataclass(frozen=True)
class Validation:
    """The anchor-table checks ``tca-bench validate`` made."""

    checks: List[AnchorCheck]

    @property
    def failing(self) -> List[str]:
        """The names of the anchors that did not pass."""
        return [c.anchor.name for c in self.checks if c.status != "pass"]

    def to_dict(self) -> Dict[str, object]:
        return {"anchors": [c.to_dict() for c in self.checks],
                "passed": len(self.checks) - len(self.failing),
                "total": len(self.checks)}

    def __str__(self) -> str:
        passed = len(self.checks) - len(self.failing)
        return "\n".join([*map(str, self.checks),
                          f"{passed}/{len(self.checks)} anchors within "
                          "tolerance"])


#: The experiments whose anchors ``tca-bench validate`` checks.
VALIDATED = ("latency", "fig7", "fig9")


def _validate() -> Validation:
    """Check the anchor-table rows of :data:`VALIDATED` on their smoke
    payloads, the bytes ``tca-bench suite --smoke`` checks."""
    from repro.bench import suite

    payloads = {name: json.loads(suite.run_entry(name, "smoke", 0)[0])
                for name in VALIDATED}
    return Validation(suite.check_anchors(payloads))


def _registry_runner(spec) -> Callable[[], object]:
    return lambda: spec.run("full")


#: Every name the generic loop runs (and ``all`` runs in order): the
#: E1-E23 registry plus ``validate``.  ``suite``, ``perf``, ``serve``
#: and ``serve-bench`` have their own entry points.
EXPERIMENTS: Dict[str, Callable[[], object]] = {
    **{name: _registry_runner(spec) for name, spec in REGISTRY.items()},
    "validate": _validate,
}


#: The sweeps whose points ``--engine-workers`` spreads over fork workers.
MULTI_ENGINE = ("fig7", "fig9")


def _engine_workers_problem(args) -> Optional[str]:
    """Why ``--engine-workers`` cannot apply to this run, if it can't.

    Fork workers run their engines out of the parent's sight: traces,
    metrics and fault injection would silently miss them, so those
    combinations are refused rather than half-honoured.
    """
    workers = args.engine_workers
    if workers < 0:
        return f"--engine-workers must be >= 0, got {workers}"
    if workers > 1:
        for flag, value in (("--trace", args.trace),
                            ("--metrics", args.metrics),
                            ("--fault-plan", args.fault_plan)):
            if value:
                return (f"--engine-workers > 1 cannot be combined with "
                        f"{flag}: fork workers are not observed; run "
                        "inline")
    return None


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

    if args.resume and args.no_journal:
        print("error: --resume needs the journal; drop --no-journal",
              file=sys.stderr)
        return 2
    # Read the tables file now: a bad path must not cost a whole run.
    md_text = None
    if args.render_md:
        try:
            with open(args.render_md, "r", encoding="utf-8") as fh:
                md_text = fh.read()
        except OSError as exc:
            print(f"error: cannot read --render-md file: {exc}",
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

    if md_text is not None and not report.interrupted:
        try:
            text, updated = render_experiments_md(report.payloads, md_text)
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
    """``tca-bench perf``: the timed run, the sampler and the gate."""
    import os

    from repro.bench import perf

    names = None
    if args.perf_experiments:
        names = [n.strip() for n in args.perf_experiments.split(",")
                 if n.strip()]
        unknown = [n for n in names if n not in perf.PERF_EXPERIMENTS]
        if unknown:
            print(f"error: unknown perf experiments: "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2

    threshold = (perf.DEFAULT_THRESHOLD if args.threshold is None
                 else args.threshold)
    budget = (perf.DEFAULT_OVERHEAD_BUDGET
              if args.overhead_budget is None else args.overhead_budget)

    baseline = None
    if args.check:
        baseline = _load_json(args.baseline, "baseline")
        if baseline is None:
            return 2
        problem = perf.validate_perf_doc(
            baseline, f"baseline {args.baseline!r}")
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2

    payload: Dict[str, object] = {}
    rc = 0
    report = None
    # --profile alone skips the bare/instrumented timing pass; the gate
    # and the benchmark document need the timed report.
    if args.check or args.bench_json or not args.profile:
        report = perf.run_perf(names)
        payload["perf"] = report.to_dict()
        if not args.json:
            print(report)

    if args.profile:
        profiles = perf.run_profile(names)
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

    if report is not None and baseline is not None:
        gate = perf.check_against_baseline(
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


def build_parser() -> argparse.ArgumentParser:
    """The ``tca-bench`` argument parser: one subparser per command.

    Each command accepts exactly the flags it reads; argparse refuses
    any other with exit 2 before anything runs.  Flags that several
    commands read live on shared parent parsers.
    """
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true",
                           help="emit results as a JSON document on stdout")
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument("--seed", type=int, default=0,
                       help="seed folded into every entry seed and cache "
                            "key (default 0)")
    store.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="result-cache directory (default "
                            "$TCA_BENCH_CACHE_DIR or .tca-bench-cache)")
    journal = argparse.ArgumentParser(add_help=False)
    journal.add_argument("--journal-dir", metavar="PATH", default=None,
                         help="crash-safe run-journal directory (default "
                              ".tca-bench-journal)")
    journal.add_argument("--no-journal", action="store_true",
                         help="disable the run journal")
    bench_json = argparse.ArgumentParser(add_help=False)
    bench_json.add_argument("--bench-json", metavar="PATH", default=None,
                            help="write the benchmark document to PATH "
                                 "(see docs/performance.md, "
                                 "docs/serving.md)")
    serve_workers = argparse.ArgumentParser(add_help=False)
    serve_workers.add_argument("--serve-workers", type=int, default=1,
                               metavar="N",
                               help="fork workers for cold jobs; 1 runs "
                                    "them inline on the executor thread "
                                    "(default 1)")
    session = argparse.ArgumentParser(add_help=False)
    session.add_argument("--chart", action="store_true",
                         help="also render sweeps as ASCII charts")
    session.add_argument("--trace", metavar="PATH", default=None,
                         help="write a Perfetto trace-event JSON file")
    session.add_argument("--metrics", metavar="PATH", default=None,
                         help="write collected metrics (JSON; text for "
                              "paths not ending in .json)")
    session.add_argument("--fault-plan", metavar="PLAN", default=None,
                         help="arm a fault-injection plan on every engine:"
                              " a preset (none, flaky-links, lost-irq, "
                              "chaos), optionally NAME:SEED, or a JSON "
                              "plan file (see docs/robustness.md)")
    engine_workers = argparse.ArgumentParser(add_help=False)
    engine_workers.add_argument("--engine-workers", type=int, default=1,
                                metavar="N",
                                help="measure the sweep points on N fork "
                                     "workers; output stays byte-identical"
                                     " to the inline run (default 1, "
                                     "inline)")

    parser = argparse.ArgumentParser(
        prog="tca-bench",
        description="Regenerate the paper's tables and figures from the "
                    "TCA/PEACH2 simulation.  Flags follow the command; "
                    "'tca-bench COMMAND -h' lists the ones it reads.")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    commands = parser.add_subparsers(dest="experiment", metavar="COMMAND")

    def command(name: str, summary: str,
                *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return commands.add_parser(name, help=summary, parents=parents,
                                   allow_abbrev=False)

    for name, spec in REGISTRY.items():
        sweep = (engine_workers,) if name in MULTI_ENGINE else ()
        command(name, f"{spec.eid}: {spec.title}", json_flag, session,
                *sweep)
    command("validate", "check the latency, Fig. 7 and Fig. 9 anchors "
            "(exit 1 if any fails)", json_flag, session)
    command("all", "E1-E23, then validate", json_flag, session,
            engine_workers)

    suite = command("suite", "the sharded, cached suite run with every "
                    "anchor checked (see docs/experiments.md)",
                    json_flag, store, journal)
    suite.add_argument("--shards", type=int, default=1, metavar="N",
                       help="number of worker processes (default 1)")
    mode = suite.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="reduced sweeps that keep every anchor point")
    mode.add_argument("--tiny", action="store_true",
                      help="minimal sweeps (determinism testing; most "
                           "anchors are skipped)")
    suite.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    suite.add_argument("--force", action="store_true",
                       help="ignore cache hits but still store results")
    suite.add_argument("--report", metavar="PATH", default=None,
                       help="write the tca-bench-suite/1 conformance "
                            "report JSON to PATH")
    suite.add_argument("--render-md", metavar="PATH", nargs="?",
                       const="EXPERIMENTS.md", default=None,
                       help="regenerate the marked tables of EXPERIMENTS.md"
                            " (or PATH) from the live results")
    suite.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a wall-clock Perfetto trace of the "
                            "suite run itself (worker timelines, cache "
                            "latencies)")
    suite.add_argument("--resume", metavar="RUN_ID", default=None,
                       help="resume a journalled run: restore its "
                            "finished payloads and re-execute only the "
                            "unfinished entries")

    perf = command("perf", "wall-clock benchmark, host-time sampler and "
                   "regression gate (see docs/performance.md)",
                   json_flag, bench_json)
    perf.add_argument("--profile", action="store_true",
                      help="sample host time per experiment and print "
                           "its layer shares and top sites")
    perf.add_argument("--check", action="store_true",
                      help="gate this run against --baseline; exit "
                           "nonzero on regression")
    perf.add_argument("--baseline", metavar="PATH",
                      default="BENCH_PR9.json",
                      help="committed tca-bench-perf/1 baseline for "
                           "--check (default BENCH_PR9.json)")
    perf.add_argument("--threshold", type=float, default=None,
                      metavar="FRAC",
                      help="allowed bare events/s regression "
                           "(default 0.15)")
    perf.add_argument("--events-floor", type=float, default=None,
                      metavar="N",
                      help="with --check: absolute floor on the run's "
                           "overall bare events/s (catches slow erosion "
                           "the relative gate cannot)")
    perf.add_argument("--overhead-budget", type=float, default=None,
                      metavar="RATIO",
                      help="maximum instrumented/bare overhead ratio "
                           "(default 2.0)")
    perf.add_argument("--perf-experiments", metavar="NAMES", default=None,
                      help="comma-separated subset of the perf "
                           "experiments (tiny CI budgets)")

    serve = command("serve", "the HTTP job service (see docs/serving.md)",
                    store, journal, serve_workers)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8023,
                       help="TCP port; 0 picks an ephemeral port "
                            "(default 8023)")

    bench = command("serve-bench", "the serving load test (see "
                    "docs/serving.md)", store, serve_workers, bench_json)
    bench.add_argument("--entry", default="fig9",
                       help="registry entry to compute cold "
                            "(default fig9)")
    bench.add_argument("--serve-bench-mode", default="smoke",
                       choices=("full", "smoke", "tiny"), metavar="MODE",
                       help="experiment mode (default smoke)")
    bench.add_argument("--requests", type=int, default=2000, metavar="N",
                       help="warm requests per phase (default 2000)")
    bench.add_argument("--concurrency", type=int, default=32, metavar="C",
                       help="concurrent keep-alive connections "
                            "(default 32)")
    bench.add_argument("--coalesce", type=int, default=16, metavar="K",
                       help="concurrent identical cold submits "
                            "(default 16)")
    bench.add_argument("--assert-speedup", type=float, default=None,
                       metavar="X",
                       help="exit nonzero unless cold-compute / warm-p50 "
                            ">= X")
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # -h, or a command line argparse refused
        return exc.code

    if args.list or args.experiment is None:
        print("available experiments:")
        for name in (*EXPERIMENTS, "perf", "suite", "serve",
                     "serve-bench"):
            print(f"  {name}")
        return 0

    if args.experiment == "suite":
        return _suite_main(args)

    if args.experiment == "serve":
        from repro.serve.server import serve_main

        return serve_main(args)

    if args.experiment == "serve-bench":
        from repro.serve.loadtest import loadtest_main

        return loadtest_main(args)

    if args.experiment == "perf":
        return _perf_main(args)

    if hasattr(args, "engine_workers"):
        problem = _engine_workers_problem(args)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]

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
    else:
        for name, result in results.items():
            print(f"==== {name} ====")
            print(render(result, chart=args.chart))
            print()

    validation = results.get("validate")
    failing = (validation.failing if isinstance(validation, Validation)
               else [])
    for anchor in failing:
        print(f"error: validate: anchor {anchor} did not pass",
              file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
