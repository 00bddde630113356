"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dma-stream --seed 1 --seconds 44 --trace 0

Run from the root of a checkout.  The run, set-up timing included, ends
about ``--seconds`` after the process starts.  Prints every metric by
name, value and unit, then, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics.  ``--trace
1`` reports the per-layer metrics, adds its spans to
``.perfbench-out/trace.json`` (Perfetto trace-event format, one track
per workload) and writes the layer table to
``.perfbench-out/layers-<workload>.json``.

``--record`` writes the run's payload digests and exact counts to
``perfbench/expected.json`` instead of checking against them; use it
only when a model change is meant to change the payloads.

Everything the run writes stays under ``.perfbench-out/`` in the
checkout, including the temporary cache and journal directories, which
are removed at exit.  Without ``src/repro`` the run fails with exit
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: When this process started; ``--seconds`` counts from here.
START = time.perf_counter()

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Fresh interpreters launched per run to time set-up; median reported.
SETUP_LAUNCHES = 10

#: Perfetto process id of each workload's track.
TRACK_PID = {"dma-stream": 1, "fabric-16": 2, "suite-smoke": 3}

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TRACK_PID))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args: argparse.Namespace) -> float:
    """Median time from launching a fresh interpreter until the workload
    is ready to time, over :data:`SETUP_LAUNCHES` launches."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(run, setup_s: float) -> Dict[str, Dict[str, object]]:
    e2e = run.end_to_end()
    return {
        "wall_s": metric(e2e["wall_s"], "s"),
        "obs_wall_s": metric(e2e["obs_wall_s"], "s"),
        "warm_wall_s": metric(e2e["warm_wall_s"], "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # The complement of fail_rate: a regression bound is a share of
        # the median, and fail_rate reads exactly 0 on a healthy run.
        "ok_rate": metric(1.0 - run.tally.fail_rate, "ratio"),
        "anchor_err_max": metric(e2e["anchor_err_max"], "ratio"),
    }


def write_trace(run, workload: str, metrics: Dict[str, Dict]) -> None:
    events = spans.trace_events(run.tracer, TRACK_PID[workload], workload)
    spans.merge_trace_file(OUT / "trace.json", TRACK_PID[workload], events)
    (OUT / f"layers-{workload}.json").write_text(
        json.dumps(metrics, indent=1) + "\n", encoding="utf-8")


def print_table(rows: List[Tuple[str, float, str]]) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:<14.6g}  {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp_root = OUT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    # Temporary files of the program (fork-worker spill files) stay in
    # the checkout too.
    os.environ["TMPDIR"] = str(tmp_root)
    tempfile.tempdir = str(tmp_root)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        import gate
        import workloads

        ctx = workloads.Context(
            workload=args.workload, seed=args.seed,
            deadline=START + args.seconds,
            trace=bool(args.trace or args.record), tmp=tmp,
            expected=({} if args.record
                      else gate.load_expected()[args.workload]))
        cache = workloads.prepare(ctx)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup_s = 0.0 if ctx.trace else measure_setup(args)
        run = workloads.make_run(ctx, cache)
        run.run()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.record:
        gate.save_expected(args.workload, run.golden())
        print(f"recorded {args.workload} in {gate.EXPECTED_PATH}",
              file=sys.stderr)
        return 0
    if ctx.trace:
        values = run.per_layer()
        metrics = {name: metric(values[name], unit)
                   for name, unit in workloads.PER_LAYER_UNITS.items()}
    else:
        metrics = end_to_end(run, setup_s)
    bad = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")
    if ctx.trace:
        write_trace(run, args.workload, metrics)
    tally = run.tally
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if not ctx.trace:
        rows.append(("fail_rate", tally.fail_rate, "ratio"))
    print_table(rows)
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
