#!/usr/bin/env python3
"""Reachability sweep: which ``src/repro`` functions do the entry points run?

The sweep drives a fixed list of commands (:func:`sweep_steps`): every
command of CI's ``smoke`` job, the harness chaos smoke, each example's
``main(tiny=True)``, and ``perfbench/run.py`` on each workload at
``--trace 0`` and ``--trace 1``.  It then lists every ``def`` under
``src/repro`` with :mod:`ast` and prints how many the commands reached,
followed by the unreached functions by module.

How the hook travels: a generated ``sitecustomize.py`` goes first on
``PYTHONPATH``, so every interpreter the commands start imports it at
startup: the CLI, its subprocesses and the serve process.  It installs
``sys.setprofile`` and ``threading.setprofile`` and appends each new
``src/repro`` code object it sees to a per-pid, line-buffered file.
``os.register_at_fork`` reopens that file in every fork child.  Suite
shards, ``JobScheduler`` workers and serve workers are therefore counted
even when they leave through ``os._exit``: each line is on disk as soon
as it is written.

An unreached function is flagged ``test-only`` when nothing outside
``tests/`` and ``benchmarks/`` names it.  The places searched are
:data:`CONSUMERS`: the program, tools, examples, the benchmark, docs,
CI and the ROADMAP.  Package ``__init__`` re-exports and the function's
own ``def`` line do not count.  A test-only function is a deletion
candidate unless something outside the tests needs it.

Run from the repository root (no flags)::

    python tools/reach.py

It takes about 30 minutes on a 2-core machine; the chaos harness and
the full ``tca-bench perf`` run dominate.  A command that fails is
reported but does not stop the sweep: under the hook a timed gate such
as ``perf --check`` may fail, and the code it ran still counts.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple, Union)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Files and directories whose mention of a name makes it "used".
CONSUMERS = ("src", "tools", "examples", "perfbench", "docs", ".github",
             "README.md", "DESIGN.md", "ROADMAP.md", "setup.py",
             "pyproject.toml")

#: Text files searched inside :data:`CONSUMERS` directories.
TEXT_SUFFIXES = {".py", ".md", ".yml", ".yaml", ".toml", ".cfg"}

#: An identifier, as a name is mentioned in code or prose.
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Per-command wall-clock limit: a hung command must not hang the sweep.
STEP_TIMEOUT_S = 1800

#: One code location: (absolute path, first line of the code object).
Site = Tuple[str, int]

HOOK_SOURCE = '''\
"""Records every {root} code object an interpreter runs."""
import os
import sys
import threading

_ROOT = {root!r}
_OUT = {out!r}
# Code objects seen so far, kept alive so an id is never reused.
_seen = {{}}
_log = None


def _reopen():
    global _log
    path = os.path.join(_OUT, "%d.sites" % os.getpid())
    _log = open(path, "a", buffering=1, encoding="utf-8")


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            if code.co_filename.startswith(_ROOT):
                _log.write("%s\\t%d\\n" % (code.co_filename,
                                         code.co_firstlineno))


_reopen()
os.register_at_fork(after_in_child=_reopen)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


@dataclass(frozen=True)
class Function:
    """One ``def`` under ``src/repro``."""

    path: Path
    qualname: str
    #: First line of its code object: the first decorator, else ``def``.
    first_line: int
    def_line: int
    body_lines: int

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def module(self, src: Path) -> str:
        rel = self.path.relative_to(src.resolve()).with_suffix("")
        parts = [p for p in rel.parts if p != "__init__"]
        return ".".join(parts)


# -- collecting -----------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """One command line, optionally with its standard output kept."""

    argv: Sequence[str]
    stdout: Optional[str] = None


#: A sweep step: a command line, or a callable ``(env, cwd) -> exit code``
#: for steps that need more than one process (the serve smoke).
Step = Union[Sequence[str], Command, Callable[[Dict[str, str], Path], int]]


def hook_env(src: Path, out: Path, hook_dir: Path) -> Dict[str, str]:
    """Environment whose interpreters record into ``out``."""
    hook_dir.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    root = str(src.resolve() / "repro") + os.sep
    (hook_dir / "sitecustomize.py").write_text(
        HOOK_SOURCE.format(root=root, out=str(out.resolve())),
        encoding="utf-8")
    env = dict(os.environ)
    paths = [str(hook_dir.resolve()), str(src.resolve())]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def read_sites(out: Path) -> Set[Site]:
    """Every code location recorded by any process."""
    sites: Set[Site] = set()
    for log in out.glob("*.sites"):
        for line in log.read_text(encoding="utf-8").splitlines():
            path, _, lineno = line.rpartition("\t")
            if path and lineno.isdigit():
                sites.add((os.path.realpath(path), int(lineno)))
    return sites


def run_step(step: Step, env: Dict[str, str], cwd: Path,
             log: Callable[[str], None] = print) -> int:
    """Run one step under the hook; returns its exit status."""
    start = time.monotonic()
    if callable(step):
        label = step.__name__
        code = step(env, cwd)
    else:
        command = step if isinstance(step, Command) else Command(step)
        label = " ".join(command.argv)
        with open(cwd / (command.stdout or os.devnull), "wb") as stdout:
            try:
                code = subprocess.run(
                    command.argv, cwd=cwd, env=env, stdout=stdout,
                    stderr=subprocess.DEVNULL,
                    timeout=STEP_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
    log(f"  [{time.monotonic() - start:6.0f} s] exit {code:3d}  {label}")
    return code


def collect(steps: Iterable[Step], src: Path, workdir: Path,
            log: Callable[[str], None] = print) -> Set[Site]:
    """Run ``steps`` in ``workdir`` with the hook; return reached sites."""
    out = workdir / "reach-sites"
    env = hook_env(src, out, workdir / "reach-hook")
    for step in steps:
        run_step(step, env, workdir, log)
    return read_sites(out)


# -- listing ----------------------------------------------------------------------

def list_functions(src: Path) -> List[Function]:
    """Every ``def`` under ``src/repro``, with its code-object qualname."""
    functions: List[Function] = []

    def visit(node: ast.AST, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                functions.append(Function(
                    path, qualname, first, child.lineno,
                    child.end_lineno - child.body[0].lineno + 1))
                visit(child, qualname + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for path in sorted((src / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        visit(tree, "", path.resolve())
    return functions


def consumer_files(root: Path) -> List[Path]:
    """Text files that count as users of a name (see :data:`CONSUMERS`)."""
    files: List[Path] = []
    for entry in CONSUMERS:
        path = root / entry
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(p for p in sorted(path.rglob("*"))
                         if p.is_file() and p.suffix in TEXT_SUFFIXES
                         and p.name != "__init__.py"
                         and "__pycache__" not in p.parts)
    return files


def test_only(functions: Sequence[Function], root: Path) -> Set[Function]:
    """The functions no consumer file names, their own ``def`` aside."""
    mentions: Dict[str, Set[Tuple[Path, int]]] = {}
    for path in consumer_files(root):
        text = path.read_text(encoding="utf-8")
        for number, line in enumerate(text.splitlines(), 1):
            for word in WORD.findall(line):
                mentions.setdefault(word, set()).add((path.resolve(), number))
    return {fn for fn in functions
            if not mentions.get(fn.name, set()) - {(fn.path, fn.def_line)}}


# -- the sweep --------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


SERVE_CLIENT = '''\
import json, urllib.request
base = "http://127.0.0.1:%d"
req = urllib.request.Request(
    base + "/v1/jobs",
    data=json.dumps({"entry": "theory", "mode": "tiny",
                     "wait": True, "timeout_s": 600}).encode(),
    headers={"Content-Type": "application/json"})
doc = json.load(urllib.request.urlopen(req, timeout=600))
key = doc["fingerprint"]
served = urllib.request.urlopen(
    base + "/v1/jobs/%%s/result" %% key, timeout=60).read()
from repro.bench.suite import run_entry
inline, _ = run_entry("theory", "tiny", 0)
assert served.decode() == inline, "served != inline payload"
json.load(urllib.request.urlopen(base + "/healthz", timeout=60))
'''


def serve_smoke(env: Dict[str, str], cwd: Path) -> int:
    """CI's serve smoke: start, submit over HTTP, compare, SIGTERM."""
    port = _free_port()
    err_path = cwd / "serve.log"
    with open(err_path, "wb") as err:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.bench", "serve", "--port",
             str(port), "--cache-dir", "serve-cache", "--journal-dir",
             "serve-journal"],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            deadline = time.monotonic() + 120
            while (b"serving on" not in err_path.read_bytes()
                   and time.monotonic() < deadline
                   and server.poll() is None):
                time.sleep(0.2)
            client = run_step([sys.executable, "-c", SERVE_CLIENT % port],
                              env, cwd, log=lambda msg: None)
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=120)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
    return client or server.returncode


def sweep_steps(root: Path) -> List[Step]:
    """The fixed command list (run in a scratch working directory)."""
    py = sys.executable
    bench = [py, "-m", "repro.bench"]
    baseline = str(root / "BENCH_PR9.json")
    steps: List[Step] = [
        # CI smoke job, step by step.
        bench + ["theory", "--json"],
        bench + ["latency", "--trace", "trace.json",
                 "--metrics", "metrics.json"],
        bench + ["latency", "--fault-plan", "flaky-links:3",
                 "--metrics", "faults.json"],
        bench + ["validate"],
        bench + ["suite", "--smoke", "--shards", "2",
                 "--report", "suite-report.json",
                 "--trace-out", "suite-trace.json",
                 "--render-md", "EXPERIMENTS.md"],
        [py, "-m", "repro.faults.harness_chaos", "--mode", "smoke",
         "--json", "chaos-verdict.json"],
        bench + ["perf", "--bench-json", "perf-run.json"],
    ]
    for fig in ("fig7", "fig9"):
        steps.append(bench + [fig, "--json"])
        steps.append(bench + [fig, "--json", "--engine-workers", "2"])
    steps += [
        bench + ["fig7", "--engine-workers", "2", "--trace", "t.json"],
        serve_smoke,
        bench + ["serve-bench", "--requests", "1000", "--concurrency",
                 "16", "--coalesce", "8", "--assert-speedup", "100",
                 "--bench-json", "serve-bench.json"],
        bench + ["perf", "--perf-experiments", "contention", "--check",
                 "--baseline", baseline, "--threshold", "0.6",
                 "--events-floor", "100000", "--overhead-budget", "4"],
        Command(bench + ["perf", "--perf-experiments", "contention",
                         "--profile", "--json"], stdout="profile.json"),
    ]
    # Every example, tiny mode.
    for example in sorted((root / "examples").glob("*.py")):
        steps.append([py, "-c", "import runpy; runpy.run_path(%r)"
                      "['main'](tiny=True)" % str(example)])
    # The benchmark's workloads, bare and traced; one round is enough.
    for workload in ("dma-stream", "fabric-16", "suite-smoke"):
        for trace in ("0", "1"):
            steps.append([py, str(root / "perfbench" / "run.py"),
                          "--workload", workload, "--seed", "0",
                          "--seconds", "1", "--trace", trace])
    return steps


def report(functions: Sequence[Function], unreached: Sequence[Function],
           flagged: Set[Function], src: Path) -> str:
    """Reached/total, then the unreached functions by module."""
    reached = len(functions) - len(unreached)
    lines = [f"reached {reached} of {len(functions)} src/repro "
             f"functions; {len(unreached)} unreached "
             f"({sum(fn.body_lines for fn in unreached)} body lines), "
             f"{len(flagged)} test-only "
             f"({sum(fn.body_lines for fn in flagged)} body lines)"]
    by_module: Dict[str, List[Function]] = {}
    for fn in unreached:
        by_module.setdefault(fn.module(src), []).append(fn)
    for module in sorted(by_module):
        lines.append(f"\n{module}")
        for fn in by_module[module]:
            mark = "  test-only" if fn in flagged else ""
            lines.append(f"  {fn.qualname} (line {fn.def_line}, "
                         f"{fn.body_lines} lines){mark}")
    return "\n".join(lines)


def main() -> int:
    root = REPO_ROOT
    src = root / "src"
    workdir = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        shutil.copy(root / "EXPERIMENTS.md", workdir / "EXPERIMENTS.md")
        print(f"sweeping in {workdir}", file=sys.stderr)
        sites = collect(sweep_steps(root), src, workdir,
                        log=lambda msg: print(msg, file=sys.stderr))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    functions = list_functions(src)
    unreached = [fn for fn in functions
                 if (str(fn.path), fn.first_line) not in sites]
    print(report(functions, unreached, test_only(unreached, root), src))
    return 0


if __name__ == "__main__":
    sys.exit(main())
