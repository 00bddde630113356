"""End-to-end harness fault tolerance: chaos runs equal clean runs.

These tests drive the real machinery — fork workers, SIGKILL, journal
files, a real subprocess for the interrupt test — in ``tiny`` mode so
the whole file stays in tier-1 budget.  The CI ``suite-chaos`` step
runs the same scenarios in ``smoke`` mode with anchors armed.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench.ioutil import atomic_write_text
from repro.bench.suite import run_suite
from repro.errors import ConfigError
from repro.faults.harness_chaos import run_harness_chaos

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


# -- chaos scenarios (tiny mode; smoke runs in CI) ------------------------------------

def test_chaos_worker_kill_and_deadline_hang():
    report = run_harness_chaos(mode="tiny",
                               scenarios=["worker-kill", "deadline-hang"])
    assert report.ok, report.render()


def test_chaos_cache_corruption_and_kill_resume():
    report = run_harness_chaos(
        mode="tiny", scenarios=["cache-corruption", "kill-resume"])
    assert report.ok, report.render()


def test_chaos_rejects_unknown_scenario():
    with pytest.raises(ConfigError):
        run_harness_chaos(mode="tiny", scenarios=["meteor-strike"])


def test_chaos_cli_loads_once_and_has_a_fixed_pool():
    """Run as CI does, with runpy's double-import warning as an error:
    the module must load once, and a pool-size flag is refused (exit 2)
    before anything runs — one worker cannot kill a fork worker or fire
    a deadline."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.faults.harness_chaos", "--workers", "1"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "unrecognized arguments: --workers 1" in proc.stderr


def test_fault_package_does_not_load_the_suite():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.faults; "
         "print(sorted(m for m in sys.modules if m.startswith('repro.bench')))"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- journal + resume directly through run_suite --------------------------------------

CHEAP = ["theory", "latency"]


def test_journalled_run_can_be_fully_resumed(tmp_path):
    first = run_suite(names=CHEAP, mode="tiny", cache=None, seed=3,
                      journal_dir=tmp_path)
    assert first.run_id and Path(first.journal_path).exists()

    resumed = run_suite(cache=None, journal_dir=tmp_path,
                        resume=first.run_id)
    assert resumed.mode == "tiny" and resumed.seed == 3
    assert all(e.cache == "journal" for e in resumed.entries)
    assert ({e.name: e.payload_json for e in resumed.entries}
            == {e.name: e.payload_json for e in first.entries})
    assert resumed.summary()["resumed"] == len(CHEAP)


def test_resume_unknown_run_raises(tmp_path):
    with pytest.raises(ConfigError):
        run_suite(cache=None, journal_dir=tmp_path, resume="nope")


def test_interrupted_inline_run_flags_report_and_journal(tmp_path):
    calls = []

    def interrupting(kind, info):
        # First completed entry pulls the plug on the rest of the run.
        if kind == "job" and info.get("state") == "done":
            calls.append(info["name"])
            raise KeyboardInterrupt

    report = run_suite(names=CHEAP, mode="tiny", cache=None,
                       journal_dir=tmp_path, on_event=interrupting)
    assert report.interrupted and not report.ok
    assert len(report.entries) == 1
    assert "INTERRUPTED" in report.render()
    assert report.to_dict()["interrupted"] is True

    # The journal still replays, and a resume completes the run.
    resumed = run_suite(cache=None, journal_dir=tmp_path,
                        resume=report.run_id)
    assert not resumed.interrupted
    assert sorted(e.name for e in resumed.entries) == sorted(CHEAP)
    assert resumed.summary()["resumed"] == 1


def test_robustness_counters_ride_the_report():
    report = run_suite(names=CHEAP, mode="tiny", cache=None, shards=2)
    rob = report.to_dict()["robustness"]
    for counter in ("retries", "requeues", "deadline_kills",
                    "workers_lost", "cache_corrupted"):
        assert rob[counter] == 0
    assert rob["workers_spawned"] == 2


# -- satellite: SIGTERM produces a flagged partial report, not a traceback ------------

def test_sigterm_flushes_partial_report_and_exits_cleanly(tmp_path):
    report_path = tmp_path / "partial.json"
    jdir = tmp_path / "journal"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.bench.cli", "suite", "--tiny",
         "--no-cache", "--shards", "2", "--journal-dir", str(jdir),
         "--report", str(report_path)],
        cwd=tmp_path, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and proc.poll() is None:
        journals = list(jdir.glob("*.jsonl")) if jdir.exists() else []
        if journals and '"state":"done"' in journals[0].read_text(
                encoding="utf-8"):
            break
        time.sleep(0.02)
    assert proc.poll() is None, "suite finished before SIGTERM landed"
    proc.send_signal(signal.SIGTERM)
    stdout, stderr = proc.communicate(timeout=60)

    assert proc.returncode == 128 + signal.SIGTERM
    assert "Traceback" not in stderr
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["interrupted"] is True
    assert doc["summary"]["entries"] < 22  # genuinely partial
    journal_text = journals[0].read_text(encoding="utf-8")
    assert '"t":"interrupt"' in journal_text


# -- orphaned fork workers exit when their supervisor is SIGKILLed --------------------

_IDLE_SUPERVISOR = """
import sys, time
sys.path.insert(0, {src!r})
from repro.bench.jobs import Job, JobScheduler

def on_event(kind, info):
    if kind == "worker-spawn":
        print(info["pid"], flush=True)

# Jobs that never become eligible: both workers sit idle in recv().
jobs = [Job(name=n, eid="E3", key=n * 64, mode="tiny", seed=0,
            not_before=time.monotonic() + 3600) for n in "ab"]
JobScheduler(jobs, lambda *args: None, workers=2, on_event=on_event).run()
"""


def _running(pid):
    """Alive and not a zombie (an orphan's reaper may be slow)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process state from /proc")
def test_workers_exit_when_supervisor_is_sigkilled():
    """Each fork worker used to inherit the supervisor's ends of its own
    pipes (and of every older sibling's), so a SIGKILLed supervisor left
    workers blocked in recv() forever, reparented to init."""
    pids = []
    with subprocess.Popen(
            [sys.executable, "-c", _IDLE_SUPERVISOR.format(src=SRC)],
            stdout=subprocess.PIPE, text=True) as proc:
        try:
            pids = [int(proc.stdout.readline()) for _ in range(2)]
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while (any(_running(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            proc.kill()
            for pid in pids:
                if _running(pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass


# -- satellite: atomic writes survive a writer killed mid-write -----------------------

_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.bench.ioutil import atomic_write_text
atomic_write_text({dest!r}, "A" * 65536 + "\\n")
print("ready", flush=True)
while True:
    atomic_write_text({dest!r}, "B" * 65536 + "\\n")
"""


def test_killing_writer_mid_write_never_tears_the_file(tmp_path):
    dest = tmp_path / "report.json"
    script = _WRITER.format(src=SRC, dest=str(dest))
    for _ in range(5):
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE, text=True)
        assert proc.stdout.readline().strip() == "ready"
        time.sleep(0.01)  # land mid-rewrite somewhere
        proc.kill()
        proc.wait()
        content = dest.read_text(encoding="utf-8")
        # Complete old content or complete new content — never a tear.
        assert content in ("A" * 65536 + "\n", "B" * 65536 + "\n")


def test_atomic_write_leaves_no_temp_on_failure(tmp_path):
    dest = tmp_path / "out.txt"
    atomic_write_text(dest, "first")
    with pytest.raises(TypeError):
        atomic_write_text(dest, 12345)  # not a str: write() rejects it
    assert dest.read_text(encoding="utf-8") == "first"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert leftovers == []
