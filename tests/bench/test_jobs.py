"""The supervised job layer: state machine, backoff, journal, pool.

The scheduler tests run real fork workers against tiny module-level
runners (fork inherits them without pickling; spawn-only platforms
would pickle them by name, which also works).  Every chaos-flavoured
test here is small and surgical — the end-to-end byte-identity proofs
live in ``test_suite_robustness.py``.
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.cache import canonical_json
from repro.bench.jobs import (BACKOFF_CAP_S, DONE, FAILED, JOB_STATES,
                              PENDING, RUNNING, Job, JobScheduler, Journal,
                              TRANSITIONS, backoff_delay, backoff_schedule,
                              default_deadline_s, new_run_id)
from repro.errors import ConfigError


def _job(name="theory", **kw):
    kw.setdefault("eid", "E3")
    kw.setdefault("key", "k" * 64)
    kw.setdefault("mode", "tiny")
    kw.setdefault("seed", 0)
    return Job(name=name, **kw)


# -- seeded backoff (satellite: hypothesis property test) -----------------------------

@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       entry=st.text(min_size=1, max_size=20),
       attempt=st.integers(min_value=0, max_value=12))
@settings(max_examples=100)
def test_backoff_is_deterministic_and_bounded(seed, entry, attempt):
    first = backoff_delay(seed, entry, attempt)
    assert first == backoff_delay(seed, entry, attempt)
    assert 0.0 < first <= BACKOFF_CAP_S


@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       entry=st.text(min_size=1, max_size=20),
       attempts=st.integers(min_value=1, max_value=8))
@settings(max_examples=50)
def test_backoff_schedule_is_reproducible(seed, entry, attempts):
    schedule = backoff_schedule(seed, entry, attempts)
    assert schedule == backoff_schedule(seed, entry, attempts)
    assert len(schedule) == attempts
    assert all(0.0 < d <= BACKOFF_CAP_S for d in schedule)


def test_backoff_jitter_decorrelates_entries():
    delays = {backoff_delay(0, f"entry{i}", 3) for i in range(16)}
    assert len(delays) == 16  # no two entries retry in lockstep


def test_backoff_rejects_negative_attempt():
    with pytest.raises(ConfigError):
        backoff_delay(0, "x", -1)


def test_default_deadline_has_a_floor():
    assert default_deadline_s(0.0001) == 60.0
    assert default_deadline_s(10.0) == 400.0


# -- the state machine ----------------------------------------------------------------

def test_legal_lifecycle_pending_running_done():
    job = _job()
    job.transition(RUNNING)
    job.transition(DONE)
    assert job.finished


def test_requeue_transition_running_back_to_pending():
    job = _job()
    job.transition(RUNNING)
    job.transition(PENDING)
    assert not job.finished


def test_illegal_transitions_raise():
    job = _job()
    job.transition(RUNNING)
    job.transition(DONE)
    with pytest.raises(ConfigError):
        job.transition(RUNNING)
    fresh = _job()
    fresh.transition(FAILED)  # terminal
    with pytest.raises(ConfigError):
        fresh.transition(PENDING)


def test_every_transition_target_is_a_known_state():
    for state, targets in TRANSITIONS.items():
        assert state in JOB_STATES
        assert all(t in JOB_STATES for t in targets)


# -- the journal ----------------------------------------------------------------------

def test_journal_roundtrip_and_replay(tmp_path):
    journal = Journal.create(tmp_path, "run1", mode="tiny", seed=0,
                             entries=["theory"])
    journal.record("job", name="theory", state=DONE,
                   payload_json='{"v":1}')
    journal.record("end", ok=True)
    journal.close()

    records = Journal.read(Journal.path_for(tmp_path, "run1"))
    assert [r["t"] for r in records] == ["run", "job", "end"]
    header, done = Journal.replay(records)
    assert header["run_id"] == "run1"
    assert done == {"theory": '{"v":1}'}


def test_journal_reader_tolerates_torn_tail(tmp_path):
    journal = Journal.create(tmp_path, "run2", mode="tiny")
    journal.record("job", name="a", state=DONE, payload_json="{}")
    journal.close()
    path = Journal.path_for(tmp_path, "run2")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"schema":"tca-bench-journal/1","t":"job","na')  # torn

    records = Journal.read(path)
    assert [r["t"] for r in records] == ["run", "job"]
    header, done = Journal.replay(records)
    assert done == {"a": "{}"}


def test_journal_replay_ignores_unfinished_jobs():
    records = [
        {"schema": "tca-bench-journal/1", "t": "run", "run_id": "r"},
        {"schema": "tca-bench-journal/1", "t": "job", "name": "a",
         "state": RUNNING},
        {"schema": "tca-bench-journal/1", "t": "job", "name": "b",
         "state": DONE, "payload_json": "{}"},
    ]
    header, done = Journal.replay(records)
    assert "a" not in done and done == {"b": "{}"}


def test_journal_resume_missing_run_raises(tmp_path):
    with pytest.raises(ConfigError):
        Journal.resume(tmp_path, "no-such-run")


def test_run_ids_are_unique_and_sortable():
    ids = {new_run_id("tiny", 0) for _ in range(32)}
    assert len(ids) == 32
    assert all("-tiny-s0-" in rid for rid in ids)


# -- one worker: in the calling process ----------------------------------------------

def _ok_runner(name, mode, seed):
    return canonical_json({"name": name, "seed": seed}), 0.01


def _pid_runner(name, mode, seed):
    return canonical_json({"pid": os.getpid()}), 0.01


def test_one_worker_runs_jobs_in_the_calling_process():
    jobs = [_job("alpha", key="a" * 64), _job("beta", key="b" * 64)]
    outcome = JobScheduler(jobs, _pid_runner, workers=1).run()
    assert outcome.ok
    assert [json.loads(j.payload_json)["pid"] for j in jobs] == [
        os.getpid()] * 2
    assert [j.worker for j in jobs] == [0, 0]
    assert outcome.counters["workers_spawned"] == 0
    assert outcome.worker_walls[0]["shard"] == 0


def test_in_process_retries_follow_the_seeded_schedule():
    failures = [RuntimeError("flaky"), RuntimeError("flaky")]

    def flaky(name, mode, seed):
        if failures:
            raise failures.pop()
        return _ok_runner(name, mode, seed)

    events = []
    jobs = [_job()]
    outcome = JobScheduler(jobs, flaky, workers=1,
                           on_event=lambda k, i: events.append(i)).run()
    assert outcome.ok and jobs[0].attempt == 2
    assert outcome.counters["retries"] == 2
    waits = [i["backoff_s"] for i in events if i["state"] == PENDING]
    assert waits == [round(d, 4)
                     for d in backoff_schedule(0, "theory", 3)[1:3]]


def test_in_process_run_exhausts_attempts():
    def broken(name, mode, seed):
        raise ValueError("always")

    jobs = [_job(max_attempts=2)]
    outcome = JobScheduler(jobs, broken, workers=1).run()
    assert not outcome.ok
    assert jobs[0].state == FAILED
    assert "ValueError: always" in jobs[0].error
    assert outcome.counters["retries"] == 2
    assert outcome.counters["workers_spawned"] == 0


# -- the supervised pool --------------------------------------------------------------

def _three_jobs():
    return [_job(name, key=f"{name:0<64}"[:64], cost_s=0.1 + i * 0.01)
            for i, name in enumerate(["alpha", "beta", "gamma"])]


def _fail_flaky_once(flag_dir):
    """A runner whose entry 'flaky' raises on its first attempt only
    (the flag file carries the state across fork workers)."""
    def runner(name, mode, seed):
        flag = Path(flag_dir) / f"{name}.raised"
        if name == "flaky" and not flag.exists():
            flag.touch()
            raise RuntimeError("first attempt")
        return _ok_runner(name, mode, seed)
    return runner


def _runner_factory_kill_once(flag_dir):
    """A runner that SIGKILLs its own worker once, for entry 'beta'."""
    def runner(name, mode, seed):
        flag = Path(flag_dir) / f"{name}.crashed"
        if name == "beta" and not flag.exists():
            flag.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return _ok_runner(name, mode, seed)
    return runner


def test_scheduler_runs_all_jobs():
    jobs = _three_jobs()
    outcome = JobScheduler(jobs, _ok_runner, workers=2).run()
    assert outcome.ok
    assert all(j.state == DONE for j in jobs)
    covered = [e for w in outcome.worker_walls for e in w["entries"]]
    assert sorted(covered) == ["alpha", "beta", "gamma"]
    assert outcome.counters["workers_spawned"] == 2


def test_scheduler_breaks_equal_cost_ties_by_name():
    # One worker runs jobs in hand-out order: largest cost hint first,
    # then the name among equal costs.
    jobs = [_job(name, key=f"{name:0<64}"[:64], cost_s=cost)
            for name, cost in [("zeta", 0.1), ("alpha", 0.1),
                               ("mid", 0.1), ("heavy", 0.5)]]
    outcome = JobScheduler(jobs, _ok_runner, workers=1).run()
    assert outcome.ok
    assert outcome.worker_walls[0]["entries"] == [
        "heavy", "alpha", "mid", "zeta"]


def test_scheduler_runs_same_name_jobs_apart():
    # One entry submitted twice (other mode or seed) shares its name:
    # tasks, worker messages and spill files go by the job's position,
    # so neither job's messages are dropped as the other's.
    jobs = [_job("theory", key="a" * 64, seed=1),
            _job("theory", key="b" * 64, seed=2),
            _job("table1", key="c" * 64)]
    for job in jobs:
        job.deadline_s, job.max_attempts = 3.0, 1
    events = []
    outcome = JobScheduler(jobs, _ok_runner, workers=2,
                           on_event=lambda k, i: events.append((k, i))).run()
    assert outcome.ok, [j.to_dict() for j in jobs]
    assert outcome.counters["stale_messages"] == 0
    assert [json.loads(j.payload_json)["seed"] for j in jobs] == [1, 2, 0]
    done = sorted(info["key"] for kind, info in events
                  if kind == "job" and info["state"] == DONE)
    assert done == ["a" * 64, "b" * 64, "c" * 64]


def test_scheduler_requeues_after_worker_death(tmp_path):
    jobs = _three_jobs()
    events = []
    outcome = JobScheduler(jobs, _runner_factory_kill_once(tmp_path),
                           workers=2,
                           on_event=lambda k, i: events.append(k)).run()
    assert outcome.ok, [j.to_dict() for j in jobs]
    assert outcome.counters["workers_lost"] >= 1
    # The death consumed a requeue (or the spill carried the result),
    # never an attempt: worker loss is not the job's fault.
    beta = next(j for j in jobs if j.name == "beta")
    assert beta.state == DONE and beta.attempt == 0
    assert "worker-lost" in events


def test_scheduler_survives_kill_landing_mid_send(tmp_path):
    """A SIGKILL landing while the victim is mid-send must not wedge
    the survivors.  With a shared result queue the dead worker could
    take the queue's write lock to the grave: every heartbeat after it
    blocked, respawned workers were heartbeat-killed in a cycle, and
    the whole run failed with its requeue budget exhausted.  Per-worker
    result pipes confine the tear to the dead worker's own channel.
    The 2 ms heartbeat makes the kill likely to land mid-send; at the
    historical ~10% wedge rate, 15 trials catch a regression ~80% of
    the time (and a wedged trial fails loudly via outcome.ok)."""
    for trial in range(15):
        flag_dir = tmp_path / f"t{trial}"
        flag_dir.mkdir()
        jobs = _three_jobs()
        outcome = JobScheduler(jobs, _runner_factory_kill_once(flag_dir),
                               workers=2, heartbeat_s=0.002).run()
        assert outcome.ok, (trial, [j.to_dict() for j in jobs],
                            dict(outcome.counters))
        assert outcome.counters["heartbeat_kills"] == 0, \
            (trial, dict(outcome.counters))


def test_scheduler_deadline_kill_then_escalated_retry():
    # Two workers ask for the fork pool (one worker runs in-process,
    # with no process to kill); the pool starts one per job.
    jobs = [_job("alpha", key="a" * 64, deadline_s=0.4, hang_s=30.0)]
    journal_events = []
    outcome = JobScheduler(
        jobs, _ok_runner, workers=2,
        on_event=lambda k, i: journal_events.append(k)).run()
    assert outcome.ok
    assert outcome.counters["deadline_kills"] == 1
    assert outcome.counters["retries"] == 1
    assert jobs[0].attempt == 1
    assert jobs[0].deadline_s == pytest.approx(0.8)  # escalated
    assert "deadline-kill" in journal_events


def _broken_runner(name, mode, seed):
    raise ValueError(f"cannot run {name}")


def test_scheduler_fails_job_after_attempt_budget():
    # Two workers ask for the fork pool; one worker runs in-process.
    jobs = [_job("alpha", key="a" * 64, max_attempts=2)]
    outcome = JobScheduler(jobs, _broken_runner, workers=2).run()
    assert not outcome.ok
    assert jobs[0].state == FAILED
    assert "ValueError" in jobs[0].error
    assert outcome.counters["retries"] == 2
    assert outcome.counters["workers_spawned"] >= 1


def test_scheduler_journals_every_lifecycle_step(tmp_path):
    journal = Journal.create(tmp_path, "sched", mode="tiny")
    jobs = _three_jobs()
    JobScheduler(jobs, _ok_runner, workers=2, journal=journal).run()
    journal.close()
    records = Journal.read(Journal.path_for(tmp_path, "sched"))
    kinds = [r["t"] for r in records]
    assert kinds.count("worker-spawn") == 2
    done = [r for r in records
            if r["t"] == "job" and r.get("state") == DONE]
    assert {r["name"] for r in done} == {"alpha", "beta", "gamma"}
    assert all("payload_json" in r for r in done)


@pytest.mark.parametrize("workers", [1, 2])
def test_job_events_equal_the_journal_records_plus_key(tmp_path, workers):
    """Each job transition is reported once: ``on_event`` gets the
    journal's ``job`` record plus the job's key, for both runners."""
    journal = Journal.create(tmp_path, "run", mode="tiny")
    jobs = [_job("flaky", key="f" * 64, cost_s=0.2),
            _job("beta", key="b" * 64), _job("gamma", key="c" * 64)]
    events = []
    outcome = JobScheduler(
        jobs, _fail_flaky_once(tmp_path), workers=workers,
        journal=journal,
        on_event=lambda k, i: events.append((k, dict(i)))).run()
    journal.close()
    assert outcome.ok, [j.to_dict() for j in jobs]
    keys = {j.name: j.key for j in jobs}
    records = [r for r in Journal.read(Journal.path_for(tmp_path, "run"))
               if r["t"] == "job"]
    strip = ("schema", "t", "ts")
    expected = [{**{k: v for k, v in r.items() if k not in strip},
                 "key": keys[r["name"]]} for r in records]
    assert [info for kind, info in events if kind == "job"] == expected
    states = [r["state"] for r in records if r["name"] == "flaky"]
    assert states == [RUNNING, PENDING, RUNNING, DONE]
    assert {r["worker"] for r in records if r["state"] == DONE} <= set(
        range(workers))


def test_journal_record_is_thread_safe(tmp_path):
    """Concurrent appenders never interleave bytes within a line."""
    import threading

    journal = Journal(tmp_path / "j.jsonl")
    barrier = threading.Barrier(6)

    def append(tag):
        barrier.wait()
        for i in range(50):
            journal.record("job", name=f"{tag}-{i}", state="done")

    threads = [threading.Thread(target=append, args=(t,))
               for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    journal.close()
    records = Journal.read(tmp_path / "j.jsonl")
    assert len(records) == 300
    assert {r["t"] for r in records} == {"job"}
