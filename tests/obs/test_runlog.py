"""Wall-clock run telemetry (RunLog) and its suite integration."""

import json

from repro.bench.suite import run_suite
from repro.obs.runlog import PS_PER_WALL_NS, RunLog


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_now_ps_is_scaled_wall_clock():
    log = RunLog(clock_ns=_fake_clock([1000, 1250]))
    assert log.origin_ns == 1000
    assert log.now_ps() == 250 * PS_PER_WALL_NS


def test_span_follows_end_stamp_convention():
    # origin, span start, span end, summary read
    log = RunLog(clock_ns=_fake_clock([0, 100, 400, 500]))
    with log.span("shard0", "entry", entry="fig7"):
        pass
    (rec,) = log.records
    assert rec.kind == "entry"
    assert rec.detail["dur_ps"] == 300 * PS_PER_WALL_NS
    # Stamped at the end of the interval, like every engine tracer span.
    assert rec.time_ps == 400 * PS_PER_WALL_NS
    assert rec.start_ps == 100 * PS_PER_WALL_NS


def test_event_and_timed():
    log = RunLog(clock_ns=_fake_clock([0, 10, 20, 30]))
    log.event("suite", "start", entries=3)
    assert log.timed("suite", "anchors", lambda: 42) == 42
    assert [r.kind for r in log.records] == ["start", "anchors"]


def test_perfetto_trace_round_trip():
    log = RunLog(label="suite",
                 clock_ns=_fake_clock([0, 50, 150, 250]))
    log.event("suite", "fork", shards=2)  # instant at t=50 ns
    with log.span("shard0", "shard"):     # span 150..250 ns
        pass
    doc = json.loads(json.dumps(log.perfetto_trace()))
    events = doc["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(spans) == 1 and len(instants) == 1
    # 1 wall ns = 1000 trace ps, and the exporter emits microseconds.
    assert spans[0]["dur"] == 100 * PS_PER_WALL_NS / 1e6
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"suite", "shard0"} <= names


def test_metrics_share_the_wall_clock():
    log = RunLog(clock_ns=_fake_clock([0, 100, 300, 400, 400, 400]))
    t0 = log.now_ps()
    log.metrics.histogram("suite.cache.hit_us").observe(
        (log.now_ps() - t0) / 1e6)
    summary = log.summary()
    hist = summary["metrics"]["suite.cache.hit_us"]
    assert hist["count"] == 1
    assert hist["max"] == (200 * PS_PER_WALL_NS) / 1e6


def test_suite_payloads_identical_with_and_without_runlog():
    bare = run_suite(names=["theory", "latency"], mode="tiny", cache=None)
    log = RunLog()
    logged = run_suite(names=["theory", "latency"], mode="tiny",
                       cache=None, runlog=log)
    assert bare.payloads_json() == logged.payloads_json()
    assert "telemetry" not in bare.to_dict()
    telemetry = logged.to_dict()["telemetry"]
    assert telemetry["records"] == len(log.records)
    assert telemetry["wall_ms"] > 0


def test_suite_runlog_records_shards_and_entries():
    log = RunLog()
    run_suite(names=["theory", "latency"], mode="tiny", cache=None,
              runlog=log)
    kinds = {r.kind for r in log.records}
    assert {"start", "shard", "entry", "anchors"} <= kinds
    entries = [r for r in log.records if r.kind == "entry"]
    assert {r.detail["entry"] for r in entries} == {"theory", "latency"}
    for rec in entries:
        assert rec.start_ps >= 0
        assert rec.detail["dur_ps"] >= 0


def test_suite_runlog_times_the_cache(tmp_path):
    from repro.bench.cache import ResultCache

    cache = ResultCache(str(tmp_path))
    log_cold = RunLog()
    run_suite(names=["theory"], mode="tiny", cache=cache, runlog=log_cold)
    cold = log_cold.summary()["metrics"]
    assert cold["suite.cache.miss_us"]["count"] == 1
    assert cold["suite.cache.store_us"]["count"] == 1

    log_warm = RunLog()
    run_suite(names=["theory"], mode="tiny", cache=cache, runlog=log_warm)
    warm = log_warm.summary()["metrics"]
    assert warm["suite.cache.hit_us"]["count"] == 1
    assert "suite.cache.store_us" not in warm
