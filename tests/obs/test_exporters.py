"""Perfetto / metrics exporter schema tests."""

import json

from repro.bench.loopback import LoopbackRig
from repro.obs import Observability
from repro.obs.exporters import (_EVENTS_PER_WRITE, ATTRIBUTION_TRACK,
                                 perfetto_trace, write_perfetto)
from repro.sim.trace import Tracer


def _traced_run():
    obs = Observability()
    with obs.session():
        rig = LoopbackRig()
    rig.pio_commit_latency_ns()
    return obs, rig


def test_perfetto_document_schema():
    obs, _ = _traced_run()
    doc = obs.perfetto_trace()
    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    assert events, "instrumented run produced no trace events"
    for event in events:
        assert event["ph"] in ("X", "i", "M")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":  # complete event: needs ts + dur
            assert event["dur"] >= 0
            assert event["ts"] >= 0
        if event["ph"] == "i":  # instant: needs a scope
            assert event["s"] == "t"
        if event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
    # The whole document is valid JSON (what Perfetto actually loads).
    json.loads(json.dumps(doc))


def test_perfetto_has_metadata_and_attribution_track():
    obs, _ = _traced_run()
    events = obs.perfetto_trace()["traceEvents"]
    thread_names = {e["args"]["name"] for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"}
    assert ATTRIBUTION_TRACK in thread_names
    spans = [e for e in events if e["ph"] == "X"
             and e.get("args", {}).get("dur_ns")]
    assert any(e["name"] == "cable-hop" for e in spans)


def test_span_ts_is_interval_start():
    obs, _ = _traced_run()
    events = obs.perfetto_trace()["traceEvents"]
    spans = [e for e in events if e["ph"] == "X" and e["name"] == "link-tx"]
    assert spans
    for span in spans:
        # Engine stamps spans at their end; the exporter must rewind ts
        # so Perfetto draws the bar over the actual interval.
        assert span["ts"] >= 0
        assert span["args"]["dur_ps"] > 0


def test_write_trace_and_metrics_roundtrip(tmp_path):
    obs, rig = _traced_run()
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    obs.write_trace(str(trace_path))
    obs.write_metrics(str(metrics_path))

    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]

    metrics = json.loads(metrics_path.read_text())
    engines = metrics["engines"]
    assert engines and engines[0]["now_ps"] == rig.engine.now_ps
    names = engines[0]["metrics"]
    assert any(name.startswith("link.") for name in names)
    assert any(name.startswith("cpu.") for name in names)


def test_render_metrics_is_textual():
    obs, _ = _traced_run()
    text = obs.render_metrics()
    assert "[counter]" in text and "[gauge]" in text


def test_thread_metadata_follows_first_seen_order():
    obs, _ = _traced_run()
    events = obs.perfetto_trace()["traceEvents"]
    # tids are allocated in first-seen component order, so the metadata
    # list and the data events must agree on the mapping.
    meta = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"}
    first_seen = {}
    for e in events:
        if e["ph"] in ("X", "i") and (e["pid"], e["tid"]) not in first_seen:
            first_seen[(e["pid"], e["tid"])] = e
    for key in first_seen:
        assert key in meta
    # Per pid, tids count up from 1 in first-seen order (0 is reserved
    # for the attribution track).
    for pid in {p for p, _ in meta}:
        tids = sorted(t for p, t in meta if p == pid and t > 0)
        assert tids == list(range(1, len(tids) + 1))


def test_attribution_track_is_tid_zero():
    obs, _ = _traced_run()
    events = obs.perfetto_trace()["traceEvents"]
    attribution_meta = [e for e in events if e["ph"] == "M"
                        and e["name"] == "thread_name"
                        and e["args"]["name"] == ATTRIBUTION_TRACK]
    assert attribution_meta
    # Perfetto sorts same-name tracks by tid; tid 0 keeps the latency
    # budget on top, and every segment event lives on that same track.
    for meta in attribution_meta:
        assert meta["tid"] == 0
    seg_tids = {(e["pid"], e["tid"]) for e in events
                if e["ph"] == "X" and "dur_ns" in e.get("args", {})}
    meta_keys = {(e["pid"], e["tid"]) for e in attribution_meta}
    assert seg_tids <= meta_keys


def test_metrics_document_schema_and_sorted_keys(tmp_path):
    obs, _ = _traced_run()
    path = tmp_path / "metrics.json"
    obs.write_metrics(str(path))
    text = path.read_text()
    doc = json.loads(text)
    assert doc["schema"] == "tca-bench-metrics/1"
    # sort_keys=True: re-dumping sorted must reproduce the file exactly.
    assert json.dumps(doc, indent=1, sort_keys=True) == text


def test_trace_out_round_trips_both_clock_domains(tmp_path):
    # One file in the simulated-ps domain (engine tracer), one in the
    # scaled wall-clock domain (RunLog); both must load as valid trace
    # documents with the same structure.
    from repro.obs.runlog import PS_PER_WALL_NS, RunLog

    obs, _ = _traced_run()
    sim_path = tmp_path / "sim-trace.json"
    obs.write_trace(str(sim_path))
    sim = json.loads(sim_path.read_text())

    ticks = iter([0, 500, 2500])
    log = RunLog(label="suite", clock_ns=lambda: next(ticks))
    with log.span("shard0", "entry", entry="fig7"):
        pass
    wall_path = tmp_path / "wall-trace.json"
    log.write_trace(str(wall_path))
    wall = json.loads(wall_path.read_text())

    for doc in (sim, wall):
        assert doc["displayTimeUnit"] == "ns"
        assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i", "M"}
    # The wall-domain span: 2000 ns of wall clock scaled at 1000 ps/ns,
    # exported in the same microsecond unit as simulated spans.
    (span,) = [e for e in wall["traceEvents"] if e["ph"] == "X"]
    assert span["dur"] == 2000 * PS_PER_WALL_NS / 1e6
    assert span["ts"] == 500 * PS_PER_WALL_NS / 1e6


def test_streamed_trace_file_equals_the_dumped_document(tmp_path):
    path = tmp_path / "trace.json"
    obs, _ = _traced_run()
    obs.write_trace(str(path))
    assert path.read_text(encoding="utf-8") == json.dumps(
        obs.perfetto_trace(), indent=1)
    # More events than one write batch, an engine that recorded nothing,
    # and no engines at all.
    tracer = Tracer(max_records=None)
    for i in range(2 * _EVENTS_PER_WRITE + 7):
        tracer.emit(i, f"c{i % 3}", "tick", dur_ps=i % 2, n=i)
    for engines in ([("busy", tracer.records, None)], [("idle", [], None)],
                    []):
        write_perfetto(str(path), engines)
        assert path.read_text(encoding="utf-8") == json.dumps(
            perfetto_trace(engines), indent=1)
