"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    tracer.rep = "r0"
    step = tracer.wrap_leaf(lambda: setattr(clock, "now", clock.now + 0.5),
                            "sim:Engine.step")
    outer = tracer.begin("experiments:fig7")        # 0 .. 10
    clock.now = 1.0
    child = tracer.begin("sim:Engine.run")          # 1 .. 3
    clock.now = 3.0
    tracer.end(child)
    clock.now = 4.0
    build = tracer.begin("harness:SingleNodeRig")   # 4 .. 8
    clock.now = 5.0
    inner = tracer.begin("sim:Engine.run")          # 5 .. 6, nested in build
    clock.now = 6.0
    tracer.end(inner)
    clock.now = 8.0
    tracer.end(build)
    step()                                          # 8 .. 8.5, a leaf
    clock.now = 10.0
    tracer.end(outer)

    totals = spans.LayerTotals(tracer, "r0")
    # 10 s span minus 2 s (run), 4 s (build) and 0.5 s (aggregated step).
    assert totals.self_s("experiments") == pytest.approx(3.5)
    assert totals.self_s("harness") == pytest.approx(3.0)
    # Both runs and the step leaf; none nests in another sim span.
    assert totals.inclusive_s("sim") == pytest.approx(3.5)
    assert totals.named("sim:Engine.step") == (1, pytest.approx(0.5))
    assert totals.named("sim:Engine.run") == (2, pytest.approx(3.0))


def test_same_layer_nesting_is_counted_once():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    tracer.rep = "r0"
    step = tracer.wrap_leaf(lambda: setattr(clock, "now", clock.now + 1.0),
                            "sim:Engine.step")
    outer = tracer.begin("sim:Engine.run")
    step()
    step()
    clock.now = 5.0
    tracer.end(outer)
    totals = spans.LayerTotals(tracer, "r0")
    assert totals.inclusive_s("sim") == pytest.approx(5.0)
    assert totals.self_s("sim") == pytest.approx(3.0)
    assert totals.named("sim:Engine.step")[0] == 2


def test_installed_restores_the_originals():
    class Owner:
        def method(self):
            return 42

    original = Owner.method
    tracer = spans.Tracer()
    tracer.rep = "r0"
    with tracer.installed([(Owner, "method", "layer:Owner.method", False)]):
        assert Owner.method is not original
        assert Owner().method() == 42
    assert Owner.method is original
    assert [s.name for s in tracer.spans] == ["layer:Owner.method"]


def test_trace_file_keeps_other_workloads(tmp_path):
    tracer = spans.Tracer()
    tracer.rep = "r0"
    with tracer.span("suite:run_suite"):
        pass
    path = tmp_path / "trace.json"
    spans.merge_trace_file(path, 1, spans.trace_events(tracer, 1, "a"))
    spans.merge_trace_file(path, 2, spans.trace_events(tracer, 2, "b"))
    spans.merge_trace_file(path, 1, spans.trace_events(tracer, 1, "a"))
    events = json.loads(path.read_text())["traceEvents"]
    assert sorted({e["pid"] for e in events}) == [1, 2]
    assert sum(e["ph"] == "X" for e in events) == 2


def test_digest_gate_fails_on_a_one_byte_change():
    text = '{"series":{"CPU (write)":[[4096,3.2634]]}}'
    expected = {"fig7": gate.sha256(text)}
    assert gate.digest_mismatches({"fig7": text}, expected) == []
    changed = text.replace("3.2634", "3.2635")
    assert len(changed) == len(text)
    assert gate.digest_mismatches({"fig7": changed}, expected) == ["fig7"]
    assert gate.digest_mismatches({"fig7": None}, expected) == ["fig7"]


def test_count_gate_reports_differences():
    expected = {"sim.events": 10, "pcie.tlps": 5}
    names = ["sim.events"]
    assert gate.count_mismatches({"sim.events": 10}, expected, names) == []
    assert gate.count_mismatches({"sim.events": 11}, expected, names) == [
        "sim.events: 11 != 10"]
    # A count the repetition should carry but did not fails the gate,
    # and so does one never recorded.
    assert gate.count_mismatches({}, expected, names) == [
        "sim.events: None != 10"]
    assert gate.count_mismatches({"obs.records": 3}, expected,
                                 ["obs.records"]) == ["obs.records: 3 != None"]


def test_every_checked_count_is_recorded():
    expected = gate.load_expected()
    engine = set(workloads.TRACED_COUNTS) | set(workloads.OBS_COUNTS)
    for name in workloads.ENGINE_WORKLOADS:
        assert set(expected[name]["counts"]) == engine
    assert set(expected["suite-smoke"]["counts"]) == set(
        workloads.COLD_COUNTS) | set(workloads.SUITE_OBS_COUNTS)


def test_recorded_digests_cover_every_workload():
    expected = gate.load_expected()
    assert sorted(expected) == sorted(workloads.WORKLOADS)
    suite_digests = expected["suite-smoke"]["payload_sha256"]
    assert len(suite_digests) == len(workloads.experiments.REGISTRY)
    # The dma-stream sweeps are the suite's fig7/fig9 smoke entries.
    for name in ("fig7", "fig9"):
        assert (expected["dma-stream"]["payload_sha256"][name]
                == suite_digests[name])


def test_metric_names_are_valid_and_declared():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert per_layer == workloads.PER_LAYER_UNITS
    names = [m["name"] for m in declared["end_to_end"]] + list(per_layer)
    assert [n for n in names if not run.METRIC_NAME.fullmatch(n)] == []
    assert not run.METRIC_NAME.fullmatch("suite.entry.fig 7_s")
    assert {w["name"] for w in declared["workloads"]} == set(
        workloads.WORKLOADS)


def test_obs_counters_of_one_dma_point():
    """One 255 x 4 KiB CPU write carries 8,292 link TLPs."""
    from repro.bench.harness import SingleNodeRig
    from repro.obs import Observability

    obs = Observability(tracing=False)
    with obs.session():
        SingleNodeRig().measure("write", "cpu", 4096, 255)
    sums = gate.counter_sums(obs.metrics_document())
    assert sums["pcie.tlps"] == 8292
    assert sums["peach2.dma_chains"] == 1
    assert sums["pcie.replayed_tlps"] == 0
    assert sums["hw.mem_bytes_written"] == 255 * 4096


def test_per_engine_median_resists_one_slow_sample():
    reps = [[1.0, 2.0], [1.0, 2.0], [5.0, 2.1]]
    assert workloads.per_engine_median(reps) == pytest.approx(3.0)
    assert workloads.per_engine_median([[1.0], [2.0, 3.0]]) == 3.0
