"""Observability session wiring: engines created inside get instrumented."""

from repro.obs import Observability
from repro.sim import trace
from repro.sim.core import Engine


def test_session_attaches_engines_created_inside():
    obs = Observability()
    with obs.session():
        inside_a = Engine()
        inside_b = Engine()
    outside = Engine()
    assert obs.tracer_for(inside_a) is not None
    assert obs.tracer_for(inside_b) is not None
    assert obs.tracer_for(inside_a) is not obs.tracer_for(inside_b)
    assert obs.tracer_for(outside) is None
    assert outside.tracer is None and outside.metrics is None


def test_session_unhooks_on_exception():
    obs = Observability()
    try:
        with obs.session():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert Engine().tracer is None


def test_tracing_only_session():
    obs = Observability(metrics=False)
    with obs.session():
        engine = Engine()
    assert engine.tracer is not None
    assert engine.metrics is None


def test_metrics_only_session():
    obs = Observability(tracing=False)
    with obs.session():
        engine = Engine()
    assert engine.tracer is None
    assert engine.metrics is not None


def test_totals_aggregate_across_engines():
    obs = Observability(max_records=1)
    with obs.session():
        a = Engine()
        b = Engine()
    a.trace("x", "link-down")
    a.trace("x", "link-down")  # dropped: over the cap
    b.trace("y", "link-down")
    assert obs.total_records == 2
    assert obs.total_dropped == 1


def test_total_records_builds_no_record(monkeypatch):
    def built(*args):
        raise AssertionError("a TraceRecord was built")

    monkeypatch.setattr(trace, "TraceRecord", built)
    obs = Observability()
    with obs.session():
        engine = Engine()
    for i in range(3):
        engine.trace("x", "msi", i)
    assert obs.total_records == 3
