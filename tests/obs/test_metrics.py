"""Unit tests for counters, time-weighted gauges and histograms."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_accumulates():
    c = Counter("tlps")
    c.inc()
    c.inc(41)
    assert c.value == 42
    assert c.to_dict() == {"type": "counter", "value": 42}


def test_gauge_time_weighted_mean():
    g = Gauge("busy")
    # Busy (1) for 30 ps out of a 100 ps window -> 0.3 utilization,
    # regardless of how the samples cluster.
    g.set(1, time_ps=0)
    g.set(0, time_ps=30)
    assert g.mean(now_ps=100) == pytest.approx(0.3)
    assert g.min == 0 and g.max == 1 and g.samples == 2


def test_gauge_mean_extends_last_level_to_now():
    g = Gauge("depth")
    g.set(4, time_ps=0)
    # Still at 4 when asked at t=50: mean is 4.
    assert g.mean(now_ps=50) == pytest.approx(4.0)


def test_gauge_uses_registry_clock():
    now = {"ps": 0}
    reg = MetricsRegistry(clock=lambda: now["ps"])
    g = reg.gauge("busy")
    g.set(1)
    now["ps"] = 10
    g.set(0)
    now["ps"] = 40
    assert g.mean() == pytest.approx(0.25)


def test_gauge_without_clock_requires_explicit_time():
    g = Gauge("lonely")
    with pytest.raises(ValueError):
        g.set(1)


def test_gauge_mean_without_clock_falls_back_to_last_sample():
    # Regression: a clockless gauge reported mean=None from to_dict()
    # even with perfectly good samples, so exporters silently dropped
    # the one number the gauge exists to produce.
    g = Gauge("clockless")
    g.set(1, time_ps=0)
    g.set(0, time_ps=30)
    g.set(0, time_ps=100)
    assert g.mean() == pytest.approx(0.3)
    assert g.to_dict()["mean"] == pytest.approx(0.3)


def test_gauge_mean_single_sample_no_clock():
    g = Gauge("one")
    g.set(5, time_ps=42)
    # Zero-width window: the level itself, never None, never a crash.
    assert g.mean() == pytest.approx(5.0)
    assert g.to_dict()["mean"] == pytest.approx(5.0)


def test_gauge_mean_unsampled_is_none():
    g = Gauge("never")
    assert g.mean() is None
    assert g.to_dict()["mean"] is None


def test_histogram_percentiles_interpolate():
    h = Histogram("lat")
    for v in [10, 20, 30, 40]:
        h.observe(v)
    assert h.percentile(0) == 10
    assert h.percentile(100) == 40
    assert h.percentile(50) == pytest.approx(25.0)
    assert h.mean() == pytest.approx(25.0)
    summary = h.summary()
    assert summary["count"] == 4
    assert summary["p50"] == pytest.approx(25.0)


def test_histogram_empty_and_bounds():
    h = Histogram("lat")
    assert h.summary() == {"count": 0}
    with pytest.raises(ValueError):
        h.percentile(50)
    h.observe(7)
    with pytest.raises(ValueError):
        h.percentile(101)
    assert h.percentile(90) == 7


def test_registry_get_or_create_and_type_clash():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    with pytest.raises(ValueError):
        reg.gauge("a")
    assert "a" in reg and len(reg) == 1


def test_registry_to_dict_and_text():
    reg = MetricsRegistry(clock=lambda: 100)
    reg.counter("n").inc(3)
    reg.gauge("g").set(2, time_ps=0)
    reg.histogram("h").observe(5.0)
    doc = reg.to_dict(now_ps=100)
    assert doc["n"]["value"] == 3
    assert doc["g"]["mean"] == pytest.approx(2.0)
    assert doc["h"]["count"] == 1
    text = reg.render_text(now_ps=100)
    assert "n [counter]" in text and "g [gauge]" in text
