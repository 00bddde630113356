"""Unit tests for the tracer."""

import gc

from repro.sim.trace import Tracer


def test_enabled_tracer_records():
    tracer = Tracer()
    tracer.emit(100, "link", "tlp-sent", bytes=280)
    tracer.emit(200, "chip", "routed")
    assert len(tracer.records) == 2
    assert tracer.records[0].component == "link"
    assert "tlp-sent" in str(tracer.records[0])


def test_max_records_cap_counts_drops():
    tracer = Tracer(max_records=2)
    for i in range(5):
        tracer.emit(i, "c", "k")
    assert len(tracer.records) == 2
    assert tracer.count("k") == 5
    assert tracer.dropped == 3


def test_clear():
    tracer = Tracer(max_records=1)
    tracer.emit(1, "c", "k")
    tracer.emit(2, "c", "k")
    tracer.clear()
    assert len(tracer.records) == 0 and tracer.count("k") == 0
    assert tracer.dropped == 0


def test_span_records_expose_start():
    tracer = Tracer()
    tracer.emit(500, "link", "link-tx", dur_ps=120)
    tracer.emit(600, "chip", "route")
    assert tracer.records[0].start_ps == 380
    assert tracer.records[1].start_ps == 600


def test_dump_contains_all_lines():
    tracer = Tracer()
    tracer.emit(1, "a", "x")
    tracer.emit(2, "b", "y", n=3)
    dump = tracer.dump()
    assert "a: x" in dump and "b: y n=3" in dump


def test_emit_allocates_no_gc_tracked_objects():
    # Rows of ints, strings and detail dicts of plain values stay out of
    # the collector's reach; one object per record would put 10,000 there.
    tracer = Tracer(max_records=None)
    gc.collect()
    before = len(gc.get_objects())
    for i in range(10_000):
        tracer.emit(i, "link", "tlp-sent", tlp="MWr", addr=i, bytes=280)
    assert len(gc.get_objects()) - before < 100
    assert len(tracer) == 10_000


def test_records_view_reads_rows_in_order():
    tracer = Tracer()
    for i in range(3):
        tracer.emit(i, "c", "k", n=i)
    assert [r.detail["n"] for r in tracer.records] == [0, 1, 2]
    assert tracer.records[-1].time_ps == 2
