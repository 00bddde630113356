"""Unit tests for the tracer."""

import gc
import tracemalloc

import pytest

from repro.obs import events
from repro.sim.trace import Tracer


def test_enabled_tracer_records():
    tracer = Tracer()
    tracer.emit(100, "link", events.TLP_SENT, "MWr", 0x1000, 280)
    tracer.emit(200, "chip", events.ROUTE, "MWr", "0x1000", "chip.E", False)
    assert len(tracer.records) == 2
    assert tracer.records[0].component == "link"
    assert "tlp-sent" in str(tracer.records[0])
    assert tracer.records[1].detail == {"tlp": "MWr", "addr": "0x1000",
                                        "out": "chip.E", "translated": False}


def test_max_records_cap_counts_drops():
    tracer = Tracer(max_records=2)
    for i in range(5):
        tracer.emit(i, "c", events.MSI, i)
    assert len(tracer.records) == 2
    assert tracer.count(events.MSI) == 5
    assert tracer.dropped == 3


def test_clear():
    tracer = Tracer(max_records=1)
    tracer.emit(1, "c", events.MSI, 0)
    tracer.emit(2, "c", events.MSI, 0)
    tracer.clear()
    assert len(tracer.records) == 0 and tracer.count(events.MSI) == 0
    assert tracer.dropped == 0
    tracer.emit(3, "c", events.MSI, 0)
    assert len(tracer) == 1


def test_span_records_expose_start():
    tracer = Tracer()
    tracer.emit(500, "link", events.LINK_TX, 120, 280, "MWr")
    tracer.emit(600, "chip", events.ROUTE, "MWr", "0x0", "chip.S", True)
    assert tracer.records[0].start_ps == 380
    assert tracer.records[1].start_ps == 600


def test_dump_contains_all_lines():
    tracer = Tracer()
    tracer.emit(1, "a", "link-down")
    tracer.emit(2, "b", events.MSI, 3)
    dump = tracer.dump()
    assert "a: link-down" in dump and "b: msi vector=3" in dump


def test_emit_allocates_no_gc_tracked_objects():
    # Rows of ints and strings stay out of the collector's reach; one
    # object per record would put 10,000 there.
    tracer = Tracer(max_records=None)
    gc.collect()
    before = len(gc.get_objects())
    for i in range(10_000):
        tracer.emit(i, "link", events.TLP_SENT, "MWr", i, 280)
    assert len(gc.get_objects()) - before < 100
    assert len(tracer) == 10_000


def test_link_tx_records_cost_at_most_100_bytes_each():
    # A link-tx record as the link emits it: a fresh timestamp past
    # 2**30 ps, and a duration, byte count and TLP kind that records of
    # one packet size share.  Its detail is not kept as a dict.
    tracer = Tracer(max_records=None)
    dur_ps, wire_bytes, tlp = 70_000, 280, "MWr"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            tracer.emit(2**31 + i, "n0.l0:a->b", events.LINK_TX,
                        dur_ps, wire_bytes, tlp)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert used / 10_000 <= 100


def test_records_view_reads_rows_in_order():
    tracer = Tracer()
    for i in range(3):
        tracer.emit(i, "c", events.MSI, i)
    assert [r.detail["vector"] for r in tracer.records] == [0, 1, 2]
    assert tracer.records[-1].time_ps == 2


def test_rows_of_different_widths_read_back_by_their_kinds():
    tracer = Tracer()
    tracer.emit(1, "n0.cpu", events.PIO_STORE, 0x40, 8)
    tracer.emit(2, "link", "link-down")
    tracer.emit(3, "coll.n0", "coll-put", 1, 2, 1024, "dma", 700, 0, 900)
    records = list(tracer.records)
    assert [r.kind for r in records] == [events.PIO_STORE, "link-down",
                                         "coll-put"]
    assert records[0].detail == {"addr": 0x40, "bytes": 8}
    assert records[1].detail == {}
    assert records[2].detail == {"flag": 1, "dst": 2, "nbytes": 1024,
                                 "transport": "dma", "wire_ps": 700,
                                 "queue_ps": 0, "dur_ps": 900}
    assert tracer.records[1].time_ps == 2 and len(tracer.records) == 3


def test_a_none_value_leaves_its_field_out():
    tracer = Tracer()
    tracer.emit(1, "tca.comm", events.TCA_PUT, "pio", 0, 64, None)
    tracer.emit(2, "tca.comm", events.TCA_PUT, "dma", 0, 64, 500)
    pio, dma = tracer.records
    assert pio.detail == {"transport": "pio", "src_node": 0, "bytes": 64}
    assert dma.detail == {"transport": "dma", "src_node": 0, "bytes": 64,
                          "dur_ps": 500}


@pytest.mark.parametrize("values", [(120, 280), (120, 280, "MWr", 7)],
                         ids=["one-short", "one-long"])
def test_a_row_out_of_step_with_its_kind_fails_on_read(values):
    tracer = Tracer()
    tracer.emit(1, "link", events.LINK_TX, *values)
    tracer.emit(2, "chip", events.ROUTE, "MWr", "0x0", "chip.S", True)
    with pytest.raises(ValueError, match="FIELDS"):
        list(tracer.records)


@pytest.mark.parametrize("values", [(120, 280), (120, 280, "MWr", 7)],
                         ids=["one-short", "one-long"])
def test_a_last_row_out_of_step_with_its_kind_fails_on_read(values):
    tracer = Tracer()
    tracer.emit(1, "n0.cpu", events.PIO_STORE, 0x40, 8)
    tracer.emit(2, "link", events.LINK_TX, *values)
    with pytest.raises(ValueError, match="slots off the widths"):
        list(tracer.records)


def test_an_undeclared_kind_fails_on_read():
    tracer = Tracer()
    tracer.emit(1, "c", "no-such-kind")
    with pytest.raises(ValueError, match="no such kind"):
        list(tracer.records)
