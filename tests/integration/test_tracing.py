"""Observability: the tracer captures routing/DMA/IRQ events end to end."""

import numpy as np

from repro.drivers.peach2_driver import PEACH2Driver
from repro.peach2.descriptor import DMADescriptor
from repro.sim.trace import Tracer


def test_dma_run_produces_trace(peach2_node):
    node, board = peach2_node
    driver = PEACH2Driver(node, board)
    tracer = Tracer()
    node.engine.tracer = tracer

    board.chip.internal.write(0, np.arange(64, dtype=np.uint8))
    chain = [DMADescriptor(board.chip.bar2.base, driver.dma_buffer(0), 64)]
    node.engine.run_process(driver.run_chain(0, chain))

    assert tracer.count("dma-start") == 1
    assert tracer.count("dma-done") == 1
    assert tracer.count("msi") == 1
    assert tracer.count("route") >= 3  # descriptor fetch + data + MSI
    dump = tracer.dump()
    assert "dma-start" in dump and "route" in dump


def test_trace_records_are_time_ordered(peach2_node):
    node, board = peach2_node
    driver = PEACH2Driver(node, board)
    tracer = Tracer()
    node.engine.tracer = tracer
    board.chip.internal.write(0, np.zeros(64, dtype=np.uint8))
    node.engine.run_process(driver.run_chain(
        0, [DMADescriptor(board.chip.bar2.base, driver.dma_buffer(0), 64)]))
    times = [r.time_ps for r in tracer.records]
    assert times == sorted(times)


def test_disabled_tracer_costs_nothing(peach2_node):
    node, board = peach2_node
    driver = PEACH2Driver(node, board)
    assert node.engine.tracer is None  # default off
    board.chip.internal.write(0, np.zeros(64, dtype=np.uint8))
    node.engine.run_process(driver.run_chain(
        0, [DMADescriptor(board.chip.bar2.base, driver.dma_buffer(0), 64)]))
