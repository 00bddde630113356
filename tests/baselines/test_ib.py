"""Unit tests for the InfiniBand substrate."""

import numpy as np
import pytest

from repro.baselines.ib import (FDR_PARAMS, IBFrame, IBHca, IBLink, IBParams,
                                IBSwitch, QDR_PARAMS, install_hca)
from repro.baselines.paths import _IBPair
from repro.errors import ConfigError
from repro.units import MiB, bw_gbytes_per_s, ns, us


def test_qdr_wire_rate_is_4_gbytes():
    assert QDR_PARAMS.wire_bytes_per_ps == pytest.approx(0.004)
    assert FDR_PARAMS.wire_bytes_per_ps > QDR_PARAMS.wire_bytes_per_ps


def test_frame_wire_bytes_include_headers():
    frame = IBFrame("rdma-write", 0, np.zeros(2048, dtype=np.uint8), 1, True)
    assert frame.wire_bytes == 2048 + 42


def test_rdma_write_host_to_host():
    pair = _IBPair()
    data = np.random.default_rng(0).integers(0, 256, 10000, dtype=np.uint8)
    src, dst = pair.host_buffers
    pair.nodes[0].dram.cpu_write(src, data)

    def proc():
        cqe = pair.hcas[0].rdma_write(src, dst, len(data))
        yield cqe

    pair.engine.run_process(proc())
    pair.engine.run()
    assert np.array_equal(pair.nodes[1].dram.cpu_read(dst, len(data)), data)


def test_cqe_fires_after_remote_landing():
    pair = _IBPair()
    src, dst = pair.host_buffers
    pair.nodes[0].dram.cpu_write(src, np.ones(64, dtype=np.uint8))

    def proc():
        cqe = pair.hcas[0].rdma_write(src, dst, 64)
        yield cqe
        # At CQE time the remote data is already visible (ack came back
        # after the last write was issued + commit time passed en route).
        return pair.engine.now_ps

    cqe_time = pair.engine.run_process(proc())
    assert cqe_time > us(0.8)


def test_small_message_latency_near_1_3us():
    pair = _IBPair()
    src, dst = pair.host_buffers
    data = np.full(8, 9, dtype=np.uint8)
    pair.nodes[0].dram.cpu_write(src, data)
    start = pair.engine.now_ps
    pair.hcas[0].rdma_write(src, dst, 8, inline_data=data)
    dram = pair.nodes[1].dram

    def observe():
        while True:
            if dram.cpu_read(dst, 8)[0] == 9:
                return pair.engine.now_ps
            yield ns(10)

    end = pair.engine.run_process(observe())
    latency_us = (end - start) / 1e6
    assert 0.8 < latency_us < 1.6  # "less than 1 usec" era IB claims


def test_dual_rail_doubles_bulk_bandwidth():
    """Table I's dual-port QDR: ~8 GB/s interface, ~6.5 effective."""
    from repro.baselines.paths import VerbsPath
    from repro.units import MiB as MIB

    single = VerbsPath().transfer(1 * MIB)
    dual = VerbsPath(dual_rail=True).transfer(1 * MIB)
    assert dual.bandwidth_gbytes > 1.5 * single.bandwidth_gbytes
    assert dual.bandwidth_gbytes > 6.0


def test_large_message_bandwidth_above_3_gbytes():
    pair = _IBPair()
    src, dst = pair.host_buffers
    nbytes = 1 * MiB
    pair.nodes[0].dram.cpu_write(src, np.ones(nbytes, dtype=np.uint8))
    start = pair.engine.now_ps

    def proc():
        yield pair.hcas[0].rdma_write(src, dst, nbytes)

    pair.engine.run_process(proc())
    bw = bw_gbytes_per_s(nbytes, pair.engine.now_ps - start)
    assert bw > 3.0


def test_inline_faster_than_dma_fetch():
    def run(inline):
        pair = _IBPair()
        src, dst = pair.host_buffers
        data = np.full(64, 5, dtype=np.uint8)
        pair.nodes[0].dram.cpu_write(src, data)

        def proc():
            yield pair.hcas[0].rdma_write(
                src, dst, 64, inline_data=data if inline else None)

        pair.engine.run_process(proc())
        return pair.engine.now_ps

    assert run(True) < run(False)


def test_switch_adds_latency():
    def run(with_switch):
        pair = _IBPair()
        if with_switch:
            sw = IBSwitch(pair.engine, latency_ps=ns(110))
            pair.hcas[0].switch = sw
            pair.hcas[1].switch = sw
        src, dst = pair.host_buffers
        data = np.full(8, 3, dtype=np.uint8)
        pair.nodes[0].dram.cpu_write(src, data)

        def proc():
            yield pair.hcas[0].rdma_write(src, dst, 8, inline_data=data)

        pair.engine.run_process(proc())
        return pair.engine.now_ps

    assert run(True) > run(False)


def test_double_cable_rejected(engine):
    from repro.hw.node import ComputeNode, NodeParams

    n1 = ComputeNode(engine, "x1", NodeParams(num_gpus=1))
    n2 = ComputeNode(engine, "x2", NodeParams(num_gpus=1))
    h1, h2 = install_hca(n1), install_hca(n2)
    n1.enumerate()
    n2.enumerate()
    IBLink(engine, h1, h2, QDR_PARAMS)
    with pytest.raises(ConfigError, match="already cabled"):
        IBLink(engine, h1, h2, QDR_PARAMS)
