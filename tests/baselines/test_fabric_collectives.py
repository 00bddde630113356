"""Tests for the switched IB fabric and MPI collectives."""

import numpy as np
import pytest

from repro.baselines.collectives import ring_allgather_mpi
from repro.baselines.fabric import IBGroup
from repro.errors import ConfigError
from repro.hw.node import NodeParams


def group(n):
    return IBGroup(n, node_params=NodeParams(num_gpus=1))


class TestFabric:
    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            IBGroup(1)

    def test_lids_sequential(self):
        g = group(3)
        assert [h.lid for h in g.hcas] == [0, 1, 2]

    def test_all_pairs_rdma(self):
        g = group(3)
        data = {i: np.full(128, 0x30 + i, dtype=np.uint8) for i in range(3)}
        for i in range(3):
            g.nodes[i].dram.cpu_write(g.buffers[i], data[i])

        def run():
            for src in range(3):
                for dst in range(3):
                    if src == dst:
                        continue
                    cqe = g.hcas[src].rdma_write(
                        g.buffers[src],
                        g.buffers[dst] + 1024 + src * 256, 128,
                        dst_lid=g.hcas[dst].lid)
                    yield cqe

        g.engine.run_process(run())
        g.engine.run()
        for src in range(3):
            for dst in range(3):
                if src == dst:
                    continue
                got = g.nodes[dst].dram.cpu_read(
                    g.buffers[dst] + 1024 + src * 256, 128)
                assert np.array_equal(got, data[src]), f"{src}->{dst}"

    def test_switch_hop_counted(self):
        g = group(2)
        g.nodes[0].dram.cpu_write(g.buffers[0], np.ones(8, dtype=np.uint8))

        def run():
            yield g.hcas[0].rdma_write(g.buffers[0], g.buffers[1], 8,
                                       dst_lid=1)

        g.engine.run_process(run())
        assert g.fabric.switch.frames >= 2  # data + ack


class TestCollectives:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_allgather(self, n):
        g = group(n)
        block = 512
        blocks = [np.random.default_rng(i).integers(0, 256, block,
                                                    dtype=np.uint8)
                  for i in range(n)]
        for r in range(n):
            g.nodes[r].dram.cpu_write(g.buffers[r] + r * block, blocks[r])
        g.engine.run_all(ring_allgather_mpi(g.world, g.buffers, block),
                         "mpi-allgather")
        g.engine.run()
        expect = np.concatenate(blocks)
        for r in range(n):
            got = g.nodes[r].dram.cpu_read(g.buffers[r], block * n)
            assert np.array_equal(got, expect), f"rank {r}"

    def test_allgather_buffer_count_validated(self):
        g = group(2)
        with pytest.raises(ConfigError):
            ring_allgather_mpi(g.world, [0], 64)
