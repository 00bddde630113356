"""Tests for the hierarchical TCA + InfiniBand network (§II-B, E17)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hw.node import NodeParams
from repro.tca.hybrid import HybridCluster, HybridComm
from repro.units import us


@pytest.fixture(scope="module")
def hybrid():
    return HybridCluster(num_subclusters=2, nodes_per_subcluster=2,
                         node_params=NodeParams(num_gpus=1))


def fresh():
    return HybridCluster(num_subclusters=2, nodes_per_subcluster=2,
                         node_params=NodeParams(num_gpus=1))


class TestAssembly:
    def test_shape(self, hybrid):
        assert hybrid.num_nodes == 4
        assert len(hybrid.subclusters) == 2
        assert hybrid.locate(0) == (0, 0)
        assert hybrid.locate(3) == (1, 1)
        with pytest.raises(ConfigError):
            hybrid.locate(4)

    def test_every_node_has_both_adapters(self, hybrid):
        for rank in range(hybrid.num_nodes):
            node = hybrid.node(rank)
            assert len(node.adapters) == 2  # PEACH2 board + IB HCA

    def test_hca_lids_unique(self, hybrid):
        lids = [hca.lid for hca in hybrid.hcas]
        assert len(set(lids)) == len(lids)

    def test_needs_at_least_one_subcluster(self):
        with pytest.raises(ConfigError):
            HybridCluster(num_subclusters=0)


class TestHybridComm:
    def test_local_put_uses_tca(self):
        cluster = fresh()
        comm = HybridComm(cluster)
        data = np.random.default_rng(1).integers(0, 256, 4096,
                                                 dtype=np.uint8)
        sub = cluster.subclusters[0]
        cluster.node(0).dram.cpu_write(sub.driver(0).dma_buffer(0), data)

        transport = cluster.engine.run_process(
            comm.put(0, 1, 0, 0x1000, 4096))
        cluster.engine.run()
        assert transport == "tca"
        assert comm.puts_via_tca == 1 and comm.puts_via_ib == 0
        got = sub.driver(1).read_dma_buffer(0x1000, 4096)
        assert np.array_equal(got, data)

    def test_global_put_uses_ib(self):
        cluster = fresh()
        comm = HybridComm(cluster)
        data = np.random.default_rng(2).integers(0, 256, 4096,
                                                 dtype=np.uint8)
        src_sub = cluster.subclusters[0]
        dst_sub = cluster.subclusters[1]
        cluster.node(0).dram.cpu_write(src_sub.driver(0).dma_buffer(0), data)

        transport = cluster.engine.run_process(
            comm.put(0, 2, 0, 0x2000, 4096))
        cluster.engine.run()
        assert transport == "ib"
        assert comm.puts_via_ib == 1
        got = dst_sub.driver(0).read_dma_buffer(0x2000, 4096)
        assert np.array_equal(got, data)

    def test_local_beats_global_latency(self):
        """§II-B: TCA for local low latency, IB for global traffic."""
        def timed(src, dst):
            cluster = fresh()
            comm = HybridComm(cluster)
            sub, local = cluster.locate(src)
            cluster.subclusters[sub].driver(local)  # touch
            data = np.full(256, 7, dtype=np.uint8)
            cluster.node(src).dram.cpu_write(
                cluster.subclusters[sub].driver(local).dma_buffer(0), data)
            start = cluster.engine.now_ps
            cluster.engine.run_process(comm.put(src, dst, 0, 0x800, 256))
            return cluster.engine.now_ps - start

        local = timed(0, 1)
        global_ = timed(0, 2)
        assert local < global_

    def test_all_pairs_delivery(self):
        cluster = fresh()
        comm = HybridComm(cluster)
        n = cluster.num_nodes
        payloads = {}
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                data = np.full(64, 0x10 + src * 4 + dst, dtype=np.uint8)
                payloads[(src, dst)] = data
                sub, local = cluster.locate(src)
                offset = (src * n + dst) * 128
                cluster.subclusters[sub].driver(local).fill_dma_buffer(
                    offset, data)

        def run_all():
            for (src, dst), _ in payloads.items():
                offset = (src * n + dst) * 128
                yield cluster.engine.process(
                    comm.put(src, dst, offset, 0x8000 + offset, 64,
                             tag=offset))
            return True

        cluster.engine.run_process(run_all())
        cluster.engine.run()
        for (src, dst), data in payloads.items():
            sub, local = cluster.locate(dst)
            offset = 0x8000 + (src * n + dst) * 128
            got = cluster.subclusters[sub].driver(local).read_dma_buffer(
                offset, 64)
            assert np.array_equal(got, data), f"{src}->{dst}"
