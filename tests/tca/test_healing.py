"""PEARL reliability: ring-cable failure, reroute, and recovery (E15)."""

import numpy as np
import pytest

from repro.errors import ConfigError, LinkError
from repro.hw.node import NodeParams
from repro.peach2.registers import PortCode
from repro.tca.address_map import TCAAddressMap
from repro.tca.comm import TCAComm
from repro.tca.fabric import FabricCut, TorusGeometry, fabric_route_entries
from repro.tca.subcluster import DUAL_RING, TCASubCluster
from repro.units import GiB


def cluster(n=4):
    return TCASubCluster(n, node_params=NodeParams(num_gpus=1))


def chain_route_entries(amap, node_id, chain):
    """A chain's table: the 1D torus over ``chain`` with the cable out of
    its East end cut, as :meth:`TCASubCluster.heal` programs it."""
    return fabric_route_entries(amap, node_id, TorusGeometry((len(chain),)),
                                chain, cuts=(FabricCut(0, chain[-1]),))


class TestChainRouting:
    AMAP = TCAAddressMap(512 * GiB)

    def test_endpoints_route_inward(self):
        chain = [2, 3, 0, 1]
        first = chain_route_entries(self.AMAP, 2, chain)
        last = chain_route_entries(self.AMAP, 1, chain)

        def port_of(entries, node):
            addr = self.AMAP.global_address(node, 0, 0)
            for e in entries:
                if e.matches(addr):
                    return e.port

        assert all(port_of(first, other) is PortCode.E for other in (3, 0, 1))
        assert all(port_of(last, other) is PortCode.W for other in (2, 3, 0))

    def test_not_on_chain(self):
        with pytest.raises(ConfigError):
            chain_route_entries(self.AMAP, 9, [0, 1])


class TestHealing:
    def test_traffic_fails_through_dead_cable(self):
        c = cluster(4)
        comm = TCAComm(c)
        c.cut_ring_cable(0)  # node0.E -> node1.W
        target = comm.host_global(1, c.driver(1).dma_buffer(0))
        c.node(0).cpu.store_u32(target, 1)
        with pytest.raises(LinkError):
            c.engine.run()

    def test_heal_restores_all_pairs(self):
        c = cluster(4)
        comm = TCAComm(c)
        c.cut_ring_cable(0)
        chain = c.heal()
        assert chain == [1, 2, 3, 0]
        # Every pair communicates again, including 0 -> 1 the long way.
        for src in range(4):
            for dst in range(4):
                if src == dst:
                    continue
                slot = (src * 4 + dst) * 8
                target = comm.host_global(
                    dst, c.driver(dst).dma_buffer(slot))
                c.node(src).cpu.store_u32(target, 0xCE110000 + slot)
        c.engine.run()
        for src in range(4):
            for dst in range(4):
                if src == dst:
                    continue
                slot = (src * 4 + dst) * 8
                got = c.driver(dst).read_dma_buffer(slot, 4)
                assert int.from_bytes(got.tobytes(),
                                      "little") == 0xCE110000 + slot

    def test_healed_path_is_longer(self):
        def one_way(c, comm, dst):
            engine = c.engine
            slot = 0x800
            target = comm.host_global(dst, c.driver(dst).dma_buffer(slot))
            dram = c.node(dst).dram
            addr = c.driver(dst).dma_buffer(slot)
            start = engine.now_ps
            c.node(0).cpu.store_u32(target, 0x77)

            def observe():
                while True:
                    if dram.cpu_read(addr, 1)[0] == 0x77:
                        return engine.now_ps
                    yield 100

            return engine.run_process(observe()) - start

        healthy = cluster(4)
        t_before = one_way(healthy, TCAComm(healthy), 1)
        broken = cluster(4)
        broken.cut_ring_cable(0)
        broken.heal()
        t_after = one_way(broken, TCAComm(broken), 1)
        # 0 -> 1 now takes 3 hops instead of 1.
        assert t_after > t_before + 300_000  # > +300 ns

    def test_heal_without_failure(self):
        with pytest.raises(ConfigError, match="no failed cable"):
            cluster(3).heal()

    def test_second_cut_rejected(self):
        c = cluster(4)
        c.cut_ring_cable(0)
        with pytest.raises(ConfigError, match="already down"):
            c.cut_ring_cable(2)
        # The guarded cut did not touch the second cable.
        assert sum(1 for *_, link in c._fabric_cables if not link.up) == 1

    def test_cutting_same_cable_twice_rejected(self):
        c = cluster(4)
        c.cut_ring_cable(0)
        with pytest.raises(ConfigError, match="already down"):
            c.cut_ring_cable(0, force=True)

    def test_partition_detected(self):
        c = cluster(4)
        c.cut_ring_cable(0)
        c.cut_ring_cable(2, force=True)
        with pytest.raises(ConfigError, match="partitioned"):
            c.heal()

    def test_dual_ring_not_supported(self):
        c = TCASubCluster(4, topology=DUAL_RING,
                          node_params=NodeParams(num_gpus=1))
        with pytest.raises(ConfigError, match="single rings"):
            c.heal()

    def test_dma_works_after_heal(self):
        c = cluster(4)
        comm = TCAComm(c)
        c.cut_ring_cable(3)  # node3.E -> node0.W
        c.heal()
        data = np.random.default_rng(5).integers(0, 256, 4096,
                                                 dtype=np.uint8)
        src = c.driver(3).dma_buffer(0)
        c.node(3).dram.cpu_write(src, data)
        dst = comm.host_global(0, c.driver(0).dma_buffer(0))
        c.engine.run_process(comm.put_dma(3, src, dst, 4096))
        c.engine.run()
        assert np.array_equal(c.driver(0).read_dma_buffer(0, 4096), data)

    def test_firmware_logs_failure(self):
        c = cluster(3)
        c.cut_ring_cable(1)
        c.heal()
        fw = c.board(1).chip.firmware
        assert any("DOWN" in event for event in fw.events)
