"""Integration tests: torus sub-clusters end to end.

Construction and cabling, all-pairs delivery through the programmed
comparator tables, fabric-cable cuts healed by the generalized PEARL
path, and the torus-aware allreduce schedule.
"""

import numpy as np
import pytest

from repro.collectives import TCACollectives
from repro.errors import ConfigError
from repro.hw.node import NodeParams
from repro.pcie.port import PortRole
from repro.tca.comm import TCAComm
from repro.tca.fabric import FabricCut, TorusGeometry
from repro.tca.subcluster import TORUS, TCASubCluster


def make_torus(extents, **kwargs):
    n = 1
    for extent in extents:
        n *= extent
    return TCASubCluster(n, topology=TORUS, extents=extents,
                         node_params=NodeParams(num_gpus=1), **kwargs)


def all_pairs_delivered(cluster):
    n = cluster.num_nodes
    comm = TCAComm(cluster)
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    for src, dst in pairs:
        slot = (src * n + dst) * 8
        target = comm.host_global(dst,
                                  cluster.driver(dst).dma_buffer(slot))
        cluster.node(src).cpu.store_u32(target, 0xF0000 + src * 256 + dst)
    cluster.engine.run()
    for src, dst in pairs:
        slot = (src * n + dst) * 8
        got = cluster.driver(dst).read_dma_buffer(slot, 4)
        if int.from_bytes(got.tobytes(), "little") != \
                0xF0000 + src * 256 + dst:
            return False
    return True


class TestConstruction:
    def test_2d_cabling_uses_s_t_pair(self):
        cluster = make_torus((2, 2))
        for i in range(4):
            chip = cluster.board(i).chip
            assert chip.port_e.connected and chip.port_w.connected
            assert chip.port_s.connected and chip.port_t.connected
            assert chip.port_s.role is PortRole.EP
            assert chip.port_t.role is PortRole.RC
            assert not chip.port_u.connected

    def test_3d_cabling_and_deep_route_table(self):
        cluster = make_torus((2, 2, 2))
        for i in range(8):
            chip = cluster.board(i).chip
            assert chip.port_u.connected and chip.port_d.connected
            assert chip.regs.num_route_entries == 16

    def test_rings_reports_dim0_rings(self):
        cluster = make_torus((4, 2))
        assert cluster.rings() == [[0, 1, 2, 3], [4, 5, 6, 7]]

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_ring_is_the_one_dimensional_torus(self, n):
        """A RING cluster is built as the torus (n,): same geometry,
        cables, link names, rings and route registers on every chip."""
        ring = TCASubCluster(n, node_params=NodeParams(num_gpus=1))
        torus = make_torus((n,))
        assert ring.geometry == torus.geometry == TorusGeometry((n,))
        assert ring.fabric_cables() == torus.fabric_cables()
        assert ([link.name for *_, link in ring._fabric_cables]
                == [link.name for *_, link in torus._fabric_cables])
        assert ring.rings() == torus.rings() == [list(range(n))]
        for node_id in range(n):
            assert (ring.board(node_id).chip.regs.routes()
                    == torus.board(node_id).chip.regs.routes())

    def test_fabric_cables_cover_every_dimension(self):
        cluster = make_torus((2, 2))
        dims = {dim for dim, _, _ in cluster.fabric_cables()}
        assert dims == {0, 1}
        # 2 rings x 2 cables per dimension.
        assert len(cluster.fabric_cables()) == 8

    def test_torus_needs_extents(self):
        with pytest.raises(ConfigError, match="extents"):
            TCASubCluster(4, topology=TORUS)

    def test_extents_product_must_match(self):
        with pytest.raises(ConfigError):
            TCASubCluster(8, topology=TORUS, extents=(2, 2))

    def test_extents_rejected_for_rings(self):
        with pytest.raises(ConfigError):
            TCASubCluster(4, extents=(2, 2))

    def test_cabled_extent_one_rejected(self):
        with pytest.raises(ConfigError, match=">= 2"):
            TCASubCluster(4, topology=TORUS, extents=(4, 1))

    def test_halved_stride_past_sixteen_nodes(self):
        cluster = make_torus((8, 4))
        assert cluster.address_map.node_stride == 16 * 2**30
        assert cluster.board(31).chip.regs.node_id == 31


class TestDelivery:
    def test_all_pairs_2x2(self):
        assert all_pairs_delivered(make_torus((2, 2)))

    def test_all_pairs_2x2x2(self):
        assert all_pairs_delivered(make_torus((2, 2, 2)))


class TestHealing:
    def test_cut_and_heal_dim1(self):
        cluster = make_torus((2, 2))
        cluster.cut_fabric_cable(1, 0)
        cuts = cluster.heal()
        assert cuts == [FabricCut(dim=1, plus_of=0)]
        assert cluster.heals_completed == 1
        assert cluster.last_heal_chain is None
        assert all_pairs_delivered(cluster)

    def test_cuts_on_two_dimensions_heal_together(self):
        cluster = make_torus((2, 2))
        cluster.cut_fabric_cable(0, 0)
        cluster.cut_fabric_cable(1, 1)
        cuts = cluster.heal()
        assert len(cuts) == 2
        assert all_pairs_delivered(cluster)

    def test_double_cut_on_one_ring_partitions(self):
        cluster = make_torus((4, 2))
        cluster.cut_fabric_cable(0, 0)
        cluster.cut_fabric_cable(0, 2, force=True)
        with pytest.raises(ConfigError, match="partition"):
            cluster.heal()

    def test_second_cut_on_one_ring_needs_force(self):
        cluster = make_torus((4, 2))
        cluster.cut_fabric_cable(0, 0)
        with pytest.raises(ConfigError, match="already down"):
            cluster.cut_fabric_cable(0, 2)
        down = [(dim, a) for dim, a, _, link in cluster._fabric_cables
                if not link.up]
        assert down == [(0, 0)]
        # Other rings, of either dimension, can each lose one cable.
        cluster.cut_fabric_cable(0, 4)
        cluster.cut_fabric_cable(1, 1)
        assert len(cluster.heal()) == 3
        assert all_pairs_delivered(cluster)

    def test_partitioned_heal_leaves_every_route_register(self):
        """The heal computes every table before writing any: a partition
        found on one ring must not leave other nodes reprogrammed."""
        cluster = make_torus((4, 2))
        before = [cluster.board(i).chip.regs.routes() for i in range(8)]
        cluster.cut_fabric_cable(1, 0)
        cluster.cut_fabric_cable(0, 4)
        cluster.cut_fabric_cable(0, 6, force=True)
        with pytest.raises(ConfigError, match="partition"):
            cluster.heal()
        assert [cluster.board(i).chip.regs.routes()
                for i in range(8)] == before
        assert cluster.heals_completed == 0

    def test_unknown_cable_rejected(self):
        cluster = make_torus((2, 2))
        with pytest.raises(ConfigError, match="no dimension-2 cable"):
            cluster.cut_fabric_cable(2, 0)

    def test_cutting_a_dead_cable_rejected(self):
        cluster = make_torus((2, 2))
        cluster.cut_fabric_cable(1, 0)
        with pytest.raises(ConfigError, match="already down"):
            cluster.cut_fabric_cable(1, 0)

    def test_watchdog_auto_heals_a_dim1_cut(self):
        cluster = make_torus((2, 2))
        cluster.enable_auto_heal()
        cluster.engine.at(1_000_000,
                          lambda: cluster.cut_fabric_cable(1, 0))
        cluster.engine.run(until_ps=200_000_000)
        cluster.disable_auto_heal()
        cluster.engine.run()
        assert cluster.heals_completed == 1
        assert all_pairs_delivered(cluster)


class TestTorusAllreduce:
    @pytest.mark.parametrize("extents", [(2, 2), (2, 2, 2)])
    def test_matches_numpy_sum(self, extents):
        cluster = make_torus(extents)
        n = cluster.num_nodes
        rng = np.random.default_rng(17)
        vecs = [rng.integers(0, 1 << 32, 256, dtype=np.uint32)
                for _ in range(n)]
        results = TCACollectives(cluster).allreduce(vecs)
        total = vecs[0].copy()
        for v in vecs[1:]:
            total = total + v
        assert all(np.array_equal(r, total) for r in results)

    def test_torus_beats_flat_ring_at_16(self):
        """2(k-1) steps per dimension pair vs 2(N-1): >= 1.5x at 4x4."""
        rng = np.random.default_rng(3)
        vecs = [rng.integers(0, 1 << 32, 1024, dtype=np.uint32)
                for _ in range(16)]
        flat = TCASubCluster(16, node_params=NodeParams(num_gpus=1))
        t0 = flat.engine.now_ps
        TCACollectives(flat).allreduce(vecs)
        flat_ps = flat.engine.now_ps - t0
        torus = make_torus((4, 4))
        t0 = torus.engine.now_ps
        TCACollectives(torus).allreduce(vecs)
        torus_ps = torus.engine.now_ps - t0
        assert flat_ps / torus_ps >= 1.5
