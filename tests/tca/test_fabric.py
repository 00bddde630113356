"""Unit tests for the composable route-table fabric builder."""

import pytest

from repro.errors import ConfigError
from repro.peach2.registers import PortCode
from repro.tca.address_map import TCAAddressMap
from repro.tca.fabric import (MINUS, PLUS, FabricCut, TorusGeometry,
                              coordinate_map, entries_for,
                              fabric_route_entries, ring_arc)
from repro.units import GiB

AMAP = TCAAddressMap(512 * GiB)


def port_of(entries, node_id):
    addr = AMAP.global_address(node_id, 0, 0)
    for entry in entries:
        if entry.matches(addr):
            return entry.port
    return None


class TestTorusGeometry:
    def test_coords_round_trip(self):
        geo = TorusGeometry((4, 4))
        for index in range(16):
            assert geo.index_of(geo.coords_of(index)) == index

    def test_row_major_dim0_fastest(self):
        geo = TorusGeometry((4, 2))
        assert geo.coords_of(0) == (0, 0)
        assert geo.coords_of(1) == (1, 0)
        assert geo.coords_of(4) == (0, 1)

    def test_ring_hops_wraps(self):
        geo = TorusGeometry((8,))
        assert geo.ring_hops(0, 0, 3) == 3
        assert geo.ring_hops(0, 0, 7) == 1
        assert geo.ring_hops(0, 1, 5) == 4

    def test_path_hops_sums_dimensions(self):
        geo = TorusGeometry((4, 4))
        src = geo.index_of((0, 0))
        dst = geo.index_of((2, 3))
        assert geo.path_hops(src, dst) == 2 + 1

    def test_neighbor_wraps_both_ways(self):
        geo = TorusGeometry((4, 4))
        corner = geo.index_of((3, 3))
        assert geo.coords_of(geo.neighbor(corner, 0, PLUS)) == (0, 3)
        assert geo.coords_of(geo.neighbor(corner, 1, PLUS)) == (3, 0)
        origin = geo.index_of((0, 0))
        assert geo.coords_of(geo.neighbor(origin, 0, MINUS)) == (3, 0)

    def test_rings_cover_every_node_once(self):
        geo = TorusGeometry((4, 2, 2))
        for dim in range(3):
            rings = geo.rings(dim)
            flat = [i for ring in rings for i in ring]
            assert sorted(flat) == list(range(16))
            assert all(len(ring) == geo.extents[dim] for ring in rings)

    def test_rings_follow_cable_order(self):
        geo = TorusGeometry((2, 2))
        for ring in geo.rings(1):
            assert geo.neighbor(ring[0], 1, PLUS) == ring[1]

    def test_too_many_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            TorusGeometry((2, 2, 2, 2))

    def test_zero_extent_rejected(self):
        with pytest.raises(ConfigError):
            TorusGeometry((4, 0))

    def test_degenerate_extent_one_allowed(self):
        # A 1-node "ring" arises when a coupled ring pairs two nodes.
        assert TorusGeometry((1,)).num_nodes == 1


class TestRingArc:
    def test_shortest_path(self):
        assert ring_arc(8, 0, 2) == PLUS
        assert ring_arc(8, 0, 6) == MINUS

    def test_antipodal_tie_breaks_plus(self):
        for extent in (2, 4, 8, 16):
            for src in range(extent):
                dst = (src + extent // 2) % extent
                assert ring_arc(extent, src, dst) == PLUS

    def test_cut_forbids_crossing_plus(self):
        # Cable out of coordinate 1 is down: 0 -> 2 must go minus.
        assert ring_arc(4, 0, 2, cut_coord=1) == MINUS
        assert ring_arc(4, 0, 3, cut_coord=1) == MINUS
        assert ring_arc(4, 0, 1, cut_coord=1) == PLUS

    def test_cut_forbids_crossing_minus(self):
        # Cable out of coordinate 3 (3 -> 0) is down: 0 -> 3 goes plus.
        assert ring_arc(4, 0, 3, cut_coord=3) == PLUS

    def test_same_coordinate_rejected(self):
        with pytest.raises(ConfigError):
            ring_arc(4, 2, 2)


class TestCoordinateMap:
    def test_order_matches_ring_convention(self):
        geo = TorusGeometry((4,))
        coords = coordinate_map(geo, [3, 0, 2, 1])
        assert coords[3] == (0,)
        assert coords[1] == (3,)

    def test_wrong_count_rejected(self):
        with pytest.raises(ConfigError):
            coordinate_map(TorusGeometry((4,)), [0, 1, 2])

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            coordinate_map(TorusGeometry((2,)), [1, 1])


class TestEntriesFor:
    def test_contiguous_ids_collapse_to_one_comparator(self):
        entries = entries_for(AMAP, [2, 0, 1], PortCode.E)
        assert len(entries) == 1
        assert entries[0].lower == AMAP.node_region(0).base
        assert entries[0].upper == AMAP.node_region(2).base

    def test_gap_splits_runs(self):
        entries = entries_for(AMAP, [0, 2, 3], PortCode.W)
        assert len(entries) == 2


class TestFabricRouteEntries:
    def test_own_region_first(self):
        geo = TorusGeometry((4, 4))
        entries = fabric_route_entries(AMAP, 5, geo, list(range(16)))
        assert entries[0].port is PortCode.N
        assert entries[0].lower == AMAP.node_region(5).base

    def test_dimension_order_claims(self):
        """Dim 1 claims every different-row node; dim 0 same-row only."""
        geo = TorusGeometry((4, 4))
        nodes = list(range(16))
        entries = fabric_route_entries(AMAP, 0, geo, nodes)
        for other in nodes[1:]:
            x, y = geo.coords_of(other)
            port = port_of(entries, other)
            if y != 0:
                assert port in (PortCode.S, PortCode.T), other
            else:
                assert port in (PortCode.E, PortCode.W), other

    def test_2d_fits_eight_entry_table(self):
        geo = TorusGeometry((4, 4))
        for me in range(16):
            entries = fabric_route_entries(AMAP, me, geo, list(range(16)))
            assert len(entries) <= 1 + 3 * 2

    def test_3d_fits_sixteen_entry_table(self):
        geo = TorusGeometry((4, 2, 2))
        for me in range(16):
            entries = fabric_route_entries(AMAP, me, geo, list(range(16)))
            assert len(entries) <= 1 + 3 * 3

    def test_extent_two_dimension_uses_plus_port(self):
        """At extent 2 both directions tie, so plus (U for dim 2) wins."""
        geo = TorusGeometry((2, 2, 2))
        entries = fabric_route_entries(AMAP, 0, geo, list(range(8)))
        up = geo.index_of((0, 0, 1))
        assert port_of(entries, up) is PortCode.U

    def test_cut_reroutes_around_gap(self):
        """1D cut after node 1: node 0 reaches 2 and 3 the long way."""
        geo = TorusGeometry((4,))
        cuts = (FabricCut(dim=0, plus_of=1),)
        entries = fabric_route_entries(AMAP, 0, geo, [0, 1, 2, 3],
                                       cuts=cuts)
        assert port_of(entries, 1) is PortCode.E
        assert port_of(entries, 2) is PortCode.W
        assert port_of(entries, 3) is PortCode.W

    def test_cut_on_other_ring_ignored(self):
        """A dim-0 cut only affects tables of nodes on that ring."""
        geo = TorusGeometry((4, 4))
        nodes = list(range(16))
        plain = fabric_route_entries(AMAP, 0, geo, nodes)
        cut_far = fabric_route_entries(
            AMAP, 0, geo, nodes, cuts=(FabricCut(dim=0, plus_of=5),))
        assert plain == cut_far

    def test_two_cuts_on_one_ring_rejected(self):
        geo = TorusGeometry((4,))
        with pytest.raises(ConfigError, match="partition"):
            fabric_route_entries(AMAP, 0, geo, [0, 1, 2, 3],
                                 cuts=(FabricCut(0, 1), FabricCut(0, 2)))

    def test_cut_dimension_validated(self):
        geo = TorusGeometry((4,))
        with pytest.raises(ConfigError):
            fabric_route_entries(AMAP, 0, geo, [0, 1, 2, 3],
                                 cuts=(FabricCut(dim=1, plus_of=0),))

    def test_cut_node_validated(self):
        geo = TorusGeometry((4,))
        with pytest.raises(ConfigError):
            fabric_route_entries(AMAP, 0, geo, [0, 1, 2, 3],
                                 cuts=(FabricCut(dim=0, plus_of=9),))

    def test_non_member_node_rejected(self):
        geo = TorusGeometry((4,))
        with pytest.raises(ConfigError):
            fabric_route_entries(AMAP, 7, geo, [0, 1, 2, 3])

    def test_sixty_four_node_map(self):
        """8x8 over the halved-stride (8-GiB) address map."""
        amap = TCAAddressMap(512 * GiB, node_stride=8 * GiB,
                             block_size=2 * GiB)
        geo = TorusGeometry((8, 8))
        entries = fabric_route_entries(amap, 0, geo, list(range(64)))
        assert len(entries) <= 1 + 3 * 2
        addr = amap.global_address(63, 0, 0)
        assert any(e.matches(addr) and e.port is PortCode.T
                   for e in entries)
