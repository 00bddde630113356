"""Unit tests for Fig. 5 routing-entry generation."""

import pytest

from repro.errors import ConfigError
from repro.peach2.registers import PortCode
from repro.tca.address_map import TCAAddressMap
from repro.tca.fabric import TorusGeometry, fabric_route_entries
from repro.tca.topology import (dual_ring_route_entries, ring_direction,
                                ring_hop_count)
from repro.units import GiB

AMAP = TCAAddressMap(512 * GiB)


def ring_route_entries(amap, node_id, ring):
    """A single ring's table: the 1D torus over ``ring`` in cable order."""
    return fabric_route_entries(amap, node_id, TorusGeometry((len(ring),)),
                                ring)


def port_of(entries, amap, node_id):
    """Which port a node's region routes to under these entries."""
    addr = amap.global_address(node_id, 0, 0)
    for entry in entries:
        if entry.matches(addr):
            return entry.port
    return None


def test_hop_count():
    assert ring_hop_count(4, 0, 1) == 1
    assert ring_hop_count(4, 0, 3) == 1
    assert ring_hop_count(4, 0, 2) == 2
    assert ring_hop_count(8, 1, 5) == 4


def test_direction_exhaustive_all_rings_to_16():
    """Every (N, src, dst): shortest path, and the N/2 tie breaks East.

    Regression for the even-ring antipodal case: at exactly N/2 hops
    both directions are equally short, and the documented choice is
    East — matching the plus-direction tie-break of the fabric builder,
    so ring tables and torus tables never disagree on a tie.
    """
    for n in range(2, 17):
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                east = (dst - src) % n
                west = (src - dst) % n
                direction = ring_direction(n, src, dst)
                assert ring_hop_count(n, src, dst) == min(east, west)
                if east < west:
                    assert direction is PortCode.E, (n, src, dst)
                elif west < east:
                    assert direction is PortCode.W, (n, src, dst)
                else:
                    assert direction is PortCode.E, \
                        f"antipodal tie must break East ({n}, {src}, {dst})"


def test_fig5_four_node_ring():
    """Fig. 5: node 0 of a 4-ring sends 1,2 East and 3 West."""
    entries = ring_route_entries(AMAP, 0, [0, 1, 2, 3])
    assert port_of(entries, AMAP, 0) is PortCode.N
    assert port_of(entries, AMAP, 1) is PortCode.E
    assert port_of(entries, AMAP, 2) is PortCode.E   # tie breaks East
    assert port_of(entries, AMAP, 3) is PortCode.W


def test_own_entry_checked_first():
    entries = ring_route_entries(AMAP, 2, [0, 1, 2, 3])
    assert entries[0].port is PortCode.N
    assert entries[0].lower == AMAP.node_region(2).base


def test_every_node_routed_somewhere():
    ring = list(range(8))
    for me in ring:
        entries = ring_route_entries(AMAP, me, ring)
        for other in ring:
            port = port_of(entries, AMAP, other)
            assert port is not None
            if other == me:
                assert port is PortCode.N
            else:
                assert port in (PortCode.E, PortCode.W)


def test_shortest_path_consistency_no_loops():
    """Following per-node decisions hop by hop always reaches the dest."""
    ring = list(range(8))
    tables = {me: ring_route_entries(AMAP, me, ring) for me in ring}
    for src in ring:
        for dst in ring:
            current, hops = src, 0
            while current != dst:
                port = port_of(tables[current], AMAP, dst)
                current = ((current + 1) % 8 if port is PortCode.E
                           else (current - 1) % 8)
                hops += 1
                assert hops <= 8, "routing loop"
            assert hops == ring_hop_count(8, src, dst)


def test_entry_count_fits_chip_table():
    from repro.peach2.registers import NUM_ROUTE_ENTRIES

    for n in (2, 4, 8, 16):
        ring = list(range(n))
        for me in ring:
            entries = ring_route_entries(AMAP, me, ring)
            assert len(entries) <= NUM_ROUTE_ENTRIES


def test_node_not_on_ring_rejected():
    with pytest.raises(ConfigError):
        ring_route_entries(AMAP, 9, [0, 1, 2])


def test_duplicate_ids_rejected():
    with pytest.raises(ConfigError):
        ring_route_entries(AMAP, 0, [0, 1, 1])


class TestDualRing:
    def test_other_ring_goes_south(self):
        ring_a, ring_b = [0, 1, 2, 3], [4, 5, 6, 7]
        entries = dual_ring_route_entries(AMAP, 1, ring_a, ring_b)
        for other in ring_b:
            assert port_of(entries, AMAP, other) is PortCode.S
        assert port_of(entries, AMAP, 0) is PortCode.W

    def test_member_of_second_ring(self):
        entries = dual_ring_route_entries(AMAP, 5, [0, 1, 2, 3], [4, 5, 6, 7])
        assert port_of(entries, AMAP, 5) is PortCode.N
        assert port_of(entries, AMAP, 2) is PortCode.S

    def test_unequal_rings_rejected(self):
        with pytest.raises(ConfigError):
            dual_ring_route_entries(AMAP, 0, [0, 1], [2, 3, 4])

    def test_node_on_neither_ring(self):
        with pytest.raises(ConfigError):
            dual_ring_route_entries(AMAP, 9, [0, 1], [2, 3])

    def test_overlapping_rings_rejected(self):
        """Shared ids would give two rings overlapping address ranges."""
        with pytest.raises(ConfigError, match="overlap"):
            dual_ring_route_entries(AMAP, 0, [0, 1, 2, 3], [3, 4, 5, 6])

    def test_duplicate_ids_within_a_ring_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            dual_ring_route_entries(AMAP, 0, [0, 1, 1, 2], [4, 5, 6, 7])

    def test_duplicate_ids_in_second_ring_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            dual_ring_route_entries(AMAP, 0, [0, 1, 2, 3], [4, 5, 5, 6])
