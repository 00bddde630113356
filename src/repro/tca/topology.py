"""Ring arithmetic and the coupled-ring route tables (Fig. 5, §III-D).

Shortest-path direction and hop count on a ring, with ties (the
antipodal node of an even ring) broken toward E, and the §III-E
comparator entries (mask / lower / upper / port) of the dual ring.  A
single ring is the 1D torus, so its tables (and a healed ring's chain
tables) come from :func:`repro.tca.fabric.fabric_route_entries`.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigError
from repro.peach2.registers import PortCode, RouteEntry
from repro.tca.address_map import TCAAddressMap
from repro.tca.fabric import TorusGeometry, entries_for, fabric_route_entries


def ring_hop_count(num_nodes: int, src_pos: int, dst_pos: int) -> int:
    """Shortest-path hop count between two ring positions.

    At the antipodal position of an even ring both directions take
    exactly ``num_nodes // 2`` hops; the count is direction-independent,
    but see :func:`ring_direction` for which way that traffic goes.
    """
    east = (dst_pos - src_pos) % num_nodes
    west = (src_pos - dst_pos) % num_nodes
    return min(east, west)


def ring_direction(num_nodes: int, src_pos: int, dst_pos: int) -> PortCode:
    """Shortest ring direction from one position to another.

    Ties (the antipodal node of an even ring, where east == west ==
    N/2) break toward E *by explicit choice*, not by comparison-order
    accident: the comparator tables
    :func:`~repro.tca.fabric.fabric_route_entries` programs make the
    same choice, so a put and its trailing flag store always
    take the same cables, which is what makes flag-store completion
    sound (§III-H posted-write ordering holds per path, not globally).
    The same plus-direction-wins rule applies per dimension in
    :func:`repro.tca.fabric.ring_arc`.
    """
    east = (dst_pos - src_pos) % num_nodes
    west = (src_pos - dst_pos) % num_nodes
    if east == west:
        return PortCode.E       # documented N/2-hop tie-break: E wins
    return PortCode.E if east < west else PortCode.W


def ring_neighbor(ring_ids: Sequence[int], node_id: int,
                  direction: PortCode) -> int:
    """The node one cable away in ``direction`` on a ring.

    ``ring_ids`` lists node ids in cable order (position p's East cable
    reaches position p+1), exactly as :meth:`TCASubCluster.rings`
    returns them.
    """
    if node_id not in ring_ids:
        raise ConfigError(f"node {node_id} is not on this ring")
    if direction not in (PortCode.E, PortCode.W):
        raise ConfigError("ring neighbours exist only toward E or W")
    position = list(ring_ids).index(node_id)
    step = 1 if direction == PortCode.E else -1
    return ring_ids[(position + step) % len(ring_ids)]


def dual_ring_route_entries(address_map: TCAAddressMap, node_id: int,
                            ring_a: Sequence[int],
                            ring_b: Sequence[int]) -> List[RouteEntry]:
    """Route entries for two rings coupled by the S ports (§III-D).

    Every node's S port is cabled to its same-position partner on the
    other ring.  Traffic for the other ring crosses at the source column
    (one S hop), then rides that ring — simple, deadlock-free, and at most
    one hop longer than optimal.

    The comparators match whole address ranges, so the two rings must be
    disjoint node-id sets: a node on both rings would get overlapping
    ranges steered out of two ports at once.  Invalid sets raise
    :class:`ConfigError` instead of silently programming such tables.
    """
    if len(ring_a) != len(ring_b):
        raise ConfigError("coupled rings must have equal length")
    if len(set(ring_a)) != len(ring_a) or len(set(ring_b)) != len(ring_b):
        raise ConfigError("duplicate node ids on a coupled ring")
    overlap = set(ring_a) & set(ring_b)
    if overlap:
        raise ConfigError(f"coupled rings share node ids {sorted(overlap)}: "
                          f"their address ranges would overlap")
    if node_id in ring_a:
        mine, other = ring_a, ring_b
    elif node_id in ring_b:
        mine, other = ring_b, ring_a
    else:
        raise ConfigError(f"node {node_id} is on neither ring")
    entries = fabric_route_entries(address_map, node_id,
                                   TorusGeometry((len(mine),)), mine)
    entries.extend(entries_for(address_map, list(other), PortCode.S))
    return entries
