"""Route-register generation for ring and coupled-ring topologies (Fig. 5).

Given the shared address map and a node's position, these functions emit
the §III-E comparator entries (mask / lower / upper / port) that steer
every other node's region out of the right port.  Shortest-path routing on
the ring; ties (the antipodal node of an even ring) break toward E.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigError
from repro.peach2.registers import PortCode, RouteEntry
from repro.tca.address_map import TCAAddressMap
from repro.tca.fabric import (FabricCut, TorusGeometry, entries_for,
                              fabric_route_entries)


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
    accident: the comparator tables :func:`ring_route_entries` programs
    make the same choice, so a put and its trailing flag store always
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


def ring_route_entries(address_map: TCAAddressMap, node_id: int,
                       ring_ids: Sequence[int]) -> List[RouteEntry]:
    """Route entries for one node of a single E/W ring.

    ``ring_ids`` lists node ids in ring order: position p's East cable
    reaches position p+1.  Entries are checked in order, so the node's own
    region (-> port N) comes first, exactly like Fig. 5's per-node tables.

    A ring is the 1D torus:  this delegates to
    :func:`repro.tca.fabric.fabric_route_entries`.
    """
    if node_id not in ring_ids:
        raise ConfigError(f"node {node_id} is not on this ring")
    if len(set(ring_ids)) != len(ring_ids):
        raise ConfigError("duplicate node ids on the ring")
    geometry = TorusGeometry((len(ring_ids),))
    return fabric_route_entries(address_map, node_id, geometry, ring_ids)


def chain_route_entries(address_map: TCAAddressMap, node_id: int,
                        chain_ids: Sequence[int]) -> List[RouteEntry]:
    """Route entries for a *chain* — a ring with one cable missing.

    PEARL's reliability story (§III-A): when a ring cable fails, the
    management plane reprograms the comparators so all traffic takes the
    surviving direction.  ``chain_ids`` lists the nodes from the West end
    to the East end of the surviving path.

    A chain is the 1D torus with one :class:`FabricCut` — the cable out
    of the East end's plus port — so this delegates to the fabric
    builder's detour machinery.
    """
    if node_id not in chain_ids:
        raise ConfigError(f"node {node_id} is not on this chain")
    if len(set(chain_ids)) != len(chain_ids):
        raise ConfigError("duplicate node ids on the chain")
    geometry = TorusGeometry((len(chain_ids),))
    cut = FabricCut(dim=0, plus_of=chain_ids[-1])
    return fabric_route_entries(address_map, node_id, geometry, chain_ids,
                                cuts=(cut,))


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
    entries = ring_route_entries(address_map, node_id, mine)
    entries.extend(entries_for(address_map, list(other), PortCode.S))
    return entries
