"""Composable route-table fabrics: rings generalized to 2D/3D torus.

The paper's PEACH2 ring (§III-D, Fig. 5) is the 1D case of a torus: each
dimension is a ring served by one (plus, minus) port pair, and a route
table is just the union of per-dimension comparator entries plus the
node's own port-N entry.  This module builds those tables composably —

    node set  ->  coordinate map  ->  per-dimension route entries

— with dimension-order routing (highest/slowest-varying dimension
corrected first) and detours that reuse the healing machinery: a broken
cable becomes a :class:`FabricCut`, and every ring that contains it
routes around the gap exactly the way PEARL's ring-to-chain comparator
reprogramming does (§III-A).

A ring sub-cluster is the 1D torus ``(n,)`` and a healed ring's chain
is that torus with one cut, so both are built here directly; each ring
of :func:`repro.tca.topology.dual_ring_route_entries` is a 1D table
too.

Port assignment per dimension (``DIM_PORTS``): dimension 0 uses E/W like
the paper's ring, dimension 1 uses S/T, dimension 2 uses U/D.  Entry
counts stay within the register file: a D-dimensional node needs at most
1 + 3·D comparators on the default path (each dimension's complement arc
splits into at most three contiguous node-id runs), so 2D fits the
paper's 8-entry table and 3D needs the deepened 16-entry table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.peach2.registers import PortCode, RouteEntry
from repro.tca.address_map import TCAAddressMap

#: (plus, minus) output-port pair serving each torus dimension.
DIM_PORTS: Tuple[Tuple[PortCode, PortCode], ...] = (
    (PortCode.E, PortCode.W),
    (PortCode.S, PortCode.T),
    (PortCode.U, PortCode.D),
)

#: Fabric dimensionality the port encoding supports.
MAX_DIMS = len(DIM_PORTS)

PLUS = 1
MINUS = -1

@dataclass(frozen=True)
class TorusGeometry:
    """A 1D/2D/3D torus shape with row-major coordinate arithmetic.

    Node index ``i`` maps to coordinates ``(x0, x1, x2)`` with dimension
    0 fastest-varying: ``i = x0 + n0*(x1 + n1*x2)`` — so the nodes of any
    dimension-d ring whose lower coordinates span their full ranges form
    contiguous index runs, which is what lets plain address-range
    comparators express torus routing.
    """

    extents: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "extents", tuple(int(n)
                                                  for n in self.extents))
        if not 1 <= len(self.extents) <= MAX_DIMS:
            raise ConfigError(
                f"torus needs 1..{MAX_DIMS} dimensions, got "
                f"{len(self.extents)}")
        # Extent 1 is degenerate (a dimension with no cables) but legal:
        # a 1-node "ring" arises when a coupled ring pairs two nodes.
        # Cabled fabrics (TCASubCluster) require every extent >= 2.
        if any(n < 1 for n in self.extents):
            raise ConfigError(
                f"every torus extent must be >= 1, got {self.extents}")

    @property
    def ndims(self) -> int:
        """Number of dimensions."""
        return len(self.extents)

    @property
    def num_nodes(self) -> int:
        """Total node count (product of extents)."""
        total = 1
        for extent in self.extents:
            total *= extent
        return total

    def coords_of(self, index: int) -> Tuple[int, ...]:
        """Row-major coordinates of node ``index``."""
        if not 0 <= index < self.num_nodes:
            raise ConfigError(f"node index {index} outside torus "
                              f"{self.extents}")
        coords = []
        for extent in self.extents:
            index, coord = divmod(index, extent)
            coords.append(coord)
        return tuple(coords)

    def index_of(self, coords: Sequence[int]) -> int:
        """Node index at ``coords`` (inverse of :meth:`coords_of`)."""
        if len(coords) != self.ndims:
            raise ConfigError(f"expected {self.ndims} coordinates, got "
                              f"{len(coords)}")
        index = 0
        for dim in reversed(range(self.ndims)):
            coord = coords[dim]
            if not 0 <= coord < self.extents[dim]:
                raise ConfigError(f"coordinate {coord} outside dimension "
                                  f"{dim} extent {self.extents[dim]}")
            index = index * self.extents[dim] + coord
        return index

    def ring_hops(self, dim: int, src_coord: int, dst_coord: int) -> int:
        """Shortest-path hops between two coordinates on a dim-d ring."""
        extent = self.extents[dim]
        plus = (dst_coord - src_coord) % extent
        minus = (src_coord - dst_coord) % extent
        return min(plus, minus)

    def path_hops(self, src_index: int, dst_index: int) -> int:
        """Dimension-order path length: sum of per-dimension ring hops."""
        src, dst = self.coords_of(src_index), self.coords_of(dst_index)
        return sum(self.ring_hops(dim, src[dim], dst[dim])
                   for dim in range(self.ndims))

    def neighbor(self, index: int, dim: int, step: int) -> int:
        """Index one cable away along ``dim`` (step +1 plus / -1 minus)."""
        if step not in (PLUS, MINUS):
            raise ConfigError("neighbor step must be +1 or -1")
        coords = list(self.coords_of(index))
        coords[dim] = (coords[dim] + step) % self.extents[dim]
        return self.index_of(coords)

    def rings(self, dim: int) -> List[Tuple[int, ...]]:
        """Every dim-d ring as a tuple of node indices in cable order.

        Position p's plus-direction cable reaches position p+1 (mod
        extent), mirroring :func:`ring_neighbor`'s convention.
        """
        if not 0 <= dim < self.ndims:
            raise ConfigError(f"dimension {dim} outside torus "
                              f"{self.extents}")
        rings = []
        for start in range(self.num_nodes):
            if self.coords_of(start)[dim] != 0:
                continue
            ring = [start]
            for _ in range(self.extents[dim] - 1):
                ring.append(self.neighbor(ring[-1], dim, PLUS))
            rings.append(tuple(ring))
        return rings


@dataclass(frozen=True)
class FabricCut:
    """One broken cable: ``plus_of``'s plus-direction link on ``dim``.

    The healing machinery maps a failed cable to the node on its minus
    side; every ring containing that link then routes around the gap
    (ring-to-chain reprogramming, generalized per dimension).
    """

    dim: int
    plus_of: int


def coordinate_map(geometry: TorusGeometry,
                   nodes: Sequence[int]) -> Dict[int, Tuple[int, ...]]:
    """Assign torus coordinates to a node set, in the order given.

    ``nodes[i]`` sits at ``geometry.coords_of(i)`` — for 1D this is
    the ring's cable order: ``nodes[p]``'s East cable reaches
    ``nodes[p + 1]``.
    """
    if len(nodes) != geometry.num_nodes:
        raise ConfigError(
            f"torus {geometry.extents} needs {geometry.num_nodes} nodes, "
            f"got {len(nodes)}")
    if len(set(nodes)) != len(nodes):
        raise ConfigError("duplicate node ids in the fabric")
    return {node_id: geometry.coords_of(position)
            for position, node_id in enumerate(nodes)}


def ring_arc(extent: int, src_coord: int, dst_coord: int,
             cut_coord: Optional[int] = None) -> int:
    """Travel direction on one dimension's ring: ``PLUS`` or ``MINUS``.

    Without a cut this is shortest-path with the documented tie-break:
    at exactly extent/2 hops the plus direction wins (E before W, S
    before T, U before D), matching :func:`ring_direction`.  With a cut
    the direction that would cross the broken cable is forbidden, which
    reproduces chain routing on the surviving arc.
    """
    if dst_coord == src_coord:
        raise ConfigError("ring arc needs distinct coordinates")
    plus = (dst_coord - src_coord) % extent
    minus = (src_coord - dst_coord) % extent
    if cut_coord is not None:
        if (cut_coord - src_coord) % extent < plus:
            return MINUS        # plus walk would cross the broken cable
        if (src_coord - cut_coord - 1) % extent < minus:
            return PLUS         # minus walk would cross it
    return PLUS if plus <= minus else MINUS


def _runs(sorted_ids: Sequence[int]) -> List[Tuple[int, int]]:
    """Collapse sorted node ids into inclusive (first, last) runs."""
    runs: List[Tuple[int, int]] = []
    for node_id in sorted_ids:
        if runs and node_id == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], node_id)
        else:
            runs.append((node_id, node_id))
    return runs


def entries_for(address_map: TCAAddressMap, ids: Sequence[int],
                port: PortCode) -> List[RouteEntry]:
    """One §III-E comparator per contiguous node-id run, all -> ``port``."""
    mask = address_map.node_mask()
    entries = []
    for first, last in _runs(sorted(ids)):
        entries.append(RouteEntry(
            mask=mask,
            lower=address_map.node_region(first).base,
            upper=address_map.node_region(last).base,
            port=port))
    return entries


def fabric_route_entries(address_map: TCAAddressMap, node_id: int,
                         geometry: TorusGeometry, nodes: Sequence[int],
                         cuts: Iterable[FabricCut] = (),
                         ) -> List[RouteEntry]:
    """Dimension-order route table for one node of a torus fabric.

    The node's own region (-> port N) comes first, then each dimension's
    plus- and minus-direction entries in dimension order.  A packet is
    claimed by the highest dimension whose coordinate still differs from
    the local node's, so every hop strictly corrects one dimension and
    the path length equals the sum of per-dimension ring hops.

    ``cuts`` lists broken cables; rings containing one detour around it
    via :func:`ring_arc`, the same chain routing the 1D healing path
    programs.
    """
    coords = coordinate_map(geometry, nodes)
    if node_id not in coords:
        raise ConfigError(f"node {node_id} is not in the fabric")
    mine = coords[node_id]

    # A cut matters to this node's table only when the broken cable lies
    # on one of its own rings (all coordinates equal except the cut dim).
    my_cuts: Dict[int, int] = {}
    for cut in cuts:
        if not 0 <= cut.dim < geometry.ndims:
            raise ConfigError(f"cut dimension {cut.dim} outside torus "
                              f"{geometry.extents}")
        if cut.plus_of not in coords:
            raise ConfigError(f"cut names node {cut.plus_of}, which is "
                              f"not in the fabric")
        there = coords[cut.plus_of]
        if all(there[d] == mine[d] for d in range(geometry.ndims)
               if d != cut.dim):
            if cut.dim in my_cuts and my_cuts[cut.dim] != there[cut.dim]:
                raise ConfigError(
                    f"two cuts on one dimension-{cut.dim} ring: the "
                    f"fabric is partitioned")
            my_cuts[cut.dim] = there[cut.dim]

    entries = entries_for(address_map, [node_id], PortCode.N)
    for dim in range(geometry.ndims):
        plus_ids: List[int] = []
        minus_ids: List[int] = []
        for other_id, there in coords.items():
            if other_id == node_id:
                continue
            if any(there[d] != mine[d]
                   for d in range(dim + 1, geometry.ndims)):
                continue        # a higher dimension claims this packet
            if there[dim] == mine[dim]:
                continue        # a lower dimension claims it
            arc = ring_arc(geometry.extents[dim], mine[dim], there[dim],
                           my_cuts.get(dim))
            (plus_ids if arc == PLUS else minus_ids).append(other_id)
        plus_port, minus_port = DIM_PORTS[dim]
        entries.extend(entries_for(address_map, plus_ids, plus_port))
        entries.extend(entries_for(address_map, minus_ids, minus_port))
    return entries
