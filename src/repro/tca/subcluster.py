"""Sub-cluster assembly: nodes, boards, cables, and register programming.

Builds an 8-16-node (or smaller, for tests) TCA sub-cluster:

1. one :class:`~repro.hw.node.ComputeNode` per member, each with a
   :class:`~repro.peach2.board.PEACH2Board` in a socket-0 slot;
2. E->W cables closing the ring (and S cables pairing two rings when a
   coupled topology is requested), matching §III-D's fixed port roles;
3. identical BIOS enumeration everywhere, so the TCA window lands at the
   same bus address on every node and "the address offset information for
   each node can be commonly shared" (§III-E);
4. per-node register programming: identity, block translation bases, and
   the Fig. 5 comparator tables.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.cuda.runtime import CudaContext, CudaParams
from repro.drivers.p2p_driver import P2PDriver
from repro.drivers.peach2_driver import PEACH2Driver
from repro.errors import ConfigError
from repro.hw.node import ComputeNode, NodeParams
from repro.peach2.board import PEACH2Board
from repro.peach2.chip import PEACH2Params
from repro.peach2.registers import (BLOCK_GPU0, BLOCK_GPU1, BLOCK_HOST,
                                    BLOCK_INTERNAL, MAX_ROUTE_ENTRIES,
                                    RouteEntry)
from repro.pcie.port import PortRole
from repro.sim.core import Engine
from repro.tca.address_map import TCAAddressMap
from repro.tca.fabric import FabricCut, TorusGeometry, fabric_route_entries
from repro.tca.topology import dual_ring_route_entries

RING = "ring"
DUAL_RING = "dual-ring"
TORUS = "torus"

#: Largest fabric one 512-GB window supports with power-of-two node
#: regions the comparators can mask (8-GiB slots at 64 nodes).
MAX_TORUS_NODES = 64


def _node_slots(num_nodes: int) -> int:
    """Window slot count: the Fig. 4 default of 16, doubled as needed."""
    slots = 16
    while slots < num_nodes:
        slots *= 2
    return slots


class TCASubCluster:
    """A running TCA sub-cluster on one simulation engine."""

    def __init__(self, num_nodes: int, topology: str = RING,
                 engine: Optional[Engine] = None,
                 node_params: NodeParams = NodeParams(),
                 peach2_params: PEACH2Params = PEACH2Params(),
                 cuda_params: CudaParams = CudaParams(),
                 extents: Optional[Sequence[int]] = None):
        if num_nodes < 2:
            raise ConfigError("a sub-cluster needs at least two nodes")
        if topology not in (RING, DUAL_RING, TORUS):
            raise ConfigError(f"unknown topology {topology!r}")
        if topology == DUAL_RING and num_nodes % 2:
            raise ConfigError("a dual ring needs an even node count")
        #: The fabric's torus shape: a ring is the 1D torus ``(n,)``.  A
        #: dual ring has none (its S-coupled columns are no torus
        #: dimension).
        self.geometry: Optional[TorusGeometry] = None
        if topology == TORUS:
            if extents is None:
                raise ConfigError(
                    "a torus needs explicit extents, e.g. extents=(4, 4)")
            self.geometry = TorusGeometry(tuple(extents))
            if any(extent < 2 for extent in self.geometry.extents):
                raise ConfigError(
                    "every cabled torus dimension needs extent >= 2 "
                    f"(got {self.geometry.extents})")
            if self.geometry.num_nodes != num_nodes:
                raise ConfigError(
                    f"extents {self.geometry.extents} hold "
                    f"{self.geometry.num_nodes} nodes, not {num_nodes}")
            if num_nodes > MAX_TORUS_NODES:
                raise ConfigError(
                    f"torus fabrics top out at {MAX_TORUS_NODES} nodes "
                    "(8-GiB node regions in the 512-GB window)")
            # Torus chips need the per-dimension ports (>= 2D) and the
            # deepened comparator table (3D: up to 1 + 3*3 entries).
            if self.geometry.ndims >= 2 and not peach2_params.torus_ports:
                peach2_params = replace(peach2_params, torus_ports=True)
            if (self.geometry.ndims == 3
                    and peach2_params.num_route_entries < MAX_ROUTE_ENTRIES):
                peach2_params = replace(peach2_params,
                                        num_route_entries=MAX_ROUTE_ENTRIES)
        elif extents is not None:
            raise ConfigError("extents only apply to the torus topology")
        if topology == DUAL_RING and num_nodes > 16:
            raise ConfigError(
                "the paper's coupled rings top out at 16 nodes (§II-B); "
                "larger fabrics need the torus topology")
        if topology == RING:
            if num_nodes > MAX_TORUS_NODES:
                raise ConfigError(
                    f"ring sub-clusters top out at {MAX_TORUS_NODES} nodes "
                    "(8-GiB node regions in the 512-GB window); the paper "
                    "sizes them at 8-16 (§II-B)")
            self.geometry = TorusGeometry((num_nodes,))

        self.engine = engine or Engine()
        self.topology = topology
        self.nodes: List[ComputeNode] = []
        self.boards: List[PEACH2Board] = []
        self.drivers: List[PEACH2Driver] = []
        self.cuda: List[CudaContext] = []
        self.p2p = P2PDriver()

        for i in range(num_nodes):
            node = ComputeNode(self.engine, f"node{i}", node_params)
            board = PEACH2Board(self.engine, f"node{i}.peach2", peach2_params)
            node.install_adapter(board, lanes=8)
            node.enumerate()
            self.nodes.append(node)
            self.boards.append(board)
            self.cuda.append(CudaContext(node, cuda_params))
        self._assemble()

    # -- construction helpers ---------------------------------------------------

    def _assemble(self) -> None:
        """Join the enumerated nodes into a running fabric.

        Everything after BIOS enumeration: the shared address map,
        cabling, register programming, drivers, the NIOS baseline scan,
        heal accounting and the fault-injector attach.
        :class:`~repro.tca.hybrid.HybridCluster` builds its nodes itself
        (an IB HCA rides in the same slot scan) and then calls this.
        """
        bases = {board.chip.bar4.base for board in self.boards}
        if len(bases) != 1:
            raise ConfigError("BIOS gave nodes different TCA windows; the "
                              "shared map needs identical enumeration")
        window = self.boards[0].chip.bar4.size
        # Fig. 4's default 16 x 32-GiB split, halved (power-of-two node
        # regions, so comparators still match upper bits only) until the
        # fabric fits; sub-16-node clusters keep the paper's geometry.
        stride = window // _node_slots(len(self.nodes))
        self.address_map = TCAAddressMap(bases.pop(), window_bytes=window,
                                         node_stride=stride,
                                         block_size=stride // 4)

        self._cable()
        self._program_registers()
        self.drivers = [PEACH2Driver(node, board)
                        for node, board in zip(self.nodes, self.boards)]
        # Baseline NIOS link scan, so later failures log as transitions.
        for board in self.boards:
            board.chip.firmware.scan_links()
        # Healing/recovery accounting.
        self.heals_completed = 0
        self.last_heal_chain: Optional[List[int]] = None
        self.last_time_to_heal_ps: Optional[int] = None
        self._healed_links: set = set()
        # A fault injector armed before construction sees our fabric links.
        if self.engine.faults is not None:
            self.engine.faults.attach_cluster(self)

    def _cable(self) -> None:
        self._fabric_cables = []  # (dim, plus_node, minus_node, link)
        if self.geometry is not None:
            # Dimension-0 rings are the fabric's E/W rings; higher
            # dimensions cable S->T and U->D the same plus->minus way.
            self._rings = [list(ring) for ring in self.geometry.rings(0)]
            for dim in range(self.geometry.ndims):
                for ring in self.geometry.rings(dim):
                    size = len(ring)
                    for pos in range(size):
                        i, j = ring[pos], ring[(pos + 1) % size]
                        link = self.boards[i].cable_dim_to(
                            dim, self.boards[j])
                        self._fabric_cables.append((dim, i, j, link))
            return
        n = len(self.boards)
        half = n // 2
        self._rings = [list(range(half)), list(range(half, n))]
        for ring in self._rings:
            size = len(ring)
            for pos in range(size):
                self.boards[ring[pos]].cable_east_to(
                    self.boards[ring[(pos + 1) % size]])
        # Complementary S-port configuration images: ring A keeps the
        # factory EP image, ring B is reloaded as RC, then columns pair up.
        for a, b in zip(self._rings[0], self._rings[1]):
            self.boards[b].chip.reconfigure_port_s(PortRole.RC)
            self.boards[a].cable_south_to(self.boards[b])

    def _program_registers(self) -> None:
        for node_id, (node, board) in enumerate(zip(self.nodes, self.boards)):
            regs = board.chip.regs
            regs.set_identity(node_id, self.address_map.base,
                              self.address_map.node_stride,
                              self.address_map.block_size)
            # Port-N translation bases (Fig. 4 blocks -> local addresses).
            if len(node.gpus) > 0:
                regs.set_block_base(BLOCK_GPU0, node.gpus[0].bar1.base)
            if len(node.gpus) > 1:
                regs.set_block_base(BLOCK_GPU1, node.gpus[1].bar1.base)
            regs.set_block_base(BLOCK_HOST, 0)  # DRAM starts at bus 0
            regs.set_block_base(BLOCK_INTERNAL, board.chip.bar2.base)
        self._write_routes(self._route_tables())

    def _route_tables(self, cuts: Sequence[FabricCut] = ()
                      ) -> List[List[RouteEntry]]:
        """Every node's comparator table, around ``cuts`` if any."""
        nodes = list(range(self.num_nodes))
        if self.geometry is None:
            ring_a, ring_b = self._rings
            return [dual_ring_route_entries(self.address_map, node_id,
                                            ring_a, ring_b)
                    for node_id in nodes]
        return [fabric_route_entries(self.address_map, node_id,
                                     self.geometry, nodes, cuts=cuts)
                for node_id in nodes]

    def _write_routes(self, tables: Sequence[List[RouteEntry]]) -> None:
        """Program every node's table, or none if one does not fit."""
        for node_id, entries in enumerate(tables):
            regs = self.boards[node_id].chip.regs
            if len(entries) > regs.num_route_entries:
                raise ConfigError(
                    f"node {node_id} needs {len(entries)} comparators but "
                    f"the chip has {regs.num_route_entries}")
        for node_id, entries in enumerate(tables):
            regs = self.boards[node_id].chip.regs
            for index in range(regs.num_route_entries):
                regs.set_route(index, entries[index]
                               if index < len(entries) else None)

    # -- accessors -----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Sub-cluster size."""
        return len(self.nodes)

    def node(self, node_id: int) -> ComputeNode:
        """Member node by id."""
        return self.nodes[node_id]

    def board(self, node_id: int) -> PEACH2Board:
        """PEACH2 board of a node."""
        return self.boards[node_id]

    def driver(self, node_id: int) -> PEACH2Driver:
        """PEACH2 driver instance of a node."""
        return self.drivers[node_id]

    def rings(self) -> List[List[int]]:
        """Node ids of each ring, in cable order.

        For a torus these are the dimension-0 (E/W) rings.
        """
        return [list(ring) for ring in self._rings]

    def fabric_cables(self) -> List[Tuple[int, int, int]]:
        """(dim, plus_node, minus_node) of every fabric cable."""
        return [(dim, a, b) for dim, a, b, _ in self._fabric_cables]

    # -- PEARL reliability: survive a cable failure per ring ---------------

    def cut_ring_cable(self, east_node: int, force: bool = False) -> None:
        """Unplug the cable from ``east_node``'s E port (fault injection):
        :meth:`cut_fabric_cable` on dimension 0."""
        self.cut_fabric_cable(0, east_node, force)

    def cut_fabric_cable(self, dim: int, plus_node: int,
                         force: bool = False) -> None:
        """Unplug the plus-direction cable of one fabric dimension.

        PEARL heals one failure per ring (§III-A): a second cut while
        another cable of the *same ring* is still down would partition
        that ring, so it is rejected with :class:`ConfigError` unless
        ``force=True`` models the partition deliberately.  Cuts on
        different rings can each be healed independently.
        """
        for cable_dim, a, _, link in self._fabric_cables:
            if cable_dim == dim and a == plus_node:
                break
        else:
            raise ConfigError(f"no dimension-{dim} cable leaves node "
                              f"{plus_node}'s plus port")
        if not link.up:
            raise ConfigError(
                f"the dimension-{dim} cable off node {plus_node} is "
                "already down")
        if not force:
            ring = next(r for r in self.geometry.rings(dim)
                        if plus_node in r)
            for cable_dim, a, _, other in self._fabric_cables:
                if cable_dim == dim and a in ring and not other.up:
                    raise ConfigError(
                        f"cable {other.name} is already down; cutting "
                        f"another on its dimension-{dim} ring would "
                        "partition it (PEARL survives one cable failure "
                        "per ring, §III-A) — pass force=True to model the "
                        "partition deliberately")
        link.take_down()

    def heal(self) -> Union[List[int], List[FabricCut]]:
        """Reroute around every down fabric cable (§III-A's PEARL
        reliability, per ring): each ring holding a broken cable
        degrades to a chain in its dimension, and every node's
        comparators are reprogrammed for the surviving directions.

        Uses the NIOS firmware's link scan to find the failures.  Every
        table is computed before any is written, so a heal that finds a
        partitioned ring (two cuts on it) raises and leaves every route
        register as it was.  On a ring this returns the surviving chain
        order (West end first, also kept as ``last_heal_chain``); on a
        torus it returns the applied cuts, one :class:`FabricCut` per
        down cable.
        """
        if self.geometry is None:
            raise ConfigError(
                "healing is implemented for single rings and torus fabrics")
        for board in self.boards:
            board.chip.firmware.scan_links()
        down = [(dim, a, link)
                for dim, a, _, link in self._fabric_cables if not link.up]
        if not down:
            raise ConfigError("no failed cable found")
        cuts = [FabricCut(dim=dim, plus_of=a) for dim, a, _ in down]
        self._write_routes(self._route_tables(cuts))
        self.heals_completed += 1
        self.last_heal_chain = None
        if self.geometry.ndims == 1:
            # The chain runs W->E from the node whose W cable died.
            n = self.num_nodes
            self.last_heal_chain = [(cuts[0].plus_of + 1 + k) % n
                                    for k in range(n)]
        dead_link = down[0][2]
        if dead_link.down_since_ps is not None:
            self.last_time_to_heal_ps = (self.engine.now_ps
                                         - dead_link.down_since_ps)
        if self.engine.tracer is not None:
            self.engine.trace(
                "tca", "heal", ",".join(link.name for _, _, link in down),
                ",".join(f"d{cut.dim}+{cut.plus_of}" for cut in cuts))
        if self.engine.metrics is not None:
            metrics = self.engine.metrics
            metrics.counter("tca.reroutes").inc()
            if self.last_time_to_heal_ps is not None:
                metrics.histogram("tca.time_to_heal_ns").observe(
                    self.last_time_to_heal_ps / 1000.0)
        return cuts if self.last_heal_chain is None else self.last_heal_chain

    # -- firmware-driven auto-heal --------------------------------------------

    def enable_auto_heal(self, interval_ps: Optional[int] = None) -> None:
        """Start every board's NIOS watchdog, wired to :meth:`heal`.

        When any firmware instance detects a dead ring cable, the
        sub-cluster reroutes automatically.  Both endpoint chips see the
        same failure; the first report wins and the second is ignored.
        """
        for board in self.boards:
            board.chip.firmware.start_watchdog(
                interval_ps, on_ring_down=self._on_ring_down)

    def disable_auto_heal(self) -> None:
        """Stop the watchdogs (required before draining the engine)."""
        for board in self.boards:
            board.chip.firmware.stop_watchdog()

    def _on_ring_down(self, chip, link) -> None:
        if link.name in self._healed_links:
            return
        self._healed_links.add(link.name)
        self.heal()
