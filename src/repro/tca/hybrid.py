"""The hierarchical HA-PACS/TCA network: TCA locally, InfiniBand globally.

§II-B: "HA-PACS/TCA can use a hierarchical network that incorporates TCA
interconnect for local communication with low latency and InfiniBand for
global communication with high bandwidth", and §VI describes the planned
production system: several dozen nodes, each with four GPUs, an
InfiniBand host adaptor *and* a PEACH2 board.

:class:`HybridCluster` builds that machine — several TCA sub-clusters
whose nodes also carry IB HCAs on a shared switched fabric — and
:class:`HybridComm` gives it one address-based API: a put between nodes
of the same sub-cluster rides the PCIe ring; a put across sub-clusters
rides MPI over InfiniBand.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.fabric import SwitchedFabric, SwitchedHca
from repro.baselines.ib import IBParams, QDR_PARAMS
from repro.baselines.mpi import MPIParams, MPIWorld
from repro.cuda.runtime import CudaContext
from repro.drivers.p2p_driver import P2PDriver
from repro.errors import ConfigError
from repro.hw.node import ComputeNode, NodeParams
from repro.pcie.gen import PCIeGen
from repro.peach2.board import PEACH2Board
from repro.peach2.chip import PEACH2Params
from repro.sim.core import Engine
from repro.tca.comm import TCAComm
from repro.tca.fabric import TorusGeometry
from repro.tca.subcluster import RING, TCASubCluster


class HybridCluster:
    """Several TCA sub-clusters joined by a switched InfiniBand fabric."""

    def __init__(self, num_subclusters: int = 2, nodes_per_subcluster: int = 4,
                 node_params: NodeParams = NodeParams(num_gpus=2),
                 peach2_params: PEACH2Params = PEACH2Params(),
                 ib_params: IBParams = QDR_PARAMS,
                 mpi_params: MPIParams = MPIParams()):
        if num_subclusters < 1:
            raise ConfigError("need at least one sub-cluster")
        self.engine = Engine()
        self.hub = SwitchedFabric(self.engine, ib_params)
        self.subclusters: List[TCASubCluster] = []
        self.hcas: List[SwitchedHca] = []
        self.world = MPIWorld(mpi_params)
        self.ranks = []

        for s in range(num_subclusters):
            # Build each sub-cluster's nodes by hand so the IB HCA can be
            # installed in the same slot-scan as the PEACH2 board.
            sub = _SubClusterWithHcas(self.engine, nodes_per_subcluster,
                                      node_params, peach2_params, ib_params,
                                      self.hub, prefix=f"sc{s}")
            self.subclusters.append(sub.cluster)
            for node, hca in zip(sub.cluster.nodes, sub.hcas):
                self.hcas.append(hca)
                self.ranks.append(self.world.add_endpoint(node, hca))

        self.nodes_per_subcluster = nodes_per_subcluster

    # -- addressing -----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total node count across sub-clusters."""
        return len(self.ranks)

    def locate(self, global_rank: int) -> Tuple[int, int]:
        """(sub-cluster index, local node id) of a global rank."""
        if not 0 <= global_rank < self.num_nodes:
            raise ConfigError(f"rank {global_rank} out of range")
        return divmod(global_rank, self.nodes_per_subcluster)

    def node(self, global_rank: int) -> ComputeNode:
        """Node by global rank."""
        sub, local = self.locate(global_rank)
        return self.subclusters[sub].node(local)


class _SubClusterWithHcas:
    """Helper: a TCASubCluster whose nodes also carry switched HCAs."""

    def __init__(self, engine, n, node_params, peach2_params, ib_params,
                 hub, prefix):
        # TCASubCluster builds nodes itself; we need HCAs installed before
        # enumeration, so build the ring's nodes here and let the
        # sub-cluster assemble the fabric from them.
        self.hcas: List[SwitchedHca] = []
        cluster = TCASubCluster.__new__(TCASubCluster)
        cluster.engine = engine
        cluster.topology = RING
        cluster.geometry = TorusGeometry((n,))
        cluster.nodes = []
        cluster.boards = []
        cluster.cuda = []
        cluster.p2p = P2PDriver()
        for i in range(n):
            node = ComputeNode(engine, f"{prefix}.node{i}", node_params)
            board = PEACH2Board(engine, f"{prefix}.node{i}.peach2",
                                peach2_params)
            node.install_adapter(board, lanes=8)
            hca = SwitchedHca(engine, f"{prefix}.node{i}.hca", ib_params,
                              hub)
            node.install_adapter(hca, lanes=8, gen=PCIeGen.GEN3)
            node.enumerate()
            cluster.nodes.append(node)
            cluster.boards.append(board)
            cluster.cuda.append(CudaContext(node))
            self.hcas.append(hca)
        cluster._assemble()
        self.cluster = cluster


class HybridComm:
    """One put API over the hierarchical network.

    ``put(src_rank, dst_rank, ...)`` picks the transport: same sub-cluster
    means a TCA DMA put over the ring; different sub-clusters means MPI
    over the InfiniBand fabric (host staging buffers on both sides).
    """

    #: Local messages at or below this ride PIO (see E16's crossover).
    PIO_THRESHOLD = 2048

    def __init__(self, cluster: HybridCluster):
        self.cluster = cluster
        self.engine = cluster.engine
        self.tca = [TCAComm(sub) for sub in cluster.subclusters]
        self.puts_via_tca = 0
        self.puts_via_ib = 0
        # Completion-flag words in each node's DRAM (outside the DMA
        # buffers) for the PIO fast path.
        self._flag_addr = [node.dram_alloc(4096)
                           for node in (cluster.node(r)
                                        for r in range(cluster.num_nodes))]
        self._flag_seq = 0

    def put(self, src_rank: int, dst_rank: int, src_offset: int,
            dst_offset: int, nbytes: int, tag: int = 0):
        """Process: move DMA-buffer bytes between two global ranks.

        Returns the transport used ("tca" or "ib").
        """
        src_sub, src_local = self.cluster.locate(src_rank)
        dst_sub, dst_local = self.cluster.locate(dst_rank)
        src_cluster = self.cluster.subclusters[src_sub]
        dst_cluster = self.cluster.subclusters[dst_sub]
        src_bus = src_cluster.driver(src_local).dma_buffer(src_offset)
        dst_bus = dst_cluster.driver(dst_local).dma_buffer(dst_offset)

        if src_sub == dst_sub:
            self.puts_via_tca += 1
            comm = self.tca[src_sub]
            dst_global = comm.host_global(dst_local, dst_bus)
            if nbytes <= self.PIO_THRESHOLD:
                # PIO fast path: stream the payload, store a flag behind
                # it (PCIe ordering), complete when the flag lands.
                self._flag_seq += 1
                flag_value = self._flag_seq
                flag_bus = self._flag_addr[dst_rank]
                flag_global = comm.host_global(dst_local, flag_bus)
                data = src_cluster.node(src_local).dram.cpu_read(
                    src_bus, nbytes)
                yield self.engine.process(
                    comm.put_pio_timed(src_local, dst_global, data))
                src_cluster.node(src_local).cpu.store_u32(
                    flag_global, flag_value)
                dst_dram = dst_cluster.node(dst_local).dram
                while True:
                    word = dst_dram.cpu_read(flag_bus, 4)
                    if int.from_bytes(word.tobytes(),
                                      "little") == flag_value:
                        break
                    yield 20_000  # driver poll cadence
                return "tca"
            yield self.engine.process(
                comm.put_dma(src_local, src_bus, dst_global, nbytes))
            return "tca"

        self.puts_via_ib += 1
        recv = self.cluster.ranks[dst_rank].irecv(
            src_rank, dst_bus, nbytes, tag)
        self.cluster.ranks[src_rank].isend(dst_rank, src_bus, nbytes, tag)
        yield recv
        return "ib"
