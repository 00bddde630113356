"""End-to-end communication paths for the motivation experiment (E10).

Each path measures the same thing: move N bytes from a source buffer on
node 0 to a destination buffer on node 1 and observe the destination's
*last byte* (a polling observer with identical cost on every path), so
latencies and bandwidths are directly comparable across:

* ``TCAPIOPath``       — TCA PIO stores, host-to-host (§III-F1);
* ``TCADMAPath``       — TCA chained DMA put (host or GPU endpoints);
* ``VerbsPath``        — raw IB RDMA write, host-to-host;
* ``ConventionalPath`` — GPU-GPU via cudaMemcpy D2H + MPI + H2D (§I's
  three-copy path), optionally chunk-pipelined;
* ``GDRPath``          — GPU-GPU via MPI whose HCA reads/writes pinned
  GPU BARs directly (IB + GPUDirect RDMA, §V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.ib import IBLink, IBParams, QDR_PARAMS, install_hca
from repro.baselines.mpi import MPIParams, MPIWorld
from repro.cuda.pointer import CU_POINTER_ATTRIBUTE_P2P_TOKENS
from repro.cuda.runtime import CudaContext
from repro.drivers.p2p_driver import P2PDriver
from repro.errors import ConfigError
from repro.hw.node import ComputeNode, NodeParams
from repro.sim.core import Engine
from repro.tca.comm import TCAComm
from repro.tca.subcluster import TCASubCluster
from repro.units import KiB, MiB, bw_gbytes_per_s, ns


@dataclass(frozen=True)
class PathResult:
    """One measurement: elapsed time and derived bandwidth."""

    path: str
    nbytes: int
    elapsed_ps: int

    @property
    def latency_us(self) -> float:
        """End-to-end time in microseconds."""
        return self.elapsed_ps / 1e6

    @property
    def bandwidth_gbytes(self) -> float:
        """Payload bandwidth in Gbytes/s."""
        return bw_gbytes_per_s(self.nbytes, self.elapsed_ps)


def _observe_destination(engine: Engine, read_last_byte, expect: int,
                         poll_ps: int = ns(50)):
    """Poll until the destination's final byte holds ``expect``."""
    while True:
        if read_last_byte() == expect:
            return engine.now_ps
        yield poll_ps


def _payload(nbytes: int) -> np.ndarray:
    data = np.arange(nbytes, dtype=np.int64) % 251
    out = data.astype(np.uint8)
    out[-1] = 0xA5  # sentinel the observer polls for
    return out


class _IBPair:
    """Two nodes with HCAs, an IB cable, MPI ranks and CUDA contexts."""

    def __init__(self, ib_params: IBParams = QDR_PARAMS,
                 mpi_params: MPIParams = MPIParams(),
                 node_params: NodeParams = NodeParams(num_gpus=1)):
        self.engine = Engine()
        self.nodes = [ComputeNode(self.engine, f"ib{i}", node_params)
                      for i in range(2)]
        self.hcas = [install_hca(node, ib_params) for node in self.nodes]
        for node in self.nodes:
            node.enumerate()
        self.link = IBLink(self.engine, self.hcas[0], self.hcas[1],
                           ib_params)
        self.world = MPIWorld(mpi_params)
        self.ranks = [self.world.add_endpoint(node, hca)
                      for node, hca in zip(self.nodes, self.hcas)]
        self.cuda = [CudaContext(node) for node in self.nodes]
        self.p2p = P2PDriver()
        # Per-node staging/user buffers in DRAM.
        self.host_buffers = [node.dram_alloc(16 * MiB)
                             for node in self.nodes]


class VerbsPath:
    """Raw IB RDMA write, host DRAM to host DRAM.

    ``dual_rail=True`` uses the base cluster's dual-port QDR striping
    (~8 Gbytes/s aggregate, Table I).
    """

    def __init__(self, dual_rail: bool = False):
        self.dual_rail = dual_rail
        self.name = "ib-verbs-dual" if dual_rail else "ib-verbs"

    def transfer(self, nbytes: int) -> PathResult:
        """Run one transfer on a fresh pair."""
        from repro.baselines.ib import QDR_DUAL_PARAMS

        pair = _IBPair(ib_params=QDR_DUAL_PARAMS) if self.dual_rail \
            else _IBPair()
        engine = pair.engine
        data = _payload(nbytes)
        src, dst = pair.host_buffers
        pair.nodes[0].dram.cpu_write(src, data)
        start = engine.now_ps
        inline = data if nbytes <= pair.hcas[0].params.inline_threshold \
            else None
        pair.hcas[0].rdma_write(src, dst, nbytes, inline_data=inline)
        dram = pair.nodes[1].dram
        end = engine.run_process(_observe_destination(
            engine, lambda: int(dram.cpu_read(dst + nbytes - 1, 1)[0]),
            0xA5), name="observe")
        return PathResult(self.name, nbytes, end - start)


class MPIHostPath:
    """MPI send/recv between host buffers (eager/rendezvous as sized)."""

    name = "mpi-ib"

    def transfer(self, nbytes: int) -> PathResult:
        """One MPI send/recv on a fresh pair, destination-observed."""
        pair = _IBPair()
        engine = pair.engine
        data = _payload(nbytes)
        src, dst = pair.host_buffers
        pair.nodes[0].dram.cpu_write(src, data)
        start = engine.now_ps
        pair.ranks[1].irecv(0, dst, nbytes)
        pair.ranks[0].isend(1, src, nbytes)
        dram = pair.nodes[1].dram
        end = engine.run_process(_observe_destination(
            engine, lambda: int(dram.cpu_read(dst + nbytes - 1, 1)[0]),
            0xA5), name="observe")
        return PathResult(self.name, nbytes, end - start)


class ConventionalPath:
    """The §I three-copy GPU path: D2H, MPI host-host, H2D.

    ``chunk_bytes`` enables the MVAPICH-style pipeline that overlaps the
    three stages for large messages.
    """

    def __init__(self, chunk_bytes: Optional[int] = None):
        self.chunk_bytes = chunk_bytes
        self.name = ("gpu-mpi-pipelined" if chunk_bytes
                     else "gpu-mpi-3copy")

    def transfer(self, nbytes: int) -> PathResult:
        """One three-copy GPU-to-GPU transfer, destination-observed."""
        pair = _IBPair()
        engine = pair.engine
        data = _payload(nbytes)
        src_gpu = pair.cuda[0].cu_mem_alloc(0, nbytes)
        dst_gpu = pair.cuda[1].cu_mem_alloc(0, nbytes)
        pair.cuda[0].upload(src_gpu, data)
        src_host, dst_host = pair.host_buffers
        chunk = self.chunk_bytes or nbytes

        def sender():
            moved = 0
            while moved < nbytes:
                take = min(chunk, nbytes - moved)
                yield engine.process(pair.cuda[0].memcpy_dtoh(
                    src_host + moved, src_gpu + moved, take))
                yield pair.ranks[0].isend(1, src_host + moved, take,
                                          tag=moved)
                moved += take

        def receiver():
            moved = 0
            while moved < nbytes:
                take = min(chunk, nbytes - moved)
                yield pair.ranks[1].irecv(0, dst_host + moved, take,
                                          tag=moved)
                yield engine.process(pair.cuda[1].memcpy_htod(
                    dst_gpu + moved, dst_host + moved, take))
                moved += take

        start = engine.now_ps
        engine.process(sender(), name="sender")
        engine.process(receiver(), name="receiver")
        gpu1 = pair.nodes[1].gpus[0]
        end = engine.run_process(_observe_destination(
            engine,
            lambda: int(gpu1.memory.read(dst_gpu.offset + nbytes - 1, 1)[0]),
            0xA5), name="observe")
        return PathResult(self.name, nbytes, end - start)


class GDRPath:
    """MPI on GPU pointers with GPUDirect RDMA (zero host copies)."""

    name = "gpu-mpi-gdr"

    def transfer(self, nbytes: int) -> PathResult:
        """One GPUDirect-RDMA MPI transfer, destination-observed."""
        pair = _IBPair()
        engine = pair.engine
        data = _payload(nbytes)
        src_gpu = pair.cuda[0].cu_mem_alloc(0, nbytes)
        dst_gpu = pair.cuda[1].cu_mem_alloc(0, nbytes)
        pair.cuda[0].upload(src_gpu, data)
        buses = []
        for cuda, ptr in ((pair.cuda[0], src_gpu), (pair.cuda[1], dst_gpu)):
            token = cuda.cu_pointer_get_attribute(
                CU_POINTER_ATTRIBUTE_P2P_TOKENS, ptr)
            mapping = pair.p2p.pin(ptr.gpu, token, ptr.offset, ptr.nbytes)
            buses.append(mapping.bus_address)
        start = engine.now_ps
        pair.ranks[1].irecv(0, buses[1], nbytes)
        pair.ranks[0].isend(1, buses[0], nbytes)
        gpu1 = pair.nodes[1].gpus[0]
        end = engine.run_process(_observe_destination(
            engine,
            lambda: int(gpu1.memory.read(dst_gpu.offset + nbytes - 1, 1)[0]),
            0xA5), name="observe")
        return PathResult(self.name, nbytes, end - start)


class TCAPIOPath:
    """TCA PIO put, host-to-host (short-message champion, §III-F1)."""

    name = "tca-pio"

    def transfer(self, nbytes: int) -> PathResult:
        """One WC-paced PIO put on a fresh 2-node sub-cluster."""
        if nbytes > 64 * KiB:
            raise ConfigError("PIO is a short-message transport")
        cluster = TCASubCluster(2, node_params=NodeParams(num_gpus=1))
        comm = TCAComm(cluster)
        engine = cluster.engine
        data = _payload(nbytes)
        dst_off = cluster.driver(1).dma_buffer(0)
        dst = comm.host_global(1, dst_off)
        dram = cluster.node(1).dram
        start = engine.now_ps
        # Paced by the CPU's write-combining cadence (honest streaming).
        engine.process(comm.put_pio_timed(0, dst, data), name="pio")
        end = engine.run_process(_observe_destination(
            engine, lambda: int(dram.cpu_read(dst_off + nbytes - 1, 1)[0]),
            0xA5), name="observe")
        return PathResult(self.name, nbytes, end - start)


class TCADMAPath:
    """TCA chained-DMA put; host-to-host or GPU-to-GPU endpoints."""

    def __init__(self, gpu: bool = False, pipelined: bool = False):
        self.gpu = gpu
        self.pipelined = pipelined
        base = "tca-dma-gpu" if gpu else "tca-dma"
        self.name = base + ("-pipelined" if pipelined else "")

    def transfer(self, nbytes: int) -> PathResult:
        """One chained-DMA put on a fresh 2-node sub-cluster."""
        cluster = TCASubCluster(2, node_params=NodeParams(num_gpus=1))
        comm = TCAComm(cluster)
        engine = cluster.engine
        data = _payload(nbytes)
        if self.pipelined:
            cluster.board(0).chip.dma.pipelined = True
        if self.gpu:
            src_ptr = cluster.cuda[0].cu_mem_alloc(0, nbytes)
            dst_ptr = cluster.cuda[1].cu_mem_alloc(0, nbytes)
            cluster.cuda[0].upload(src_ptr, data)
            comm.register_gpu_memory(0, src_ptr)
            dst_global = comm.register_gpu_memory(1, dst_ptr)
            src_local = src_ptr.gpu.offset_to_bar(src_ptr.offset)
            read_last = lambda: int(dst_ptr.gpu.memory.read(
                dst_ptr.offset + nbytes - 1, 1)[0])
        else:
            src_local = cluster.driver(0).dma_buffer(0)
            cluster.node(0).dram.cpu_write(src_local, data)
            dst_off = cluster.driver(1).dma_buffer(0)
            dst_global = comm.host_global(1, dst_off)
            dram = cluster.node(1).dram
            read_last = lambda: int(dram.cpu_read(dst_off + nbytes - 1,
                                                  1)[0])
        start = engine.now_ps
        if self.pipelined:
            engine.process(comm.put_dma_pipelined(0, src_local, dst_global,
                                                  nbytes), name="put")
        else:
            engine.process(comm.put_dma(0, src_local, dst_global, nbytes),
                           name="put")
        end = engine.run_process(_observe_destination(engine, read_last,
                                                      0xA5), name="observe")
        return PathResult(self.name, nbytes, end - start)
