"""User-level TCA communication (§III-H).

The paper's programming interface is "based on the CUDA parallel
programming environment": the user names a *target node ID* plus a device
(GPU ID / host), and the library does a direct put over the extended PCIe
address domain.  Three transports are provided:

* **PIO put** — plain stores into the mmapped TCA window; best latency
  for short messages (§III-F1);
* **DMA put** — the current two-phase DMAC: a fenced chain that first
  DMA-reads the local source into PEACH2's internal memory, then DMA-writes
  it to the remote destination (§IV-B2);
* **pipelined DMA put** — the next-generation DMAC that does both phases
  simultaneously (the paper's announced follow-up work).

Block-stride transfers (§III-H) map naturally onto chained descriptors.

These are the point-to-point primitives.  Collective operations built on
top of them — allgather, allreduce, broadcast and barrier, with
multi-channel DMA overlap — live in :mod:`repro.collectives`
(entry points ``TCACollectives`` and the ``ring_*`` one-shot helpers);
see ``docs/collectives.md``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cuda.pointer import (CU_POINTER_ATTRIBUTE_P2P_TOKENS, DevicePtr)
from repro.errors import ConfigError, DMAError
from repro.peach2.descriptor import DescriptorFlags, DMADescriptor
from repro.tca.address_map import (BLOCK_GPU0, BLOCK_GPU1, BLOCK_HOST,
                                   TCAAddressMap)
from repro.tca.subcluster import TCASubCluster
from repro.units import MiB

#: Offset inside PEACH2 internal memory used as the DMA staging area.
STAGING_OFFSET = 1 * MiB
STAGING_BYTES = 8 * MiB

GPU_BLOCKS = (BLOCK_GPU0, BLOCK_GPU1)


class TCAComm:
    """Communication endpoints over one sub-cluster."""

    def __init__(self, cluster: TCASubCluster):
        self.cluster = cluster
        self.engine = cluster.engine
        self.address_map: TCAAddressMap = cluster.address_map

    # -- addressing -------------------------------------------------------------

    def host_global(self, node_id: int, offset: int) -> int:
        """TCA-global address of a host-memory byte on ``node_id``."""
        return self.address_map.global_address(node_id, BLOCK_HOST, offset)

    def gpu_global(self, node_id: int, gpu_index: int, offset: int) -> int:
        """TCA-global address of GPU memory on ``node_id`` (GPU 0 or 1)."""
        if gpu_index not in (0, 1):
            raise ConfigError("TCA reaches only GPU0/GPU1 (QPI P2P is "
                              "prohibited, §III-C)")
        return self.address_map.global_address(node_id, GPU_BLOCKS[gpu_index],
                                               offset)

    def register_gpu_memory(self, node_id: int, ptr: DevicePtr) -> int:
        """Pin a CUDA allocation for RDMA; returns its TCA-global address.

        Performs §IV-A2's steps 2-3: fetch the P2P token, hand it to the
        P2P driver, pin the pages into the BAR.
        """
        cuda = self.cluster.cuda[node_id]
        node = self.cluster.node(node_id)
        if ptr.gpu not in node.gpus:
            raise ConfigError(
                f"{ptr.gpu.name} is not a GPU of node {node_id}")
        gpu_index = node.gpus.index(ptr.gpu)
        token = cuda.cu_pointer_get_attribute(
            CU_POINTER_ATTRIBUTE_P2P_TOKENS, ptr)
        self.cluster.p2p.pin(ptr.gpu, token, ptr.offset, ptr.nbytes)
        return self.gpu_global(node_id, gpu_index, ptr.offset)

    # -- PIO put ------------------------------------------------------------------

    def put_pio(self, src_node: int, dst_global: int,
                data: np.ndarray) -> None:
        """RDMA-put by CPU stores through the mmapped window (§III-F1).

        Issues one posted store per 8 bytes (a CPU cannot burst-write an
        uncached mapping); returns once the stores are posted — remote
        completion is observed by polling or a flag (see put_pio_flagged).
        """
        cpu = self.cluster.node(src_node).cpu
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if self.engine.tracer is not None:
            self.engine.trace("tca.comm", "tca-put", "pio", src_node,
                              len(data), None)
        for start in range(0, len(data), 8):
            cpu.store(dst_global + start, data[start:start + 8])

    def put_pio_timed(self, src_node: int, dst_global: int,
                      data: np.ndarray):
        """Process: PIO put paced by the CPU's write-combining cadence.

        This is the honest streaming model for multi-cache-line PIO
        (64-byte coalesced posted writes every WC drain interval); use it
        for bandwidth measurements.  Returns the issue-side elapsed ps.
        """
        cpu = self.cluster.node(src_node).cpu
        calib = self.cluster.node(src_node).params.calib
        start = self.engine.now_ps
        yield self.engine.process(cpu.store_stream(
            dst_global, data, calib.pio_wc_buffer_bytes,
            calib.pio_wc_drain_gap_ps), name="pio-stream")
        return self.engine.now_ps - start

    def put_pio_flagged(self, src_node: int, dst_global: int,
                        data: np.ndarray, flag_global: int,
                        flag_value: int) -> None:
        """PIO put followed by a 4-byte flag store.

        PCIe posted writes stay ordered on a path, so the flag cannot pass
        the payload — the receiver polls the flag, then reads the data.
        """
        self.put_pio(src_node, dst_global, data)
        self.cluster.node(src_node).cpu.store_u32(flag_global, flag_value)

    # -- DMA put --------------------------------------------------------------------

    def _staging_bus(self, node_id: int) -> int:
        chip = self.cluster.board(node_id).chip
        return chip.bar2.base + STAGING_OFFSET

    def put_dma_descriptors(self, src_node: int, src_local: int,
                            dst_global: int, nbytes: int
                            ) -> List[DMADescriptor]:
        """Two-phase descriptor chain for one remote put (§IV-B2).

        Phase 1 DMA-reads the local source into internal memory; phase 2
        (FENCEd so it sees complete data) DMA-writes it to the remote
        destination.  Transfers bigger than the staging area become
        multiple fenced pairs in one chain.
        """
        if nbytes <= 0:
            raise DMAError("transfer length must be positive")
        staging = self._staging_bus(src_node)
        chain: List[DMADescriptor] = []
        moved = 0
        while moved < nbytes:
            take = min(nbytes - moved, STAGING_BYTES)
            chain.append(DMADescriptor(src_local + moved, staging, take))
            chain.append(DMADescriptor(staging, dst_global + moved, take,
                                       DescriptorFlags.FENCE))
            moved += take
        return chain

    def put_dma(self, src_node: int, src_local: int, dst_global: int,
                nbytes: int, channel: int = 0):
        """Process: two-phase DMA put; returns elapsed ps (doorbell->IRQ)."""
        chain = self.put_dma_descriptors(src_node, src_local, dst_global,
                                         nbytes)
        driver = self.cluster.driver(src_node)
        elapsed = yield self.engine.process(
            driver.run_chain(channel, chain), name="tca.put_dma")
        if self.engine.tracer is not None:
            self.engine.trace("tca.comm", "tca-put", "dma", src_node,
                              nbytes, elapsed)
        return elapsed

    def put_dma_pipelined(self, src_node: int, src_local: int,
                          dst_global: int, nbytes: int, channel: int = 0):
        """Process: one-descriptor put on the next-generation DMAC.

        Requires the pipelined DMAC (enable with
        ``cluster.board(i).chip.dma.pipelined = True``).
        """
        chip = self.cluster.board(src_node).chip
        if not chip.dma.pipelined:
            raise DMAError("enable the pipelined DMAC first (§IV-B2 "
                           "future work)")
        driver = self.cluster.driver(src_node)
        chain = [DMADescriptor(src_local, dst_global, nbytes)]
        elapsed = yield self.engine.process(
            driver.run_chain(channel, chain), name="tca.put_dma_pipelined")
        if self.engine.tracer is not None:
            self.engine.trace("tca.comm", "tca-put", "dma-pipelined",
                              src_node, nbytes, elapsed)
        return elapsed

    # -- block-stride transfers (§III-H) ------------------------------------------------

    def block_stride_descriptors(self, src_node: int, src_local: int,
                                 dst_global: int, block_bytes: int,
                                 src_stride: int, dst_stride: int,
                                 count: int) -> List[DMADescriptor]:
        """Chained descriptors for a strided transfer (2-D halo etc.).

        Each block is a fenced two-phase pair, like the real driver builds
        for the current DMAC.  "a series of bulk transfers, such as block
        transfer and block-stride transfer, are effective by using the
        chaining DMA mechanism" (§III-H).
        """
        if block_bytes <= 0 or count <= 0:
            raise DMAError("block size and count must be positive")
        if block_bytes > STAGING_BYTES:
            raise DMAError("block exceeds the staging area")
        staging = self._staging_bus(src_node)
        chain: List[DMADescriptor] = []
        for i in range(count):
            chain.append(DMADescriptor(src_local + i * src_stride,
                                       staging, block_bytes))
            chain.append(DMADescriptor(staging,
                                       dst_global + i * dst_stride,
                                       block_bytes, DescriptorFlags.FENCE))
        return chain

    def put_block_stride(self, src_node: int, src_local: int,
                         dst_global: int, block_bytes: int, src_stride: int,
                         dst_stride: int, count: int, channel: int = 0):
        """Process: run a block-stride chain; returns elapsed ps."""
        chain = self.block_stride_descriptors(
            src_node, src_local, dst_global, block_bytes, src_stride,
            dst_stride, count)
        driver = self.cluster.driver(src_node)
        elapsed = yield self.engine.process(
            driver.run_chain(channel, chain), name="tca.block_stride")
        return elapsed

    # -- the cudaMemcpyPeer-like call of §III-H ------------------------------------------

    def tca_memcpy_peer(self, dst_node: int, dst_ptr: DevicePtr,
                        src_node: int, src_ptr: DevicePtr, nbytes: int,
                        channel: int = 0):
        """Process: GPU-to-GPU copy across nodes, CUDA-style (§III-H).

        "a function similar to cudaMemcpyPeer should be available for the
        target node ID in addition to the GPU IDs" — this is it.  Both
        allocations are pinned for RDMA on the fly; a pointer whose GPU is
        not on the node named for it raises :class:`ConfigError`.
        """
        src_ptr.check_span(nbytes)
        dst_ptr.check_span(nbytes)
        self.register_gpu_memory(src_node, src_ptr)
        dst_global = self.register_gpu_memory(dst_node, dst_ptr)
        src_local = src_ptr.gpu.offset_to_bar(src_ptr.offset)
        elapsed = yield self.engine.process(
            self.put_dma(src_node, src_local, dst_global, nbytes, channel),
            name="tca.memcpy_peer")
        return elapsed
