"""The CUDA-like runtime context of one node.

Timing model: every ``cudaMemcpy*`` call pays a fixed software overhead
(driver call, engine programming — the cost that makes host-staged
GPU-to-GPU communication so expensive for short messages, §I), then the
GPU copy engine moves the data over PCIe at TLP granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import CudaError
from repro.cuda.pointer import (CU_POINTER_ATTRIBUTE_P2P_TOKENS, DevicePtr,
                                P2PToken)
from repro.hw.gpu import GPU
from repro.hw.node import ComputeNode
from repro.units import us


@dataclass(frozen=True)
class CudaParams:
    """Software costs of the CUDA runtime (CUDA 5-era Linux x86_64)."""

    #: cudaMemcpy launch overhead: user->driver->engine doorbell.
    memcpy_overhead_ps: int = us(8)
    #: cudaMemcpyPeer overhead (P2P path setup between two engines).
    memcpy_peer_overhead_ps: int = us(10)


class CudaContext:
    """Per-node CUDA runtime: allocations and copy-engine operations."""

    def __init__(self, node: ComputeNode, params: CudaParams = CudaParams()):
        self.node = node
        self.engine = node.engine
        self.params = params
        self._cursors: Dict[str, int] = {g.name: 0 for g in node.gpus}
        self._peer_mappings = set()

    # -- memory management -------------------------------------------------------

    def cu_mem_alloc(self, gpu_index: int, nbytes: int,
                     align: int = 4096) -> DevicePtr:
        """cuMemAlloc(): carve device memory on one GPU."""
        gpu = self._gpu(gpu_index)
        cursor = self._cursors[gpu.name]
        base = -(-cursor // align) * align
        if base + nbytes > gpu.params.memory_bytes:
            raise CudaError(f"{gpu.name}: out of device memory")
        self._cursors[gpu.name] = base + nbytes
        return DevicePtr(gpu, base, nbytes)

    def cu_pointer_get_attribute(self, attribute: str,
                                 ptr: DevicePtr) -> P2PToken:
        """cuPointerGetAttribute(): only the P2P-tokens attribute exists."""
        if attribute != CU_POINTER_ATTRIBUTE_P2P_TOKENS:
            raise CudaError(f"unknown pointer attribute {attribute!r}")
        return P2PToken(ptr.gpu.name, ptr.offset, ptr.nbytes)

    def _gpu(self, index: int) -> GPU:
        try:
            return self.node.gpus[index]
        except IndexError:
            raise CudaError(f"no GPU {index} in {self.node.name}")

    # -- copies (engine processes; yield from them or wrap in engine.process) ----

    def memcpy_htod(self, dst: DevicePtr, src_bus_addr: int, nbytes: int):
        """Process: host memory -> device memory (cudaMemcpyHostToDevice)."""
        dst.check_span(nbytes)
        yield self.params.memcpy_overhead_ps
        yield self.engine.process(
            dst.gpu.ce_read_from_bus(src_bus_addr, dst.offset, nbytes),
            name="memcpy_htod")

    def memcpy_dtoh(self, dst_bus_addr: int, src: DevicePtr, nbytes: int):
        """Process: device memory -> host memory (cudaMemcpyDeviceToHost)."""
        src.check_span(nbytes)
        yield self.params.memcpy_overhead_ps
        yield self.engine.process(
            src.gpu.ce_write_to_bus(dst_bus_addr, src.offset, nbytes),
            name="memcpy_dtoh")

    def memcpy_peer(self, dst: DevicePtr, src: DevicePtr, nbytes: int):
        """Process: cudaMemcpyPeer() within the node (§III-H).

        The source GPU's copy engine writes straight into the destination
        GPU's BAR — GPUDirect Peer-to-Peer over the shared PCIe fabric.
        The destination pages must be pinned/mapped (the runtime does this
        implicitly for P2P-enabled pairs; we model it with pin_pages).
        """
        src.check_span(nbytes)
        dst.check_span(nbytes)
        if dst.gpu is src.gpu:
            raise CudaError("peer copy needs two distinct GPUs")
        yield self.params.memcpy_peer_overhead_ps
        # Peer access stays enabled for the allocation's lifetime (like
        # cudaDeviceEnablePeerAccess); unpinning immediately would race
        # the posted writes still in flight.
        key = (dst.gpu.name, dst.offset, nbytes)
        if key not in self._peer_mappings:
            dst.gpu.pin_pages(dst.offset, nbytes)
            self._peer_mappings.add(key)
        bus = dst.gpu.offset_to_bar(dst.offset)
        yield self.engine.process(
            src.gpu.ce_write_to_bus(bus, src.offset, nbytes),
            name="memcpy_peer")

    # -- zero-time backdoors for test setup/verification ---------------------------

    def upload(self, ptr: DevicePtr, data: np.ndarray) -> None:
        """Place bytes in device memory instantly (test fixture setup)."""
        data = np.asarray(data, dtype=np.uint8)
        ptr.check_span(len(data))
        ptr.gpu.memory.write(ptr.offset, data)

    def download(self, ptr: DevicePtr, nbytes: int) -> np.ndarray:
        """Read bytes from device memory instantly (test verification)."""
        ptr.check_span(nbytes)
        return ptr.gpu.memory.read(ptr.offset, nbytes)
