"""Kepler-class GPU endpoint: GDDR5 memory, BAR1 window, copy engines.

Two properties matter for the paper's results and are modelled carefully:

* **BAR1 read path**: reads of GPU memory through the PCIe BAR traverse
  the GPU's address-translation machinery; the completer pipeline is
  shallow (4 requests) and slow (~1.2 µs each), capping DMA reads from GPU
  memory at ~830 Mbytes/s (§IV-A2) no matter how fast the link is.
* **Page-granularity pinning**: GPUDirect Support for RDMA only exposes
  pages that the P2P driver pinned into the PCIe address space (§III-C);
  fabric access to an unpinned page is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import DriverError
from repro.hw.memory import BackingStore, PAGE_SIZE
from repro.model.calibration import CALIB
from repro.pcie.address import Region
from repro.pcie.config_space import (CAP_MSI, CAP_PCIE, Capability,
                                     ConfigSpace, VENDOR_NVIDIA)
from repro.pcie.device import Device, TagPool
from repro.pcie.port import Port, PortRole
from repro.pcie.packetizer import split_read_requests, split_transfer
from repro.pcie.tlp import TLP, TLPKind, make_completion, make_read, make_write
from repro.sim.core import Engine
from repro.sim.queues import Resource
from repro.units import transfer_ps


@dataclass(frozen=True)
class GPUParams:
    """Timing and capacity of one GPU."""

    memory_bytes: int = 5 * 1024**3  # K20: 5 Gbytes GDDR5
    bar_read_latency_ps: int = CALIB.gpu_bar_read_latency_ps
    bar_max_reads: int = CALIB.gpu_bar_max_reads
    bar_write_commit_ps: int = CALIB.gpu_bar_write_commit_ps
    # Copy-engine pacing (used by cudaMemcpy in the baselines).
    ce_per_tlp_overhead_ps: int = CALIB.dma_per_tlp_overhead_ps
    ce_max_outstanding_reads: int = 16
    # Compute roofline (K20: 1.17 DP TFlops, 208 GB/s GDDR5) and the
    # CUDA kernel-launch overhead of the era.
    peak_gflops: float = 1170.0
    mem_bandwidth_gbytes: float = 208.0
    kernel_launch_ps: int = 5_000_000  # 5 us


class GPU(Device):
    """One GPU: an endpoint with memory, a BAR1 window and copy engines."""

    def __init__(self, engine: Engine, name: str,
                 params: GPUParams = GPUParams()):
        super().__init__(engine, name)
        self.params = params
        self.memory = BackingStore(params.memory_bytes, name=f"{name}.mem")
        self.port = Port(engine, f"{name}.port", PortRole.EP, self,
                         rx_credits=64)
        # Type-0 function: a Kepler-class GPU with its large BAR1 window.
        bar1_size = 1 << (params.memory_bytes - 1).bit_length()
        self.config_space = ConfigSpace(VENDOR_NVIDIA, 0x1028, 0x03,
                                        name=name)
        self.config_space.add_bar(1, bar1_size)
        self.config_space.add_capability(Capability(CAP_MSI))
        self.config_space.add_capability(Capability(CAP_PCIE))
        self.bar1: Optional[Region] = None  # assigned at enumeration
        self.tags = TagPool(engine, name=f"{name}.tags")
        self._readers = Resource(engine, params.bar_max_reads,
                                 name=f"{name}.bar-readers")
        self._pinned: List[Tuple[int, int]] = []  # (start, end) mem offsets
        self.bytes_written = 0
        self.bytes_read = 0

    # -- BAR plumbing -----------------------------------------------------------

    def assign_bar1(self, region: Region) -> None:
        """BIOS hands the GPU its BAR1 window (1:1 over device memory)."""
        if region.size < self.params.memory_bytes:
            raise DriverError(
                f"{self.name}: BAR1 of {region.size:#x} bytes cannot cover "
                f"{self.params.memory_bytes:#x} bytes of device memory")
        self.bar1 = region

    def bar_to_offset(self, address: int) -> int:
        """Translate a BAR1 bus address to a device-memory offset."""
        if self.bar1 is None:
            raise DriverError(f"{self.name}: BAR1 not assigned yet")
        return self.bar1.offset_of(address)

    def offset_to_bar(self, offset: int) -> int:
        """Translate a device-memory offset to its BAR1 bus address."""
        if self.bar1 is None:
            raise DriverError(f"{self.name}: BAR1 not assigned yet")
        return self.bar1.base + offset

    # -- GPUDirect page pinning ---------------------------------------------------

    def pin_pages(self, offset: int, nbytes: int) -> Region:
        """Pin [offset, offset+nbytes), page-rounded, into the BAR window."""
        start = (offset // PAGE_SIZE) * PAGE_SIZE
        end = -(-(offset + nbytes) // PAGE_SIZE) * PAGE_SIZE
        self._pinned.append((start, min(end, self.params.memory_bytes)))
        return Region(self.offset_to_bar(start), end - start,
                      f"{self.name}.pinned")

    def is_pinned(self, offset: int, nbytes: int) -> bool:
        """True if the whole range lies inside some pinned interval."""
        return any(s <= offset and offset + nbytes <= e
                   for s, e in self._pinned)

    def _check_pinned(self, offset: int, nbytes: int) -> None:
        if not self.is_pinned(offset, nbytes):
            raise DriverError(
                f"{self.name}: fabric access to unpinned GPU memory "
                f"[{offset:#x}, {offset + nbytes:#x}) — GPUDirect RDMA "
                "requires the P2P driver to pin the pages first")

    # -- fabric-facing --------------------------------------------------------------

    def handle_tlp(self, port: Port, tlp: TLP):
        """BAR1 ingress: pinned-page writes, throttled reads, CplDs."""
        if tlp.kind is TLPKind.MWR:
            offset = self.bar_to_offset(tlp.address)
            self._check_pinned(offset, tlp.length)
            self.engine.after(self.params.bar_write_commit_ps,
                              self._commit, offset, tlp.payload)
            return None
        if tlp.kind is TLPKind.MRD:
            offset = self.bar_to_offset(tlp.address)
            self._check_pinned(offset, tlp.length)
            self.engine.process(self._serve_read(tlp, offset),
                                name=f"{self.name}.bar-read")
            return None
        if tlp.kind is TLPKind.CPLD:
            self.tags.complete(tlp)
            return None
        return None

    def _commit(self, offset: int, payload: np.ndarray) -> None:
        self.memory.write(offset, payload)
        self.bytes_written += len(payload)

    def _serve_read(self, request: TLP, offset: int):
        yield self._readers.acquire()
        try:
            yield self.params.bar_read_latency_ps
            data = self.memory.read(offset, request.length)
            self.bytes_read += request.length
            chunk = CALIB.mps_bytes
            for start in range(0, len(data), chunk):
                accepted = self.port.send(
                    make_completion(request, data[start:start + chunk]))
                if not accepted.fired:
                    yield accepted
        finally:
            self._readers.release()

    # -- compute (roofline-timed kernel execution) -----------------------------------

    def kernel_time_ps(self, flops: float, bytes_moved: float) -> int:
        """Roofline execution time: limited by DP peak or memory BW."""
        compute_ps = flops / self.params.peak_gflops / 1e9 * 1e12
        memory_ps = bytes_moved / self.params.mem_bandwidth_gbytes / 1e9 * 1e12
        return self.params.kernel_launch_ps + int(max(compute_ps, memory_ps))

    def launch_kernel(self, flops: float, bytes_moved: float,
                      body=None):
        """Process: run one kernel; ``body()`` applies its side effects
        to device memory when the kernel completes."""
        yield self.kernel_time_ps(flops, bytes_moved)
        if body is not None:
            body()

    # -- copy engine (cudaMemcpy's DMA, used by host-staged baselines) -------------

    def ce_write_to_bus(self, bus_address: int, src_offset: int, nbytes: int):
        """Copy-engine process: device memory -> bus address (D2H body)."""
        link_rate = self.port.link.params.bytes_per_ps
        for addr, size in split_transfer(bus_address, nbytes, CALIB.mps_bytes):
            data = self.memory.read(src_offset + (addr - bus_address), size)
            tlp = make_write(addr, data, requester_id=self.device_id)
            yield transfer_ps(tlp.wire_bytes, link_rate) \
                + self.params.ce_per_tlp_overhead_ps
            accepted = self.port.send(tlp)
            if not accepted.fired:
                yield accepted

    def ce_read_from_bus(self, bus_address: int, dst_offset: int, nbytes: int):
        """Copy-engine process: bus address -> device memory (H2D body)."""
        window = Resource(self.engine, self.params.ce_max_outstanding_reads,
                          name=f"{self.name}.ce-window")
        pending = []
        for addr, size in split_read_requests(bus_address, nbytes,
                                              CALIB.mrrs_bytes):
            yield window.acquire()
            tag, done = self.tags.issue(size)
            accepted = self.port.send(make_read(
                addr, size, requester_id=self.device_id, tag=tag))
            if not accepted.fired:
                yield accepted
            offset = dst_offset + (addr - bus_address)

            def _land(data: bytes, _off: int = offset) -> None:
                self.memory.write(_off,
                                  np.frombuffer(data, dtype=np.uint8).copy())
                window.release()

            done.add_callback(_land)
            pending.append(done)
            yield CALIB.dma_read_issue_gap_ps
        for done in pending:
            if not done.fired:
                yield done
