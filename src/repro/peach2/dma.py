"""PEACH2's chaining DMA controller.

Behavioural model of §III-F2 and §IV-A/IV-B:

* The driver writes a descriptor table into memory (host DMA buffer or the
  chip's internal memory), programs the channel's table address and count,
  and rings the doorbell register.  Doorbell-to-first-data therefore costs
  a real register-write TLP plus a real descriptor-fetch read round trip —
  the overhead that dominates Fig. 8's single-DMA curve.
* Descriptors are fetched in 256-byte table reads (8 descriptors each) and
  *prefetched* ahead of execution, which is how chaining "reduce[s] the
  impact of the overhead for retrieving the DMA descriptor table".
* Execution is a two-stage pipeline: descriptor setup overlaps the
  previous descriptor's data streaming, so per-descriptor setup only shows
  through for short transfers (the left side of Fig. 7).
* The *current* DMAC requires the internal memory to be the source of
  every DMA write and the destination of every DMA read (§IV-B2); remote
  puts therefore need two fenced phases.  Setting
  :attr:`DMAController.pipelined` enables the paper's next-generation
  DMAC, which reads the local source and writes the remote destination
  simultaneously in a pipeline.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import DMAError
from repro.pcie.packetizer import split_read_requests, split_transfer
from repro.pcie.tlp import make_msi, make_read, make_write, tlp_wire_bytes, TLPKind
from repro.peach2.descriptor import (DESCRIPTOR_BYTES, DescriptorFlags,
                                     DMADescriptor, decode_table)
from repro.peach2.registers import (DMA_REG_DOORBELL, RegisterFile,
                                    REG_MSI_ADDRESS, REG_MSI_VECTOR)
from repro.sim.core import Process, Signal
from repro.sim.queues import Latch, Resource, Store
from repro.units import transfer_ps

STATUS_IDLE = 0
STATUS_RUNNING = 1
STATUS_DONE = 2
STATUS_ABORTED = 3


class DMAController:
    """All DMA channels of one PEACH2 chip."""

    def __init__(self, chip, num_channels: int = 4):
        self.chip = chip
        self.engine = chip.engine
        self.calib = chip.params.calib
        self.num_channels = num_channels
        #: Enable the next-generation pipelined DMAC (§IV-B2 future work).
        self.pipelined = False
        self.read_window = Resource(self.engine,
                                    self.calib.dma_max_outstanding_reads,
                                    name=f"{chip.name}.dma-window")
        self._running: Dict[int, bool] = {ch: False
                                          for ch in range(num_channels)}
        self._abort_requested: Dict[int, bool] = {
            ch: False for ch in range(num_channels)}
        #: Fired (with the channel number) each time a chain completes;
        #: recreated per run.  Tests and drivers may wait on these.
        self.chain_done: Dict[int, Optional[Signal]] = {
            ch: None for ch in range(num_channels)}
        self.chains_completed = 0
        self.bytes_transferred = 0
        #: Chains started per channel — the arbitration statistic the
        #: collective scheduler's tests read to prove overlap happened.
        self.chains_per_channel: Dict[int, int] = {
            ch: 0 for ch in range(num_channels)}
        for ch in range(num_channels):
            offset = RegisterFile.dma_offset(ch, DMA_REG_DOORBELL)
            chip.regs.write_hooks[offset] = self._make_doorbell(ch)

    # -- doorbell ---------------------------------------------------------------

    def _make_doorbell(self, channel: int) -> Callable[[int], None]:
        def ring(_value: int) -> None:
            faults = self.engine.faults
            if faults is not None and faults.doorbell_stuck(self.chip.name,
                                                            channel):
                # The register write was posted (and paid for) but the
                # hardware never latched it: the channel stays IDLE and
                # only the driver's timeout/retry can recover.
                if self.engine.tracer is not None:
                    self.engine.trace(self.chip.name, "doorbell-stuck",
                                      channel=channel)
                return
            self.start(channel)

        return ring

    # -- channel arbitration hooks (used by repro.collectives) -------------------

    def start(self, channel: int) -> Signal:
        """Kick a channel (as the doorbell register write does).

        Returns the chain-completion signal.
        """
        if self._running.get(channel):
            raise DMAError(f"{self.chip.name}: DMA channel {channel} is busy")
        count = self.chip.regs.dma_desc_count(channel)
        if count <= 0:
            raise DMAError(f"{self.chip.name}: channel {channel} has no "
                           "descriptors programmed")
        self._running[channel] = True
        self.chains_per_channel[channel] += 1
        if self.engine.tracer is not None:
            self.engine.trace(self.chip.name, "dma-start", channel=channel,
                              descriptors=count)
        done = self.engine.signal(f"{self.chip.name}.dma{channel}.done")
        self.chain_done[channel] = done
        self.chip.regs.set_dma_status(channel, STATUS_RUNNING)
        self.engine.process(self._run_chain(channel, done),
                            name=f"{self.chip.name}.dma{channel}")
        return done

    def abort(self, channel: int) -> bool:
        """Request a clean abort of a running chain (console `reset dma`).

        The engine stops at the next descriptor boundary, drains its
        outstanding reads, sets STATUS_ABORTED and raises the completion
        interrupt.  Returns False if the channel was idle.
        """
        if not self._running.get(channel):
            return False
        self._abort_requested[channel] = True
        return True

    # -- descriptor fetch ----------------------------------------------------------

    def _fetch_table(self, channel: int, queue: Store):
        """Prefetcher: stream descriptor batches into ``queue``."""
        regs = self.chip.regs
        table_addr = regs.dma_desc_addr(channel)
        count = regs.dma_desc_count(channel)
        fetched = 0
        while fetched < count:
            take = min(count - fetched, self.calib.dma_desc_fetch_batch)
            addr = table_addr + fetched * DESCRIPTOR_BYTES
            nbytes = take * DESCRIPTOR_BYTES
            fetch_start_ps = self.engine.now_ps
            if self.chip.is_internal_address(addr, nbytes):
                yield self.calib.internal_read_latency_ps
                raw = self.chip.internal.read(self.chip.internal_offset(addr),
                                              nbytes)
            else:
                tag, done = self.chip.tags.issue(nbytes)
                self.chip.inject(make_read(addr, nbytes,
                                           requester_id=self.chip.device_id,
                                           tag=tag))
                data = yield done  # fetch acceptance folded into the RTT
                raw = np.frombuffer(data, dtype=np.uint8)
            faults = self.engine.faults
            if faults is not None and faults.descriptor_fetch_error(
                    self.chip.name, channel):
                # The fetched table is garbage (failed parity): the DMAC
                # discards it and refetches the same batch — the full
                # round trip was still paid, so the retry costs real time.
                if self.engine.tracer is not None:
                    self.engine.trace(self.chip.name, "desc-fetch-error",
                                      channel=channel, count=take)
                if self.engine.metrics is not None:
                    self.engine.metrics.counter(
                        f"dma.{self.chip.name}.desc_refetches").inc()
                continue
            if self.engine.tracer is not None:
                self.engine.trace(
                    self.chip.name, "desc-fetch", channel=channel,
                    dur_ps=self.engine.now_ps - fetch_start_ps,
                    count=take)
            for desc in decode_table(raw, take):
                queue.put(desc)
            fetched += take

    # -- chain execution --------------------------------------------------------------

    def _run_chain(self, channel: int, done: Signal):
        chain_start_ps = self.engine.now_ps
        yield self.calib.dma_engine_start_ps
        queue = Store(self.engine, name=f"{self.chip.name}.dma{channel}.q")
        self.engine.process(self._fetch_table(channel, queue),
                            name=f"{self.chip.name}.dma{channel}.fetch")
        count = self.chip.regs.dma_desc_count(channel)
        scoreboard = Latch(self.engine, name=f"{self.chip.name}.dma{channel}")
        prev_stream: Optional[Process] = None

        aborted = False
        for _ in range(count):
            if self._abort_requested.get(channel):
                aborted = True
                break
            desc = yield queue.get()
            if self.engine.tracer is not None:
                self.engine.trace(self.chip.name, "desc-exec",
                                  channel=channel, bytes=desc.length)
            # Stage 1: descriptor setup, overlapped with the previous
            # descriptor's streaming (two-stage pipeline).
            yield self.calib.dma_desc_setup_ps
            if self._needs_remote_host_sync(desc):
                # Ring-egress round trip before chaining another write at
                # the remote host's request queue (Fig. 12's small-size
                # dip; see the calibration note on this constant).
                yield self.calib.dma_remote_desc_sync_ps
            if self._is_read_descriptor(desc):
                # Read-engine scoreboard turnaround, serial with setup:
                # keeps DMA read below DMA write at small sizes (Fig. 7).
                yield self.calib.dma_read_desc_turnaround_ps
            if desc.flags & DescriptorFlags.FENCE:
                if prev_stream is not None and not prev_stream.done:
                    yield prev_stream
                prev_stream = None
                if scoreboard.count:
                    yield scoreboard.wait_zero()
            if prev_stream is not None and not prev_stream.done:
                yield prev_stream
            prev_stream = self.engine.process(
                self._stream(desc, scoreboard),
                name=f"{self.chip.name}.dma{channel}.stream")
            self.bytes_transferred += desc.length

        if prev_stream is not None and not prev_stream.done:
            yield prev_stream
        if scoreboard.count:
            yield scoreboard.wait_zero()

        self.chip.regs.set_dma_status(
            channel, STATUS_ABORTED if aborted else STATUS_DONE)
        self._running[channel] = False
        self._abort_requested[channel] = False
        self.chains_completed += 1
        if self.engine.tracer is not None:
            self.engine.trace(self.chip.name, "dma-done", channel=channel,
                              aborted=aborted)
        if self.engine.metrics is not None:
            metrics = self.engine.metrics
            metrics.counter(f"dma.{self.chip.name}.chains").inc()
            metrics.histogram(f"dma.{self.chip.name}.chain_ns").observe(
                (self.engine.now_ps - chain_start_ps) / 1000.0)
        self._raise_interrupt(channel)
        done.fire(channel)

    def _raise_interrupt(self, channel: int) -> None:
        regs = self.chip.regs
        msi_address = regs.peek_u64(REG_MSI_ADDRESS)
        if msi_address == 0:
            return  # interrupts not configured (register-polling mode)
        vector = regs.peek_u64(REG_MSI_VECTOR) + channel
        faults = self.engine.faults
        if faults is not None and faults.drop_interrupt(self.chip.name,
                                                        vector):
            # The MSI write is swallowed before reaching the CPU.  The
            # status register already reads DONE, so a driver that times
            # out and polls it can recover the completion.
            if self.engine.tracer is not None:
                self.engine.trace(self.chip.name, "msi-dropped",
                                  channel=channel, vector=vector)
            return
        self.chip.inject(make_msi(msi_address, vector,
                                  requester_id=self.chip.device_id))

    def _is_read_descriptor(self, desc: DMADescriptor) -> bool:
        return (self.chip.is_internal_address(desc.dst, desc.length)
                and not self.chip.is_internal_address(desc.src, desc.length))

    def _needs_remote_host_sync(self, desc: DMADescriptor) -> bool:
        from repro.peach2.registers import BLOCK_HOST  # avoid import cycle

        if not self.chip.routes_off_node(desc.dst):
            return False
        return self.chip.tca_block_of(desc.dst) == BLOCK_HOST

    # -- data streams ------------------------------------------------------------------

    def _link_rate(self) -> float:
        link = self.chip.port_n.link
        if link is None:
            raise DMAError(f"{self.chip.name}: port N is not connected")
        return link.params.bytes_per_ps

    def _stream(self, desc: DMADescriptor, scoreboard: Latch):
        src_internal = self.chip.is_internal_address(desc.src, desc.length)
        dst_internal = self.chip.is_internal_address(desc.dst, desc.length)
        if src_internal and dst_internal:
            return self._stream_internal_copy(desc)
        if src_internal:
            return self._stream_write(desc)
        if dst_internal:
            return self._stream_read(desc, scoreboard)
        if self.pipelined:
            return self._stream_pipelined_copy(desc, scoreboard)
        raise DMAError(
            f"{self.chip.name}: the current DMAC requires the internal "
            "memory as DMA-write source / DMA-read destination (§IV-B2); "
            "use two fenced phases or enable the pipelined DMAC")

    def _stream_write(self, desc: DMADescriptor):
        """Internal memory -> bus (local or remote): paced posted writes."""
        rate = self._link_rate()
        overhead = self.calib.dma_per_tlp_overhead_ps
        chip = self.chip
        src_off = chip.internal_offset(desc.src)
        internal_read = chip.internal.read
        inject = chip.inject
        device_id = chip.device_id
        dst = desc.dst
        for addr, size in split_transfer(dst, desc.length,
                                         self.calib.mps_bytes):
            data = internal_read(src_off + (addr - dst), size)
            yield transfer_ps(tlp_wire_bytes(TLPKind.MWR, size),
                              rate) + overhead
            accepted = inject(make_write(addr, data,
                                         requester_id=device_id))
            if not accepted.fired:
                yield accepted

    def _stream_read(self, desc: DMADescriptor, scoreboard: Latch):
        """Bus (local only) -> internal memory: windowed read requests."""
        dst_off = self.chip.internal_offset(desc.dst)
        for addr, size in split_read_requests(desc.src, desc.length,
                                              self.calib.mrrs_bytes):
            yield self.read_window.acquire()
            scoreboard.up()
            tag, done = self.chip.tags.issue(size)
            accepted = self.chip.inject(make_read(
                addr, size, requester_id=self.chip.device_id, tag=tag))
            if not accepted.fired:
                yield accepted
            offset = dst_off + (addr - desc.src)

            def _land(data: bytes, _off: int = offset) -> None:
                self.chip.internal.write(
                    _off, np.frombuffer(data, dtype=np.uint8).copy())
                self.read_window.release()
                scoreboard.down()

            done.add_callback(_land)
            yield self.calib.dma_read_issue_gap_ps

    def _stream_internal_copy(self, desc: DMADescriptor):
        """Internal -> internal block move."""
        src_off = self.chip.internal_offset(desc.src)
        dst_off = self.chip.internal_offset(desc.dst)
        yield transfer_ps(desc.length, self.calib.internal_copy_bytes_per_ps)
        self.chip.internal.write(dst_off,
                                 self.chip.internal.read(src_off, desc.length))

    def _stream_pipelined_copy(self, desc: DMADescriptor, scoreboard: Latch):
        """Next-generation DMAC: read local source and write the (remote)
        destination simultaneously, one descriptor end to end (§IV-B2)."""
        overhead = self.calib.dma_per_tlp_overhead_ps
        for addr, size in split_read_requests(desc.src, desc.length,
                                              self.calib.mrrs_bytes):
            yield self.read_window.acquire()
            scoreboard.up()
            tag, done = self.chip.tags.issue(size)
            accepted = self.chip.inject(make_read(
                addr, size, requester_id=self.chip.device_id, tag=tag))
            if not accepted.fired:
                yield accepted
            dst = desc.dst + (addr - desc.src)

            def _forward(data: bytes, _dst: int = dst) -> None:
                payload = np.frombuffer(data, dtype=np.uint8).copy()
                self.engine.after(overhead, self._inject_write, _dst, payload,
                                  scoreboard)

            done.add_callback(_forward)
            yield self.calib.dma_read_issue_gap_ps
        yield self.calib.dma_read_desc_turnaround_ps

    def _inject_write(self, dst: int, payload: np.ndarray,
                      scoreboard: Latch) -> None:
        self.chip.inject(make_write(dst, payload,
                                    requester_id=self.chip.device_id))
        self.read_window.release()
        scoreboard.down()
