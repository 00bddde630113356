"""CPU complex: PIO stores, MMIO reads, TSC, and interrupt dispatch.

The CPU is the software anchor of a node: driver and benchmark code run as
engine processes "on" it, read the timestamp counter (the paper's TSC
methodology, §IV-A), issue uncached stores into device BARs (the PIO path
of §III-F), and field MSI interrupts from the PEACH2 DMA controller.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import ConfigError
from repro.pcie.address import Region
from repro.pcie.device import Device, TagPool
from repro.pcie.port import Port, PortRole
from repro.pcie.tlp import TLP, TLPKind, make_read, make_write
from repro.sim.core import Engine, Signal

#: MSI doorbell window; MSI writes from devices land here.  Real x86 puts
#: this at 0xFEE00000 inside the sub-4-GiB hole; our DRAM map is flat from
#: zero, so the doorbell is relocated above the largest supported DRAM.
MSI_REGION = Region(0x38_0000_0000, 0x1000, "msi")


class CPU(Device):
    """One CPU complex (both sockets' cores, simplified to one requester)."""

    def __init__(self, engine: Engine, name: str):
        super().__init__(engine, name)
        self.port = Port(engine, f"{name}.port", PortRole.INTERNAL, self,
                         rx_credits=64)
        self.tags = TagPool(engine, name=f"{name}.tags")
        self._irq_handlers: Dict[int, Callable[[int], None]] = {}
        self.interrupts_received = 0

    # -- timing ----------------------------------------------------------------

    def read_tsc(self) -> int:
        """Timestamp counter, in picoseconds of simulated time."""
        return self.engine.now_ps

    # -- fabric-facing ----------------------------------------------------------

    def handle_tlp(self, port: Port, tlp: TLP):
        """Field MSIs (dispatch IRQ handlers) and MMIO-read completions."""
        if tlp.kind is TLPKind.MSI:
            self.interrupts_received += 1
            vector = int.from_bytes(tlp.payload.tobytes(), "little")
            if self.engine.tracer is not None:
                self.engine.trace(self.name, "msi", vector)
            if self.engine.metrics is not None:
                self.engine.metrics.counter(
                    f"cpu.{self.name}.interrupts").inc()
            handler = self._irq_handlers.get(vector)
            if handler is not None:
                handler(vector)
            return None
        if tlp.kind is TLPKind.CPLD:
            self.tags.complete(tlp)
            return None
        # Stray memory writes to the CPU complex are ignored (aborted).
        return None

    # -- software-visible operations ---------------------------------------------

    def store(self, address: int, data: np.ndarray) -> None:
        """Issue one uncached store (a posted MWr); returns immediately.

        The store-to-fabric cost is carried by the CPU's internal link
        latency, so back-to-back stores pipeline like real write-combining
        doesn't — PEACH2 PIO uses small independent stores (§III-F).
        """
        data = np.asarray(data, dtype=np.uint8)
        if self.engine.tracer is not None:
            self.engine.trace(self.name, "pio-store", address, len(data))
        if self.engine.metrics is not None:
            self.engine.metrics.counter(f"cpu.{self.name}.pio_stores").inc()
        self.port.send(make_write(address, data,
                                  requester_id=self.device_id))

    def store_u32(self, address: int, value: int) -> None:
        """Store a little-endian 32-bit value (the paper's 4-byte PIO)."""
        data = np.frombuffer(int(value).to_bytes(4, "little"), dtype=np.uint8)
        self.store(address, data.copy())

    def store_stream(self, address: int, data: np.ndarray,
                     wc_buffer_bytes: int, drain_gap_ps: int):
        """Process: stream stores through the write-combining buffers.

        The TCA window is mapped write-combining (§III-F1): consecutive
        stores coalesce into WC-buffer-sized posted writes, drained at the
        core's WC cadence.  This is the *paced* PIO path used for anything
        beyond a few cache lines; :meth:`store` models the single posted
        store of a doorbell or flag.
        """
        data = np.ascontiguousarray(data, dtype=np.uint8)
        offset = 0
        while offset < len(data):
            # Coalesce up to one WC buffer, not crossing its alignment.
            boundary = wc_buffer_bytes - ((address + offset)
                                          % wc_buffer_bytes)
            take = min(len(data) - offset, boundary)
            yield drain_gap_ps
            self.store(address + offset, data[offset:offset + take])
            offset += take

    def load(self, address: int, nbytes: int) -> Signal:
        """Issue an uncached MMIO read; the signal fires with the bytes."""
        tag, done = self.tags.issue(nbytes)
        self.port.send(make_read(address, nbytes,
                                 requester_id=self.device_id, tag=tag))
        return done

    def register_irq_handler(self, vector: int,
                             handler: Callable[[int], None]) -> None:
        """Install the handler invoked when MSI ``vector`` arrives."""
        if vector in self._irq_handlers:
            raise ConfigError(f"{self.name}: IRQ vector {vector} already taken")
        self._irq_handlers[vector] = handler
