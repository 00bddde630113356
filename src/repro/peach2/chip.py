"""The PEACH2 chip: four PCIe ports, static router, DMAC, internal memory.

Port layout follows §III-D exactly:

* **N** — always the host interface (the chip appears as an ordinary PCIe
  endpoint with BAR0 = control registers, BAR2 = internal memory, BAR4 =
  the 512-GB TCA window);
* **E** — fixed Endpoint role, **W** — fixed Root Complex role, so any two
  chips can always be cabled E->W to form a ring;
* **S** — role selectable (by FPGA configuration image; dynamic partial
  reconfiguration is modelled as an opt-in), used to couple two rings.

Packets whose destination address falls in the TCA window are routed by
the §III-E comparators (mask / lower / upper per entry); a hit on port N
triggers the global-to-local address conversion using the per-block base
registers.  Remote memory access is Memory-Write-only (§III-F): read
requests arriving from the ring are rejected, as on the real chip, because
completions are not implemented for remote traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import AddressError, ConfigError, PCIeError
from repro.hw.memory import BackingStore
from repro.model.calibration import CALIB, Calibration
from repro.pcie.address import Region
from repro.pcie.device import Device, TagPool
from repro.pcie.forwarding import EgressQueue
from repro.pcie.port import Port, PortRole
from repro.pcie.tlp import TLP, TLPKind, make_completion
from repro.peach2.dma import DMAController
from repro.peach2.firmware import NIOSFirmware
from repro.peach2.registers import (BAR0_SIZE, NUM_DMA_CHANNELS,
                                    NUM_ROUTE_ENTRIES, ROUTE_ENTRY_BYTES,
                                    ROUTE_TABLE_BASE, PortCode, RegisterFile)
from repro.sim.core import Engine
from repro.units import MiB


@dataclass(frozen=True)
class PEACH2Params:
    """Static configuration of one PEACH2 chip."""

    internal_memory_bytes: int = 512 * MiB  # DDR3 SODIMM + embedded SRAM
    port_s_role: PortRole = PortRole.EP
    #: Future feature (§III-D): PCIe-IP partial reconfiguration lets the
    #: S-port role flip without reloading the whole FPGA image.
    dynamic_port_s: bool = False
    num_dma_channels: int = NUM_DMA_CHANNELS
    calib: Calibration = CALIB
    #: Torus fabrics: populate the extra per-dimension ports (T pairs
    #: with S for dimension 1, U/D serve dimension 2).  The paper's
    #: 4-port chip leaves this off.
    torus_ports: bool = False
    #: Comparator-table depth; 3D fabrics need the deepened 16-entry
    #: table, the paper's chip has 8.
    num_route_entries: int = NUM_ROUTE_ENTRIES


class PEACH2Chip(Device):
    """One PEACH2 chip (the FPGA), independent of the carrier board."""

    def __init__(self, engine: Engine, name: str,
                 params: PEACH2Params = PEACH2Params()):
        super().__init__(engine, name)
        self.params = params
        calib = params.calib
        self.regs = RegisterFile(name=f"{name}.regs",
                                 num_route_entries=params.num_route_entries)
        self.internal = BackingStore(params.internal_memory_bytes,
                                     name=f"{name}.internal")
        self.tags = TagPool(engine, name=f"{name}.tags")

        self.port_n = Port(engine, f"{name}.N", PortRole.EP, self,
                           rx_credits=64)
        self.port_e = Port(engine, f"{name}.E", PortRole.EP, self,
                           rx_credits=64)
        self.port_w = Port(engine, f"{name}.W", PortRole.RC, self,
                           rx_credits=64)
        self.port_s = Port(engine, f"{name}.S", params.port_s_role, self,
                           rx_credits=64)
        self._ports_by_code: Dict[PortCode, Port] = {
            PortCode.N: self.port_n, PortCode.E: self.port_e,
            PortCode.W: self.port_w, PortCode.S: self.port_s,
        }
        if params.torus_ports:
            # Fixed roles mirror the E/W pair per dimension: the plus
            # port is an Endpoint, the minus port a Root Complex, so
            # plus->minus cables always train EP<->RC.
            self.port_t = Port(engine, f"{name}.T", PortRole.RC, self,
                               rx_credits=64)
            self.port_u = Port(engine, f"{name}.U", PortRole.EP, self,
                               rx_credits=64)
            self.port_d = Port(engine, f"{name}.D", PortRole.RC, self,
                               rx_credits=64)
            self._ports_by_code.update({
                PortCode.T: self.port_t, PortCode.U: self.port_u,
                PortCode.D: self.port_d,
            })
        residual = (calib.peach2_route_latency_ps
                    - calib.peach2_issue_interval_ps)
        self._egress: Dict[int, EgressQueue] = {
            id(port): EgressQueue(engine, port, residual)
            for port in self._ports_by_code.values()
        }

        # BARs are filled in at enumeration (board/on_enumerated).
        self.bar0: Optional[Region] = None
        self.bar2: Optional[Region] = None
        self.bar4: Optional[Region] = None

        self.dma = DMAController(self, num_channels=params.num_dma_channels)
        self.firmware = NIOSFirmware(self)
        # Operator console served by NIOS over GbE/RS-232C (§III-D).
        from repro.peach2.console import ManagementConsole
        self.console = ManagementConsole(self)
        self._route_cache: Optional[Tuple[int, list]] = None
        self.tlps_routed = 0
        # Routed-counter handle, bound once per registry (hit per TLP).
        self._bound_metrics = None
        self._m_routed = None

    # -- configuration -------------------------------------------------------------

    def assign_bars(self, bar0: Region, bar2: Region, bar4: Region) -> None:
        """Record the BIOS-assigned windows (control, internal mem, TCA)."""
        if bar0.size < BAR0_SIZE:
            raise ConfigError(f"{self.name}: BAR0 too small")
        if bar2.size < self.params.internal_memory_bytes:
            raise ConfigError(f"{self.name}: BAR2 smaller than internal memory")
        self.bar0, self.bar2, self.bar4 = bar0, bar2, bar4

    def reconfigure_port_s(self, role: PortRole) -> None:
        """Flip Port S between RC and EP.

        Without ``dynamic_port_s`` this models loading a different FPGA
        configuration image, which is only possible while the port is
        uncabled; with it, partial reconfiguration allows a live flip.
        """
        if role not in (PortRole.RC, PortRole.EP):
            raise ConfigError("port S must be RC or EP")
        if self.port_s.connected and not self.params.dynamic_port_s:
            raise ConfigError(
                f"{self.name}: cannot reload the FPGA image while port S is "
                "cabled (enable dynamic_port_s for partial reconfiguration)")
        self.port_s.role = role

    def port_by_code(self, code: PortCode) -> Port:
        """Resolve a route-entry port code to the physical port."""
        return self._ports_by_code[code]

    # -- routing -------------------------------------------------------------------

    def _routes(self) -> list:
        # Rebuild the decoded table when its raw bytes change (cheap:
        # compare the comparator area's bytes).
        table_end = (ROUTE_TABLE_BASE
                     + self.regs.num_route_entries * ROUTE_ENTRY_BYTES)
        raw = self.regs.raw[ROUTE_TABLE_BASE:table_end]
        key = raw.tobytes()
        if self._route_cache is None or self._route_cache[0] != key:
            self._route_cache = (key, self.regs.routes())
        return self._route_cache[1]

    def decide_route(self, address: int) -> Tuple[Port, Optional[int]]:
        """(output port, translated address or None) for one packet.

        Falls back to port N *untranslated* when no comparator matches:
        addresses outside the TCA window are ordinary local bus addresses
        (DMA targets in host/GPU memory, the MSI doorbell...).
        """
        for entry in self._routes():
            if entry.matches(address):
                port = self.port_by_code(entry.port)
                if entry.port is PortCode.N:
                    return port, self.translate_to_local(address)
                return port, None
        return self.port_n, None

    def translate_to_local(self, address: int) -> int:
        """Global-to-local conversion at Port N (§III-E).

        The node-region offset picks the device block; the block's base
        register supplies the local bus address: "the base address of the
        PEACH2 chip and the address offset for the specified device are
        added to or subtracted from the destination memory address".
        """
        regs = self.regs
        node_base = regs.tca_base + regs.node_id * regs.node_stride
        offset = address - node_base
        if offset < 0 or offset >= regs.node_stride:
            raise AddressError(
                f"{self.name}: 0x{address:x} is not in node {regs.node_id}'s "
                "TCA region yet matched the port-N comparator")
        block, block_offset = divmod(offset, regs.block_size)
        return regs.block_base(int(block)) + block_offset

    # -- packet handling ------------------------------------------------------------

    def handle_tlp(self, port: Port, tlp: TLP):
        """Dispatch one ingress packet: BAR access, completion, or relay."""
        calib = self.params.calib
        if tlp.kind is TLPKind.CPLD:
            self.tags.complete(tlp)
            # Scoreboard update + internal-memory landing: paces how fast
            # the read engine can consume completions.
            return self._occupy(calib.dma_cpl_processing_ps)

        if port is self.port_n:
            if self.bar0 is not None and self.bar0.contains(tlp.address):
                return self._handle_bar0(tlp)
            if self.bar2 is not None and self.bar2.contains(tlp.address):
                return self._handle_bar2(tlp)
            # Everything else on port N is TCA-window traffic.
            return self._relay(port, tlp)

        # Ring traffic (E/W/S): remote access is Memory Write only (§III-F).
        if tlp.kind is TLPKind.MRD:
            raise PCIeError(
                f"{self.name}: read request arrived from the ring on "
                f"{port.name}; PEACH2 supports only the RDMA put protocol")
        return self._relay(port, tlp)

    def _relay(self, port: Port, tlp: TLP):
        out, translated = self.decide_route(tlp.address)
        if tlp.kind is TLPKind.MRD and out is not self.port_n:
            raise PCIeError(
                f"{self.name}: remote read 0x{tlp.address:x} not supported")
        # Bubble flow control (see EgressQueue): packets *entering* the
        # ring from the host side are injections; packets already on the
        # ring (arriving on E/W/S) are transit and keep full priority.
        injection = port is self.port_n and out is not self.port_n
        return self._ingest(out, tlp, translated, injection)

    def _ingest(self, out: Port, tlp: TLP, translated: Optional[int],
                injection: bool = False):
        """Crossbar occupancy, then hand to the (bounded) egress stage."""
        yield self.params.calib.peach2_issue_interval_ps
        accepted = self._submit(out, tlp, translated, injection)
        if not accepted.fired:
            yield accepted

    def _submit(self, out: Port, tlp: TLP, translated: Optional[int],
                injection: bool = False):
        self.tlps_routed += 1
        self.firmware.note_routed(out)
        engine = self.engine
        tracer = engine.tracer
        if tracer is not None:
            tracer.emit(engine._now_ps, self.name, "route",
                        tlp.kind._value_, hex(tlp.address), out.name,
                        translated is not None)
        metrics = engine.metrics
        if metrics is not None:
            if metrics is not self._bound_metrics:
                self._bound_metrics = metrics
                self._m_routed = metrics.counter(f"peach2.{self.name}.routed")
            self._m_routed.inc()
        if translated is not None:
            tlp = TLP(tlp.kind, address=translated, length=tlp.length,
                      payload=tlp.payload, requester_id=tlp.requester_id,
                      tag=tlp.tag)
        queue = self._egress[id(out)]
        if injection and out is not self.port_n:
            return queue.submit_injection(tlp)
        return queue.submit(tlp)

    def _occupy(self, interval_ps: int):
        yield interval_ps

    # -- BAR0: control registers ------------------------------------------------------

    def _handle_bar0(self, tlp: TLP):
        offset = self.bar0.offset_of(tlp.address)
        if tlp.kind is TLPKind.MWR:
            self.regs.write(offset, tlp.payload)
            return None
        if tlp.kind is TLPKind.MRD:
            self.engine.after(self.params.calib.reg_read_latency_ps,
                              self._complete_read, tlp,
                              self.regs.read(offset, tlp.length))
            return None
        return None

    # -- BAR2: internal packet memory ---------------------------------------------------

    def _handle_bar2(self, tlp: TLP):
        offset = self.bar2.offset_of(tlp.address)
        if tlp.kind is TLPKind.MWR:
            self.internal.write(offset, tlp.payload)
            return None
        if tlp.kind is TLPKind.MRD:
            self.engine.after(self.params.calib.internal_read_latency_ps,
                              self._complete_read, tlp,
                              self.internal.read(offset, tlp.length))
            return None
        return None

    def _complete_read(self, request: TLP, data: np.ndarray) -> None:
        chunk = self.params.calib.mps_bytes
        for start in range(0, len(data), chunk):
            self.port_n.send(make_completion(request, data[start:start + chunk]))

    # -- DMAC access points -----------------------------------------------------------

    def inject(self, tlp: TLP):
        """Packet sourced inside the chip (DMAC data, descriptor fetches,
        completion MSIs) entering the crossbar.

        Returns the egress-acceptance signal; DMA streams yield it so a
        congested output (e.g. a QPI-throttled far socket) backpressures
        the engine instead of buffering unboundedly.
        """
        out, translated = self.decide_route(tlp.address)
        if tlp.kind is TLPKind.MRD and out is not self.port_n:
            raise PCIeError(
                f"{self.name}: the DMAC cannot read remote memory "
                f"(0x{tlp.address:x} routes to {out.name})")
        # DMAC packets bound for the ring are injections (bubble rule).
        return self._submit(out, tlp, translated,
                            injection=out is not self.port_n)

    def routes_off_node(self, address: int) -> bool:
        """True if the address routes out a ring port (E/W/S)."""
        out, _ = self.decide_route(address)
        return out not in (None, self.port_n)

    def tca_block_of(self, address: int) -> Optional[int]:
        """Device-block index of a TCA-window address (None if outside).

        Uses the shared Fig. 4 geometry programmed into the identity
        registers; valid for any node's region, not just this node's.
        """
        regs = self.regs
        stride = regs.node_stride
        if stride == 0:
            return None
        offset = address - regs.tca_base
        # The window size comes from BAR4 (the whole 512-GB region), not
        # from stride * 16: a 64-node fabric shrinks the stride, but the
        # window still holds every node's slot.
        window = self.bar4.size if self.bar4 is not None else stride * 16
        if offset < 0 or offset >= window:
            return None
        return int((offset % stride) // regs.block_size)

    def is_internal_address(self, address: int, length: int = 1) -> bool:
        """True if the bus address targets this chip's internal memory."""
        return self.bar2 is not None and self.bar2.contains(address, length)

    def internal_offset(self, address: int) -> int:
        """Internal-memory offset of a BAR2 bus address."""
        if self.bar2 is None:
            raise ConfigError(f"{self.name}: BAR2 not assigned")
        return self.bar2.offset_of(address)
