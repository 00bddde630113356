"""Compute-node assembly: sockets, switches, QPI, memory, GPUs, adapters.

Builds the Figure-2 block diagram: two Xeon sockets, each with an embedded
PCIe switch; GPU0/GPU1 under socket 0 and GPU2/GPU3 under socket 1; host
memory and the CPU complex on socket 0; adapter cards (PEACH2 board, IB
HCA) plug into socket-0 slots.  Peer-to-peer traffic that must cross QPI
goes through the :class:`~repro.pcie.qpi.QPIBridge` and suffers its P2P
penalty — which is why PEACH2 only serves GPU0/GPU1 (§III-C).

Several nodes share one :class:`~repro.sim.Engine`; a TCA sub-cluster or
an IB fabric is just a set of nodes whose adapters are cabled together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigError
from repro.hw.bios import BIOS, MOTHERBOARDS, Motherboard
from repro.hw.cpu import CPU, MSI_REGION
from repro.hw.gpu import GPU, GPUParams
from repro.hw.memory import HostMemory, MemoryParams
from repro.model.calibration import CALIB, Calibration
from repro.pcie.address import AddressSpace, Region
from repro.pcie.gen import PCIeGen
from repro.pcie.link import LinkParams, PCIeLink
from repro.pcie.port import PortRole
from repro.pcie.qpi import QPIBridge, QPIParams
from repro.pcie.switch import PCIeSwitch, SwitchParams
from repro.sim.core import Engine
from repro.units import GiB, MiB, ns


@dataclass(frozen=True)
class NodeParams:
    """Static configuration of one compute node."""

    num_gpus: int = 4
    dram_bytes: int = 128 * GiB
    gpu: GPUParams = GPUParams()
    motherboard: str = "SuperMicro X9DRG-QF"
    calib: Calibration = CALIB

    def board(self) -> Motherboard:
        """Resolve the configured motherboard model."""
        try:
            return MOTHERBOARDS[self.motherboard]
        except KeyError:
            raise ConfigError(f"unknown motherboard {self.motherboard!r}")


def internal_link(latency_ps: int) -> LinkParams:
    """On-die attach: wide/fast enough to never be the bottleneck."""
    return LinkParams(gen=PCIeGen.GEN3, lanes=32, latency_ps=latency_ps,
                      rx_credits=64)


def slot_link(calib: Calibration, lanes: int = 8,
              gen: PCIeGen = PCIeGen.GEN2) -> LinkParams:
    """A physical PCIe slot link (adapter cards, GPUs).

    The Sandy Bridge-EP sockets provide Gen3 lanes (§II-A); most devices
    of the era train at Gen2, but the IB NIC uses Gen3 x8 (Table I).
    """
    return LinkParams(gen=gen, lanes=lanes,
                      latency_ps=calib.local_link_latency_ps)


class ComputeNode:
    """One HA-PACS/TCA compute node on a shared simulation engine."""

    def __init__(self, engine: Engine, name: str,
                 params: NodeParams = NodeParams()):
        if params.num_gpus < 1 or params.num_gpus > 4:
            raise ConfigError("a node carries 1..4 GPUs")
        self.engine = engine
        self.name = name
        self.params = params
        calib = params.calib
        self.bios = BIOS(params.board())
        self.address_space = AddressSpace(name=f"{name}.addr")

        sw_params = SwitchParams(
            forward_latency_ps=calib.switch_forward_ps,
            issue_interval_ps=calib.switch_issue_interval_ps)
        self.sw0 = PCIeSwitch(engine, f"{name}.sw0", sw_params)
        self.sw1 = PCIeSwitch(engine, f"{name}.sw1", sw_params)

        qpi_params = QPIParams(latency_ps=calib.qpi_latency_ps,
                               cpu_gap_ps=calib.qpi_cpu_gap_ps,
                               p2p_gap_ps=calib.qpi_p2p_gap_ps)
        self.qpi = QPIBridge(engine, f"{name}.qpi", qpi_params)
        self._qpi_port0 = self.sw0.new_port("qpi", PortRole.INTERNAL)
        self._qpi_port1 = self.sw1.new_port("qpi", PortRole.INTERNAL)
        PCIeLink(engine, self._qpi_port0, self.qpi.port_a,
                 internal_link(ns(1)), name=f"{name}.qpi0")
        PCIeLink(engine, self._qpi_port1, self.qpi.port_b,
                 internal_link(ns(1)), name=f"{name}.qpi1")

        self.cpu = CPU(engine, f"{name}.cpu")
        self._cpu_port = self.sw0.new_port("cpu", PortRole.INTERNAL,
                                           rx_credits=64)
        PCIeLink(engine, self._cpu_port, self.cpu.port,
                 internal_link(calib.cpu_store_issue_ps), name=f"{name}.cpul")

        mem_params = MemoryParams(
            read_latency_ps=calib.host_mem_read_latency_ps,
            write_commit_ps=calib.host_mem_write_commit_ps,
            max_outstanding_reads=calib.host_mem_max_reads,
            completion_chunk=calib.mps_bytes)
        self.dram = HostMemory(engine, f"{name}.dram", params.dram_bytes,
                               mem_params)
        self.dram.region = Region(0, params.dram_bytes, f"{name}.dram")
        self._dram_port = self.sw0.new_port("dram", PortRole.INTERNAL,
                                            rx_credits=64)
        PCIeLink(engine, self._dram_port, self.dram.port,
                 internal_link(ns(1)), name=f"{name}.draml")

        self.gpus: List[GPU] = []
        self._gpu_ports = []
        for i in range(params.num_gpus):
            gpu = GPU(engine, f"{name}.gpu{i}", params.gpu)
            switch = self.sw0 if i < 2 else self.sw1
            port = switch.new_port(f"gpu{i}", PortRole.RC, rx_credits=64)
            PCIeLink(engine, port, gpu.port, slot_link(calib, lanes=16),
                     name=f"{name}.gpul{i}")
            # GPU-originated traffic crossing QPI is P2P-penalized.
            self.qpi.mark_p2p_requester(gpu.device_id)
            self.gpus.append(gpu)
            self._gpu_ports.append(port)

        self.adapters: List[object] = []
        self._adapter_ports: Dict[int, object] = {}
        self._dram_cursor = 16 * MiB  # bump allocator for driver buffers
        self._enumerated = False

    # -- adapters ---------------------------------------------------------------

    def install_adapter(self, adapter: object, lanes: int = 8,
                        gen: PCIeGen = PCIeGen.GEN2) -> None:
        """Plug an adapter card (PEACH2 board, IB HCA) into a socket-0 slot.

        The adapter must expose ``host_port`` (an EP-facing Port), a
        ``config_space`` (:class:`~repro.pcie.config_space.ConfigSpace`
        whose BARs the BIOS will size and place), and
        ``on_enumerated(node, bars: Dict[int, Region])``.
        """
        if self._enumerated:
            raise ConfigError(f"{self.name}: install adapters before enumerate()")
        slot = self.sw0.new_port(f"slot{len(self.adapters)}", PortRole.RC,
                                 rx_credits=64)
        PCIeLink(self.engine, slot, adapter.host_port,
                 slot_link(self.params.calib, lanes=lanes, gen=gen),
                 name=f"{self.name}.slot{len(self.adapters)}")
        self.qpi.mark_p2p_requester(adapter.device_id)
        self.adapters.append(adapter)
        self._adapter_ports[id(adapter)] = slot

    # -- enumeration --------------------------------------------------------------

    def enumerate(self) -> None:
        """Run the BIOS scan and build both switches' routing tables."""
        if self._enumerated:
            raise ConfigError(f"{self.name}: already enumerated")
        self._enumerated = True

        # Fixed regions: DRAM and the MSI doorbell.
        self.address_space.add(self.dram.region, self.dram)
        self.address_space.add(MSI_REGION, self.cpu)
        self.sw0.map_region(self.dram.region, self._dram_port)
        self.sw0.map_region(MSI_REGION, self._cpu_port)
        self.sw1.map_region(self.dram.region, self._qpi_port1)
        self.sw1.map_region(MSI_REGION, self._qpi_port1)

        # GPU BAR1 windows (8 GiB, the next power of two above 5 Gbytes),
        # sized and placed via the real config-space handshake.
        for i, gpu in enumerate(self.gpus):
            bar1 = self.bios.scan_function(gpu.config_space)[1]
            gpu.assign_bar1(bar1)
            self.address_space.add(bar1, gpu)
            local_sw, local_port = ((self.sw0, self._gpu_ports[i]) if i < 2
                                    else (self.sw1, self._gpu_ports[i]))
            remote_sw = self.sw1 if i < 2 else self.sw0
            qpi_port = self._qpi_port1 if i < 2 else self._qpi_port0
            local_sw.map_region(bar1, local_port)
            local_sw.map_device(gpu.device_id, local_port)
            remote_sw.map_region(bar1, qpi_port)
            remote_sw.map_device(gpu.device_id, qpi_port)

        # Adapter BARs: size, place and enable via each card's config space.
        for adapter in self.adapters:
            slot = self._adapter_ports[id(adapter)]
            bars = self.bios.scan_function(adapter.config_space)
            for region in bars.values():
                self.address_space.add(region, adapter)
                self.sw0.map_region(region, slot)
                self.sw1.map_region(region, self._qpi_port1)
            self.sw0.map_device(adapter.device_id, slot)
            self.sw1.map_device(adapter.device_id, self._qpi_port1)
            adapter.on_enumerated(self, bars)

        # CPU-bound completions.
        self.sw0.map_device(self.cpu.device_id, self._cpu_port)
        self.sw1.map_device(self.cpu.device_id, self._qpi_port1)

    def adapter_slot(self, adapter: object):
        """The switch port an installed adapter is cabled to."""
        try:
            return self._adapter_ports[id(adapter)]
        except KeyError:
            raise ConfigError(f"{self.name}: adapter not installed here")

    # -- software-visible bus access (zero simulated time) -------------------------

    def bus_read(self, address: int, nbytes: int):
        """Read bytes at a bus address (DRAM or a GPU BAR1 window).

        This is the "software already has the data mapped" view used by
        libraries (MPI copy-out, test verification); it consumes no
        simulated time — charge copy costs separately.
        """
        _, target = self.address_space.lookup_region(address, max(1, nbytes))
        if target is self.dram:
            return self.dram.cpu_read(address, nbytes)
        if isinstance(target, GPU):
            return target.memory.read(target.bar_to_offset(address), nbytes)
        raise ConfigError(f"{self.name}: bus_read of non-memory target "
                          f"at 0x{address:x}")

    def bus_write(self, address: int, data) -> None:
        """Write bytes at a bus address (DRAM or a GPU BAR1 window)."""
        _, target = self.address_space.lookup_region(address,
                                                     max(1, len(data)))
        if target is self.dram:
            self.dram.cpu_write(address, data)
            return
        if isinstance(target, GPU):
            target.memory.write(target.bar_to_offset(address), data)
            return
        raise ConfigError(f"{self.name}: bus_write of non-memory target "
                          f"at 0x{address:x}")

    # -- driver memory ------------------------------------------------------------

    def dram_alloc(self, nbytes: int, align: int = 4096) -> int:
        """Carve a physically contiguous DRAM buffer (driver allocations)."""
        base = -(-self._dram_cursor // align) * align
        if base + nbytes > self.params.dram_bytes:
            raise ConfigError(f"{self.name}: DRAM exhausted")
        self._dram_cursor = base + nbytes
        return base
