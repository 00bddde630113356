"""The PEACH2 prototype board: the chip on a PCIe carrier card.

Physical details from §III-G that matter to the model: the edge connector
is Gen2 x8 (Port N); Ports E/W/S come out as PCIe external-cable
connectors; Port S lives on a sub-board with signal repeaters (we add its
extra latency); the fabric runs at 250 MHz.  The board implements the
node's adapter protocol (a config space for the BIOS scan plus the
enumeration callback).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigError
from repro.hw.node import ComputeNode
from repro.pcie.config_space import (CAP_MSI, CAP_PCIE, Capability,
                                     ConfigSpace, VENDOR_UNIV_TSUKUBA)
from repro.pcie.address import Region
from repro.pcie.gen import PCIeGen
from repro.pcie.link import LinkParams, PCIeLink
from repro.peach2.chip import PEACH2Chip, PEACH2Params
from repro.peach2.registers import BAR0_SIZE
from repro.sim.core import Engine
from repro.units import GiB, ns

#: TCA window size: "PEACH2 reserves a relatively large address region
#: (current implementation is 512 Gbytes)" (§III-E).
TCA_WINDOW_BYTES = 512 * GiB

#: Extra one-way latency of Port S: connector to the sub-board plus the
#: PCIe signal repeater chips (§III-G).
PORT_S_EXTRA_LATENCY_PS = ns(20)


class PEACH2Board:
    """Adapter card carrying one PEACH2 chip."""

    def __init__(self, engine: Engine, name: str,
                 params: PEACH2Params = PEACH2Params()):
        self.engine = engine
        self.name = name
        self.chip = PEACH2Chip(engine, name, params)
        self.node: ComputeNode = None
        self.fabric_clock_mhz = 250
        # Port N's type-0 function: control regs, internal memory, and
        # the huge TCA window the BIOS must be able to place (footnote 2).
        self.config_space = ConfigSpace(VENDOR_UNIV_TSUKUBA, 0x7002, 0x12,
                                        name=name)
        self.config_space.add_bar(0, BAR0_SIZE, prefetchable=False)
        self.config_space.add_bar(2, params.internal_memory_bytes)
        self.config_space.add_bar(4, TCA_WINDOW_BYTES)
        self.config_space.add_capability(Capability(CAP_MSI))
        self.config_space.add_capability(Capability(CAP_PCIE))

    # -- adapter protocol (consumed by ComputeNode.install_adapter) ----------

    @property
    def host_port(self):
        """Port N: the edge connector, always the host interface."""
        return self.chip.port_n

    @property
    def device_id(self) -> int:
        """Requester/completer ID of the chip."""
        return self.chip.device_id

    def on_enumerated(self, node: ComputeNode,
                      bars: Dict[int, Region]) -> None:
        """BIOS finished; remember our node and program the chip's BARs."""
        self.node = node
        self.chip.assign_bars(bars[0], bars[2], bars[4])

    # -- cabling ----------------------------------------------------------------

    def cable_params(self, for_port_s: bool = False) -> LinkParams:
        """Link parameters of one PCIe external cable (Gen2 x8)."""
        calib = self.chip.params.calib
        latency = calib.cable_link_latency_ps
        if for_port_s:
            latency += PORT_S_EXTRA_LATENCY_PS
        return LinkParams(gen=PCIeGen.GEN2, lanes=8, latency_ps=latency)

    def cable_east_to(self, other: "PEACH2Board") -> PCIeLink:
        """Cable this board's E port (EP) to the peer's W port (RC)."""
        return PCIeLink(self.engine, self.chip.port_e, other.chip.port_w,
                        self.cable_params(),
                        name=f"{self.name}.E<->{other.name}.W")

    def cable_dim_to(self, dim: int, other: "PEACH2Board") -> PCIeLink:
        """Cable this board's plus port of torus dimension ``dim`` to the
        peer's minus port: E->W, S->T, U->D.

        Dimension 1 reuses the S-port sub-board (repeater latency
        included); its minus side lands on the peer's T port, so the
        EP/RC pairing always trains without reconfiguration.  Dimensions
        1 and 2 need chips built with ``torus_ports``.
        """
        if dim == 0:
            return self.cable_east_to(other)
        if dim not in (1, 2):
            raise ConfigError(f"no cable ports for torus dimension {dim}")
        if not (self.chip.params.torus_ports
                and other.chip.params.torus_ports):
            raise ConfigError(
                f"{self.name}/{other.name}: dimension-{dim} cables need "
                "chips built with torus_ports")
        if dim == 1:
            a, b = self.chip.port_s, other.chip.port_t
            names, params = "S<->T", self.cable_params(for_port_s=True)
        else:
            a, b = self.chip.port_u, other.chip.port_d
            names, params = "U<->D", self.cable_params()
        if not a.role.can_train_with(b.role):
            raise ConfigError(
                f"{self.name}/{other.name}: {names} ports cannot train "
                f"({a.role.value} vs {b.role.value})")
        plus, minus = names.split("<->")
        return PCIeLink(self.engine, a, b, params,
                        name=f"{self.name}.{plus}<->{other.name}.{minus}")

    def cable_south_to(self, other: "PEACH2Board") -> PCIeLink:
        """Couple two rings via the S ports (one must be RC, the other EP).

        The boards ship with complementary FPGA configuration images;
        reconfigure one side first if both have the same S role.
        """
        a, b = self.chip.port_s, other.chip.port_s
        if not a.role.can_train_with(b.role):
            raise ConfigError(
                f"{self.name}/{other.name}: both S ports are "
                f"{a.role.value}; load the complementary configuration "
                "image (reconfigure_port_s) on one of them")
        return PCIeLink(self.engine, a, b, self.cable_params(for_port_s=True),
                        name=f"{self.name}.S<->{other.name}.S")
