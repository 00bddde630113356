"""PCIe switch: address-routed forwarding with pipelined latency.

Models the PCIe switch embedded in the Xeon E5 socket (§III-C): memory
requests route by address against the node's address map, completions
route back by requester ID.  Forwarding is pipelined — each packet takes
``forward_latency_ps`` to traverse, but a new packet can enter every
``issue_interval_ps`` — so the switch adds latency without capping
throughput below the link rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import AddressError, ConfigError
from repro.pcie.address import AddressSpace, Region
from repro.pcie.device import Device, DeviceId
from repro.pcie.forwarding import EgressQueue
from repro.pcie.port import Port, PortRole
from repro.pcie.tlp import TLP, TLPKind
from repro.sim.core import Engine
from repro.units import ns


@dataclass(frozen=True)
class SwitchParams:
    """Timing of one switch: per-packet traversal and issue interval."""

    forward_latency_ps: int = ns(50)
    issue_interval_ps: int = ns(2)


class PCIeSwitch(Device):
    """Address/ID-routed crossbar with per-ingress-port pipelining."""

    def __init__(self, engine: Engine, name: str,
                 params: SwitchParams = SwitchParams()):
        super().__init__(engine, name)
        self.params = params
        self.routes = AddressSpace(name=f"{name}.routes")
        self.id_routes: Dict[DeviceId, Port] = {}
        self.ports: Dict[str, Port] = {}
        self._egress: Dict[int, EgressQueue] = {}
        self.tlps_forwarded = 0
        #: Packets lost inside the crossbar (fault injection only).
        self.tlps_dropped = 0
        # Forwarded-counter handle, bound once per registry (hit per TLP).
        self._bound_metrics = None
        self._m_forwarded = None

    def new_port(self, name: str, role: PortRole = PortRole.RC,
                 rx_credits: int = 32) -> Port:
        """Create a port on this switch (downstream ports face RC-side)."""
        if name in self.ports:
            raise ConfigError(f"{self.name}: duplicate port {name!r}")
        port = Port(self.engine, f"{self.name}.{name}", role, self,
                    rx_credits=rx_credits)
        self.ports[name] = port
        residual = (self.params.forward_latency_ps
                    - self.params.issue_interval_ps)
        self._egress[id(port)] = EgressQueue(self.engine, port, residual)
        return port

    def map_region(self, region: Region, port: Port) -> None:
        """Route memory requests for ``region`` out of ``port``."""
        self.routes.add(region, port)

    def map_device(self, device_id: DeviceId, port: Port) -> None:
        """Route completions for ``device_id`` out of ``port``."""
        if device_id in self.id_routes:
            raise ConfigError(f"{self.name}: device {device_id} already mapped")
        self.id_routes[device_id] = port

    def route_for(self, tlp: TLP) -> Port:
        """Output port for a packet (completions by ID, the rest by address)."""
        if tlp.kind is TLPKind.CPLD:
            port = self.id_routes.get(tlp.requester_id)
            if port is None:
                raise AddressError(
                    f"{self.name}: no completion route for requester "
                    f"{tlp.requester_id}")
            return port
        return self.routes.lookup(tlp.address)

    def handle_tlp(self, port: Port, tlp: TLP):
        """Forward with pipelined latency; block when the egress is full.

        The ingress is occupied for one issue interval per packet; a
        congested output then holds the ingress, which backs up the
        feeding link's credits — real PCIe-style backpressure.
        """
        out = self.route_for(tlp)
        return self._ingest(out, tlp)

    def _ingest(self, out: Port, tlp: TLP):
        yield self.params.issue_interval_ps
        faults = self.engine.faults
        if faults is not None and faults.switch_drop(self.name):
            # The crossbar lost this packet.  There is no DLL inside the
            # switch, so nothing retransmits here — recovery is end to
            # end (completion timeout / driver retry).
            self.tlps_dropped += 1
            if self.engine.tracer is not None:
                self.engine.trace(self.name, "switch-drop",
                                  tlp.kind.value, out.name)
            if self.engine.metrics is not None:
                self.engine.metrics.counter(
                    f"switch.{self.name}.dropped").inc()
            return
        self.tlps_forwarded += 1
        engine = self.engine
        tracer = engine.tracer
        if tracer is not None:
            tracer.emit(engine._now_ps, self.name, "switch-forward",
                        tlp.kind._value_, out.name)
        metrics = engine.metrics
        if metrics is not None:
            if metrics is not self._bound_metrics:
                self._bound_metrics = metrics
                self._m_forwarded = metrics.counter(
                    f"switch.{self.name}.forwarded")
            self._m_forwarded.inc()
        accepted = self._egress[id(out)].submit(tlp)
        if not accepted.fired:
            yield accepted
