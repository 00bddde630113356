"""QPI inter-socket bridge with peer-to-peer write degradation.

The paper observes (§IV-A2) that PEACH2 DMA writes to a GPU on the *other*
socket — i.e. peer-to-peer PCIe traffic tunnelled over QPI — collapse to a
few hundred Mbytes/s, and concludes that "P2P access through PCIe over QPI
should be still prohibited"; PEACH2 therefore only serves GPU0/GPU1 on its
own socket.  This bridge reproduces that: CPU-originated traffic crosses
with a small gap, but device-originated (P2P) packets are serialized with a
large per-packet occupancy, capping them at a few hundred Mbytes/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.pcie.device import Device, DeviceId
from repro.pcie.forwarding import EgressQueue
from repro.pcie.port import Port, PortRole
from repro.pcie.tlp import TLP
from repro.sim.core import Engine
from repro.units import ns


@dataclass(frozen=True)
class QPIParams:
    """Crossing latency plus per-packet occupancy for the two traffic classes."""

    latency_ps: int = ns(120)
    cpu_gap_ps: int = ns(4)      # CPU-originated: near line rate
    p2p_gap_ps: int = ns(800)    # device P2P: ~300 Mbytes/s at 256-B payloads


class QPIBridge(Device):
    """Two-port store-and-forward bridge between the sockets' switches."""

    def __init__(self, engine: Engine, name: str,
                 params: QPIParams = QPIParams()):
        super().__init__(engine, name)
        self.params = params
        self.port_a = Port(engine, f"{name}.a", PortRole.INTERNAL, self)
        self.port_b = Port(engine, f"{name}.b", PortRole.INTERNAL, self)
        residual = max(0, params.latency_ps - params.cpu_gap_ps)
        self._egress = {
            id(self.port_a): EgressQueue(engine, self.port_a, residual),
            id(self.port_b): EgressQueue(engine, self.port_b, residual),
        }
        # Requester IDs whose traffic counts as peer-to-peer (devices, not
        # CPU cores); registered by the node assembly.
        self.p2p_requesters: Set[DeviceId] = set()
        self.p2p_tlps = 0

    def mark_p2p_requester(self, device_id: DeviceId) -> None:
        """Traffic from ``device_id`` is device P2P and gets the slow path."""
        self.p2p_requesters.add(device_id)

    def handle_tlp(self, port: Port, tlp: TLP):
        """Cross the socket boundary with the traffic class's occupancy."""
        out = self.port_b if port is self.port_a else self.port_a
        if tlp.requester_id in self.p2p_requesters:
            self.p2p_tlps += 1
            gap = self.params.p2p_gap_ps
        else:
            gap = self.params.cpu_gap_ps
        return self._ingest(out, tlp, gap)

    def _ingest(self, out: Port, tlp: TLP, gap_ps: int):
        # Serialize the crossing at the traffic class's occupancy; a full
        # egress (stalled far side) backpressures the ingress.
        yield gap_ps
        cls = "p2p" if gap_ps == self.params.p2p_gap_ps else "cpu"
        if self.engine.tracer is not None:
            self.engine.trace(self.name, "qpi-cross", cls, tlp.kind.value)
        if self.engine.metrics is not None:
            self.engine.metrics.counter(f"qpi.{self.name}.{cls}_tlps").inc()
        accepted = self._egress[id(out)].submit(tlp)
        if not accepted.fired:
            yield accepted
