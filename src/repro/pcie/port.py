"""Ports: the attachment points between devices and links.

A port has a *role* — Root Complex side or Endpoint side; PCIe only trains
a link between an RC-facing (downstream) and an EP-facing (upstream) pair,
which is exactly why PEACH2 fixes Port E as EP and Port W as RC so that a
ring can always be cabled (§III-D), and why Port S must be role-selectable
to couple two rings.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.errors import LinkError
from repro.sim.core import Engine, Signal
from repro.sim.queues import Store
from repro.pcie.tlp import TLP

if TYPE_CHECKING:  # pragma: no cover
    from repro.pcie.device import Device
    from repro.pcie.link import PCIeLink


class PortRole(enum.Enum):
    """Which side of a link the port plays."""

    RC = "root-complex"
    EP = "endpoint"
    INTERNAL = "internal"  # on-die attach, exempt from RC/EP pairing

    def can_train_with(self, other: "PortRole") -> bool:
        """PCIe trains RC<->EP; INTERNAL pairs with anything internal."""
        if self is PortRole.INTERNAL or other is PortRole.INTERNAL:
            return self is other
        return self is not other


class Port:
    """One link attachment point of a device.

    Egress: :meth:`send` enqueues onto the attached link's transmit queue.
    Ingress: the link deposits packets into :attr:`ingress` (a bounded
    store modelling receive flow-control credits); the owning device drains
    it via its ingress loop.
    """

    def __init__(self, engine: Engine, name: str, role: PortRole,
                 owner: "Device", rx_credits: int = 32):
        self.engine = engine
        self.name = name
        self.role = role
        self.owner = owner
        self.link: Optional["PCIeLink"] = None
        self.ingress = Store(engine, capacity=rx_credits, name=f"{name}.rx")
        # Set by the link direction feeding this port: called once per
        # drained packet so the far transmitter gets its credit back.
        self.ingress_drained = None  # type: Optional[callable]
        self.tlps_sent = 0
        self.tlps_received = 0
        self._ingress_proc = engine.process(self._ingress_loop(),
                                            name=f"{name}.ingress")

    @property
    def connected(self) -> bool:
        """True once a link is attached and trained."""
        return self.link is not None

    def attach(self, link: "PCIeLink") -> None:
        """Called by :class:`PCIeLink` when the cable is plugged in."""
        if self.link is not None:
            raise LinkError(f"port {self.name} already linked")
        self.link = link

    def send(self, tlp: TLP) -> Signal:
        """Queue a packet for transmission; fires when accepted by the link."""
        if self.link is None:
            raise LinkError(f"port {self.name} is not connected")
        self.tlps_sent += 1
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.emit(self.engine.now_ps, self.name, "tlp-sent",
                        tlp=tlp.kind.value, addr=tlp.address,
                        bytes=tlp.wire_bytes)
        return self.link.transmit(self, tlp)

    def _ingress_loop(self):
        """Drain the ingress queue into the owner's handler, in order."""
        engine = self.engine
        ingress_get = self.ingress.get
        handle_tlp = self.owner.handle_tlp
        handle_name = f"{self.name}.handle"
        while True:
            tlp = yield ingress_get()
            self.tlps_received += 1
            tracer = engine.tracer
            if tracer is not None:
                tracer.emit(engine.now_ps, self.name, "tlp-recv",
                            tlp=tlp.kind.value, addr=tlp.address,
                            bytes=tlp.wire_bytes)
            drained = self.ingress_drained
            if drained is not None:
                drained()
            result = handle_tlp(self, tlp)
            if result is not None:
                # Multi-step handling: run it to completion before the next
                # packet, preserving PCIe's per-link ordering.
                yield engine.process(result, name=handle_name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Port({self.name!r}, {self.role.value})"
