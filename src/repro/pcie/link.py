"""Full-duplex PCIe links with serialization, latency and credit flow.

Each direction of a link is an independent transmitter: packets serialize
one after another at the post-encoding link rate (so a 256-B-payload TLP
occupies the wire for its full 280-B framed footprint), then arrive at the
far port a fixed ``latency_ps`` later (PHY + propagation, store-and-forward
at the receiver).  A credit pool the size of the receiver's ingress buffer
provides backpressure: when the far device stops draining, the transmitter
stalls — exactly how posted-write flow control throttles a slow sink such
as the QPI bridge.

Data-link-layer reliability (exercised only under fault injection, see
:mod:`repro.faults`): every transmitted TLP notionally sits in a replay
buffer until acknowledged.  A TLP that arrives with a bad LCRC is NAK'd —
the transmitter pays the NAK round trip, then reserializes and retransmits
it.  A TLP lost on the wire draws no ACK at all; the replay timer expires
and the transmitter retransmits.  Either way delivery is in-order and the
payload reaches the sink intact, at a real latency cost — the PEARL /
APEnet+ style link-level retransmission the paper's §III-A names.

``take_down()`` models unplugging the cable: TLPs still in flight (already
serialized, not yet delivered) are *dropped and counted*, never delivered
after the link died, and queued TLPs die at the transmitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import LinkError
from repro.pcie.gen import PCIeGen, link_bytes_per_ps
from repro.pcie.port import Port
from repro.pcie.tlp import TLP
from repro.sim.core import Engine, Signal
from repro.sim.queues import Resource, Store
from repro.units import transfer_ps


@dataclass(frozen=True)
class LinkParams:
    """Static characteristics of one physical link.

    ``latency_ps`` is the one-way packet latency beyond wire serialization
    (transmitter/receiver PHY plus propagation; larger for external cables
    than for on-board traces).  ``replay_timeout_ps`` is how long the
    transmitter waits for an ACK before retransmitting a lost TLP; a NAK'd
    (corrupted) TLP instead costs the detect + NAK-DLLP round trip of
    ``2 * latency_ps + nak_processing_ps`` before its replay.
    """

    gen: PCIeGen = PCIeGen.GEN2
    lanes: int = 8
    latency_ps: int = 120_000  # 120 ns default; calibrated values in model/
    rx_credits: int = 32
    #: Transmit-queue depth; bounded so that a stalled receiver
    #: backpressures the sender instead of buffering unboundedly.
    tx_queue_tlps: int = 4
    #: ACK-timeout before a lost TLP is replayed (PCIe replay timer).
    replay_timeout_ps: int = 1_000_000  # 1 us
    #: Receiver LCRC check + NAK DLLP turnaround at the far end.
    nak_processing_ps: int = 8_000

    @property
    def bytes_per_ps(self) -> float:
        """Post-encoding data rate."""
        return link_bytes_per_ps(self.gen, self.lanes)


class _Direction:
    """One simplex half of a link: tx queue, wire, credits, delivery."""

    def __init__(self, engine: Engine, name: str, source: Port, sink: Port,
                 params: LinkParams, link: "PCIeLink"):
        self.engine = engine
        self.name = name
        self.source = source
        self.sink = sink
        self.params = params
        self.link = link
        self.tx = Store(engine, capacity=params.tx_queue_tlps,
                        name=f"{name}.tx")
        # Credits mirror the *sink's* actual ingress buffer so the
        # guaranteed-space invariant in _deliver holds.
        credit_count = sink.ingress.capacity or params.rx_credits
        self.credits = Resource(engine, credit_count, name=f"{name}.fc")
        #: Goodput: framed bytes / TLPs accepted onto the wire toward
        #: delivery — each TLP counts **once**, however many times the DLL
        #: had to retransmit it.
        self.bytes_carried = 0
        self.tlps_carried = 0
        #: Wire traffic: framed bytes / TLPs serialized, **including**
        #: every NAK/replay retransmission.  ``wire - carried`` is the
        #: bandwidth the DLL burned on reliability.
        self.wire_bytes_carried = 0
        self.wire_tlps_carried = 0
        #: TLPs that died with the link (queued or in flight at take_down).
        self.tlps_dropped = 0
        #: DLL retransmissions (NAK'd + replay-timer expirations).
        self.replays = 0
        #: Replays caused by receiver NAKs (bad LCRC).
        self.naks = 0
        # Serialization times keyed on framed size: TLP trains are made of
        # a handful of distinct wire footprints (MPS-sized payloads plus a
        # header-only straggler), so the float division in transfer_ps
        # collapses to a dict hit on every TLP after the first.
        self._serialize_ps: dict = {}
        # Metric instrument handles, bound once per registry instead of
        # paying an f-string + registry lookup on every TLP (hot path).
        self._bound_metrics = None
        self._m_busy = None
        self._m_tlps = None
        self._m_bytes = None
        self._m_wire_tlps = None
        self._m_wire_bytes = None
        engine.process(self._transmitter(), name=f"{name}.xmit")
        # Return a credit whenever the sink device drains one packet.
        sink.ingress_drained = self._on_drained

    def _bind_metrics(self, registry) -> None:
        """(Re)bind per-TLP instrument handles to ``registry``."""
        self._bound_metrics = registry
        name = self.name
        self._m_busy = registry.gauge(f"link.{name}.busy")
        self._m_tlps = registry.counter(f"link.{name}.tlps")
        self._m_bytes = registry.counter(f"link.{name}.bytes")
        self._m_wire_tlps = registry.counter(f"link.{name}.wire_tlps")
        self._m_wire_bytes = registry.counter(f"link.{name}.wire_bytes")

    def _on_drained(self) -> None:
        self.credits.release()

    def _drop(self, tlp: TLP, where: str) -> None:
        self.tlps_dropped += 1
        if self.engine.tracer is not None:
            self.engine.trace(self.name, "link-drop", where,
                              tlp.kind.value, tlp.wire_bytes)
        if self.engine.metrics is not None:
            self.engine.metrics.counter(f"link.{self.name}.dropped").inc()

    def _transmitter(self):
        # The replay loop runs inline in the transmitter: the direction
        # is occupied for the whole NAK/replay sequence of one TLP, which
        # keeps delivery strictly in order (the replay buffer retransmits
        # before anything younger may pass) — and, when no fault fires,
        # the event sequence is identical to a replay-free transmitter.
        engine = self.engine
        bytes_per_ps = self.params.bytes_per_ps
        latency_ps = self.params.latency_ps
        link = self.link
        tx_get = self.tx.get
        acquire_credit = self.credits.acquire
        serialize_cache = self._serialize_ps
        while True:
            tlp = yield tx_get()
            if not link.up:
                # The cable died while this packet sat in the tx queue.
                self._drop(tlp, where="tx-queue")
                continue
            yield acquire_credit()
            epoch = link.epoch
            wire_bytes = tlp.wire_bytes
            serialize_ps = serialize_cache.get(wire_bytes)
            if serialize_ps is None:
                serialize_ps = transfer_ps(wire_bytes, bytes_per_ps)
                serialize_cache[wire_bytes] = serialize_ps
            while True:
                metrics = engine.metrics
                if metrics is not None:
                    if metrics is not self._bound_metrics:
                        self._bind_metrics(metrics)
                    self._m_busy.set(1, engine._now_ps)
                yield serialize_ps
                self.wire_bytes_carried += wire_bytes
                self.wire_tlps_carried += 1
                tracer = engine.tracer
                if tracer is not None:
                    tracer.emit(engine._now_ps, self.name, "link-tx",
                                serialize_ps, wire_bytes, tlp.kind._value_)
                metrics = engine.metrics
                if metrics is not None:
                    if metrics is not self._bound_metrics:
                        self._bind_metrics(metrics)
                    self._m_busy.set(0, engine._now_ps)
                    self._m_wire_tlps.inc()
                    self._m_wire_bytes.inc(wire_bytes)

                faults = engine.faults
                verdict = ("ok" if faults is None
                           else faults.link_verdict(self.name))
                if verdict == "ok":
                    self.bytes_carried += wire_bytes
                    self.tlps_carried += 1
                    if metrics is not None:
                        self._m_tlps.inc()
                        self._m_bytes.inc(wire_bytes)
                    engine.after(latency_ps, self._deliver, tlp, epoch)
                    break

                # The TLP never gets ACK'd: pay the detection cost, then
                # retransmit from the replay buffer.
                self.replays += 1
                if verdict == "corrupt":
                    self.naks += 1
                    if self.engine.tracer is not None:
                        self.engine.trace(self.name, "link-nak",
                                          tlp.kind.value)
                    if self.engine.metrics is not None:
                        self.engine.metrics.counter(
                            f"link.{self.name}.naks").inc()
                    # Corrupted TLP reaches the receiver (latency), fails
                    # the LCRC check, the NAK DLLP travels back (latency).
                    yield (2 * self.params.latency_ps
                           + self.params.nak_processing_ps)
                else:  # dropped on the wire: only the replay timer notices
                    if self.engine.tracer is not None:
                        self.engine.trace(self.name, "link-replay-timeout",
                                          tlp.kind.value)
                    yield self.params.replay_timeout_ps
                if self.engine.metrics is not None:
                    self.engine.metrics.counter(
                        f"link.{self.name}.replays").inc()
                if not self.link.up or self.link.epoch != epoch:
                    # The link died mid-replay; the sink will never drain
                    # this packet, so return its flow-control credit.
                    self._drop(tlp, where="replay")
                    self.credits.release()
                    break

    def _deliver(self, tlp: TLP, epoch: int) -> None:
        if not self.link.up or self.link.epoch != epoch:
            # The cable died (or flapped) while this packet flew: it is
            # lost, never delivered on a link that already went down.
            self._drop(tlp, where="in-flight")
            self.credits.release()
            return
        # Space is guaranteed: a credit is held until the sink drains.
        if not self.sink.ingress.try_put(tlp):  # pragma: no cover - invariant
            raise LinkError(f"{self.name}: rx overflow despite credits")


class PCIeLink:
    """A trained link between an RC-facing and an EP-facing port."""

    def __init__(self, engine: Engine, port_a: Port, port_b: Port,
                 params: Optional[LinkParams] = None, name: str = ""):
        params = params or LinkParams()
        if not port_a.role.can_train_with(port_b.role):
            raise LinkError(
                f"link {name!r}: cannot train {port_a.name}({port_a.role.value})"
                f" with {port_b.name}({port_b.role.value})")
        self.engine = engine
        self.name = name or f"{port_a.name}<->{port_b.name}"
        self.params = params
        self.up = True
        #: Bumped on every take_down so in-flight packets of an earlier
        #: link session can never be delivered after a flap.
        self.epoch = 0
        #: Simulated time of the most recent take_down (for time-to-heal).
        self.down_since_ps: Optional[int] = None
        self._dir_ab = _Direction(engine, f"{self.name}:a->b", port_a, port_b,
                                  params, self)
        self._dir_ba = _Direction(engine, f"{self.name}:b->a", port_b, port_a,
                                  params, self)
        self._by_source = {id(port_a): self._dir_ab, id(port_b): self._dir_ba}
        port_a.attach(self)
        port_b.attach(self)
        if engine.faults is not None:
            engine.faults.register_link(self)

    def transmit(self, source: Port, tlp: TLP) -> Signal:
        """Queue ``tlp`` for the direction whose transmitter is ``source``."""
        if not self.up:
            raise LinkError(f"link {self.name} is down")
        direction = self._by_source.get(id(source))
        if direction is None:
            raise LinkError(f"{source.name} is not an end of link {self.name}")
        return direction.tx.put(tlp)

    def take_down(self) -> None:
        """Simulate unplugging the external cable.

        Packets already serialized onto the wire are dropped (and counted
        in :attr:`tlps_dropped`) instead of being delivered after the
        link died; packets still queued die at the transmitter.
        """
        if not self.up:
            return
        self.up = False
        self.epoch += 1
        self.down_since_ps = self.engine.now_ps
        if self.engine.tracer is not None:
            self.engine.trace(self.name, "link-down")

    def bring_up(self) -> None:
        """Re-train the link after :meth:`take_down`."""
        if self.up:
            return
        self.up = True
        self.down_since_ps = None
        if self.engine.tracer is not None:
            self.engine.trace(self.name, "link-up")

    @property
    def bytes_carried(self) -> int:
        """Goodput: framed bytes carried in both directions (one count per
        TLP, replays excluded)."""
        return self._dir_ab.bytes_carried + self._dir_ba.bytes_carried

    @property
    def tlps_carried(self) -> int:
        """Goodput: packets carried in both directions (replays excluded)."""
        return self._dir_ab.tlps_carried + self._dir_ba.tlps_carried

    @property
    def wire_bytes_carried(self) -> int:
        """Wire traffic: framed bytes serialized in both directions,
        including every NAK/replay retransmission."""
        return (self._dir_ab.wire_bytes_carried
                + self._dir_ba.wire_bytes_carried)

    @property
    def wire_tlps_carried(self) -> int:
        """Wire traffic: serializations in both directions, replays
        included."""
        return (self._dir_ab.wire_tlps_carried
                + self._dir_ba.wire_tlps_carried)

    @property
    def tlps_dropped(self) -> int:
        """Packets that died with the link, both directions."""
        return self._dir_ab.tlps_dropped + self._dir_ba.tlps_dropped

    @property
    def replays(self) -> int:
        """DLL retransmissions in both directions."""
        return self._dir_ab.replays + self._dir_ba.replays

    @property
    def naks(self) -> int:
        """Receiver NAKs (bad LCRC) in both directions."""
        return self._dir_ab.naks + self._dir_ba.naks
