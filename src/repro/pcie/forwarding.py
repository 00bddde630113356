"""Bounded egress queues: pipelined forwarding with real backpressure.

Every store-and-forward element (switch, PEACH2 crossbar, QPI/NTB bridge)
forwards packets with a *pipelined* latency — a packet takes
``forward_latency`` to traverse, but a new one can enter every
``issue_interval``.  The egress stage here preserves that timing while
staying **bounded**: when the downstream link (whose transmit queue is
also bounded) stops draining — a QPI-throttled peer, a busy completer —
the egress queue fills, the ingress handler blocks on ``submit``, the
ingress buffer fills, link credits run out, and the stall propagates all
the way back to the traffic source, exactly like PCIe flow control.
"""

from __future__ import annotations

from repro.errors import LinkError
from repro.pcie.port import Port
from repro.pcie.tlp import TLP
from repro.sim.core import Engine, Signal
from repro.sim.queues import Store


class EgressQueue:
    """Latency-preserving, bounded queue in front of one output port.

    For ring directions the queue also implements **bubble flow control**
    (Carrión et al.): packets *injected into* the ring (from the host or
    the DMA engine) may only enqueue while at least ``bubble`` slots stay
    free, whereas ring *transit* packets may use every slot.  Transit
    therefore never loses the free "hole" it needs to keep rotating, so a
    ring of bounded queues cannot deadlock under cyclic saturation — the
    situation an all-nodes-shift workload creates (E19).
    """

    BUBBLE_SLOTS = 2

    def __init__(self, engine: Engine, port: Port, residual_latency_ps: int,
                 capacity: int = 8, name: str = ""):
        self.engine = engine
        self.port = port
        self.residual_latency_ps = max(0, residual_latency_ps)
        self.name = name or f"{port.name}.egress"
        self.store = Store(engine, capacity=capacity, name=self.name)
        self.tlps_emitted = 0
        #: Packets abandoned because the output link died (faulted runs).
        self.tlps_dropped = 0
        self.injections_held = 0
        self._injection_waiters = []  # (signal, tlp) FIFO
        # Depth-gauge handle, bound once per registry (sampled per TLP).
        self._bound_metrics = None
        self._m_depth = None
        engine.process(self._emitter(), name=f"{self.name}.emit")

    def _sample_depth(self) -> None:
        """Time-weighted egress depth sample (cheap no-op when metrics off)."""
        metrics = self.engine.metrics
        if metrics is not None:
            if metrics is not self._bound_metrics:
                self._bound_metrics = metrics
                self._m_depth = metrics.gauge(f"egress.{self.name}.depth")
            self._m_depth.set(len(self.store), self.engine._now_ps)

    def submit(self, tlp: TLP) -> Signal:
        """Hand a transit/ejection packet to the egress stage.

        The returned signal fires when the packet is *accepted* (queued);
        a full queue delays it — that is the backpressure edge.
        """
        accepted = self.store.put((self.engine.now_ps, tlp))
        if self.engine.metrics is not None:
            self._sample_depth()
        return accepted

    def submit_injection(self, tlp: TLP) -> Signal:
        """Inject a new packet into a ring direction (bubble rule).

        Enqueues only while ``BUBBLE_SLOTS`` slots remain free; otherwise
        the injection waits for transit to drain — ring packets always
        keep a circulating hole.
        """
        accepted = self.engine.signal(f"{self.name}.inject")
        if not self._injection_waiters and self._has_bubble():
            self.store.put((self.engine.now_ps, tlp))
            self._sample_depth()
            accepted.fire()
        else:
            self.injections_held += 1
            self._injection_waiters.append((accepted, tlp))
        return accepted

    def _has_bubble(self) -> bool:
        free = self.store.free_slots
        return free is None or free >= self.BUBBLE_SLOTS

    def _admit_injections(self) -> None:
        while self._injection_waiters and self._has_bubble():
            accepted, tlp = self._injection_waiters.pop(0)
            self.store.put((self.engine.now_ps, tlp))
            self._sample_depth()
            accepted.fire()

    def _emitter(self):
        engine = self.engine
        store_get = self.store.get
        port_send = self.port.send
        residual_latency_ps = self.residual_latency_ps
        while True:
            enqueued_ps, tlp = yield store_get()
            if engine.metrics is not None:
                self._sample_depth()
            if self._injection_waiters:
                self._admit_injections()
            # Let the pipeline latency elapse relative to ingress time.
            target = enqueued_ps + residual_latency_ps
            if target > engine.now_ps:
                yield target - engine.now_ps
            try:
                accepted = port_send(tlp)
            except LinkError:
                # The output link is down.  Without fault injection that
                # is a configuration bug and must stay fatal; under an
                # armed fault plan it is an injected cable failure, and a
                # store-and-forward stage drops the packet (counted) so
                # the fabric can keep moving and the healed route can
                # carry the retry.
                if self.engine.faults is None:
                    raise
                self.tlps_dropped += 1
                # The dead link never serialized this packet, so no
                # link-level counter saw it: record the drop in the
                # fabric-wide fault accounting here (exactly once) so
                # healed-mid-flight losses show up in ``--metrics`` and
                # chaos reports instead of being under-counted.
                self.engine.faults.count("tlps_dropped_egress")
                if self.engine.tracer is not None:
                    self.engine.trace(self.name, "egress-drop",
                                      tlp.kind.value)
                if self.engine.metrics is not None:
                    self.engine.metrics.counter(
                        f"egress.{self.name}.dropped").inc()
                continue
            if not accepted.fired:
                yield accepted
            self.tlps_emitted += 1
