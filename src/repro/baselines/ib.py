"""InfiniBand: links, a two-port switch, and Verbs-level HCAs.

The HA-PACS base cluster uses Mellanox ConnectX-3 QDR (Table I); QDR 4X
signals 40 Gbit/s with 8b/10b encoding, i.e. 4 Gbytes/s of data rate per
rail.  The HCA is a PCIe device like any other in this simulation: an RDMA
write DMA-reads the local source over PCIe (or takes it inline for tiny
messages, as real verbs do), streams MTU-sized frames over the IB wire,
and the peer HCA DMA-writes them to the destination bus address — which
may be host DRAM or, with GPUDirect RDMA, a pinned GPU BAR (§V).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ConfigError, DriverError
from repro.hw.node import ComputeNode
from repro.model.calibration import CALIB
from repro.pcie.address import Region
from repro.pcie.config_space import (CAP_MSI, CAP_PCIE, Capability,
                                     ConfigSpace, VENDOR_MELLANOX)
from repro.pcie.device import Device, TagPool
from repro.pcie.packetizer import split_read_requests, split_transfer
from repro.pcie.port import Port, PortRole
from repro.pcie.tlp import TLP, TLPKind, make_read, make_write
from repro.sim.core import Engine, Signal
from repro.sim.queues import Resource, Store
from repro.units import KiB, ns, transfer_ps


@dataclass(frozen=True)
class IBParams:
    """Wire and HCA timing for one IB generation."""

    #: Post-encoding data rate (bytes/ps).  QDR 4X: 40 Gb/s * 8/10 / 8.
    wire_bytes_per_ps: float = 4e9 / 1e12
    #: One-way cable+PHY latency.
    link_latency_ps: int = ns(200)
    #: Per-frame overhead: LRH(8)+BTH(12)+RETH(16)+ICRC(4)+VCRC(2).
    frame_overhead_bytes: int = 42
    mtu_bytes: int = 2048
    #: Verbs software: build WQE + post_send.
    post_send_ps: int = ns(200)
    #: Doorbell MMIO write reaching the HCA (uncached store).
    doorbell_ps: int = ns(250)
    #: HCA packet-processing per frame, each side.
    hca_frame_ps: int = ns(60)
    #: WQE fetch/translation before the first frame.
    hca_wqe_ps: int = ns(150)
    #: Max payload carried inline in the WQE (skips the local DMA read).
    inline_threshold: int = 188
    #: Completion-queue poll granularity at the requester.
    cq_poll_ps: int = ns(100)
    #: Outstanding PCIe reads the HCA keeps while fetching source data.
    dma_window: int = 16


QDR_PARAMS = IBParams()
FDR_PARAMS = IBParams(wire_bytes_per_ps=6.8e9 / 1e12, link_latency_ps=ns(180))
#: The base cluster's dual-rail configuration (Table I: "Dual-port QDR";
#: §II-A: "the interface can provide approximately 8 Gbytes/sec"): the
#: driver stripes bulk transfers across both rails, modelled as a doubled
#: wire rate on one logical rail.
QDR_DUAL_PARAMS = IBParams(wire_bytes_per_ps=8e9 / 1e12)

_frame_serial = itertools.count()


@dataclass
class IBFrame:
    """One wire frame of an RDMA write (or a 0-byte completion/ack)."""

    kind: str                 # "rdma-write" | "ack" | "send"
    dst_addr: int
    payload: Optional[np.ndarray]
    wr_id: int
    last: bool
    #: Source/destination LIDs; point-to-point cables ignore them, the
    #: switched fabric (repro.tca.hybrid) routes by dst_lid.
    src_lid: int = 0
    dst_lid: int = 0
    serial: int = field(default_factory=lambda: next(_frame_serial))

    @property
    def wire_bytes(self) -> int:
        """Framed size on the IB wire."""
        body = 0 if self.payload is None else len(self.payload)
        return body + 42


class IBLink:
    """Full-duplex IB cable between two HCAs (or HCA and switch)."""

    def __init__(self, engine: Engine, end_a: "IBHca", end_b: "IBHca",
                 params: IBParams, name: str = "ib-link"):
        self.engine = engine
        self.params = params
        self.name = name
        self._tx: Dict[int, Store] = {id(end_a): Store(engine),
                                      id(end_b): Store(engine)}
        self._peer = {id(end_a): end_b, id(end_b): end_a}
        end_a.attach_link(self)
        end_b.attach_link(self)
        for end in (end_a, end_b):
            engine.process(self._pump(end), name=f"{name}.pump")

    def transmit(self, source: "IBHca", frame: IBFrame) -> None:
        """Queue a frame for the wire."""
        self._tx[id(source)].put(frame)

    def _pump(self, source: "IBHca"):
        tx = self._tx[id(source)]
        peer = self._peer[id(source)]
        while True:
            frame = yield tx.get()
            yield transfer_ps(frame.wire_bytes, self.params.wire_bytes_per_ps)
            self.engine.after(self.params.link_latency_ps,
                              peer.receive_frame, frame)


class IBSwitch:
    """A cut-through IB switch hop (fixed added latency per frame)."""

    def __init__(self, engine: Engine, latency_ps: int = ns(110)):
        self.engine = engine
        self.latency_ps = latency_ps
        self.frames = 0

    def delay(self) -> int:
        """Latency this hop adds (counted per traversing frame)."""
        self.frames += 1
        return self.latency_ps


class IBHca(Device):
    """A ConnectX-style HCA: PCIe endpoint + IB port + verbs queue pairs."""

    def __init__(self, engine: Engine, name: str,
                 params: IBParams = QDR_PARAMS):
        super().__init__(engine, name)
        self.params = params
        self.host_port = Port(engine, f"{name}.pcie", PortRole.EP, self,
                              rx_credits=64)
        # ConnectX-3-style type-0 function.
        self.config_space = ConfigSpace(VENDOR_MELLANOX, 0x1003, 0x02,
                                        name=name)
        self.config_space.add_bar(0, 64 * KiB, prefetchable=False)
        self.config_space.add_capability(Capability(CAP_MSI))
        self.config_space.add_capability(Capability(CAP_PCIE))
        self.tags = TagPool(engine, name=f"{name}.tags")
        self.node: Optional[ComputeNode] = None
        self.bar0: Optional[Region] = None
        #: This port's LID on a switched fabric (0 on point-to-point).
        self.lid = 0
        self.link: Optional[IBLink] = None
        self.switch: Optional[IBSwitch] = None
        self._dma_window = Resource(engine, params.dma_window,
                                    name=f"{name}.window")
        self._wr_serial = itertools.count(1)
        self._completions: Dict[int, Signal] = {}
        self._pending_last: Dict[int, int] = {}  # wr_id -> frames not yet written
        self._recv_handlers: List[Callable[[IBFrame], None]] = []
        self.frames_sent = 0
        self.bytes_sent = 0

    # -- node-adapter protocol -----------------------------------------------------

    def on_enumerated(self, node: ComputeNode,
                      bars: Dict[int, Region]) -> None:
        """Record the node and BAR after the BIOS scan."""
        self.node = node
        self.bar0 = bars[0]

    # -- cabling ----------------------------------------------------------------------

    def attach_link(self, link: IBLink) -> None:
        """Called by IBLink construction."""
        if self.link is not None:
            raise ConfigError(f"{self.name}: IB port already cabled")
        self.link = link

    # -- PCIe-facing -------------------------------------------------------------------

    def handle_tlp(self, port: Port, tlp: TLP):
        """PCIe-side ingress: match read completions to pending fetches."""
        if tlp.kind is TLPKind.CPLD:
            self.tags.complete(tlp)
        # Doorbell writes are modelled by the explicit delays in post().
        return None

    # -- verbs -------------------------------------------------------------------------

    def rdma_write(self, local_bus_addr: int, remote_bus_addr: int,
                   nbytes: int,
                   inline_data: Optional[np.ndarray] = None,
                   dst_lid: int = 0) -> Signal:
        """Post an RDMA WRITE work request; returns the CQE signal.

        The signal fires (with the wr_id) once the remote HCA has written
        the last byte and the ACK has returned — the semantics of polling
        the send CQ with ``IBV_SEND_SIGNALED``.
        """
        wr_id = next(self._wr_serial)
        cqe = self.engine.signal(f"{self.name}.cqe{wr_id}")
        self._completions[wr_id] = cqe
        self.engine.process(
            self._execute_write(wr_id, local_bus_addr, remote_bus_addr,
                                nbytes, inline_data, dst_lid),
            name=f"{self.name}.wr{wr_id}")
        return cqe

    def _execute_write(self, wr_id: int, local: int, remote: int,
                       nbytes: int, inline_data: Optional[np.ndarray],
                       dst_lid: int = 0):
        p = self.params
        yield p.post_send_ps + p.doorbell_ps + p.hca_wqe_ps
        mtu = p.mtu_bytes
        chunks = split_transfer(remote, nbytes, mtu)
        if inline_data is not None and nbytes <= p.inline_threshold:
            # Inline send: payload came with the WQE, no local DMA read.
            data = np.ascontiguousarray(inline_data, dtype=np.uint8)
            for i, (addr, size) in enumerate(chunks):
                off = addr - remote
                yield p.hca_frame_ps
                self._send_frame(IBFrame("rdma-write", addr,
                                         data[off:off + size].copy(), wr_id,
                                         i == len(chunks) - 1,
                                         src_lid=self.lid, dst_lid=dst_lid))
            return
        # Streaming pipeline: the source fetch runs ahead, emitting a
        # frame as soon as its bytes are contiguous — so PCIe reads and
        # the IB wire overlap like on a real HCA.
        frame_q: Store = Store(self.engine, name=f"{self.name}.frames")
        self.engine.process(
            self._stream_source(wr_id, local, remote, nbytes, chunks,
                                frame_q, dst_lid),
            name=f"{self.name}.src")
        for _ in range(len(chunks)):
            frame = yield frame_q.get()
            yield p.hca_frame_ps
            self._send_frame(frame)

    def _stream_source(self, wr_id: int, local: int, remote: int,
                       nbytes: int, chunks, frame_q: Store,
                       dst_lid: int = 0):
        """Windowed PCIe reads of the source; emit frames at the frontier."""
        buf = np.zeros(nbytes, dtype=np.uint8)
        state = {"frontier": 0, "next_frame": 0}
        landed: Dict[int, int] = {}

        def _advance() -> None:
            while state["frontier"] in landed:
                state["frontier"] += landed.pop(state["frontier"])
            while state["next_frame"] < len(chunks):
                addr, size = chunks[state["next_frame"]]
                start = addr - remote
                if start + size > state["frontier"]:
                    break
                frame_q.put(IBFrame(
                    "rdma-write", addr, buf[start:start + size].copy(),
                    wr_id, state["next_frame"] == len(chunks) - 1,
                    src_lid=self.lid, dst_lid=dst_lid))
                state["next_frame"] += 1

        for addr, size in split_read_requests(local, nbytes,
                                              CALIB.mrrs_bytes):
            yield self._dma_window.acquire()
            tag, done = self.tags.issue(size)
            accepted = self.host_port.send(make_read(
                addr, size, requester_id=self.device_id, tag=tag))
            if not accepted.fired:
                yield accepted
            offset = addr - local

            def _land(data: bytes, _off: int = offset) -> None:
                buf[_off:_off + len(data)] = np.frombuffer(data,
                                                           dtype=np.uint8)
                landed[_off] = len(data)
                self._dma_window.release()
                _advance()

            done.add_callback(_land)

    def _send_frame(self, frame: IBFrame) -> None:
        if self.link is None:
            raise ConfigError(f"{self.name}: no IB cable attached")
        self.frames_sent += 1
        self.bytes_sent += frame.wire_bytes
        if self.switch is not None:
            self.engine.after(self.switch.delay(), self.link.transmit,
                              self, frame)
        else:
            self.link.transmit(self, frame)

    # -- receive side -------------------------------------------------------------------

    def receive_frame(self, frame: IBFrame) -> None:
        """Wire delivery: land RDMA data over PCIe, ack when complete."""
        self.engine.process(self._ingest(frame), name=f"{self.name}.rx")

    def _ingest(self, frame: IBFrame):
        p = self.params
        yield p.hca_frame_ps
        if frame.kind == "ack":
            cqe = self._completions.pop(frame.wr_id, None)
            if cqe is None:
                raise DriverError(f"{self.name}: ack for unknown WR "
                                  f"{frame.wr_id}")
            yield p.cq_poll_ps
            cqe.fire(frame.wr_id)
            return
        if frame.kind == "send":
            for handler in self._recv_handlers:
                handler(frame)
            return
        # RDMA write data: split to PCIe MWr toward the destination.
        rate = self.host_port.link.params.bytes_per_ps
        data = frame.payload
        for addr, size in split_transfer(frame.dst_addr, len(data),
                                         CALIB.mps_bytes):
            off = addr - frame.dst_addr
            tlp = make_write(addr, data[off:off + size],
                             requester_id=self.device_id)
            yield transfer_ps(tlp.wire_bytes, rate)
            accepted = self.host_port.send(tlp)
            if not accepted.fired:
                yield accepted
        if frame.last:
            self._send_frame(IBFrame("ack", 0, None, frame.wr_id, True,
                                     src_lid=self.lid,
                                     dst_lid=frame.src_lid))

    # -- two-sided small messages (eager MPI uses these) ----------------------------------

    def register_recv_handler(self,
                              handler: Callable[[IBFrame], None]) -> None:
        """Deliver incoming ``send`` frames to the (MPI) upper layer."""
        self._recv_handlers.append(handler)

    def post_send_message(self, payload: np.ndarray, wr_id: int = 0,
                          dst_lid: int = 0) -> None:
        """Fire-and-forget two-sided send of a small control message."""
        self.engine.process(self._execute_send(payload, wr_id, dst_lid),
                            name=f"{self.name}.send")

    def _execute_send(self, payload: np.ndarray, wr_id: int,
                      dst_lid: int = 0):
        p = self.params
        yield p.post_send_ps + p.doorbell_ps + p.hca_wqe_ps
        yield p.hca_frame_ps
        self._send_frame(IBFrame("send", 0,
                                 np.ascontiguousarray(payload,
                                                      dtype=np.uint8),
                                 wr_id, True, src_lid=self.lid,
                                 dst_lid=dst_lid))


def install_hca(node: ComputeNode, params: IBParams = QDR_PARAMS) -> IBHca:
    """Create an HCA and plug it into a Gen3 x8 slot (Table I's NIC)."""
    from repro.pcie.gen import PCIeGen

    hca = IBHca(node.engine, f"{node.name}.hca", params)
    node.install_adapter(hca, lanes=8, gen=PCIeGen.GEN3)
    return hca
