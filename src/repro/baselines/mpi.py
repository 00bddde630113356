"""A small MPI point-to-point stack over IB verbs.

Implements the two protocols every MPI uses on InfiniBand:

* **eager** (small messages): the payload is RDMA-written into the
  receiver's pre-registered eager ring buffer together with a control
  header; the receiver's MPI library copies it out on match.  Costs two
  host-memory copies plus the verbs round trip — the overhead TCA
  eliminates (§V: "the overhead of MPI protocol stack can be eliminated").
* **rendezvous** (large messages): RTS/CTS handshake, then a zero-copy
  RDMA write straight into the posted receive buffer, then FIN.

The endpoints speak through :class:`~repro.baselines.ib.IBHca` devices,
so every byte still moves as simulated PCIe + IB traffic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.ib import IBFrame, IBHca
from repro.errors import ConfigError
from repro.hw.node import ComputeNode
from repro.sim.core import Engine, Signal
from repro.units import KiB, MiB, ns, transfer_ps

_HDR = "<BIIQQQ"  # kind, src_rank, tag, size, addr, token
_HDR_BYTES = struct.calcsize(_HDR)

K_EAGER = 1
K_RTS = 2
K_CTS = 3
K_FIN = 4


@dataclass(frozen=True)
class MPIParams:
    """Software costs and protocol thresholds of the MPI library."""

    eager_threshold: int = 12 * KiB
    #: Library call overhead (argument checking, protocol selection).
    call_overhead_ps: int = ns(300)
    #: Host memcpy bandwidth for eager-buffer copies.
    memcpy_bytes_per_ps: float = 6e9 / 1e12
    #: Size of each endpoint's eager ring buffer.
    eager_buffer_bytes: int = 1 * MiB
    #: Matching-engine cost per message.
    match_ps: int = ns(150)


def _pack(kind: int, src_rank: int, tag: int, size: int, addr: int,
          token: int) -> np.ndarray:
    return np.frombuffer(struct.pack(_HDR, kind, src_rank, tag, size, addr,
                                     token), dtype=np.uint8).copy()


def _unpack(payload: np.ndarray) -> Tuple[int, int, int, int, int, int]:
    return struct.unpack(_HDR, payload.tobytes()[:_HDR_BYTES])


class MPIWorld:
    """A communicator: ranks, endpoints, and the wiring between them."""

    def __init__(self, params: MPIParams = MPIParams()):
        self.params = params
        self.endpoints: List["MPIEndpoint"] = []

    def add_endpoint(self, node: ComputeNode, hca: IBHca) -> "MPIEndpoint":
        """Register the next rank."""
        endpoint = MPIEndpoint(self, len(self.endpoints), node, hca)
        self.endpoints.append(endpoint)
        return endpoint

    def rank(self, index: int) -> "MPIEndpoint":
        """Endpoint by rank."""
        return self.endpoints[index]


class MPIEndpoint:
    """One rank: eager buffers, matching engine, protocol state."""

    def __init__(self, world: MPIWorld, rank: int, node: ComputeNode,
                 hca: IBHca):
        self.world = world
        self.rank = rank
        self.node = node
        self.hca = hca
        self.engine: Engine = node.engine
        self.params = world.params
        self.eager_base = node.dram_alloc(self.params.eager_buffer_bytes)
        self._eager_cursor = 0
        # Unexpected-message queue and posted receives, keyed by
        # (src_rank, tag); tag -1 is the wildcard.
        self._unexpected: List[Tuple[int, int, int, int, int]] = []
        self._posted: List[Tuple[int, int, int, int, Signal]] = []
        self._pending_cts: Dict[int, Signal] = {}
        self._pending_fin: Dict[int, Signal] = {}
        self._token = 0
        hca.register_recv_handler(self._on_control)
        self.messages_sent = 0
        self.bytes_sent = 0

    # -- helpers -------------------------------------------------------------------

    def _alloc_eager_slot(self, nbytes: int) -> int:
        if nbytes > self.params.eager_buffer_bytes:
            raise ConfigError("eager message larger than the ring buffer")
        if self._eager_cursor + nbytes > self.params.eager_buffer_bytes:
            self._eager_cursor = 0
        slot = self.eager_base + self._eager_cursor
        self._eager_cursor += nbytes
        return slot

    def _next_token(self) -> int:
        self._token += 1
        return self._token

    def _memcpy_ps(self, nbytes: int) -> int:
        return transfer_ps(nbytes, self.params.memcpy_bytes_per_ps)

    # -- the two-sided API ------------------------------------------------------------

    def isend(self, dest_rank: int, src_bus_addr: int, nbytes: int,
              tag: int = 0) -> Signal:
        """Non-blocking send; the signal fires at sender completion."""
        done = self.engine.signal(f"mpi{self.rank}.send")
        self.engine.process(
            self._send_proc(dest_rank, src_bus_addr, nbytes, tag, done),
            name=f"mpi{self.rank}.send")
        return done

    def irecv(self, src_rank: int, dst_bus_addr: int, nbytes: int,
              tag: int = -1) -> Signal:
        """Non-blocking receive; the signal fires when data has landed."""
        done = self.engine.signal(f"mpi{self.rank}.recv")
        self.engine.process(
            self._recv_proc(src_rank, dst_bus_addr, nbytes, tag, done),
            name=f"mpi{self.rank}.recv")
        return done

    def send(self, dest_rank: int, src_bus_addr: int, nbytes: int,
             tag: int = 0):
        """Process: blocking send."""
        result = yield self.isend(dest_rank, src_bus_addr, nbytes, tag)
        return result

    def recv(self, src_rank: int, dst_bus_addr: int, nbytes: int,
             tag: int = -1):
        """Process: blocking receive."""
        result = yield self.irecv(src_rank, dst_bus_addr, nbytes, tag)
        return result

    # -- sender side --------------------------------------------------------------------

    def _send_proc(self, dest_rank: int, src: int, nbytes: int, tag: int,
                   done: Signal):
        peer = self.world.rank(dest_rank)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        yield self.params.call_overhead_ps
        if nbytes <= self.params.eager_threshold:
            yield self.engine.process(
                self._send_eager(peer, src, nbytes, tag))
        else:
            yield self.engine.process(
                self._send_rendezvous(peer, src, nbytes, tag))
        done.fire(nbytes)

    def _send_eager(self, peer: "MPIEndpoint", src: int, nbytes: int,
                    tag: int):
        # Copy user data into the send-side bounce buffer (first copy of
        # the conventional path).
        yield self._memcpy_ps(nbytes)
        slot = peer._alloc_eager_slot(max(nbytes, 1))
        if nbytes > 0:
            cqe = self.hca.rdma_write(src, slot, nbytes,
                                      dst_lid=peer.hca.lid)
            yield cqe
        self.hca.post_send_message(
            _pack(K_EAGER, self.rank, tag, nbytes, slot, 0),
            dst_lid=peer.hca.lid)

    def _send_rendezvous(self, peer: "MPIEndpoint", src: int, nbytes: int,
                         tag: int):
        token = self._next_token()
        cts = self.engine.signal(f"mpi{self.rank}.cts{token}")
        self._pending_cts[token] = cts
        self.hca.post_send_message(
            _pack(K_RTS, self.rank, tag, nbytes, 0, token),
            dst_lid=peer.hca.lid)
        dst_addr = yield cts
        cqe = self.hca.rdma_write(src, dst_addr, nbytes,
                                  dst_lid=peer.hca.lid)
        yield cqe
        self.hca.post_send_message(
            _pack(K_FIN, self.rank, tag, nbytes, 0, token),
            dst_lid=peer.hca.lid)

    # -- receiver side ------------------------------------------------------------------

    def _recv_proc(self, src_rank: int, dst: int, nbytes: int, tag: int,
                   done: Signal):
        yield self.params.call_overhead_ps + self.params.match_ps
        # Check the unexpected queue first (eager arrivals and RTSes).
        for i, (kind, s_rank, m_tag, size, meta) in enumerate(self._unexpected):
            if s_rank == src_rank and (tag in (-1, m_tag)):
                del self._unexpected[i]
                yield self.engine.process(self._complete_recv(
                    kind, s_rank, m_tag, size, meta, dst, nbytes))
                done.fire(size)
                return
        arrived = self.engine.signal(f"mpi{self.rank}.match")
        self._posted.append((src_rank, tag, dst, nbytes, arrived))
        size = yield arrived
        done.fire(size)

    def _complete_recv(self, kind: int, src_rank: int, tag: int, size: int,
                       meta: int, dst: int, nbytes: int):
        if size > nbytes:
            raise ConfigError(f"MPI truncation: {size} > {nbytes}")
        if kind == K_EAGER:
            # Copy out of the eager ring into the user buffer (the second
            # copy of the conventional path); with CUDA-aware MPI the user
            # buffer may be a GPU BAR window.
            yield self._memcpy_ps(size)
            data = self.node.dram.cpu_read(meta, size)
            self.node.bus_write(dst, data)
            return
        # RTS: reply CTS with the destination address; done arrives as FIN.
        token = meta
        fin = self.engine.signal(f"mpi{self.rank}.fin{token}")
        self._pending_fin[token] = fin
        self.hca.post_send_message(
            _pack(K_CTS, self.rank, tag, size, dst, token),
            dst_lid=self.world.rank(src_rank).hca.lid)
        yield fin

    def _on_control(self, frame: IBFrame) -> None:
        kind, src_rank, tag, size, addr, token = _unpack(frame.payload)
        if kind == K_CTS:
            self._pending_cts.pop(token).fire(addr)
            return
        if kind == K_FIN:
            self._pending_fin.pop(token).fire(size)
            return
        # EAGER or RTS: try to match a posted receive.
        for i, (p_src, p_tag, dst, nbytes, arrived) in enumerate(self._posted):
            if p_src == src_rank and (p_tag in (-1, tag)):
                del self._posted[i]
                meta = addr if kind == K_EAGER else token

                def _finish(_k=kind, _m=meta, _d=dst, _n=nbytes,
                            _s=size, _a=arrived, _t=tag, _r=src_rank):
                    yield self.engine.process(self._complete_recv(
                        _k, _r, _t, _s, _m, _d, _n))
                    _a.fire(_s)

                self.engine.process(_finish(), name="mpi.match-complete")
                return
        meta = addr if kind == K_EAGER else token
        self._unexpected.append((kind, src_rank, tag, size, meta))
