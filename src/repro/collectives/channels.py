"""Multi-channel DMA chain scheduling for one node.

PEACH2 carries four independent DMA channels (§III-F2); the paper's own
microbenchmarks drive one at a time, but a collective wants several
chains in flight per node — e.g. a bidirectional broadcast puts East and
West simultaneously, and a dual-ring collective adds an S-port exchange
on top.  :class:`ChannelScheduler` owns a node's channels and hands each
submitted descriptor chain to the first idle one, queueing (FIFO) when
all are busy.

Ordering caveat, per §III-H: chains on *different* channels are not
ordered against each other, and a DMA chain is not ordered against CPU
PIO stores issued while it runs.  A completion flag is therefore only
sound if it is stored *after* the payload chain's completion interrupt —
which is exactly what :class:`~repro.collectives.ring.TCACollectives`
does — because from that point the flag store follows the payload on the
same source-routed path and posted-write ordering holds.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.peach2.descriptor import DMADescriptor
from repro.sim.core import Signal
from repro.tca.subcluster import TCASubCluster


class ChannelScheduler:
    """FIFO arbitration of one node's DMA channels for chained puts.

    :meth:`submit` never blocks the caller: it returns a signal that
    fires (with the chain's doorbell-to-IRQ picoseconds) when the chain
    completes, launching immediately if a channel is idle and queueing
    otherwise.  Idle channels are handed out FIFO (round-robin over
    time); since the channels are identical engines this never changes
    timing, and a node with one outstanding chain at a time behaves
    exactly like the classic single-channel code path.
    """

    def __init__(self, cluster: TCASubCluster, node_id: int,
                 channels: Optional[Sequence[int]] = None):
        self.cluster = cluster
        self.node_id = node_id
        self.driver = cluster.driver(node_id)
        self.chip = cluster.board(node_id).chip
        self.engine = cluster.engine
        num = self.chip.dma.num_channels
        if channels is None:
            channels = range(num)
        channels = list(channels)
        if not channels:
            raise ConfigError("a scheduler needs at least one DMA channel")
        if len(set(channels)) != len(channels):
            raise ConfigError("duplicate DMA channels")
        for ch in channels:
            if not 0 <= ch < num:
                raise ConfigError(f"channel {ch} out of range (chip has "
                                  f"{num})")
        self.channels = channels
        self._free: Deque[int] = deque(sorted(channels))
        self._queue: Deque[Tuple[List[DMADescriptor], Signal]] = deque()
        self._idle_waiters: List[Signal] = []
        # Statistics the tests and metrics read.
        self.submitted = 0
        self.completed = 0
        self.inflight = 0
        self.max_inflight = 0
        self.queued_high_water = 0

    # -- submission ----------------------------------------------------------------

    def submit(self, descriptors: Sequence[DMADescriptor]) -> Signal:
        """Submit one chain; returns a signal firing with its elapsed ps."""
        if not descriptors:
            raise ConfigError("empty descriptor chain")
        done = self.engine.signal(
            f"node{self.node_id}.sched.{self.submitted}")
        self.submitted += 1
        if self._free:
            self._launch(self._free.popleft(), list(descriptors), done)
        else:
            self._queue.append((list(descriptors), done))
            self.queued_high_water = max(self.queued_high_water,
                                         len(self._queue))
        return done

    def _launch(self, channel: int, descriptors: List[DMADescriptor],
                done: Signal) -> None:
        self.inflight += 1
        self.max_inflight = max(self.max_inflight, self.inflight)
        start_tsc = self.driver.node.cpu.read_tsc()
        if self.engine.tracer is not None:
            self.engine.trace(f"node{self.node_id}.sched", "chain-launch",
                              channel, len(descriptors))
        irq = self.driver.submit_chain(channel, descriptors)
        irq.add_callback(
            lambda end_tsc: self._complete(channel, done,
                                           end_tsc - start_tsc))

    def _complete(self, channel: int, done: Signal, elapsed_ps: int) -> None:
        self.inflight -= 1
        self.completed += 1
        if self._queue:
            descriptors, waiter = self._queue.popleft()
            self._launch(channel, descriptors, waiter)
        else:
            self._free.append(channel)
        done.fire(elapsed_ps)
        if self.inflight == 0 and not self._queue and self._idle_waiters:
            waiters, self._idle_waiters = self._idle_waiters, []
            for signal in waiters:
                signal.fire(self.completed)

    # -- synchronization -----------------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when nothing is in flight or queued."""
        return self.inflight == 0 and not self._queue

    def drain(self):
        """Process: wait until every submitted chain has completed."""
        while not self.idle:
            signal = self.engine.signal(f"node{self.node_id}.sched.idle")
            self._idle_waiters.append(signal)
            yield signal

    def chains_per_channel(self) -> dict:
        """Chip-level chain counts for this scheduler's channels."""
        counts = self.chip.dma.chains_per_channel
        return {ch: counts[ch] for ch in self.channels}
