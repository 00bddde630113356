"""Device base class and requester-ID/tag bookkeeping.

Every fabric component (memory controller, GPU endpoint, PEACH2 chip,
switch, IB HCA) is a :class:`Device`: it owns ports, consumes packets from
their ingress queues, and may issue read requests whose completions are
matched back by ``(requester_id, tag)`` exactly like on real PCIe.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import CompletionTimeoutError, PCIeError
from repro.pcie.tlp import TLP, TLPKind
from repro.sim.core import Engine, Signal

DeviceId = int

_device_ids: Iterator[int] = itertools.count(1)


def allocate_device_id() -> DeviceId:
    """Globally unique requester/completer ID for a new device."""
    return next(_device_ids)


class Device:
    """Base class: owns ports and handles the packets they deliver.

    Subclasses implement :meth:`handle_tlp`.  The port machinery calls it
    once per ingested packet, *after* the packet has cleared the ingress
    queue (so queue backpressure is already applied).
    """

    def __init__(self, engine: Engine, name: str):
        self.engine = engine
        self.name = name
        self.device_id: DeviceId = allocate_device_id()

    def handle_tlp(self, port: "Port", tlp: TLP):  # pragma: no cover - abstract
        """Consume one packet delivered on ``port``.

        May return a generator to be run as a process (for multi-step
        handling), or None for instantaneous handling.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r}, id={self.device_id})"


class TagPool:
    """Outstanding-read tag allocator and completion matcher for one device.

    ``issue`` registers a pending read and returns the tag plus a signal
    that fires with the reassembled data once *all* completion bytes have
    arrived (a single MRd may legally be answered by several CplDs).

    With ``completion_timeout_ps`` set, a read whose completion never
    arrives raises :class:`CompletionTimeoutError` out of the engine run
    instead of deadlocking the simulation — the PCIe completion-timeout
    mechanism a faulted fabric (switch drop, dead cable) relies on.  The
    default (``None``) schedules nothing, so un-faulted timing and the
    event heap are untouched.
    """

    MAX_TAGS = 256  # 8-bit PCIe tag field

    def __init__(self, engine: Engine, name: str = "",
                 completion_timeout_ps: Optional[int] = None):
        self.engine = engine
        self.name = name
        self.completion_timeout_ps = completion_timeout_ps
        self._next = 0
        # Entry: (done, buffer, expected_bytes, issue_serial).  The serial
        # distinguishes reuses of a tag so a stale timeout cannot kill a
        # younger read that recycled the number.
        self._pending: Dict[int, Tuple[Signal, bytearray, int, int]] = {}
        self._serial = 0
        self.timeouts = 0

    @property
    def outstanding(self) -> int:
        """Number of reads currently awaiting completions."""
        return len(self._pending)

    def issue(self, expected_bytes: int) -> Tuple[int, Signal]:
        """Allocate a tag for a read expecting ``expected_bytes`` back."""
        if len(self._pending) >= self.MAX_TAGS:
            raise PCIeError(f"{self.name}: tag space exhausted")
        for _ in range(self.MAX_TAGS):
            tag = self._next
            self._next = (self._next + 1) % self.MAX_TAGS
            if tag not in self._pending:
                break
        else:  # pragma: no cover - guarded by the check above
            raise PCIeError(f"{self.name}: no free tag")
        done = self.engine.signal(f"{self.name}.read[{tag}]")
        self._serial += 1
        serial = self._serial
        self._pending[tag] = (done, bytearray(), expected_bytes, serial)
        if self.completion_timeout_ps is not None:
            self.engine.after(self.completion_timeout_ps,
                              self._expire, tag, serial)
        return tag, done

    def _expire(self, tag: int, serial: int) -> None:
        entry = self._pending.get(tag)
        if entry is None or entry[3] != serial:
            return  # completed in time (or the tag was reused since)
        del self._pending[tag]
        self.timeouts += 1
        if self.engine.tracer is not None:
            self.engine.trace(self.name, "completion-timeout", tag)
        if self.engine.metrics is not None:
            self.engine.metrics.counter(
                f"tags.{self.name}.completion_timeouts").inc()
        # Raised from an engine callback, this propagates out of
        # Engine.step()/run() to whoever drives the simulation.
        raise CompletionTimeoutError(
            f"{self.name}: no completion for tag {tag} within "
            f"{self.completion_timeout_ps} ps")

    def complete(self, tlp: TLP) -> None:
        """Feed a CplD back; fires the signal when the read is whole."""
        if tlp.kind is not TLPKind.CPLD:
            raise PCIeError(f"{self.name}: not a completion: {tlp}")
        entry = self._pending.get(tlp.tag)
        if entry is None:
            raise PCIeError(f"{self.name}: completion for unknown tag {tlp.tag}")
        done, buf, expected, _ = entry
        buf.extend(tlp.payload.tobytes())
        if len(buf) > expected:
            raise PCIeError(
                f"{self.name}: tag {tlp.tag} over-completed "
                f"({len(buf)} > {expected} bytes)")
        if len(buf) == expected:
            del self._pending[tlp.tag]
            done.fire(bytes(buf))
