"""Lightweight tracing for simulation components.

Hardware models call :meth:`Tracer.emit` at interesting moments (TLP sent,
descriptor fetched, interrupt raised...).  A tracer records because it is
installed: with none on the engine (``engine.tracer is None``) a call site
costs one ``None`` check and builds nothing.

Storage is one flat list: each record is ``time_ps, component, kind``
followed by its detail values, in the order
:data:`repro.obs.events.FIELDS` names them for the kind.  Recording thus
keeps no per-record dict, tuple or object, and nothing the garbage
collector tracks (the values are ints, strings and bools).  A
:class:`TraceRecord`, with its detail keyed by those names, is built
only when a record is read.

Span convention: a record whose ``detail`` carries ``dur_ps`` describes an
interval that *ended* at ``time_ps`` after lasting ``dur_ps`` picoseconds
(components emit once the modelled work completes).  Exporters and the
latency-attribution walker in :mod:`repro.obs` rely on this.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import countOf
from typing import Any, Dict, Iterator, Optional


@dataclass(slots=True)
class TraceRecord:
    """One trace event: time, component, event kind, free-form details."""

    time_ps: int
    component: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def start_ps(self) -> int:
        """Interval start for span records (``time_ps`` for instants)."""
        return self.time_ps - int(self.detail.get("dur_ps", 0))

    def __str__(self) -> str:
        items = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time_ps / 1000:12.3f}ns] {self.component}: {self.kind} {items}"


class TraceRecords(Sequence):
    """Read-only view of a tracer's rows; each read builds one record."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer)

    def __getitem__(self, index: int) -> TraceRecord:
        """The record at ``index``, found by walking the rows from the
        first (records differ in width)."""
        return next(islice(self, range(len(self))[index], None))

    def __iter__(self) -> Iterator[TraceRecord]:
        # Deferred: repro.obs imports this module.
        from repro.obs.events import FIELDS

        rows = self._tracer._rows
        slots = iter(rows)
        used = 0
        for time_ps, component, kind in zip(slots, slots, slots):
            names = FIELDS.get(kind)
            if names is None:
                raise ValueError(
                    f"trace row {kind!r} at t={time_ps}: no such kind in "
                    "repro.obs.events.FIELDS, or an earlier row holds "
                    "more or fewer values than its kind declares")
            used += 3 + len(names)
            detail = dict(zip(names, slots))
            if None in detail.values():
                detail = {k: v for k, v in detail.items() if v is not None}
            yield TraceRecord(time_ps, component, kind, detail)
        if used != len(rows):
            raise ValueError(f"trace rows end {len(rows) - used:+d} slots "
                             "off the widths their kinds declare")


class Tracer:
    """Collects trace records as flat rows."""

    def __init__(self, max_records: Optional[int] = 100_000):
        self.max_records = max_records
        self._rows: list = []
        # Records kept, and the most the cap allows.
        self._kept = 0
        self._room = sys.maxsize if max_records is None else max_records
        # Per-kind tally of the records dropped past the cap.
        self._dropped_kinds: Counter = Counter()

    def emit(self, time_ps: int, component: str, kind: str,
             *values: Any) -> None:
        """Record one event; ``values`` are its detail, in the order
        :data:`repro.obs.events.FIELDS` names them for ``kind``."""
        if self._kept < self._room:
            self._kept += 1
            rows = self._rows
            rows.extend((time_ps, component, kind))
            rows.extend(values)
        else:
            self._dropped_kinds[kind] += 1

    def __len__(self) -> int:
        """Records kept (dropped ones excluded); builds no record."""
        return self._kept

    @property
    def records(self) -> TraceRecords:
        """The kept records, in emission order (a view, not a copy)."""
        return TraceRecords(self)

    @property
    def dropped(self) -> int:
        """Records rejected because :attr:`max_records` was reached.  A
        nonzero value flags that :attr:`records` is an incomplete window."""
        return sum(self._dropped_kinds.values())

    def count(self, kind: str) -> int:
        """Number of events of ``kind`` emitted, dropped ones included."""
        return (countOf((r.kind for r in self.records), kind)
                + self._dropped_kinds[kind])

    def clear(self) -> None:
        """Drop all records and the dropped tally."""
        self._rows.clear()
        self._kept = 0
        self._dropped_kinds.clear()

    def dump(self) -> str:
        """All records as a newline-joined string (for debugging)."""
        return "\n".join(str(r) for r in self.records)
