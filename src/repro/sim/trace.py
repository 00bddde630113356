"""Lightweight tracing for simulation components.

Hardware models call :meth:`Tracer.emit` at interesting moments (TLP sent,
descriptor fetched, interrupt raised...).  A tracer records because it is
installed: with none on the engine (``engine.tracer is None``) a call site
costs one ``None`` check and builds nothing.

Storage is a flat list of rows, four slots per record, so recording
allocates nothing the garbage collector tracks (the detail dicts hold
only ints, strings and bools, which CPython leaves untracked).
:class:`TraceRecord` objects are built only when a record is read.

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

# Slots per record in a tracer's rows: time_ps, component, kind, detail.
_WIDTH = 4


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

    __slots__ = ("_rows",)

    def __init__(self, rows: list):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows) // _WIDTH

    def __getitem__(self, index: int) -> TraceRecord:
        start = range(len(self))[index] * _WIDTH
        return TraceRecord(*self._rows[start:start + _WIDTH])

    def __iter__(self) -> Iterator[TraceRecord]:
        rows = iter(self._rows)
        for time_ps, component, kind, detail in zip(rows, rows, rows, rows):
            yield TraceRecord(time_ps, component, kind, detail)


class Tracer:
    """Collects trace records as flat rows."""

    def __init__(self, max_records: Optional[int] = 100_000):
        self.max_records = max_records
        self._rows: list = []
        # Row slots the cap allows; emit compares the list length to it.
        self._room = (sys.maxsize if max_records is None
                      else _WIDTH * max_records)
        # Per-kind tally of the records dropped past the cap.
        self._dropped_kinds: Counter = Counter()

    def emit(self, time_ps: int, component: str, kind: str, **detail: Any) -> None:
        """Record one event."""
        rows = self._rows
        if len(rows) < self._room:
            rows.extend((time_ps, component, kind, detail))
        else:
            self._dropped_kinds[kind] += 1

    def __len__(self) -> int:
        """Records kept (dropped ones excluded); builds no record."""
        return len(self._rows) // _WIDTH

    @property
    def records(self) -> TraceRecords:
        """The kept records, in emission order (a view, not a copy)."""
        return TraceRecords(self._rows)

    @property
    def dropped(self) -> int:
        """Records rejected because :attr:`max_records` was reached.  A
        nonzero value flags that :attr:`records` is an incomplete window."""
        return sum(self._dropped_kinds.values())

    def count(self, kind: str) -> int:
        """Number of events of ``kind`` emitted, dropped ones included."""
        return (countOf(islice(self._rows, 2, None, _WIDTH), kind)
                + self._dropped_kinds[kind])

    def clear(self) -> None:
        """Drop all records and the dropped tally."""
        self._rows.clear()
        self._dropped_kinds.clear()

    def dump(self) -> str:
        """All records as a newline-joined string (for debugging)."""
        return "\n".join(str(r) for r in self.records)
