"""Exporters: Chrome/Perfetto trace-event JSON and metrics dumps.

The trace exporter emits the `Trace Event Format`_ understood by
``chrome://tracing`` and https://ui.perfetto.dev: each simulation engine
becomes a *process* (pid), each emitting component a *thread* (tid), span
records become complete ("X") events and everything else instant ("i")
events.  Timestamps are microseconds (the format's unit) converted from
the engine's integer picoseconds.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, Iterator, Sequence

_PS_PER_US = 1_000_000.0

#: Events per ``encode`` call of :func:`write_perfetto`: enough to
#: amortise the encoder's set-up per call, few enough to keep memory flat.
_EVENTS_PER_WRITE = 1024

#: Perfetto sorts same-name tracks by tid; keep attribution on top.
ATTRIBUTION_TRACK = "latency-attribution"


def _ts_us(time_ps: int) -> float:
    return time_ps / _PS_PER_US


def _args(detail: Dict[str, Any]) -> Dict[str, Any]:
    return {k: (v if isinstance(v, (int, float, bool, str)) else str(v))
            for k, v in detail.items()}


def _events(engines: Sequence[tuple]) -> Iterator[dict]:
    """Every event of the trace document, in document order.

    Per engine: its process name, the latency-attribution track (tid 0)
    when it has segments, one event per record, then the thread names
    of the record components, whose tids count up from 1 in first-seen
    order.
    """
    for pid, (label, records, segments) in enumerate(engines, start=1):
        yield {"ph": "M", "pid": pid, "tid": 0,
               "name": "process_name", "args": {"name": label}}
        if segments:
            yield {"ph": "M", "pid": pid, "tid": 0, "name": "thread_name",
                   "args": {"name": ATTRIBUTION_TRACK}}
            for seg in segments:
                yield {"ph": "X", "pid": pid, "tid": 0, "name": seg.name,
                       "ts": _ts_us(seg.start_ps), "dur": _ts_us(seg.dur_ps),
                       "args": {"component": seg.component,
                                "dur_ns": seg.dur_ps / 1000.0}}
        tids: Dict[str, int] = {}
        for r in records:
            tid = tids.get(r.component)
            if tid is None:
                tid = tids[r.component] = len(tids) + 1
            dur_ps = r.detail.get("dur_ps")
            if dur_ps:
                yield {"ph": "X", "pid": pid, "tid": tid, "name": r.kind,
                       "ts": _ts_us(r.start_ps), "dur": _ts_us(dur_ps),
                       "args": _args(r.detail)}
            else:
                yield {"ph": "i", "pid": pid, "tid": tid, "name": r.kind,
                       "ts": _ts_us(r.time_ps), "s": "t",
                       "args": _args(r.detail)}
        for component, tid in tids.items():
            yield {"ph": "M", "pid": pid, "tid": tid,
                   "name": "thread_name", "args": {"name": component}}


def perfetto_trace(engines: Sequence[tuple]) -> Dict[str, Any]:
    """Build the full trace document.

    ``engines`` is a sequence of ``(label, records, segments)`` triples —
    one per simulation engine; ``segments`` may be None/empty when no
    latency attribution applies to that engine.
    """
    return {"traceEvents": list(_events(engines)), "displayTimeUnit": "ns"}


def write_perfetto(path: str, engines: Sequence[tuple]) -> None:
    """Write the Perfetto-loadable JSON trace to ``path``.

    The file holds exactly ``json.dumps(perfetto_trace(engines),
    separators=(",", ":"))``, but the events are encoded and written a
    batch at a time, so the export holds one batch in memory, not the
    whole document.  Compact output is what lets ``json`` use its C
    encoder; any ``indent`` selects the pure-Python one.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    events = _events(engines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"traceEvents":[')
        separator = ""
        while batch := list(itertools.islice(events, _EVENTS_PER_WRITE)):
            # encode() brackets each batch; the document has one list.
            fh.write(separator + encode(batch)[1:-1])
            separator = ","
        fh.write('],"displayTimeUnit":"ns"}')


#: Version tag of the document written by :func:`write_metrics`.
METRICS_SCHEMA = "tca-bench-metrics/1"


def metrics_document(engines: Sequence[tuple]) -> Dict[str, Any]:
    """Metrics dump: ``{"schema", "engines": [{"label", ...}...]}``.

    ``engines`` is a sequence of ``(label, registry, now_ps)`` triples.
    """
    return {"schema": METRICS_SCHEMA, "engines": [
        {"label": label, "now_ps": now_ps,
         "metrics": registry.to_dict(now_ps)}
        for label, registry, now_ps in engines
    ]}


def write_metrics(path: str, engines: Sequence[tuple]) -> None:
    """Write the metrics JSON document to ``path`` (keys sorted, so two
    dumps of the same state diff clean)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics_document(engines), fh, indent=1, sort_keys=True)


def render_metrics(engines: Sequence[tuple]) -> str:
    """Text rendering of every engine's registry (terminal dump)."""
    blocks = []
    for label, registry, now_ps in engines:
        text = registry.render_text(now_ps)
        blocks.append(f"== {label} (t={now_ps / 1000:.3f} ns) ==\n{text}"
                      if text else f"== {label} == (no metrics)")
    return "\n\n".join(blocks)
