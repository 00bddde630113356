"""Host-time spans recorded from outside the program.

The benchmark wraps public entry points of each layer (engine loops, rig
and cluster constructors, collectives, the suite harness) and records a
span around every call: its name, start, end, parent and repetition id.
Nothing under ``src/`` knows about it; the wrappers are installed on the
classes and modules for the duration of a traced repetition and removed
afterwards, so untraced repetitions run the program unmodified.

Span names are ``"<layer>:<call>"``.  A layer's self time is its span
minus the spans and aggregated leaves directly under it.  Leaves called
10^5-10^6 times per repetition (``Engine.step``) are not kept as spans
but aggregated per parent: a count and a total.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: A patch point: (owner object, attribute, span name, aggregate as leaf).
Point = Tuple[object, str, str, bool]


class Span:
    """One call into a layer, in host seconds."""

    __slots__ = ("name", "start", "end", "parent", "rep", "leaves")

    def __init__(self, name: str, start: float, parent: int,
                 rep: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rep = rep
        #: Aggregated leaf calls made directly under this span:
        #: name -> [count, total seconds].
        self.leaves: Dict[str, List[float]] = {}

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; exported when the benchmark ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Repetition id stamped on every span opened while it is set.
        self.rep: Optional[str] = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent, self.rep))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with a span recorded around every call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    def wrap_leaf(self, fn: Callable, name: str) -> Callable:
        """``fn`` with calls counted and timed per parent span.

        A call made outside every span has no parent and is not counted.
        """
        clock = self.clock
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                if stack:
                    slot = spans[stack[-1]].leaves.setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += elapsed
        return counted

    @contextlib.contextmanager
    def installed(self, points: Iterable[Point]) -> Iterator[None]:
        """Wrap every patch point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, leaf in points:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                wrapper = self.wrap_leaf if leaf else self.wrap
                setattr(owner, attr, wrapper(original, name))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_time(span: Span, children: Iterable[Span]) -> float:
    """The span's duration minus what its direct children cover."""
    covered = sum(c.duration for c in children)
    covered += sum(total for _, total in span.leaves.values())
    return span.duration - covered


class LayerTotals:
    """Per-layer totals over the spans of one repetition."""

    def __init__(self, tracer: Tracer, rep: str):
        self._by_index = {i: s for i, s in enumerate(tracer.spans)
                          if s.rep == rep}
        self.spans = list(self._by_index.values())
        self._children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent in self._by_index:
                self._children.setdefault(s.parent, []).append(s)

    def _parent_layer(self, span: Span) -> Optional[str]:
        parent = self._by_index.get(span.parent)
        return parent.layer if parent is not None else None

    def self_s(self, layer: str) -> float:
        """Self time of every span of ``layer``."""
        return sum(self_time(s, self._children.get(i, ()))
                   for i, s in self._by_index.items() if s.layer == layer)

    def inclusive_s(self, layer: str) -> float:
        """Time inside the layer's outermost spans and leaves.

        A span (or leaf) nested under another span of the same layer is
        already covered by its parent, so it is not added again.
        """
        total = 0.0
        for s in self.spans:
            if s.layer == layer and self._parent_layer(s) != layer:
                total += s.duration
            if s.layer != layer:
                total += sum(t for name, (_, t) in s.leaves.items()
                             if name.split(":", 1)[0] == layer)
        return total

    def named(self, name: str) -> Tuple[int, float]:
        """(calls, total seconds) of one span or leaf name."""
        calls, total = 0, 0.0
        for s in self.spans:
            if s.name == name:
                calls += 1
                total += s.duration
            leaf = s.leaves.get(name)
            if leaf is not None:
                calls += int(leaf[0])
                total += leaf[1]
        return calls, total


def trace_events(tracer: Tracer, pid: int, track: str) -> List[dict]:
    """Chrome/Perfetto trace events: one process track per workload."""
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": track}},
              {"ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
               "args": {"name": track}}]
    for i, s in enumerate(tracer.spans):
        args = {"rep": s.rep, "span": i, "parent": s.parent}
        for name, (count, total) in s.leaves.items():
            args[f"{name}.calls"] = int(count)
            args[f"{name}.total_us"] = round(total * 1e6, 3)
        events.append({"ph": "X", "name": s.name, "cat": s.layer,
                       "pid": pid, "tid": 0,
                       "ts": round((s.start - tracer.origin) * 1e6, 3),
                       "dur": round(s.duration * 1e6, 3),
                       "args": args})
    return events


def merge_trace_file(path: Path, pid: int, events: List[dict]) -> None:
    """Replace one workload's track in the trace file, keeping the rest."""
    doc = {"traceEvents": [], "displayTimeUnit": "ms"}
    if path.exists():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            pass
    kept = [e for e in doc.get("traceEvents", []) if e.get("pid") != pid]
    doc["traceEvents"] = kept + events
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
