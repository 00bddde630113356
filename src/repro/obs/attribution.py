"""Latency attribution: decompose a measured interval into named segments.

The paper's argument is about *where* time goes — the 782 ns PIO budget
(Fig. 10), descriptor-fetch serialization (Fig. 8/9), interrupt overhead
(Fig. 9's 70 %-at-4-requests).  The walkers here turn the structured
events of an instrumented run into an ordered list of :class:`Segment`
objects that **partition** the measured interval, so the segment durations
always sum exactly to the end-to-end number the benchmark reported.

Two walkers:

* :func:`attribute_pio` follows a single posted store hop by hop (store
  issue, serialization, link hops, crossbar/switch routing, memory
  commit) — the Fig. 10 decomposition;
* :func:`attribute_dma` splits one DMA chain into its coarse phases
  (doorbell, descriptor fetch, data streaming, completion interrupt) —
  the Fig. 9 overhead story.

Both raise :class:`AttributionError` when the trace does not contain the
expected milestones (tracing disabled, or multiple transfers interleaved —
attribution is a single-transfer analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs import events
from repro.sim.trace import TraceRecord

# Segment names (the taxonomy docs/observability.md documents).
SEG_STORE_ISSUE = "store-issue"
SEG_DOORBELL = "doorbell"
SEG_DESC_FETCH = "descriptor-fetch"
SEG_TLP_SERIALIZATION = "tlp-serialization"
SEG_LOCAL_HOP = "local-hop"
SEG_CABLE_HOP = "cable-hop"
SEG_ROUTING = "routing"
SEG_MEM_COMMIT = "memory-commit"
SEG_DATA_STREAM = "data-stream"
SEG_IRQ = "completion-interrupt"
SEG_UNATTRIBUTED = "unattributed"

#: Ring-port name suffixes: a hop that *lands* on one of these crossed an
#: external PCIe cable (see the naming conventions in obs/events.py).
_RING_SUFFIXES = (".E", ".W", ".S")


class AttributionError(ReproError):
    """The trace lacks the milestones the walker needs."""


@dataclass(frozen=True)
class Segment:
    """One named slice of a measured interval."""

    name: str
    component: str
    start_ps: int
    end_ps: int

    @property
    def dur_ps(self) -> int:
        return self.end_ps - self.start_ps

    def __str__(self) -> str:
        return (f"{self.name:<20} {self.component:<28} "
                f"{self.dur_ps / 1000:9.3f} ns")


def total_ps(segments: Sequence[Segment]) -> int:
    """Sum of all segment durations (== measured interval by invariant)."""
    return sum(s.dur_ps for s in segments)


def render(segments: Sequence[Segment]) -> str:
    """Human-readable budget table, with the total on the last line."""
    lines = [str(s) for s in segments]
    lines.append(f"{'total':<20} {'':<28} {total_ps(segments) / 1000:9.3f} ns")
    return "\n".join(lines)


def _milestones(records: Iterable[TraceRecord], kinds: frozenset,
                start_ps: Optional[int],
                end_ps: Optional[int]) -> List[TraceRecord]:
    picked = [r for r in records if r.kind in kinds
              and (start_ps is None or r.time_ps >= start_ps)
              and (end_ps is None or r.time_ps <= end_ps)]
    picked.sort(key=lambda r: r.time_ps)
    return picked


def _is_ring_port(component: str) -> bool:
    return component.endswith(_RING_SUFFIXES)


def _classify_pair(prev: TraceRecord, nxt: TraceRecord) -> Segment:
    """Name the interval between two consecutive PIO milestones."""
    pk, nk = prev.kind, nxt.kind
    if pk == events.PIO_STORE and nk == events.TLP_SENT:
        return Segment(SEG_STORE_ISSUE, prev.component,
                       prev.time_ps, nxt.time_ps)
    if pk == events.TLP_SENT and nk == events.LINK_TX:
        return Segment(SEG_TLP_SERIALIZATION, nxt.component,
                       prev.time_ps, nxt.time_ps)
    if pk == events.LINK_TX and nk == events.TLP_RECV:
        if "cpul" in prev.component:
            # CPU-to-root-complex attach: this hop *is* the store-buffer
            # drain cost (calibration: cpu_store_issue_ps).
            name = SEG_STORE_ISSUE
        elif _is_ring_port(nxt.component):
            name = SEG_CABLE_HOP
        else:
            name = SEG_LOCAL_HOP
        return Segment(name, prev.component, prev.time_ps, nxt.time_ps)
    if pk == events.TLP_RECV and nk == events.TLP_SENT:
        return Segment(SEG_ROUTING, prev.component,
                       prev.time_ps, nxt.time_ps)
    if pk == events.TLP_RECV and nk == events.MEM_COMMIT:
        return Segment(SEG_MEM_COMMIT, nxt.component,
                       prev.time_ps, nxt.time_ps)
    return Segment(SEG_UNATTRIBUTED, f"{prev.component}->{nxt.component}",
                   prev.time_ps, nxt.time_ps)


def attribute_pio(records: Iterable[TraceRecord],
                  keep_zero: bool = False) -> List[Segment]:
    """Decompose one posted-store flight into hop-by-hop segments.

    Follows the first ``pio-store`` through to the first ``mem-commit``
    after it.  The returned segments partition [store, commit], so their
    durations sum exactly to the one-way latency the experiment reports.
    Zero-length segments (e.g. a store accepted in the same picosecond)
    are dropped unless ``keep_zero``.
    """
    # The passes below stream ``records`` (a tracer's view builds each
    # record as it is read); only a one-shot iterator is kept in a list.
    if iter(records) is records:
        records = list(records)
    t0 = next((r.time_ps for r in records if r.kind == events.PIO_STORE),
              None)
    if t0 is None:
        raise AttributionError("no pio-store event in trace "
                               "(tracing disabled, or no PIO traffic)")
    t_end = next((r.time_ps for r in records
                  if r.kind == events.MEM_COMMIT and r.time_ps >= t0), None)
    if t_end is None:
        raise AttributionError("no mem-commit event after the pio-store; "
                               "the store never reached a memory completer")
    marks = _milestones(records, events.PIO_MILESTONES, t0, t_end)
    # Keep a single store/commit even if later traffic overlaps the window.
    marks = [m for m in marks
             if (m.kind != events.PIO_STORE or m.time_ps == t0)
             and (m.kind != events.MEM_COMMIT or m.time_ps == t_end)]
    segments = [_classify_pair(a, b) for a, b in zip(marks, marks[1:])]
    if not keep_zero:
        segments = [s for s in segments if s.dur_ps > 0]
    return segments


def attribute_dma(records: Iterable[TraceRecord],
                  channel: Optional[int] = None) -> List[Segment]:
    """Split one DMA chain into its coarse phases.

    Segments: ``doorbell`` (register store to engine wake-up),
    ``descriptor-fetch`` (wake-up to the first descriptor batch landing),
    ``data-stream`` (first batch to chain completion; later fetches are
    prefetched under it, which is the chaining DMA's whole point), and
    ``completion-interrupt`` (chain done to the driver's handler reading
    the TSC).  The sum equals the driver-reported doorbell->IRQ elapsed.
    """
    def wanted(r: TraceRecord) -> bool:
        if channel is not None and "channel" in r.detail:
            return r.detail["channel"] == channel
        return True

    marks = [r for r in records
             if r.kind in events.DMA_MILESTONES and wanted(r)]
    marks.sort(key=lambda r: r.time_ps)

    def first(kind: str) -> TraceRecord:
        for r in marks:
            if r.kind == kind:
                return r
        raise AttributionError(f"no {kind!r} event in trace")

    doorbell = first(events.DOORBELL)
    start = first(events.DMA_START)
    fetch = first(events.DESC_FETCH)
    done = first(events.DMA_DONE)
    irq = first(events.IRQ_COMPLETE)
    chip = start.component
    return [
        Segment(SEG_DOORBELL, doorbell.component,
                doorbell.time_ps, start.time_ps),
        Segment(SEG_DESC_FETCH, chip, start.time_ps, fetch.time_ps),
        Segment(SEG_DATA_STREAM, chip, fetch.time_ps, done.time_ps),
        Segment(SEG_IRQ, irq.component, done.time_ps, irq.time_ps),
    ]


def pio_reference_budget(calib) -> List[tuple]:
    """(segment name, calibration constant, picoseconds) anchor table.

    Maps the segment taxonomy onto the constants in
    :mod:`repro.model.calibration` that explain them, so a measured PIO
    decomposition can be checked anchor by anchor (docs/observability.md
    walks through the comparison).
    """
    return [
        (SEG_STORE_ISSUE, "cpu_store_issue_ps", calib.cpu_store_issue_ps),
        (SEG_ROUTING, "switch_forward_ps", calib.switch_forward_ps),
        (SEG_LOCAL_HOP, "local_link_latency_ps",
         calib.local_link_latency_ps),
        (SEG_CABLE_HOP, "cable_link_latency_ps",
         calib.cable_link_latency_ps),
        (SEG_ROUTING, "peach2_route_latency_ps",
         calib.peach2_route_latency_ps),
        (SEG_MEM_COMMIT, "host_mem_write_commit_ps",
         calib.host_mem_write_commit_ps),
    ]
