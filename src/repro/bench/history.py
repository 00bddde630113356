"""Perf history, the regression gate, and the HTML dashboard.

Three consumers of the ``tca-bench-perf/1`` document:

* **History** — ``append_run`` keeps one JSONL line per harness run
  (compact: totals + per-experiment throughput/overhead, no raw
  samples), so the repo accumulates a perf trajectory the dashboard can
  plot and future regressions can be dated against.
* **Gate** — :func:`check_against_baseline` compares a fresh run to a
  committed baseline (e.g. ``BENCH_PR6.json``) and fails on a >15 %
  bare events/s regression or an instrumented/bare overhead ratio over
  budget.  ``tca-bench perf --check`` exits nonzero when the gate
  fails, which is what CI hangs on.
* **Dashboard** — :func:`render_dashboard` emits one self-contained
  HTML file (no external assets): anchor pass/fail, the events/s trend
  over recorded runs, overhead ratios against the budget, and the
  sampler's top sites (``tca-bench-profile/2`` hotspots).

The gate compares per experiment and only over experiments present in
*both* documents, so a tiny CI budget (``--perf-experiments fig9``) can
gate against the full committed baseline.
"""

from __future__ import annotations

import html
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: Version tag of each history line.
HISTORY_SCHEMA = "tca-bench-history/1"

#: The perf-document schema the gate and the dashboard understand.
#: (Mirrors :data:`repro.bench.perf.SCHEMA`; kept here so document
#: validation does not import the harness.)
PERF_SCHEMA = "tca-bench-perf/1"

#: Default gate limits: fail on >15 % bare events/s regression, or an
#: instrumented/bare overhead ratio above 3.0x (BENCH_PR3 measured
#: 1.6-2.0x, so 3.0x means "observability cost regressed badly").
DEFAULT_THRESHOLD = 0.15
DEFAULT_OVERHEAD_BUDGET = 3.0


def _rows(doc: Dict[str, Any]) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Perf-doc results regrouped as experiment -> mode -> row."""
    out: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for row in doc.get("results", []):
        out.setdefault(row["experiment"], {})[row["mode"]] = row
    return out


def experiment_stats(doc: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per-experiment throughput and overhead from one perf document."""
    stats: Dict[str, Dict[str, float]] = {}
    for name, modes in _rows(doc).items():
        entry: Dict[str, float] = {}
        bare = modes.get("bare")
        inst = modes.get("instrumented")
        if bare is not None:
            entry["bare_events_per_s"] = float(bare["events_per_s"])
        if inst is not None:
            entry["instrumented_events_per_s"] = float(inst["events_per_s"])
        if bare and inst and bare["wall_s"]:
            entry["overhead_ratio"] = round(
                inst["wall_s"] / bare["wall_s"], 3)
        stats[name] = entry
    return stats


def validate_perf_doc(doc: Any, what: str = "perf document"
                      ) -> Optional[str]:
    """One-line actionable error for a malformed perf document, or None.

    The gate (``tca-bench perf --check``) and the dashboard
    (``tca-bench report``) run every externally supplied document
    through this before touching its rows, so a stale, truncated, or
    foreign-schema baseline produces a clear message instead of a raw
    ``KeyError`` traceback.
    """
    fix = ("regenerate it with 'tca-bench perf --bench-json PATH'")
    if not isinstance(doc, dict):
        return f"{what} is not a JSON object; {fix}"
    schema = doc.get("schema")
    if schema != PERF_SCHEMA:
        return (f"{what} has schema {schema!r} but the gate needs "
                f"{PERF_SCHEMA!r}; {fix}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return f"{what} has no 'results' rows; {fix}"
    required = ("experiment", "mode", "wall_s", "events_per_s")
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            return f"{what} results[{i}] is not an object; {fix}"
        missing = [k for k in required if k not in row]
        if missing:
            return (f"{what} results[{i}] is missing "
                    f"{', '.join(missing)}; {fix}")
    return None


# -- history ----------------------------------------------------------------------

def append_run(path: str, doc: Dict[str, Any],
               label: str = "") -> Dict[str, Any]:
    """Append one compact history line for a perf document; returns it."""
    entry = {
        "schema": HISTORY_SCHEMA,
        "unix_time": doc.get("unix_time", round(time.time(), 3)),
        "label": label,
        "python": doc.get("python", ""),
        "totals": doc.get("totals", {}),
        "experiments": experiment_stats(doc),
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True,
                            separators=(",", ":")) + "\n")
    return entry


def load_history(path: str) -> List[Dict[str, Any]]:
    """All history lines, oldest first; missing file -> empty list."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return []
    entries = []
    for line in lines:
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries


# -- the regression gate ----------------------------------------------------------

@dataclass(frozen=True)
class GateCheck:
    """One gate comparison: a measured number against its limit."""

    experiment: str
    metric: str       # "events_per_s" | "overhead_ratio" | "coverage"
    ok: bool
    measured: float
    limit: float
    detail: str

    def __str__(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"  [{mark}] {self.experiment:<16} {self.detail}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "metric": self.metric,
            "ok": self.ok,
            "measured": round(self.measured, 3),
            "limit": round(self.limit, 3),
            "detail": self.detail,
        }


@dataclass
class GateResult:
    """Outcome of one gate evaluation against a baseline."""

    baseline: str
    threshold: float
    overhead_budget: float
    checks: List[GateCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[GateCheck]:
        return [c for c in self.checks if not c.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "tca-bench-gate/1",
            "baseline": self.baseline,
            "threshold": self.threshold,
            "overhead_budget": self.overhead_budget,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = [f"perf gate vs {self.baseline} "
                 f"(regression threshold {self.threshold:.0%}, "
                 f"overhead budget x{self.overhead_budget:g})"]
        lines += [str(c) for c in self.checks]
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"gate: {verdict} ({len(self.failures)} of "
                     f"{len(self.checks)} checks failed)")
        return "\n".join(lines)


def check_against_baseline(doc: Dict[str, Any], baseline: Dict[str, Any],
                           baseline_name: str = "baseline",
                           threshold: float = DEFAULT_THRESHOLD,
                           overhead_budget: float = DEFAULT_OVERHEAD_BUDGET,
                           events_floor: Optional[float] = None
                           ) -> GateResult:
    """Gate one perf run against a committed baseline document.

    Only experiments present in **both** documents are compared (a
    subset run gates against the full baseline); an empty intersection
    is itself a failure, so a typo'd experiment list cannot silently
    pass.

    ``events_floor`` adds an **absolute** bound on top of the relative
    per-experiment checks: the run's overall bare throughput (total
    bare events over total bare wall) must meet it.  The relative gate
    catches drift against the committed baseline; the floor catches the
    slow boil — a sequence of individually-passing regressions eroding
    the engine across many PRs.
    """
    result = GateResult(baseline=baseline_name, threshold=threshold,
                        overhead_budget=overhead_budget)
    if events_floor is not None:
        bare = [s for s in doc.get("results", [])
                if s.get("mode") == "bare"]
        wall = sum(float(s.get("wall_s", 0.0)) for s in bare)
        events = sum(int(s.get("events", 0)) for s in bare)
        measured = events / wall if wall > 0 else 0.0
        result.checks.append(GateCheck(
            experiment="(overall)", metric="events_floor",
            ok=measured >= events_floor, measured=measured,
            limit=events_floor,
            detail=(f"overall bare {measured:,.0f} events/s >= "
                    f"absolute floor {events_floor:,.0f}")))
    current = experiment_stats(doc)
    base = experiment_stats(baseline)
    shared = [name for name in current if name in base]
    if not shared:
        result.checks.append(GateCheck(
            experiment="(none)", metric="coverage", ok=False,
            measured=0.0, limit=1.0,
            detail="no experiment appears in both run and baseline"))
        return result
    for name in shared:
        cur, ref = current[name], base[name]
        if "bare_events_per_s" in cur and "bare_events_per_s" in ref:
            floor = ref["bare_events_per_s"] * (1.0 - threshold)
            measured = cur["bare_events_per_s"]
            result.checks.append(GateCheck(
                experiment=name, metric="events_per_s",
                ok=measured >= floor, measured=measured, limit=floor,
                detail=(f"bare {measured:,.0f} events/s >= floor "
                        f"{floor:,.0f} (baseline "
                        f"{ref['bare_events_per_s']:,.0f} "
                        f"- {threshold:.0%})")))
        if "overhead_ratio" in cur:
            measured = cur["overhead_ratio"]
            result.checks.append(GateCheck(
                experiment=name, metric="overhead_ratio",
                ok=measured <= overhead_budget, measured=measured,
                limit=overhead_budget,
                detail=(f"overhead x{measured:.2f} <= budget "
                        f"x{overhead_budget:g}")))
    return result


# -- the HTML dashboard -----------------------------------------------------------
#
# Self-contained: inline CSS + inline SVG, no scripts, no external
# assets.  Colors follow the repo-wide viz conventions: a fixed
# 4-slot categorical order (one slot per perf experiment, assigned by
# name so a filtered run never repaints survivors), status colors
# reserved for pass/fail and always paired with a textual mark, and
# every chart backed by a table (the light-mode aqua/yellow slots sit
# below 3:1 contrast, so the tables are the relief, not a luxury).

#: Fixed categorical slot order (light, dark) — validated palette.
_SERIES = [("#2a78d6", "#3987e5"), ("#eb6834", "#d95926"),
           ("#1baf7a", "#199e70"), ("#eda100", "#c98500")]

#: Slot assignment: the canonical perf experiments first, extras fold
#: into the last slot's hue via name order.
_SLOT_ORDER = ["fig7", "fig9", "comparison-gpu", "contention"]

_STATUS = {"good": "#0ca30c", "warning": "#fab219", "critical": "#d03b3b"}


def _slot(name: str, names: Sequence[str]) -> int:
    order = [n for n in _SLOT_ORDER if n in names]
    order += sorted(n for n in names if n not in _SLOT_ORDER)
    return order.index(name) % len(_SERIES)


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px; font: 14px/1.5 system-ui, sans-serif;
  background: #fcfcfb; color: #0b0b0b;
}
@media (prefers-color-scheme: dark) {
  body { background: #1a1a19; color: #ffffff; }
  .muted { color: #c3c2b7 !important; }
  .tile, table { border-color: #3a3a38 !important; }
  th { border-bottom-color: #3a3a38 !important; }
  td { border-top-color: #2a2a28 !important; }
  .grid { stroke: #3a3a38 !important; }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 32px 0 8px; }
.muted { color: #52514e; font-size: 12px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  border: 1px solid #e3e2de; border-radius: 8px; padding: 12px 16px;
  min-width: 150px;
}
.tile .v { font-size: 24px; font-weight: 600; }
.tile .k { font-size: 12px; }
table { border-collapse: collapse; border: 1px solid #e3e2de; }
th, td { padding: 4px 10px; text-align: right; }
th {
  font-size: 12px; font-weight: 600; border-bottom: 1px solid #e3e2de;
}
td { border-top: 1px solid #f0efeb; font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; }
.status { font-weight: 600; }
.swatch {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 6px; vertical-align: baseline;
}
.legend { margin: 4px 0 8px; font-size: 12px; }
.legend span { margin-right: 16px; }
svg text { font: 11px system-ui, sans-serif; }
.grid { stroke: #e3e2de; stroke-width: 1; }
"""


def _series_color(slot: int) -> str:
    light, dark = _SERIES[slot]
    return (f"light-dark({light}, {dark})")


def _status_mark(ok: bool, pass_text: str = "pass",
                 fail_text: str = "fail") -> str:
    color = _STATUS["good"] if ok else _STATUS["critical"]
    mark = "✓" if ok else "✗"
    text = pass_text if ok else fail_text
    return (f'<span class="status" style="color:{color}">'
            f"{mark} {_esc(text)}</span>")


def _tile(value: str, caption: str, color: Optional[str] = None) -> str:
    style = f' style="color:{color}"' if color else ""
    return (f'<div class="tile"><div class="v"{style}>{value}</div>'
            f'<div class="k muted">{_esc(caption)}</div></div>')


def _trend_svg(history: List[Dict[str, Any]],
               names: Sequence[str]) -> str:
    """Bare events/s per experiment over recorded runs (line chart)."""
    width, height = 680, 240
    left, right, top, bottom = 56, 120, 12, 28
    plot_w, plot_h = width - left - right, height - top - bottom
    runs = range(len(history))
    values = [history[i].get("experiments", {}).get(name, {})
              .get("bare_events_per_s") for name in names for i in runs]
    peak = max((v for v in values if v is not None), default=0.0) or 1.0
    peak *= 1.08

    def x(i: int) -> float:
        return left + (plot_w * i / max(1, len(history) - 1))

    def y(v: float) -> float:
        return top + plot_h * (1.0 - v / peak)

    parts = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
             f'height="{height}" role="img" '
             'aria-label="bare events per second per experiment, '
             'by recorded run">']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gy = top + plot_h * (1 - frac)
        label = f"{peak * frac / 1000:.0f}k"
        parts.append(f'<line class="grid" x1="{left}" y1="{gy:.1f}" '
                     f'x2="{left + plot_w}" y2="{gy:.1f}"/>')
        parts.append(f'<text x="{left - 6}" y="{gy + 4:.1f}" '
                     f'text-anchor="end" fill="currentColor" '
                     f'opacity="0.65">{label}</text>')
    for name in names:
        slot = _slot(name, names)
        color = _series_color(slot)
        pts = [(i, history[i]["experiments"][name]["bare_events_per_s"])
               for i in runs
               if history[i].get("experiments", {}).get(name, {})
               .get("bare_events_per_s") is not None]
        if not pts:
            continue
        path = " ".join(f"{x(i):.1f},{y(v):.1f}" for i, v in pts)
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for i, v in pts:
            parts.append(
                f'<circle cx="{x(i):.1f}" cy="{y(v):.1f}" r="4" '
                f'fill="{color}"><title>{_esc(name)} run {i}: '
                f"{v:,.0f} events/s</title></circle>")
        li, lv = pts[-1]
        parts.append(f'<text x="{x(li) + 8:.1f}" y="{y(lv) + 4:.1f}" '
                     f'fill="currentColor">{_esc(name)}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.0f}" y="{height - 6}" '
                 f'text-anchor="middle" fill="currentColor" '
                 f'opacity="0.65">run (oldest → newest)</text>')
    parts.append("</svg>")
    return "".join(parts)


def _overhead_svg(stats: Dict[str, Dict[str, float]],
                  budget: float) -> str:
    """Horizontal overhead-ratio bars with the budget as a rule."""
    names = [n for n in stats if "overhead_ratio" in stats[n]]
    if not names:
        return ""
    width = 560
    row_h, bar_h = 26, 14
    left, right, top = 120, 70, 8
    height = top + row_h * len(names) + 24
    plot_w = width - left - right
    peak = max(budget, max(stats[n]["overhead_ratio"] for n in names))
    peak *= 1.1

    def w(v: float) -> float:
        return plot_w * v / peak

    parts = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
             f'height="{height}" role="img" '
             'aria-label="instrumented over bare overhead ratio per '
             'experiment">']
    for row, name in enumerate(names):
        v = stats[name]["overhead_ratio"]
        cy = top + row * row_h
        color = _series_color(_slot(name, names))
        parts.append(f'<text x="{left - 8}" y="{cy + bar_h - 2}" '
                     f'text-anchor="end" fill="currentColor">'
                     f"{_esc(name)}</text>")
        parts.append(f'<rect x="{left}" y="{cy}" width="{w(v):.1f}" '
                     f'height="{bar_h}" rx="3" fill="{color}">'
                     f"<title>{_esc(name)}: x{v:.2f} instrumented/bare"
                     f"</title></rect>")
        parts.append(f'<text x="{left + w(v) + 6:.1f}" '
                     f'y="{cy + bar_h - 2}" fill="currentColor">'
                     f"x{v:.2f}</text>")
    bx = left + w(budget)
    parts.append(f'<line x1="{bx:.1f}" y1="{top - 4}" x2="{bx:.1f}" '
                 f'y2="{top + row_h * len(names) - 8}" '
                 f'stroke="currentColor" stroke-dasharray="4 3" '
                 f'opacity="0.55"/>')
    parts.append(f'<text x="{bx:.1f}" '
                 f'y="{top + row_h * len(names) + 8}" '
                 f'text-anchor="middle" fill="currentColor" '
                 f'opacity="0.65">budget x{budget:g}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _runs_table(history: List[Dict[str, Any]],
                names: Sequence[str]) -> str:
    head = "".join(f"<th>{_esc(n)} (ev/s)</th>" for n in names)
    rows = []
    for i, entry in enumerate(history):
        stamp = time.strftime("%Y-%m-%d %H:%M",
                              time.gmtime(entry.get("unix_time", 0)))
        cells = []
        for n in names:
            v = entry.get("experiments", {}).get(n, {}) \
                .get("bare_events_per_s")
            cells.append(f"<td>{v:,.0f}</td>" if v is not None
                         else "<td>—</td>")
        label = _esc(entry.get("label") or "")
        rows.append(f"<tr><td>{i}</td><td>{stamp}</td>"
                    f"{''.join(cells)}<td>{label}</td></tr>")
    return (f"<table><thead><tr><th>run</th><th>when (UTC)</th>{head}"
            f"<th>label</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>")


def _anchors_section(suite_doc: Dict[str, Any]) -> str:
    anchors = suite_doc.get("anchors", [])
    if not anchors:
        return "<p class='muted'>no anchor results in the report</p>"
    rows = []
    for a in anchors:
        status = a.get("status", "?")
        if status == "skipped":
            cell = '<span class="muted">– skipped</span>'
        else:
            cell = _status_mark(status == "pass", "pass", "fail")
        measured = a.get("measured")
        measured = "—" if measured is None else f"{measured:g}"
        paper = a.get("paper")
        paper = "—" if paper is None else f"{paper:g}"
        rows.append(
            f"<tr><td>{_esc(a.get('name', '?'))}</td>"
            f"<td>{_esc(a.get('section', ''))}</td>"
            f"<td>{paper}</td><td>{measured}</td><td>{cell}</td></tr>")
    return ("<table><thead><tr><th>anchor</th><th>section</th>"
            "<th>paper</th><th>measured</th><th>status</th></tr>"
            f"</thead><tbody>{''.join(rows)}</tbody></table>")


def _hotspots_section(profiles: Dict[str, Dict[str, Any]],
                      top_n: int = 10) -> str:
    merged = []
    for name, doc in profiles.items():
        for spot in doc.get("hotspots", []):
            merged.append((spot["wall_ns"], name, spot))
    merged.sort(key=lambda t: -t[0])
    rows = []
    for wall_ns, name, spot in merged[:top_n]:
        rows.append(
            f"<tr><td>{_esc(name)}</td>"
            f"<td>{_esc(spot['layer'])}</td>"
            f"<td>{spot['samples']:,}</td>"
            f"<td>{100 * spot['share']:.1f}%</td>"
            f"<td>{wall_ns / 1e6:,.2f}</td>"
            f"<td class='muted'>{_esc(spot['site'])}</td></tr>")
    return ("<table><thead><tr><th>experiment</th><th>layer</th>"
            "<th>samples</th><th>share</th><th>est. wall ms</th>"
            f"<th>site</th></tr></thead><tbody>{''.join(rows)}</tbody>"
            "</table>")


def render_dashboard(history: Optional[List[Dict[str, Any]]] = None,
                     perf_doc: Optional[Dict[str, Any]] = None,
                     gate: Optional[GateResult] = None,
                     suite_doc: Optional[Dict[str, Any]] = None,
                     profiles: Optional[Dict[str, Dict[str, Any]]] = None,
                     title: str = "tca-bench dashboard") -> str:
    """One self-contained HTML page from whatever inputs are present."""
    history = history or []
    sections: List[str] = []
    tiles: List[str] = []

    names: List[str] = []
    for entry in history:
        for n in entry.get("experiments", {}):
            if n not in names:
                names.append(n)
    stats = experiment_stats(perf_doc) if perf_doc else {}
    for n in stats:
        if n not in names:
            names.append(n)
    names = ([n for n in _SLOT_ORDER if n in names]
             + sorted(n for n in names if n not in _SLOT_ORDER))[:4]

    if suite_doc is not None:
        summary = suite_doc.get("summary", {})
        npass = summary.get("anchors_pass", 0)
        nfail = summary.get("anchors_fail", 0)
        ok = nfail == 0
        tiles.append(_tile(
            f"{npass}/{npass + nfail}", "anchors passing",
            _STATUS["good"] if ok else _STATUS["critical"]))
    if gate is not None:
        tiles.append(_tile(
            "PASS" if gate.ok else "FAIL",
            f"perf gate vs {gate.baseline}",
            _STATUS["good"] if gate.ok else _STATUS["critical"]))
    if perf_doc is not None:
        totals = perf_doc.get("totals", {})
        if totals.get("events_per_s"):
            tiles.append(_tile(f"{totals['events_per_s']:,.0f}",
                               "events/s (whole harness)"))
        if totals.get("overhead_ratio"):
            tiles.append(_tile(f"x{totals['overhead_ratio']:.2f}",
                               "observability overhead"))
    if tiles:
        sections.append(f'<div class="tiles">{"".join(tiles)}</div>')

    if suite_doc is not None:
        sections.append("<h2>Anchors</h2>")
        sections.append(_anchors_section(suite_doc))

    if len(history) >= 2 and names:
        sections.append("<h2>Throughput trend</h2>")
        legend = "".join(
            f'<span><span class="swatch" style="background:'
            f'{_series_color(_slot(n, names))}"></span>{_esc(n)}</span>'
            for n in names)
        sections.append(f'<div class="legend">{legend}</div>')
        sections.append(_trend_svg(history, names))
    if history and names:
        sections.append("<h2>Recorded runs</h2>")
        sections.append(_runs_table(history, names))

    budget = gate.overhead_budget if gate else DEFAULT_OVERHEAD_BUDGET
    if stats:
        bars = _overhead_svg(stats, budget)
        if bars:
            sections.append("<h2>Observability overhead</h2>")
            sections.append(bars)
    if gate is not None:
        sections.append("<h2>Gate checks</h2>")
        rows = "".join(
            f"<tr><td>{_esc(c.experiment)}</td><td>{_esc(c.metric)}</td>"
            f"<td>{c.measured:,.2f}</td><td>{c.limit:,.2f}</td>"
            f"<td>{_status_mark(c.ok, 'ok', 'fail')}</td></tr>"
            for c in gate.checks)
        sections.append(
            "<table><thead><tr><th>experiment</th><th>metric</th>"
            "<th>measured</th><th>limit</th><th>status</th></tr></thead>"
            f"<tbody>{rows}</tbody></table>")

    if profiles:
        sections.append("<h2>Top hotspots</h2>")
        sections.append(_hotspots_section(profiles))

    stamp = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    return (
        "<!doctype html>\n<html lang=\"en\"><head>"
        "<meta charset=\"utf-8\">"
        "<meta name=\"viewport\" "
        "content=\"width=device-width, initial-scale=1\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><h1>{_esc(title)}</h1>"
        f"<p class=\"muted\">generated {stamp}</p>"
        f"{''.join(sections)}"
        "</body></html>\n")
