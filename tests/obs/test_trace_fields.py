"""Trace records keep their detail fields: names, order and value types.

A tracer stores each record's detail as bare values and names them from
``repro.obs.events.FIELDS`` when the record is read, so a site that
passes its values in another order, or one too many or too few, would
mislabel its record or shift every later one.  These tests pin the
fields the readers (attribution, critical path, exporters) see, on real
runs, and check every site in ``src/repro`` against the declaration.
"""

import ast
from pathlib import Path
from typing import Dict, List, Tuple

from repro.bench.experiments import REGISTRY
from repro.obs import Observability
from repro.obs.events import FIELDS

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: (field, value type) per kind, as the records of these runs read.
DETAIL = {
    "pio-store": (("addr", int), ("bytes", int)),
    "tlp-sent": (("tlp", str), ("addr", int), ("bytes", int)),
    "tlp-recv": (("tlp", str), ("addr", int), ("bytes", int)),
    "link-tx": (("dur_ps", int), ("bytes", int), ("tlp", str)),
    "switch-forward": (("tlp", str), ("out", str)),
    "route": (("tlp", str), ("addr", str), ("out", str),
              ("translated", bool)),
    "mem-commit": (("offset", int), ("bytes", int)),
    "doorbell": (("channel", int), ("chip", str)),
    "dma-start": (("channel", int), ("descriptors", int)),
    "desc-fetch": (("channel", int), ("dur_ps", int), ("count", int)),
    "desc-exec": (("channel", int), ("bytes", int)),
    "dma-done": (("channel", int), ("aborted", bool)),
    "msi": (("vector", int),),
    "irq-complete": (("channel", int), ("chip", str)),
    "coll-put": (("flag", int), ("dst", int), ("nbytes", int),
                 ("transport", str), ("wire_ps", int), ("queue_ps", int),
                 ("dur_ps", int)),
    "coll-wait": (("flag", int), ("dur_ps", int)),
}


def _shapes(entries: List[str]) -> Dict[str, set]:
    """Every distinct (field, type) tuple per kind over tiny runs."""
    shapes: Dict[str, set] = {}
    for name in entries:
        obs = Observability()
        with obs.session():
            REGISTRY[name].run("tiny")
        for _, _, tracer, _ in obs.attached:
            for r in tracer.records:
                shapes.setdefault(r.kind, set()).add(
                    tuple((k, type(v)) for k, v in r.detail.items()))
    return shapes


def test_traced_runs_read_back_todays_detail_fields():
    shapes = _shapes(["latency", "collective-dual-ring", "fig8"])
    assert shapes == {kind: {fields} for kind, fields in DETAIL.items()}


def trace_site_arities(source: str) -> List[Tuple[int, str, int]]:
    """(line, kind, values passed) of each ``.trace(``/``.emit(`` call
    whose kind is a string literal."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("trace", "emit")):
            kind_at = 1 if node.func.attr == "trace" else 2
            args = node.args
            if (len(args) > kind_at and isinstance(args[kind_at], ast.Constant)
                    and isinstance(args[kind_at].value, str)):
                sites.append((node.lineno, args[kind_at].value,
                              len(args) - kind_at - 1))
    return sites


def test_every_site_passes_the_values_its_kind_declares():
    wrong = {}
    count = 0
    for path in sorted(SRC.rglob("*.py")):
        for line, kind, passed in trace_site_arities(
                path.read_text(encoding="utf-8")):
            count += 1
            if kind not in FIELDS or len(FIELDS[kind]) != passed:
                wrong[f"{path.relative_to(SRC)}:{line}"] = (kind, passed)
    assert count >= 37
    assert not wrong, f"sites out of step with events.FIELDS: {wrong}"


def test_arity_scanner_reads_trace_and_emit_calls():
    source = ("engine.trace('c', 'msi', 3)\n"
              "tracer.emit(0, 'c', 'link-tx', 1, 2)\n"
              "engine.trace('c', kind, 3)\n")
    assert trace_site_arities(source) == [(1, "msi", 1), (2, "link-tx", 2)]
