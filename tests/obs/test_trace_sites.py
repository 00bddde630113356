"""Every trace site in the model sits behind a tracer check.

With no tracer installed, a site must cost one ``None`` check: an
unguarded ``engine.trace(...)`` still builds its detail (``hex()``, enum
reads, f-strings) before the engine drops it.  So each ``.trace(`` or
``.emit(`` call in ``src/repro`` outside ``repro.sim`` and ``repro.obs``
(the engine funnel and the tracers themselves) must sit in the body of
an ``if`` whose test names a tracer.
"""

import ast
from pathlib import Path
from typing import List

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
EXEMPT = ("sim", "obs")


def unguarded_trace_calls(source: str) -> List[int]:
    """Line numbers of ``.trace(``/``.emit(`` calls with no tracer guard."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("trace", "emit")
                and not _guarded(node, parents)):
            lines.append(node.lineno)
    return sorted(lines)


def _guarded(node: ast.AST, parents: dict) -> bool:
    child, parent = node, parents.get(node)
    while parent is not None:
        if (isinstance(parent, ast.If) and child in parent.body
                and "tracer" in ast.unparse(parent.test)):
            return True
        child, parent = parent, parents.get(parent)
    return False


def test_every_trace_site_checks_for_a_tracer():
    unguarded = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] in EXEMPT:
            continue
        lines = unguarded_trace_calls(path.read_text(encoding="utf-8"))
        if lines:
            unguarded[str(path.relative_to(SRC))] = lines
    assert not unguarded, f"trace calls without a tracer check: {unguarded}"


def test_scanner_accepts_only_the_guarded_branch():
    source = (
        "def f(engine, tracer):\n"
        "    if engine.tracer is not None:\n"
        "        engine.trace('c', 'k', n=1)\n"
        "    if tracer is not None:\n"
        "        for _ in range(2):\n"
        "            tracer.emit(0, 'c', 'k')\n"
        "    else:\n"
        "        engine.trace('c', 'else-branch')\n"
        "    if engine.metrics is not None:\n"
        "        engine.trace('c', 'wrong-test')\n"
        "    engine.trace('c', 'bare')\n")
    assert unguarded_trace_calls(source) == [8, 10, 11]
