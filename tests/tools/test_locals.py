"""Every plain name a ``src/repro`` function assigns is read.

A local that is written and never read is dead code, or a value the
function meant to use and lost.  A name assigned in a function must be
read in that function or in a closure inside it.  Names starting with
``_`` are deliberate placeholders, and names the function declares
``global`` or ``nonlocal`` are writes to an outer scope; both are exempt.
"""

import ast
from pathlib import Path
from typing import Iterator, List

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.ClassDef, ast.Lambda)


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``fn``'s body, not descending into nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(source: str) -> List[str]:
    """``function.name`` for every local ``source`` assigns but never
    reads, in source order."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, _FUNCTIONS):
            continue
        assigned = {}
        exempt = set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assigned.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                exempt.update(node.names)
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif (isinstance(node, ast.AugAssign)
                  and isinstance(node.target, ast.Name)):
                read.add(node.target.id)
        found += [(line, f"{fn.name}.{name}")
                  for name, line in assigned.items()
                  if name not in read and name not in exempt
                  and not name.startswith("_")]
    return [name for _, name in sorted(found)]


def test_every_local_is_read():
    dead = {}
    for path in sorted(SRC.rglob("*.py")):
        names = unread_locals(path.read_text(encoding="utf-8"))
        if names:
            dead[str(path.relative_to(SRC))] = names
    assert not dead, f"locals assigned but never read: {dead}"


def test_scanner_follows_closures_and_exemptions():
    source = (
        "count = 0\n"
        "def f(items):\n"
        "    global count\n"
        "    count = len(items)\n"
        "    total = 0\n"
        "    for item in items:\n"
        "        total += item\n"
        "    first, rest = items[0], items[1:]\n"
        "    lost = first * 2\n"
        "    shared = 3\n"
        "    def inner():\n"
        "        kept = shared\n"
        "        return kept\n"
        "    for _ in rest:\n"
        "        pass\n"
        "    return inner\n"
        "def g():\n"
        "    value = 1\n"
        "    def bump():\n"
        "        nonlocal value\n"
        "        value = 2\n"
        "    return bump\n")
    assert unread_locals(source) == ["f.lost", "g.value"]
