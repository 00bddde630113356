"""Every name a ``src/repro`` module imports is used there.

Package ``__init__`` modules re-export and are skipped.  Elsewhere an
imported name must be read by the module's code, named in one of its
annotations (string annotations included), or listed in its
``__all__``; anything else is a dead import.
"""

import ast
from pathlib import Path
from typing import List, Set

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _annotation_names(tree: ast.AST) -> Set[str]:
    """Names inside string annotations (``"Engine"``, ``"List[TLP]"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [arg.annotation for arg in
                            (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    expr = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(expr)
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> List[str]:
    """Names ``source`` imports but never uses or exports."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def test_every_import_is_used():
    dead = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            dead[str(path.relative_to(SRC))] = names
    assert not dead, f"unused imports: {dead}"


def test_scanner_counts_uses_annotations_and_exports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from repro.sim.core import Engine, Signal\n"
        "from repro.errors import ConfigError\n"
        "__all__ = ['ConfigError']\n"
        "def f(x: 'Optional[Engine]') -> Dict[str, int]:\n"
        "    return os.path.join(x)\n")
    assert unused_imports(source) == ["np", "List", "Signal"]
