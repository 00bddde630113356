"""Every ``from repro... import ...`` in a python block of the docs resolves.

README.md and docs/*.md show library usage in fenced ``python`` blocks.
When a function is deleted or renamed those snippets rot silently; this
test imports every name they import.
"""

import importlib
import re
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]

FROM_IMPORT = re.compile(
    r"^[ \t]*from[ \t]+(repro(?:\.\w+)*)[ \t]+import[ \t]+"
    r"(\([^)]*\)|[^\n]*)", re.MULTILINE)


def doc_files() -> List[Path]:
    return [REPO_ROOT / "README.md",
            *sorted((REPO_ROOT / "docs").glob("*.md"))]


def python_blocks(text: str) -> Iterator[str]:
    """The bodies of fenced code blocks tagged ``python`` or ``py``."""
    block = None
    for line in text.splitlines():
        fence = line.strip()
        if block is None:
            if fence.startswith("```") and fence[3:].strip() in ("python",
                                                                  "py"):
                block = []
        elif fence.startswith("```"):
            yield "\n".join(block)
            block = None
        else:
            block.append(line)


def repro_imports(code: str) -> Iterator[Tuple[str, str]]:
    """(module, name) for every ``from repro... import`` in ``code``."""
    for match in FROM_IMPORT.finditer(code):
        names = match.group(2).split("#", 1)[0]
        for item in names.strip("()\\ \n").split(","):
            name = item.split("#", 1)[0].split(" as ")[0].strip()
            if name:
                yield match.group(1), name


def resolves(module: str, name: str) -> bool:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_documented_repro_import_resolves():
    found, broken = 0, []
    for path in doc_files():
        text = path.read_text(encoding="utf-8")
        for block in python_blocks(text):
            for module, name in repro_imports(block):
                found += 1
                if not resolves(module, name):
                    broken.append(f"{path.relative_to(REPO_ROOT)}: "
                                  f"from {module} import {name}")
    assert found >= 10, f"scanned only {found} imports; is the parser broken?"
    assert not broken, "\n".join(broken)


def test_parser_reads_parenthesised_imports_and_catches_a_missing_name():
    doc = ("text\n```python\n"
           "from repro.sim.core import (Engine,\n"
           "                            no_such_function)  # gone\n"
           "from repro import units as u\n"
           "```\n")
    pairs = [pair for block in python_blocks(doc)
             for pair in repro_imports(block)]
    assert pairs == [("repro.sim.core", "Engine"),
                     ("repro.sim.core", "no_such_function"),
                     ("repro", "units")]
    assert [resolves(*pair) for pair in pairs] == [True, False, True]
