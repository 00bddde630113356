"""Every ``repro`` name the docs show resolves.

README.md, DESIGN.md and docs/*.md show library usage in fenced
``python`` blocks and name modules, classes and functions in backticks
(``repro.bench.perf.check_against_baseline``).  When one is deleted or
renamed those mentions rot silently; these tests import every name the
blocks import and resolve every backticked dotted name.
"""

import importlib
import re
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A backticked dotted name such as ``repro.sim.core.Engine``, also at
#: the start of a call (``repro.faults.run_chaos(plan, ...)``).
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)")

FROM_IMPORT = re.compile(
    r"^[ \t]*from[ \t]+(repro(?:\.\w+)*)[ \t]+import[ \t]+"
    r"(\([^)]*\)|[^\n]*)", re.MULTILINE)


def doc_files() -> List[Path]:
    return [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md",
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


def resolves_dotted(dotted: str) -> bool:
    """Whether ``dotted`` is a module, or an attribute path inside one.

    The longest importable prefix is the module; every remaining part
    must be an attribute of the one before it.
    """
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(owner, attr):
                return False
            owner = getattr(owner, attr)
        return True
    return False


def resolves(module: str, name: str) -> bool:
    return resolves_dotted(f"{module}.{name}")


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


def test_every_backticked_repro_name_resolves():
    found, broken = 0, []
    for path in doc_files():
        text = path.read_text(encoding="utf-8")
        for number, line in enumerate(text.splitlines(), 1):
            for name in DOTTED_NAME.findall(line):
                found += 1
                if not resolves_dotted(name):
                    broken.append(f"{path.relative_to(REPO_ROOT)}:{number}: "
                                  f"{name}")
    assert found >= 50, f"scanned only {found} names; is the regex broken?"
    assert not broken, "\n".join(broken)


def test_dotted_resolver_reads_attribute_paths_and_catches_a_missing_one():
    assert resolves_dotted("repro.sim")
    assert resolves_dotted("repro.sim.core.Engine.run")
    assert not resolves_dotted("repro.sim.core.Engine.no_such_method")
    assert not resolves_dotted("repro.no_such_module.Engine")
    assert DOTTED_NAME.findall("`repro.faults.run_chaos(plan,` and "
                               "`repro.*`") == ["repro.faults.run_chaos"]
