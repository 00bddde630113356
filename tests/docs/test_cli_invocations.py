"""Every ``tca-bench`` command the docs and CI show still parses.

README.md and docs/*.md show commands in fenced code blocks, and the CI
workflow runs them in its ``run:`` steps.  Each command line, with its
``\\``-continued lines joined, goes through the real argument parser:
a renamed flag, a flag moved to another command or a deleted command
fails here instead of in a reader's shell.  Lines with placeholders
(``<run-id>``, ``$fig``, ``...``) are skipped, since they are not
commands as written.
"""

import re
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

from repro.bench.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A command at the start of a line: after an optional ``run:`` key, a
#: ``$`` prompt and environment assignments, the program, then its
#: arguments.
COMMAND = re.compile(
    r"^(?:run:\s*)?(?:\$\s+)?(?:[A-Z_]+=\S*\s+)*"
    r"(?:tca-bench|python3? -m repro\.bench)(?=\s|$)(.*)$")

#: An argument that marks a line as a template rather than a command.
PLACEHOLDER = re.compile(r"^<[\w-]+>$|\$|\.\.\.")

#: The first token of the shell syntax that ends a command's arguments.
SHELL_END = re.compile(r"^(?:\d*[<>]|\||&|;)")


def fenced_lines(text: str) -> Iterator[str]:
    """The lines inside fenced code blocks."""
    inside = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            inside = not inside
        elif inside:
            yield line


def joined(lines: Iterator[str]) -> Iterator[str]:
    """Lines with ``\\``-continuations folded into one, stripped."""
    pending = ""
    for line in lines:
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        yield line


def command_argv(line: str):
    """The parser's argv for a command line, or None if it is not one."""
    match = COMMAND.match(line)
    if match is None:
        return None
    argv: List[str] = []
    for token in shlex.split(match.group(1), comments=True):
        if PLACEHOLDER.search(token):
            return None
        if SHELL_END.match(token):
            break
        argv.append(token)
    return argv


def invocations() -> List[Tuple[str, List[str]]]:
    """``(where, argv)`` for every command in the docs and CI."""
    sources = [(path, fenced_lines(path.read_text(encoding="utf-8")))
               for path in [REPO_ROOT / "README.md",
                            *sorted((REPO_ROOT / "docs").glob("*.md"))]]
    ci = REPO_ROOT / ".github" / "workflows" / "ci.yml"
    sources.append((ci, iter(ci.read_text(encoding="utf-8").splitlines())))
    found = []
    for path, lines in sources:
        for line in joined(lines):
            argv = command_argv(line)
            if argv is not None:
                found.append((f"{path.relative_to(REPO_ROOT)}: {line}",
                              argv))
    return found


def test_every_invocation_parses(capsys):
    found = invocations()
    where = {w.split(":", 1)[0] for w, _ in found}
    assert len(found) >= 40, found
    assert {"README.md", ".github/workflows/ci.yml",
            "docs/performance.md", "docs/serving.md"} <= where
    refused = []
    for line, argv in found:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            refused.append(f"{line}\n  {capsys.readouterr().err.strip()}")
    assert not refused, "\n".join(refused)


def test_extraction_reads_shell_lines():
    lines = joined(iter([
        "$ tca-bench perf --check   # vs the default baseline",
        "run: tca-bench theory --json",
        "TCA_SIM_DISPATCH=reference python -m repro.bench fig7 --json",
        "tca-bench serve --port 8127 --cache-dir c \\",
        "  --journal-dir j 2> serve.log &",
        "tca-bench fig7 --engine-workers 2 --trace t.json || rc=$?",
        "python -m repro.bench suite --resume <run-id>",
        "tca-bench $fig --json > $fig-inline.json",
        "python tools/check_md_links.py",
    ]))
    assert [command_argv(line) for line in lines] == [
        ["perf", "--check"],
        ["theory", "--json"],
        ["fig7", "--json"],
        ["serve", "--port", "8127", "--cache-dir", "c", "--journal-dir",
         "j"],
        ["fig7", "--engine-workers", "2", "--trace", "t.json"],
        None,  # templates are skipped
        None,
        None,  # not a tca-bench command
    ]


def test_a_misplaced_flag_fails_to_parse(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["theory", "--shards", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --shards 4" in capsys.readouterr().err
