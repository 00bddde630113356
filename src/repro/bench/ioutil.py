"""Crash-safe file I/O shared by the cache, the journal, and the CLI.

Every artifact the bench layer writes — cache entries, conformance
reports, regenerated EXPERIMENTS.md tables, benchmark documents — goes
through :func:`atomic_write_text`: the bytes land in a same-directory
temporary file, are flushed and ``fsync``'d, and only then renamed over
the destination.  A reader (or a resumed run) can therefore never
observe a torn file: it sees either the complete old content or the
complete new content, even if the writer is SIGKILLed mid-write
(``tests/bench/test_suite_robustness.py`` kills a writer to pin this).

The append-only run journal cannot use rename-replace; it gets
:func:`fsync_file` per record plus a reader that tolerates a torn final
line.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

PathLike = Union[str, Path]


def fsync_file(fh) -> None:
    """Flush python buffers and force the file's bytes to disk."""
    fh.flush()
    os.fsync(fh.fileno())


def fsync_dir(path: PathLike) -> None:
    """Force a directory entry (a rename) to disk; no-op where unsupported."""
    with contextlib.suppress(OSError):
        fd = os.open(str(path), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> Path:
    """Write ``text`` to ``path`` so readers never see a partial file.

    The temporary file lives in the destination directory (same
    filesystem, so ``os.replace`` is an atomic rename) and is fsync'd
    before the rename; the directory is fsync'd after, so the rename
    itself survives a crash.  On any failure the temporary is removed
    and the destination is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent,
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as fh:
            fh.write(text)
            fsync_file(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    fsync_dir(path.parent)
    return path


def atomic_write_json(path: PathLike, doc: object,
                      indent: Optional[int] = 2) -> Path:
    """Atomically write one JSON document (trailing newline included)."""
    return atomic_write_text(path, json.dumps(doc, indent=indent) + "\n")
