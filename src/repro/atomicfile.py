"""Atomic file publication: the one temp-file + ``os.replace`` writer.

The fleet's artifact store and the trace sidecars publish files that
another process may open at any moment.  :func:`write_atomic` writes the
bytes to a temp file next to the target, fsyncs it and renames it over
the target, so a reader sees either the old file or the complete new
one, never a torn write.  The temp name ends in ``.tmp``, which no
reader matches (they match ``*.json``, ``*.jsonl`` and ``*.pkl``), and
it is removed on any failure; only a process killed mid-write leaves
one behind.
"""

from __future__ import annotations

import contextlib
import os


def write_atomic(path: str, data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically, creating its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
