"""Small filesystem and encoding helpers shared by every artifact writer.

Stages 1-4 exchange artifacts through files (traces, CSVs, placement
reports, cached rows, sweep journals). A crash mid-write must never
leave a half-written artifact that the next stage then rejects, so
every writer funnels through :func:`atomic_write_text`: write the full
payload to a temporary sibling, fsync it, ``os.replace`` it over the
destination (atomic on POSIX within one filesystem), then fsync the
containing directory so the rename itself survives a power loss —
without the directory fsync the data would be durable but the *name*
could still point at the old (or no) file after a crash.

Every content identity (result-cache keys, sweep and session keys)
is a hash, and every record checksum a CRC, over
:func:`canonical_json`, so equal payloads always encode to equal
bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


def canonical_json(payload: dict) -> str:
    """Compact JSON with sorted keys: one encoding per value."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload: dict) -> str:
    """SHA-256 hex digest over :func:`canonical_json` of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so entries created/renamed in it are durable.

    A no-op on platforms or filesystems that refuse to open or fsync
    directories — durability degrades gracefully to the pre-fsync
    behaviour there instead of failing the write.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_writer(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Stream a payload to ``path`` atomically and durably.

    Yields a file handle onto a temporary sibling of ``path``; the
    caller writes the payload in as many pieces as it likes (no full
    in-memory materialisation needed). On clean exit the temporary is
    fsynced, ``os.replace``d over the destination (atomic on POSIX
    within one filesystem) and the containing directory fsynced, so
    after a crash the destination holds either the old or the new
    payload in full, never a torn mix, and the rename cannot be lost.
    On any failure the temporary file is removed and the destination
    is untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
        fsync_dir(path.parent or Path("."))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically and durably."""
    with atomic_writer(path, "w") as fh:
        fh.write(text)


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically and durably."""
    with atomic_writer(path, "wb") as fh:
        fh.write(payload)
