"""The one way an artifact reaches disk: written to ``<path>.<pid>.tmp`` and
renamed over ``path``, so a failed write leaves the previous file whole.
``atomic_file`` gives that temporary open, and ``atomic_write`` writes it
front to back, hashing as it writes. ``file_sha256`` hashes a file, or an
open one, that is written or read some other way, in chunks. Standard library
only, so it does not load numpy.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_file(path):
    """``<path>.<pid>.tmp``, open for writing and reading: renamed over
    ``path`` when the ``with`` block ends without an error, and removed
    otherwise, which leaves the previous file whole."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        # a 256 KiB buffer gathers small writes, such as short rows of a
        # tensor, into fewer write calls
        with open(tmp, "w+b", buffering=1 << 18) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write(path, chunks) -> str:
    """Write the iterable of bytes-like ``chunks`` to ``path`` atomically,
    taking one chunk at a time, so a generator is never held whole; returns
    the SHA-256 hex digest of the bytes written. An error raised while the
    chunks are produced leaves the previous file whole."""
    digest = hashlib.sha256()
    with atomic_file(path) as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def atomic_write_csv(path, header, rows) -> str:
    """``atomic_write`` of a UTF-8 CSV (``\\r\\n`` line ends): ``header``, then ``rows``."""
    text = io.StringIO(newline="")
    out = csv.writer(text)
    out.writerow(header)
    out.writerows(rows)
    return atomic_write(path, [text.getvalue().encode("utf-8")])


def file_sha256(file) -> str:
    """The SHA-256 hex digest of a path's file, or of an open binary file from
    byte 0, read through one reused 64 KiB buffer, so memory does not follow the file's size."""
    if not hasattr(file, "readinto"):
        with open(file, "rb") as fh:
            return file_sha256(fh)
    digest, buffer = hashlib.sha256(), memoryview(bytearray(1 << 16))
    file.seek(0)
    while n := file.readinto(buffer):
        digest.update(buffer[:n])
    return digest.hexdigest()
