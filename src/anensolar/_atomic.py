"""The one way an artifact reaches disk: written to ``<path>.<pid>.tmp``,
hashed as it is written and renamed over ``path``, so a failed write leaves the
previous file whole. Standard library only, so it does not load numpy.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from pathlib import Path


def atomic_write(path, *chunks) -> str:
    """Write the bytes-like ``chunks`` to ``path`` atomically; returns the
    SHA-256 hex digest of the bytes written."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return digest.hexdigest()


def atomic_write_csv(path, header, rows) -> str:
    """``atomic_write`` of a UTF-8 CSV (``\\r\\n`` line ends): ``header``, then ``rows``."""
    text = io.StringIO(newline="")
    out = csv.writer(text)
    out.writerow(header)
    out.writerows(rows)
    return atomic_write(path, text.getvalue().encode("utf-8"))
