"""Atomic file-write helpers (write to a temp file, then rename)."""

import os
import tempfile


def atomic_write_bytes(path, *chunks):
    """Write the bytes-like ``chunks`` to ``path`` in order, atomically."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))
