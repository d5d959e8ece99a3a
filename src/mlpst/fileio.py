"""Atomic file output: a reader never sees a partly written file."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path):
    """Open a temporary file beside ``path`` for binary writing.

    When the ``with`` block ends normally the temporary file replaces
    ``path`` in one ``os.replace``; if it raises, the temporary file is
    removed and ``path`` keeps whatever it held before. The file is not
    fsynced, so a power loss may still lose the new contents.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
