"""Atomic text output shared by the writers."""
from __future__ import annotations

import os

__all__ = ["atomic_write_text"]


def atomic_write_text(path: str | os.PathLike, payload: str) -> None:
    """Write payload to path via a same-directory temp file and rename.

    The temp file is created with mode 0o666, so the umask sets the output's mode.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
