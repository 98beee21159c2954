"""Atomic text output shared by the writers."""
from __future__ import annotations

import os
import stat

__all__ = ["atomic_write_text"]


def atomic_write_text(path: str | os.PathLike, payload: str) -> None:
    """Write payload to path via a same-directory temp file and rename.

    The temp file is created with mode 0o666, so the umask sets the output's mode.
    Readers of path see the old bytes or the new ones, never a partial or
    missing file. When path is already a regular file with one link, the temp
    file's mode, owner and group, and exactly the payload's UTF-8 bytes, it is
    left in place and only its mtime is refreshed: replacing an existing file
    costs tens of milliseconds on some filesystems, a fresh path almost none.
    Nothing is fsynced, so the output is as durable as the filesystem makes it.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    data = payload.encode("utf-8")
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            made = os.fstat(fd)
        if _holds(path, data, made):
            os.utime(path)
            os.unlink(tmp)
        else:
            os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _holds(path: str, data: bytes, made: os.stat_result) -> bool:
    """True if path is a lone regular file like `made` that holds exactly data."""
    try:
        old = os.lstat(path)
        if not (
            stat.S_ISREG(old.st_mode)
            and old.st_nlink == 1
            and (old.st_mode, old.st_uid, old.st_gid) == (made.st_mode, made.st_uid, made.st_gid)
            and old.st_size == len(data)
        ):
            return False
        with open(path, "rb") as fh:
            return fh.read(len(data) + 1) == data
    except OSError:
        return False
