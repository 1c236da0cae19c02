"""Atomic file output: every artifact appears whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a temporary file beside `path`, and move it onto `path` on success.

    The temporary file sits in the target directory, so `os.replace` renames
    it within one file system. If writing fails, the temporary file is
    removed and any earlier file at `path` stays as it was. Text mode writes
    UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
