"""File access shared by every format: atomic output, and UTF-8 input whose
undecodable bytes and unparsable numbers are reported as `path:line`."""

from __future__ import annotations

import errno
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from .errors import ConfigError, OutputError


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a temporary file beside `path`, and move it onto `path` on success.

    The temporary file sits in the target directory, so `os.replace` renames
    it within one file system. If writing fails, the temporary file is
    removed and any earlier file at `path` stays as it was. A temporary file
    that cannot be created (no such directory, say) or moved (`path` is a
    directory) raises OutputError naming `path`. Text mode writes UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        f = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with f:
            yield f
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror}") from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def check_writable(path: str | Path) -> None:
    """Raise the OutputError that `atomic_write(path)` would raise when the
    directory cannot take a new file or `path` is a directory; write nothing."""
    path = Path(path)
    try:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        tempfile.TemporaryFile(dir=path.parent).close()
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file, without their line endings.

    The file is decoded once, and split into the lines that text-mode
    `open` yields: universal newlines, so "\\r\\n" and a lone "\\r" end a
    line too, and no empty line after a final newline. Bytes that are not
    UTF-8 raise ConfigError naming `path:line`.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(_split(data[:exc.start].decode("utf-8")))
        raise ConfigError(f"{path}:{lineno}: not valid UTF-8 ({exc.reason})") from None
    lines = _split(text)
    if lines[-1] == "":
        lines.pop()
    return lines


def numbers(fields: list[str], kind: type, path: str | Path, lineno: int) -> list:
    """`fields` as ints, or as finite floats; anything else raises ConfigError
    naming `path:line`."""
    try:
        values = [kind(x) for x in fields]
    except ValueError as exc:  # its message quotes the field
        raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if kind is float and not all(map(math.isfinite, values)):
        raise ConfigError(f"{path}:{lineno}: values must be finite")
    return values


def _split(text: str) -> list[str]:
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")
