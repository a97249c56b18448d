"""Whole-file writes that other processes never see half done."""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Union


@contextlib.contextmanager
def atomic_path(path: Union[str, "os.PathLike[str]"]) -> Iterator[str]:
    """A temp path beside ``path`` that becomes ``path`` when the block ends.

    The block writes the temp file (named after this process); it is
    renamed over ``path`` only if the block ends normally, so a reader
    never loads a truncated file, a write that fails or is interrupted
    leaves whatever was at ``path`` untouched and no temp file behind, and
    two processes writing the same path never share a temp file — the
    later rename wins, both succeed.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def atomic_write_text(path: Union[str, "os.PathLike[str]"], text: str) -> None:
    """Write ``text`` (UTF-8) to ``path`` through :func:`atomic_path`."""
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
