"""Atomic artifact writes: a file is written beside its target and renamed
over it, so the target path always holds a whole file."""

from __future__ import annotations

import os
import secrets
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **open_kwargs) -> Iterator[IO]:
    """Open a fresh ``.<name>.<random>.tmp`` beside ``path`` for writing
    (``mode`` "wb" or "w"; ``open_kwargs`` go to ``open``) and, when the
    block exits cleanly, rename it over ``path``.

    If the block raises, the temporary file is removed and ``path`` keeps
    its old bytes. Handles already open on the old file (a mapped LUT) keep
    reading the old file's bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
