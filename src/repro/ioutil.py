"""Crash-safe file output shared by every JSON-writing surface.

Metrics snapshots, traces, profiles, dashboards, sweep state, and serve
fleet snapshots are all consumed by *other* tooling (CI artifact
uploads, the bench sentinel, dashboards polling a file).  A process
killed mid-``write()`` must never leave a truncated document where a
valid one used to be, so every writer routes through
:func:`atomic_write_text`: write a sibling temp file, then ``os.replace``
it over the target -- an atomic operation on POSIX and Windows alike.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_text"]


def atomic_write_text(path: Union[str, os.PathLike], text: str) -> None:
    """Replace ``path``'s contents with ``text``, never leaving a torn file.

    The temp file lives in the target's directory (same filesystem, so
    the final ``os.replace`` is atomic) under ``<name>.tmp``; a write
    that fails before the rename removes it again.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
