"""The one atomic-write protocol for durable files.

:func:`write_atomic` writes a temp file in the target directory (same
filesystem, so the rename is atomic), fsyncs it and ``os.replace``-s
it onto the target: readers see the old complete bytes or the new
ones, never a torn mix.  A failure unlinks the temp file, and
transient ``OSError`` failures re-run the attempt from a fresh temp file
under :func:`~repro.faultinject.retry.with_io_retries`.  A hard kill
before the rename leaves only a dot-hidden :data:`TMP_GLOB` file,
which ``repro fsck`` reports as residue.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.faultinject import registry
from repro.faultinject.retry import with_io_retries

#: Names of the temp files :func:`write_atomic` leaves behind when a
#: crash lands between the create and the rename.
TMP_GLOB = ".*.tmp"


def write_atomic(
    path: str | Path, data: bytes, *, failpoint: str | None = None
) -> Path:
    """Atomically replace *path*'s content with *data*.

    With *failpoint* set to a base name, the payload write runs
    through the ``<base>.write`` failpoint and the rename is preceded
    by ``<base>.rename``; ``None`` skips both hooks.  Returns *path*.
    """
    path = Path(path)

    def _attempt() -> Path:
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.stem}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                if failpoint is None:
                    handle.write(data)
                else:
                    registry.failpoint_write(
                        f"{failpoint}.write", handle, data
                    )
                handle.flush()
                os.fsync(handle.fileno())
            if failpoint is not None:
                registry.failpoint(f"{failpoint}.rename")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    return with_io_retries(_attempt)
