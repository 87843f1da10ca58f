"""The atomic temp-then-rename publish used by every on-disk artifact.

Both the persistent design store (:class:`~repro.store.DesignStore`)
and the fuzz corpus (:mod:`repro.verify.corpus`) persist
content-addressed files that concurrent writers may race on.  The
protocol is identical in both places, so it lives here once:

1. write the full payload to a *uniquely named* temp file in the
   final directory (pid + 128 random bits keep racing writers apart);
2. optionally fire the ``fault_label`` fault-injection hook — a
   deterministic crash point between temp-write and publish;
3. ``os.replace`` the temp file onto the final path.

The rename is the only point of contention and it is atomic on POSIX:
readers either see the old file, the complete new file, or nothing —
never a torn write.  A writer that dies mid-protocol leaves only a
temp file for a later gc to reclaim.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..exec.faults import maybe_inject

#: Prefix shared by every in-flight temp file (gc scans for it).
TMP_PREFIX = ".tmp-"


def atomic_write_bytes(
    path: str | os.PathLike,
    blob: bytes,
    fault_label: str | None = None,
    fault_spec: str | None = None,
) -> bool:
    """Atomically publish ``blob`` at ``path``; True on success.

    Creates parent directories on demand.  Filesystem errors are
    swallowed into the False return — callers treat persistence as an
    optimization that must never fail the surrounding computation —
    but an :class:`~repro.exec.faults.InjectedFault` from the
    ``fault_label`` hook propagates (that is the point of injection).
    """
    final = Path(path)
    tmp = final.parent / (
        f"{TMP_PREFIX}{final.stem[:8]}-{os.getpid()}-{os.urandom(16).hex()}"
    )
    try:
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(blob)
    except OSError:
        return False
    if fault_label is not None:
        maybe_inject(fault_label, fault_spec)
    try:
        os.replace(tmp, final)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return False
    return True
