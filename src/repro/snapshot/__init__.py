"""Preemption-safe simulation: snapshot/restore, suspension, guards.

This package makes the *simulator process itself* interruptible — the
complement of :mod:`repro.resilience`, which models checkpoint/restart
of the *simulated* jobs:

* :mod:`repro.snapshot.state` — versioned, content-hashed, atomic
  serialization of complete simulation state;
* :mod:`repro.snapshot.auto` — periodic auto-snapshot, event- or
  wall-clock-triggered;
* :mod:`repro.snapshot.suspend` — SIGTERM/SIGINT → cooperative
  suspension at the next event boundary;
* :mod:`repro.snapshot.guards` — the RSS and free-disk probes behind
  the queue worker's memory budget and disk watermark.

The headline guarantee (enforced by tests): a run suspended
mid-flight, snapshotted, restored and run to completion produces
results byte-identical to the same run executed uninterrupted.
"""

from repro.snapshot.auto import AutoSnapshotter, parse_snapshot_every
from repro.snapshot.guards import disk_free_mb, rss_mb_of
from repro.snapshot.state import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_SUFFIX,
    SNAPSHOT_VERSION,
    read_snapshot,
    read_snapshot_header,
    snapshot_bytes,
    snapshot_path_for,
    write_snapshot,
)

__all__ = [
    "AutoSnapshotter",
    "parse_snapshot_every",
    "disk_free_mb",
    "rss_mb_of",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_SUFFIX",
    "SNAPSHOT_VERSION",
    "read_snapshot",
    "read_snapshot_header",
    "snapshot_bytes",
    "snapshot_path_for",
    "write_snapshot",
]
