"""Resource probes: shed load instead of dying.

Two budgets protect long campaigns from the two classic silent
killers of hour-scale runs.  :class:`~repro.campaign.queue.QueueWorker`
enforces both with the probes below:

* **per-worker RSS** — a worker whose resident set exceeds
  ``rss_budget_mb`` suspends its current run at the next event
  boundary; the run goes back to the queue with its snapshot and no
  delivery penalty, and the worker exits to be replaced by a
  fresh-memory one, instead of the OOM killer SIGKILLing it;
* **store-disk watermark** — while free space under the result store
  is below ``disk_min_free_mb`` the worker stops claiming new runs
  (backpressure) until space recovers, instead of every result,
  snapshot, and bundle write starting to fail at once.

The default RSS probe reads ``/proc/<pid>/status`` (Linux) and
reports ``None`` elsewhere, which leaves the RSS budget inert rather
than wrong.
"""

from __future__ import annotations

import shutil
from pathlib import Path


def rss_mb_of(pid: int) -> float | None:
    """Resident set size of *pid* in MB, or None when unknowable."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0  # kB -> MB
    except (OSError, ValueError, IndexError):
        return None
    return None


def disk_free_mb(path: str | Path) -> float:
    """Free space on the filesystem holding *path*, in MB."""
    return shutil.disk_usage(path).free / (1024.0 * 1024.0)
