"""Poison-run quarantine records and the on-disk manifest.

A *poison run* is one whose watchdog trips on every attempt —
retrying it only burns worker time and delays blameless runs.  The
campaign queue's worker (:class:`~repro.campaign.queue.QueueWorker`)
quarantines such a run after ``quarantine_after`` trips, keeping a
terminal ``.queue/quarantined/<run_id>.json`` item with the replay
bundle the run's entry captured.  Runs the queue quarantines for a
blown deadline or a spent delivery budget (workers that kept dying
under them) land there too.  This module defines the record the
campaign report builds from those items and the manifest written as
``<store>/quarantine.json``, so the poison runs (and their replay
bundles) are auditable afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.errors import ReplayError
from repro.faultinject import write_atomic

#: Manifest schema identifier.
QUARANTINE_FORMAT = "repro-quarantine/v1"


@dataclass(frozen=True)
class QuarantinedRun:
    """One run isolated by the campaign queue."""

    run_id: str
    label: str
    #: Watchdog trips (or deliveries, for a spent delivery budget)
    #: observed before isolation.
    incidents: int
    #: The last observed error, as a string.
    error: str
    params: dict[str, object] = field(default_factory=dict)
    #: Path of the replay bundle captured in the worker, if any.
    bundle: str | None = None
    #: Wall-clock seconds burned on this run before isolation (claim
    #: to quarantine, across the claim's attempts).
    elapsed_s: float = 0.0
    #: Re-dispatches that resumed from a snapshot before isolation.
    resumes: int = 0
    #: The run's last snapshot file, if one survives on disk — a
    #: post-mortem can restore it to inspect the poisoned state.
    snapshot: str | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "run_id": self.run_id,
            "label": self.label,
            "incidents": self.incidents,
            "error": self.error,
            "params": self.params,
            "bundle": self.bundle,
            "elapsed_s": self.elapsed_s,
            "resumes": self.resumes,
            "snapshot": self.snapshot,
        }


def write_quarantine_manifest(
    path: str | Path,
    campaign: str,
    runs: Sequence[QuarantinedRun],
) -> Path:
    """Atomically write *campaign*'s quarantine manifest (canonical JSON)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "format": QUARANTINE_FORMAT,
        "campaign": campaign,
        "quarantined": len(runs),
        "runs": [run.as_dict() for run in runs],
    }
    return write_atomic(
        path, (json.dumps(document, sort_keys=True, indent=1) + "\n").encode()
    )


def load_quarantine_manifest(path: str | Path) -> dict[str, object]:
    """Read and validate a manifest written by
    :func:`write_quarantine_manifest`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReplayError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReplayError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, Mapping) or data.get("format") != QUARANTINE_FORMAT:
        raise ReplayError(
            f"{path}: not a quarantine manifest (expected format "
            f"{QUARANTINE_FORMAT!r})"
        )
    return dict(data)
