"""Crash diagnostics: flight recorder, replay bundles, watchdogs.

The diagnostics layer turns every simulator failure into a one-file
deterministic reproducer and every hang into a structured error:

* :class:`FlightRecorder` — bounded ring buffer of the last N
  dispatched events, fed by the engine on every dispatch;
* :class:`CrashInfo` / :func:`attach_crash_info` — the structured
  post-mortem pinned onto any :class:`~repro.errors.ReproError` that
  escapes the event loop;
* replay bundles (:func:`capture_bundle`, :func:`replay_bundle`) —
  canonical-JSON reproducers re-executed by ``repro replay``;
* :class:`DiagnosticsConfig` — watchdog thresholds, carried inside
  the scheduler config and campaign params;
* :class:`AnomalyReport` — quarantine ledger for lenient trace
  ingestion;
* :class:`QuarantinedRun` — poison-run isolation records for the
  campaign queue.

Everything is inert on the happy path: the recorder only surfaces in
crash reports, and failure-free outputs are byte-identical with the
watchdogs armed or not.
"""

from repro.diagnostics.bundle import (
    BUNDLE_FORMAT,
    ReplayReport,
    build_bundle,
    bundle_path_for,
    capture_bundle,
    load_bundle,
    replay_bundle,
    write_bundle,
)
from repro.diagnostics.config import DiagnosticsConfig
from repro.diagnostics.crash import CrashInfo, attach_crash_info, crash_info_from
from repro.diagnostics.ingest import AnomalyReport, IngestAnomaly
from repro.diagnostics.quarantine import (
    QUARANTINE_FORMAT,
    QuarantinedRun,
    load_quarantine_manifest,
    write_quarantine_manifest,
)
from repro.diagnostics.recorder import FlightRecorder, snapshot_manager

__all__ = [
    "BUNDLE_FORMAT",
    "QUARANTINE_FORMAT",
    "AnomalyReport",
    "CrashInfo",
    "DiagnosticsConfig",
    "FlightRecorder",
    "IngestAnomaly",
    "QuarantinedRun",
    "ReplayReport",
    "attach_crash_info",
    "build_bundle",
    "bundle_path_for",
    "capture_bundle",
    "crash_info_from",
    "load_bundle",
    "load_quarantine_manifest",
    "replay_bundle",
    "snapshot_manager",
    "write_bundle",
    "write_quarantine_manifest",
]
