"""Campaign-level aggregation behind ``repro stats <store>``.

A campaign store holds one deterministic result record per run plus —
when the campaign ran with ``--telemetry`` — one *sidecar* file per
run under ``<store>/telemetry/`` carrying the nondeterministic
execution provenance (wall-clock, resume count, snapshot restore
time) and the run's merged telemetry hub.  Keeping the two apart is
what preserves the store's byte-identity guarantees; this module is
where they come back together for reporting.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.errors import ConfigError
from repro.observability.hub import merge_hub_dicts

#: Subdirectory of a campaign store holding per-run telemetry sidecars.
TELEMETRY_DIR_NAME = "telemetry"

#: Suffix of one run's telemetry sidecar file.
TELEMETRY_SUFFIX = ".telemetry.json"


def telemetry_dir_for(store_dir: str | Path) -> Path:
    return Path(store_dir) / TELEMETRY_DIR_NAME


def telemetry_path_for(telemetry_dir: str | Path, run_id: str) -> Path:
    return Path(telemetry_dir) / f"{run_id}{TELEMETRY_SUFFIX}"


def write_telemetry_sidecar(
    telemetry_dir: str | Path, run_id: str, payload: Mapping[str, object]
) -> Path | None:
    """Best-effort sidecar write (a full disk must not fail the run)."""
    path = telemetry_path_for(telemetry_dir, run_id)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(dict(payload), sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
    except OSError:
        return None
    return path


def read_telemetry_sidecars(
    store_dir: str | Path, telemetry_dir: str | Path | None = None
) -> dict[str, dict]:
    """All sidecars of a store, keyed by run id (missing dir = empty).

    *telemetry_dir* overrides the default ``<store>/telemetry``
    location (campaigns may park sidecars elsewhere).
    """
    directory = (
        Path(telemetry_dir)
        if telemetry_dir is not None
        else telemetry_dir_for(store_dir)
    )
    sidecars: dict[str, dict] = {}
    if not directory.is_dir():
        return sidecars
    for path in sorted(directory.glob(f"*{TELEMETRY_SUFFIX}")):
        run_id = path.name[: -len(TELEMETRY_SUFFIX)]
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue  # a torn sidecar only degrades reporting
        if isinstance(data, dict):
            sidecars[run_id] = data
    return sidecars


def merge_campaign_telemetry(
    store_dir: str | Path, telemetry_dir: str | Path | None = None
) -> dict[str, object]:
    """The campaign-side merge: fold every per-worker sidecar into one
    campaign-level document (written as ``<store>/telemetry.json``)."""
    sidecars = read_telemetry_sidecars(store_dir, telemetry_dir)
    execs = [s.get("exec", {}) for s in sidecars.values()]
    merged: dict[str, object] = {
        "runs": len(sidecars),
        "exec": {
            "wall_clock_s": sum(float(e.get("wall_clock_s", 0.0)) for e in execs),
            "resume_count": sum(int(e.get("resume_count", 0)) for e in execs),
            "restore_wall_s": sum(
                float(e.get("restore_wall_s", 0.0)) for e in execs
            ),
            "events_dispatched": sum(
                int(e.get("events_dispatched", 0)) for e in execs
            ),
        },
        "metrics": merge_hub_dicts(
            s["metrics"] for s in sidecars.values() if "metrics" in s
        ),
    }
    return merged


def write_campaign_telemetry(
    store_dir: str | Path, telemetry_dir: str | Path | None = None
) -> Path | None:
    """Merge sidecars and persist ``<store>/telemetry.json``."""
    merged = merge_campaign_telemetry(store_dir, telemetry_dir)
    path = Path(store_dir) / "telemetry.json"
    try:
        path.write_text(
            json.dumps(merged, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
    except OSError:
        return None
    return path


def aggregate_store(store_dir: str | Path) -> dict[str, object]:
    """Aggregate a campaign store for ``repro stats``.

    Groups simulate records per strategy (runs, jobs, mean makespan /
    wait / efficiency), folds in telemetry sidecars where present, and
    reports quarantine counts — the complete campaign picture in one
    document.
    """
    store_dir = Path(store_dir)
    if not store_dir.is_dir():
        raise ConfigError(f"no such campaign store: {store_dir}")
    from repro.campaign.store import ResultStore

    store = ResultStore(store_dir)
    sidecars = read_telemetry_sidecars(store_dir)

    strategies: dict[str, dict] = {}
    experiments = 0
    total_runs = 0
    for run_id in sorted(store.completed_ids()):
        record = store.load(run_id)
        payload = record.get("result")
        if not isinstance(payload, dict):
            continue
        total_runs += 1
        if payload.get("kind") != "simulate":
            experiments += 1
            continue
        summary = payload.get("summary", {})
        if not isinstance(summary, dict):
            summary = {}
        row = strategies.setdefault(
            str(payload.get("strategy")),
            {
                "runs": 0, "jobs": 0, "events": 0,
                "_makespan_h": 0.0, "_wait_h": 0.0, "_comp_eff": 0.0,
                "wall_clock_s": 0.0, "resumes": 0,
            },
        )
        row["runs"] += 1
        row["jobs"] += int(payload.get("jobs", 0))
        row["events"] += int(payload.get("events_dispatched", 0))
        row["_makespan_h"] += float(summary.get("makespan_h", 0.0))
        row["_wait_h"] += float(summary.get("mean_wait_h", 0.0))
        row["_comp_eff"] += float(summary.get("comp_eff", 0.0))
        exec_info = sidecars.get(run_id, {}).get("exec", {})
        row["wall_clock_s"] += float(exec_info.get("wall_clock_s", 0.0))
        row["resumes"] += int(exec_info.get("resume_count", 0))

    rows = []
    for strategy in sorted(strategies):
        row = strategies[strategy]
        runs = row["runs"] or 1
        rows.append({
            "strategy": strategy,
            "runs": row["runs"],
            "jobs": row["jobs"],
            "events": row["events"],
            "makespan_h": row["_makespan_h"] / runs,
            "mean_wait_h": row["_wait_h"] / runs,
            "comp_eff": row["_comp_eff"] / runs,
            "wall_clock_s": row["wall_clock_s"],
            "resumes": row["resumes"],
        })

    quarantined = 0
    quarantine_path = store_dir / "quarantine.json"
    if quarantine_path.is_file():
        try:
            manifest = json.loads(quarantine_path.read_text(encoding="utf-8"))
            quarantined = int(manifest.get("quarantined", 0))
        except (OSError, json.JSONDecodeError, TypeError, ValueError):
            pass

    document: dict[str, object] = {
        "store": str(store_dir),
        "runs": total_runs,
        "experiments": experiments,
        "quarantined": quarantined,
        "strategies": rows,
    }
    if sidecars:
        document["telemetry"] = merge_campaign_telemetry(store_dir)
    return document
