"""Per-run entry point for campaign queue workers.

:func:`execute_run` turns one campaign ``params`` dict (see
:mod:`repro.campaign.spec`) into a plain JSON-serialisable result
dict.  It is the *single* execution path of every queue worker, in
process or in a ``repro queue work`` fleet — which is what makes
their results bit-identical.

The returned payload is deterministic for fixed params: anything
wall-clock-dependent is stripped before returning, so result files
can be compared across serial/parallel executions and across hosts.

Preemption support (armed only when the queue worker passes a
``snapshot_dir``): the worker installs SIGTERM/SIGINT handlers, polls
the suspension flag at every event boundary, periodically snapshots
the full simulator state, and — on suspension — writes a final
snapshot before raising :class:`~repro.errors.SuspendRequested` back
to the worker.  A later execution of the same run id restores from the
snapshot and continues; determinism makes the resumed payload
byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.errors import ConfigError, ReproError, SnapshotError, SuspendRequested
from repro.slurm.config import SchedulerConfig
from repro.workload.trace import WorkloadTrace


def _jsonable(value: object) -> object:
    """Coerce numpy scalars/arrays (and containers of them) to plain
    Python so result payloads serialise with the stdlib json module."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, float) and math.isinf(value):
        return value  # json emits Infinity; fine for our own readers
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _build_trace(workload: Mapping[str, object]) -> WorkloadTrace:
    kind = workload.get("kind")
    if kind == "trinity":
        from repro.workload.trinity import TrinityWorkloadGenerator

        kwargs: dict[str, object] = {
            "share_obeys_app": bool(workload.get("share_obeys_app", False)),
            "share_fraction": float(workload["share_fraction"]),  # type: ignore[arg-type]
            "offered_load": float(workload["offered_load"]),  # type: ignore[arg-type]
        }
        if "overestimate_range" in workload:
            lo, hi = workload["overestimate_range"]  # type: ignore[misc]
            kwargs["overestimate_range"] = (float(lo), float(hi))
        if "diurnal_amplitude" in workload:
            kwargs["diurnal_amplitude"] = float(workload["diurnal_amplitude"])  # type: ignore[arg-type]
        generator = TrinityWorkloadGenerator(**kwargs)  # type: ignore[arg-type]
        rng = np.random.default_rng(int(workload["seed"]))  # type: ignore[arg-type]
        return generator.generate(
            int(workload["jobs"]),  # type: ignore[arg-type]
            int(workload["nodes"]),  # type: ignore[arg-type]
            rng,
            name=str(workload.get("name", "campaign")),
        )
    if kind == "inline":
        from repro.campaign.spec import trace_from_inline

        return trace_from_inline(workload)
    if kind == "swf":
        from repro.workload.swf import read_swf, read_swf_header_apps

        path = str(workload["path"])
        apps = read_swf_header_apps(path)
        max_procs = workload.get("max_procs")
        return read_swf(
            path,
            cores_per_node=int(workload.get("cores_per_node", 32)),  # type: ignore[arg-type]
            app_names=apps,
            mode=str(workload.get("mode", "strict")),
            max_procs=int(max_procs) if max_procs is not None else None,  # type: ignore[arg-type]
        )
    raise ConfigError(f"unknown workload kind {kind!r}")


def _execute_simulate(
    params: Mapping[str, object],
    snapshot_dir: str | None = None,
    snapshot_every: str | None = None,
    telemetry_dir: str | None = None,
) -> dict[str, object]:
    from repro.metrics.summary import summarize
    from repro.slurm.manager import build_manager

    strategy = str(params["strategy"])
    num_nodes = int(params["num_nodes"])  # type: ignore[arg-type]
    config_kwargs = dict(params.get("config", {}))  # type: ignore[arg-type]
    config = SchedulerConfig(strategy=strategy, **config_kwargs)

    run_id: str | None = None
    if snapshot_dir is not None or telemetry_dir is not None:
        from repro.campaign.spec import run_id_of

        run_id = run_id_of(dict(params))
    if telemetry_dir is not None:
        # Out-of-band arming: telemetry is NOT part of the content-
        # hashed params (run ids and result payloads are identical
        # with or without it — the byte-identity contract).
        from repro.observability.config import TelemetryConfig

        config.telemetry = TelemetryConfig(
            enabled=True,
            decisions=True,
            profile=True,
            decisions_path=str(
                Path(telemetry_dir) / f"{run_id}.decisions.jsonl"
            ),
        )

    snap_path: Path | None = None
    manager = None
    if snapshot_dir is not None:
        from repro.snapshot.state import read_snapshot, snapshot_path_for

        snap_path = snapshot_path_for(snapshot_dir, run_id)
        if snap_path.is_file():
            try:
                manager = read_snapshot(snap_path, expect_spec_hash=run_id)
            except SnapshotError:
                manager = None  # stale or corrupt: start fresh
    if manager is None:
        trace = _build_trace(params["workload"])  # type: ignore[arg-type]
        manager = build_manager(
            trace, num_nodes=num_nodes, strategy=strategy, config=config
        )
    if snap_path is not None:
        from repro.snapshot import suspend
        from repro.snapshot.auto import AutoSnapshotter, parse_snapshot_every

        manager.sim.set_suspend_poll(suspend.suspend_requested)
        every_events, every_wall_s = parse_snapshot_every(snapshot_every)
        if every_events is not None or every_wall_s is not None:
            AutoSnapshotter(
                manager,
                snap_path,
                spec_hash=run_id,
                every_events=every_events,
                every_wall_s=every_wall_s,
            ).install()

    from repro.observability.events import current_trace

    trace_id = current_trace()
    if trace_id is not None:
        # Distributed-trace stamp: the submission's content-derived
        # trace id, as the first decision record, so a stitched fleet
        # trace and this run's decision log can be joined offline.
        decisions = getattr(manager, "decisions", None)
        if decisions is not None:
            decisions.emit("trace_context", 0.0, trace=trace_id, run=run_id)

    try:
        result = manager.run()
    except SuspendRequested as exc:
        from repro.snapshot import suspend
        from repro.snapshot.state import write_snapshot

        if snap_path is not None:
            try:
                written = write_snapshot(manager, snap_path, spec_hash=run_id)
            except OSError:
                pass  # a full disk must not mask the suspension
            else:
                exc.snapshot_path = str(written)
        # The worker keeps draining; clear the flag so a later
        # (e.g. guard-shed, then re-dispatched) run isn't instantly
        # re-suspended by this request.
        suspend.reset()
        raise
    if snap_path is not None:
        # The run completed: its snapshot is now stale state.
        snap_path.unlink(missing_ok=True)
    if telemetry_dir is not None:
        # The execution provenance (all the nondeterministic facts)
        # goes in a sidecar file, never in the result payload.
        from repro.observability.stats import write_telemetry_sidecar

        sidecar: dict[str, object] = {
            "run_id": run_id,
            **({"trace": trace_id} if trace_id is not None else {}),
            "exec": {
                "wall_clock_s": float(result.wallclock_seconds),
                "resume_count": int(getattr(manager, "resume_count", 0)),
                "restore_wall_s": float(
                    getattr(manager, "restore_wall_s", 0.0)
                ),
                "events_dispatched": int(result.events_dispatched),
            },
        }
        telemetry_summary = manager.telemetry_summary()
        if telemetry_summary is not None:
            sidecar.update(telemetry_summary)
        write_telemetry_sidecar(telemetry_dir, run_id, sidecar)

    summary = summarize(result)
    payload: dict[str, object] = {
        "kind": "simulate",
        "strategy": strategy,
        "num_nodes": num_nodes,
        "workload_name": manager.workload_name,
        "jobs": manager.workload_jobs,
        "summary": _jsonable(summary.as_dict()),
        # Exact-seconds duplicates of the summary's hour-scaled fields,
        # so gain ratios computed from payloads match in-process maths
        # bit for bit.
        "makespan_s": float(result.makespan),
        "mean_wait_s": float(summary.mean_wait),
        "completed": result.completed_jobs,
        "timeouts": result.timeout_jobs,
        "events_dispatched": result.events_dispatched,
        "scheduler_passes": result.scheduler_passes,
    }
    # Only present when the resilience layer was active, so payloads
    # of failure-free runs stay bit-identical to earlier versions.
    if result.resilience is not None:
        payload["resilience"] = _jsonable(result.resilience.as_dict())
    return payload


def _execute_experiment(params: Mapping[str, object]) -> dict[str, object]:
    from repro.analysis.experiments import EXPERIMENT_REGISTRY

    experiment_id = str(params["experiment"]).lower()
    driver = EXPERIMENT_REGISTRY.get(experiment_id)
    if driver is None:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENT_REGISTRY)}"
        )
    output = driver()
    return {
        "kind": "experiment",
        "experiment": output.experiment,
        "rows": _jsonable(output.rows),
        "text": output.text,
    }


def execute_run(
    params: Mapping[str, object],
    bundle_dir: str | None = None,
    snapshot_dir: str | None = None,
    snapshot_every: str | None = None,
    telemetry_dir: str | None = None,
) -> dict[str, object]:
    """Execute one campaign run; returns a deterministic result dict.

    This is the function campaign queue workers call; keep it
    importable as ``repro.slurm.entry.execute_run``.  The queue
    worker partials in *bundle_dir*: when set, any
    :class:`~repro.errors.ReproError` raised by the run is serialised
    as a replay bundle at ``<bundle_dir>/<run_id>.bundle.json``
    (best-effort), and its path set as the error's ``bundle_path``,
    before the error propagates to the worker — so the crash is
    reproducible even after the worker process is gone.

    With *snapshot_dir* set, ``simulate`` runs become preemption-safe:
    SIGTERM/SIGINT suspends the simulation at the next event boundary
    with a final state snapshot at ``<snapshot_dir>/<run_id>.snap``
    (*snapshot_every* additionally arms periodic snapshots — seconds,
    or ``<N>e`` for an event count), and a later execution of the same
    run resumes from that snapshot.  ``experiment`` runs have no
    mid-run snapshot support: suspension simply leaves them
    uncompleted and a resume re-executes them from scratch (they are
    deterministic, so the result is unchanged).

    With *telemetry_dir* set, ``simulate`` runs arm the telemetry
    subsystem and write a per-run sidecar file
    ``<telemetry_dir>/<run_id>.telemetry.json`` holding the execution
    provenance (wall-clock, resume count, restore time) plus the
    merged metrics hub, decision-trace summary and hot-loop profile.
    The result payload itself is byte-identical either way.
    """
    kind = params.get("kind")
    if kind not in ("simulate", "experiment"):
        raise ConfigError(f"unknown run kind {kind!r}")
    if snapshot_dir is not None:
        from repro.snapshot import suspend

        suspend.install_signal_handlers()
    try:
        if kind == "simulate":
            return _execute_simulate(
                params,
                snapshot_dir=snapshot_dir,
                snapshot_every=snapshot_every,
                telemetry_dir=telemetry_dir,
            )
        return _execute_experiment(params)
    except ReproError as exc:
        if bundle_dir is not None:
            from repro.diagnostics.bundle import capture_bundle

            try:
                path = capture_bundle(dict(params), exc, bundle_dir)
            except OSError:
                pass  # a full disk must not mask the original error
            else:
                exc.bundle_path = str(path)  # type: ignore[attr-defined]
        raise
