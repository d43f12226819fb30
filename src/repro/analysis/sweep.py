"""Generic strategy-comparison and parameter-sweep helpers.

Sweep-style experiments route their per-point simulations through
:func:`run_params_many`, which enqueues declarative run-parameter
dicts (see :mod:`repro.campaign.spec`) in a store's durable work
queue and drains it (see :mod:`repro.campaign.queue`) — in process
for ``workers=1``, by a ``repro queue work`` fleet otherwise.  Every
worker executes the identical entry function, so parallelising a
sweep never changes its numbers.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.errors import CampaignError
from repro.metrics.summary import ScheduleSummary, summarize
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import SimulationResult, run_simulation
from repro.workload.trace import WorkloadTrace


def run_one(
    trace: WorkloadTrace,
    strategy: str,
    num_nodes: int,
    config: SchedulerConfig | None = None,
) -> SimulationResult:
    """Simulate *trace* under one strategy with metrics collection."""
    if config is None:
        config = SchedulerConfig(strategy=strategy)
    elif config.strategy != strategy:
        config = replace(config, strategy=strategy)
    return run_simulation(
        trace, num_nodes=num_nodes, strategy=strategy, config=config
    )


def compare_strategies(
    trace: WorkloadTrace,
    strategies: Sequence[str],
    num_nodes: int,
    config: SchedulerConfig | None = None,
) -> tuple[list[SimulationResult], list[ScheduleSummary]]:
    """Run the same trace under each strategy; returns results and
    summaries in the given strategy order."""
    results = [run_one(trace, s, num_nodes, config) for s in strategies]
    return results, [summarize(r) for r in results]


def run_params_many(
    params_list: Sequence[Mapping[str, object]],
    workers: int = 1,
    store: str | Path | None = None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
) -> list[dict[str, object]]:
    """Execute declarative run params, one result payload per input.

    The runs drain through the work queue of the *store* directory,
    or of a temporary one that is removed afterwards.  Duplicate
    params execute once and share their payload.  A run over its
    *timeout* seconds is quarantined.  Sweep simulations run without a
    snapshot dir, so they never poll for a stop: with ``workers > 1``
    the fleet worker exits to abandon such a run ``suspend_grace``
    seconds after its deadline; with ``workers=1`` the run finishes
    and is then quarantined, not returned.  Raises
    :class:`~repro.errors.CampaignError` if any run fails, since a
    sweep with holes cannot be tabulated.
    """
    from repro.campaign.queue import run_campaign
    from repro.campaign.spec import RunSpec

    runs = [RunSpec.from_params(p) for p in params_list]
    unique = list({run.run_id: run for run in runs}.values())
    config: dict[str, object] = {
        "retries": retries,
        "backoff": backoff,
        "deadline_s": timeout or 0.0,
    }
    if store is None:
        # A throwaway store needs no fleet event sidecars.
        config["metrics"] = False
        with tempfile.TemporaryDirectory(prefix="repro-sweep-") as root:
            outcome = run_campaign(root, unique, workers=workers, config=config)
    else:
        outcome = run_campaign(store, unique, workers=workers, config=config)
    if not outcome.ok:
        problems = [
            f"{lost.label or lost.run_id} — {lost.error}"
            for lost in (*outcome.failures, *outcome.quarantined)
        ] or [f"the drain ended {outcome.status}"]
        raise CampaignError(
            f"{len(unique) - len(outcome.results)} of {len(unique)} sweep "
            f"runs failed; first: {problems[0]}"
        )
    return [
        outcome.results[run.run_id]["result"]  # type: ignore[index]
        for run in runs
    ]


def sweep_summaries(
    params_list: Sequence[Mapping[str, object]], workers: int = 1
) -> list[dict[str, object]]:
    """Summary dict per simulation params (convenience for sweeps)."""
    payloads = run_params_many(params_list, workers=workers)
    return [p["summary"] for p in payloads]  # type: ignore[index]
