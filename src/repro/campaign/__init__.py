"""Campaign execution: parallel, resumable, cached experiment runs.

A *campaign* is a declarative description of many simulation runs —
a cartesian grid over strategy, seed, offered load, share threshold
and cluster size, plus named paper-experiment references — expanded
into run specs with stable content-hashed identifiers.

The subsystem has four layers:

:mod:`repro.campaign.spec`
    Declarative campaign description and run-parameter schema.
:mod:`repro.campaign.store`
    On-disk artifact store (one JSON per run id, atomic rename),
    giving free caching and checkpoint/resume of interrupted
    campaigns.
:mod:`repro.campaign.lease`
    Per-claim lease files with heartbeats and fencing tokens.
:mod:`repro.campaign.queue`
    The one executor: every campaign, sweep and archive replay is
    enqueued under ``<store>/.queue/`` and drained by one in-process
    worker or a ``repro queue work`` fleet, with retry and backoff,
    poison-run quarantine, deadlines, RSS shedding and graceful
    SIGTERM.  :func:`~repro.campaign.queue.run_campaign` is the
    library entry; its :class:`~repro.campaign.queue.CampaignResult`
    is the report read back from the store.

The per-run entry point lives in :mod:`repro.slurm.entry` so worker
processes import only what a run needs.
"""

from repro.campaign.backend import (
    ColumnarBackend,
    JsonStoreBackend,
    ResultBackend,
    detect_backend,
)
from repro.campaign.queue import (
    CampaignResult,
    QueueWorker,
    RunFailure,
    WorkQueue,
    run_campaign,
)
from repro.campaign.spec import (
    CampaignSpec,
    RunSpec,
    campaign_workload,
    inline_workload,
    run_id_of,
    simulate_params,
    trinity_workload,
)
from repro.campaign.store import ResultStore

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "ColumnarBackend",
    "JsonStoreBackend",
    "ResultBackend",
    "detect_backend",
    "QueueWorker",
    "ResultStore",
    "RunFailure",
    "RunSpec",
    "campaign_workload",
    "inline_workload",
    "run_campaign",
    "run_id_of",
    "simulate_params",
    "trinity_workload",
    "WorkQueue",
]
