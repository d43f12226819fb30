"""Which public entry points make up each layer, and the per-layer metrics.

Every wrapped callable is public API of its module (or the benchmark's
own HTTP client call); the module names give the layer names.  All
per-layer times are *self* times: a span's duration minus the spans
nested in it, so the layer times plus ``unattributed`` add up to the
traced total.
"""

from __future__ import annotations

import sys

from tracer import Tracer, layer_total

#: Layer order for reports; ``unattributed`` is op time no layer covers.
LAYERS = (
    "engine", "slurm", "priority", "placement", "availability",
    "release_times", "cluster", "interference", "metrics", "snapshot",
    "columnar", "archive", "store", "lease", "worker", "service", "http",
)
UNATTRIBUTED = "unattributed"
#: Span key of one whole operation; its self time is the unattributed part.
OP_KEY = f"{UNATTRIBUTED}:op"
SNAPSHOT_WRITE = "snapshot:WorkloadManager.snapshot"
SNAPSHOT_RESTORE = "snapshot:WorkloadManager.restore"
LEASE_COMPLETE = "lease:WorkQueue.complete"

#: Counters that must repeat exactly for one seed (taken from the first
#: traced round, which is the same set of operations on every run).
EXACT_COUNTERS = (
    "engine.events", "priority.calls", "priority.jobs_ordered",
    "placement.passes", "availability.calls", "availability.entries_scanned",
    "release_times.calls", "cluster.calls", "interference.calls",
    "metrics.samples", "metrics.node_visits", "snapshot.writes",
    "snapshot.bytes", "columnar.appends", "columnar.rows", "store.saves",
    "lease.cycles",
)


def install(tracer: Tracer, http_owner: type | None = None) -> None:
    """Wrap every layer's entry points (undone by ``tracer.restore()``).

    *http_owner* is the benchmark class whose ``post`` method makes the
    client's HTTP round trip.
    """
    from repro.archive import ingest, replay
    from repro.archive.columnar import ColumnarStore
    from repro.campaign.queue import QueueWorker, WorkQueue
    from repro.campaign.store import ResultStore
    from repro.cluster.machine import Cluster
    from repro.core import easy_backfill
    from repro.core.selector import AvailabilityView
    from repro.core.strategy import all_strategy_names, make_strategy
    from repro.engine.simulator import Simulator
    from repro.interference.model import InterferenceModel
    from repro.metrics.collector import MetricsCollector
    from repro.service.submit import SubmissionRegistry
    from repro.slurm.manager import WorkloadManager
    from repro.slurm.queue import PendingQueue
    from repro.snapshot.state import read_snapshot_header

    wrap = tracer.wrap
    for name in ("run", "schedule", "cancel"):
        wrap(Simulator, name, "engine")
    wrap(Simulator, "step", "slurm")
    for name in ("__init__", "load", "extend", "run", "compact_terminated"):
        wrap(WorkloadManager, name, "slurm")

    def ordered(counts, queue, now):
        counts["priority.jobs_ordered"] += len(queue)

    wrap(PendingQueue, "ordered", "priority", count=ordered)

    for cls in {type(make_strategy(name)) for name in all_strategy_names()}:
        wrap(cls, "schedule", "placement")

    def scanned(counts, view, ctx):
        counts["availability.entries_scanned"] += (
            ctx.cluster.num_nodes + len(ctx.running)
        )

    wrap(AvailabilityView, "__init__", "availability", count=scanned)
    tracer.wrap_function(
        easy_backfill.node_release_times, "release_times",
        [m for n, m in sys.modules.items() if n.startswith("repro.core.")],
    )
    for name in ("allocate", "release", "jobs_sharing_with",
                 "running_job_ids", "idle_nodes"):
        wrap(Cluster, name, "cluster")

    pairs: set = set()

    def pair(counts, model, profile, co_profile):
        if (profile, co_profile) not in pairs:
            pairs.add((profile, co_profile))
            counts["interference.distinct_pairs"] += 1

    wrap(InterferenceModel, "speed", "interference", count=pair)

    def sample(counts, collector, *args):
        counts["metrics.node_visits"] += collector.cluster.num_nodes

    for name in ("on_submit", "on_start", "on_job_end", "on_sample",
                 "on_sim_end"):
        wrap(MetricsCollector, name, "metrics", count=sample)

    def snapshot_bytes(counts, written, *args, **kwargs):
        # The pickled state's size, from the header: the compressed file
        # varies by a byte with the wall-clock provenance it carries.
        counts["snapshot.bytes"] += read_snapshot_header(written)["raw_bytes"]

    wrap(WorkloadManager, "snapshot", "snapshot", after=snapshot_bytes)
    wrap(WorkloadManager, "restore", "snapshot")

    def rows(counts, start, store, family, key, records):
        if start is not None:
            counts["columnar.rows"] += len(records)

    wrap(ColumnarStore, "append_once", "columnar", after=rows)
    tracer.wrap_function(ingest.load_archive, "archive", [ingest, replay])
    tracer.wrap_function(replay.stitched_summary, "archive", [replay])
    wrap(ingest.Archive, "window_trace", "archive")
    wrap(ResultStore, "save", "store")
    wrap(WorkQueue, "claim_next", "lease")
    wrap(WorkQueue, "complete", "lease")
    wrap(QueueWorker, "drain", "worker")
    wrap(SubmissionRegistry, "submit", "service")
    if http_owner is not None:
        wrap(http_owner, "post", "http")


def per_layer_metrics(
    tracer: Tracer,
    first: Tracer,
    events: int,
    first_events: int,
    total_ns: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase.

    *tracer* holds the whole phase and *first* a copy of its counters
    after the first round, whose counts repeat exactly for a seed;
    *events* counts the phase's simulator events and *total_ns* its
    traced op time.  Times are averaged over the whole phase.
    """

    def per(value: float, count: int) -> float:
        return value / count if count else 0.0

    def calls(layer: str) -> int:
        return layer_total(tracer.calls, layer)

    def exact(layer: str) -> int:
        return layer_total(first.calls, layer)

    def self_ms(layer: str) -> float:
        return layer_total(tracer.self_ns, layer) / 1e6

    def key_ms(key: str) -> float:
        return tracer.self_ns[key] / 1e6

    out: dict[str, tuple[float, str]] = {
        "engine.events": (first_events, "count"),
        "engine.self_us_per_event": (per(self_ms("engine") * 1e3, events), "us"),
        "slurm.self_us_per_event": (per(self_ms("slurm") * 1e3, events), "us"),
    }
    for layer in ("priority", "availability", "release_times", "cluster",
                  "interference"):
        out[f"{layer}.calls"] = (exact(layer), "count")
        out[f"{layer}.us_per_call"] = (
            per(self_ms(layer) * 1e3, calls(layer)), "us"
        )
    out["priority.jobs_ordered"] = (
        first.counts["priority.jobs_ordered"], "count"
    )
    out["availability.entries_scanned"] = (
        first.counts["availability.entries_scanned"], "count"
    )
    out["interference.distinct_pair_share"] = (
        per(first.counts["interference.distinct_pairs"], exact("interference")),
        "ratio",
    )
    out["placement.passes"] = (exact("placement"), "count")
    out["placement.self_us_per_pass"] = (
        per(self_ms("placement") * 1e3, calls("placement")), "us"
    )
    out["metrics.samples"] = (exact("metrics"), "count")
    out["metrics.node_visits"] = (first.counts["metrics.node_visits"], "count")
    out["metrics.us_per_sample"] = (
        per(self_ms("metrics") * 1e3, calls("metrics")), "us"
    )
    write, restore = SNAPSHOT_WRITE, SNAPSHOT_RESTORE
    out["snapshot.writes"] = (first.calls[write], "count")
    out["snapshot.bytes"] = (first.counts["snapshot.bytes"], "bytes")
    out["snapshot.write_ms"] = (per(key_ms(write), tracer.calls[write]), "ms")
    out["snapshot.restore_ms"] = (
        per(key_ms(restore), tracer.calls[restore]), "ms"
    )
    out["columnar.appends"] = (exact("columnar"), "count")
    out["columnar.rows"] = (first.counts["columnar.rows"], "count")
    out["columnar.append_ms"] = (per(self_ms("columnar"), calls("columnar")), "ms")
    out["store.saves"] = (exact("store"), "count")
    out["store.save_ms"] = (per(self_ms("store"), calls("store")), "ms")
    out["lease.cycles"] = (first.calls[LEASE_COMPLETE], "count")
    out["lease.cycle_ms"] = (
        per(self_ms("lease"), tracer.calls[LEASE_COMPLETE]), "ms"
    )
    out["service.registry_ms"] = (per(self_ms("service"), calls("service")), "ms")
    out["service.http_overhead_ms"] = (per(self_ms("http"), calls("http")), "ms")
    total_ms = total_ns / 1e6
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (per(self_ms(layer), total_ms), "ratio")
    out["unattributed_share"] = (per(self_ms(UNATTRIBUTED), total_ms), "ratio")
    return out
