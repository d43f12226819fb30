"""The campaign executor: a durable queue, claimed and drained.

Every campaign, sweep and archive replay runs through this module.
The pending runs of a store become claimable *items* under
``<store>/.queue/``; one :class:`QueueWorker` drains them in-process
(``repro campaign --workers 1``, :func:`run_campaign` with one
worker), or a fleet of ``repro queue work <store>`` processes does
(:func:`drain_with_workers`).  Any number of extra workers may join a
store at any time.  Results commit through the atomic
:class:`~repro.campaign.store.ResultStore` write path, so the record
bytes do not depend on how many workers drained the queue.  Workers
hold the store's advisory lock in *shared* mode, so an exclusive
holder (``fsck --repair``) never interleaves with a drain.

Layout (everything dot-hidden from result globs and fingerprints)::

    <store>/.queue/
        config.json            worker settings (one authority, no flags)
        items/<run_id>.json    pending/claimed work items
        leases/<run_id>.lease  per-claim lease files (see lease.py)
        failed/<run_id>.json   terminal: attempts exhausted
        quarantined/<run_id>.json  terminal: poison run, deadline,
                               or delivery budget
        metrics/               fleet event sidecars (the progress log)
        logs/worker-<n>.log    fleet worker output

**Claim protocol.**  A worker scans ``items/`` in ``seq`` (enqueue)
order and, for each eligible item (no live lease, ``not_before`` due,
delivery budget left, result not already in the store), tries an
``O_EXCL`` lease create carrying the *provisional* fencing token
``item.token + 1``.  The winner re-reads the item, bumps ``token`` and
``deliveries`` with an atomic rewrite, and stamps the (rarely
different) authoritative token back into its lease.  Losers just move
on — no retries, no waiting.

**Fencing.**  A claim is valid while its token equals the item's
token, and the item file holds exactly one token — so at most one
claim can ever be valid.  The supervisor pass
(:meth:`WorkQueue.reclaim_stale`) bumps the item token *before*
deleting a stale lease; a zombie holder that wakes up later fails the
:meth:`WorkQueue.fence_ok` re-check at the durable-write boundary and
its result is discarded, not merged (the columnar ``append_once``
idempotence marks below it catch even a write that slips through,
because run execution is deterministic).

**Crash-safe commit.**  The commit order is: fence check → result
into the store (atomic) → item removed → lease released.  A crash
between any two steps is recovered without execution: the next
claimant (or reclaim pass) sees the result already in the store and
simply retires the item.

**Degradation ladder** (wired in :class:`QueueWorker`): a failed
attempt retries with exponential backoff until ``retries`` run out; a
run whose watchdog trips ``quarantine_after`` times is a *poison run*
and is quarantined with its replay bundle at once; a disk-space trip
pauses claiming; an RSS trip sheds the leased run back to the queue
(with its snapshot, no delivery penalty) and recycles the worker; a
per-run deadline converts a runaway run into a quarantine item;
SIGTERM requeues the in-flight run within ``suspend_grace`` and exits
4; a lost lease (fencing) discards the in-flight result.

**Deadlines.**  A run over ``deadline_s`` is first asked to stop at
its next suspend poll (simulations with a snapshot dir poll at every
event).  A run that does not poll (an ``experiment`` run, a
simulation without a snapshot dir, a hang in native code) gets
``suspend_grace`` more seconds; then a ``repro queue work`` worker
quarantines it and exits with :data:`EXIT_ABANDONED`, the only way to
stop it, and the fleet supervisor respawns the worker.  An in-process
drain cannot stop its caller: there a run that does not poll runs to
the end, and is quarantined, not committed, because it finished over
its deadline.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.campaign.lease import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_TTL_S,
    HeartbeatKeeper,
    LeaseDir,
    LeaseLost,
)
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore, StoreLock
from repro.diagnostics.quarantine import QuarantinedRun
from repro.errors import (
    CampaignError,
    ConfigError,
    SuspendRequested,
    WatchdogError,
)
from repro.faultinject import backoff_delay, failpoint_write, with_io_retries
from repro.snapshot import suspend as _suspend
from repro.snapshot.guards import disk_free_mb, rss_mb_of
from repro.snapshot.state import snapshot_path_for

log = logging.getLogger("repro.campaign.queue")

#: Hidden queue directory under a result store.
QUEUE_DIR_NAME = ".queue"

ITEMS_DIR = "items"
LEASES_DIR = "leases"
FAILED_DIR = "failed"
QUARANTINED_DIR = "quarantined"
LOGS_DIR = "logs"
CONFIG_NAME = "config.json"

#: Redelivery budget: a run crash-reclaimed this many times becomes a
#: quarantine item instead of being claimed again.
DEFAULT_MAX_DELIVERIES = 5

#: Worker-fleet respawn budget multiplier for join mode.
RESPAWN_BUDGET_PER_WORKER = 4

#: Exit status of a ``repro queue work`` worker that quarantined a run
#: which overran its deadline without stopping, and exited to abandon it.
EXIT_ABANDONED = 3

#: Backoff schedule for redelivery ``not_before`` stamps — the same
#: deterministic jittered curve the I/O retry layer uses, scaled up
#: from milliseconds to queue time.
REDELIVERY_BASE_S = 0.25
REDELIVERY_MAX_S = 15.0


@dataclass(frozen=True)
class QueueItem:
    """One durable work item (``items/<run_id>.json``)."""

    run_id: str
    seq: int
    label: str
    params: dict
    token: int = 0
    deliveries: int = 0
    not_before: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "run_id": self.run_id,
            "seq": self.seq,
            "label": self.label,
            "params": self.params,
            "token": self.token,
            "deliveries": self.deliveries,
            "not_before": self.not_before,
        }
        if self.extra:
            out["extra"] = self.extra
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "QueueItem":
        return cls(
            run_id=str(raw["run_id"]),
            seq=int(raw.get("seq", 0)),  # type: ignore[arg-type]
            label=str(raw.get("label", "")),
            params=dict(raw.get("params", {})),  # type: ignore[arg-type]
            token=int(raw.get("token", 0)),  # type: ignore[arg-type]
            deliveries=int(raw.get("deliveries", 0)),  # type: ignore[arg-type]
            not_before=float(raw.get("not_before", 0.0)),  # type: ignore[arg-type]
            extra=dict(raw.get("extra", {})),  # type: ignore[arg-type]
        )


class WorkQueue:
    """The on-disk queue under one store: items, leases, terminals."""

    def __init__(
        self,
        store_root: str | Path,
        *,
        ttl_s: float = DEFAULT_TTL_S,
        max_deliveries: int = DEFAULT_MAX_DELIVERIES,
        clock: Callable[[], float] = time.time,
        alive: Callable[[int, str], bool | None] | None = None,
    ) -> None:
        self.store = ResultStore(store_root)
        self.root = self.store.root / QUEUE_DIR_NAME
        self.items_dir = self.root / ITEMS_DIR
        self.failed_dir = self.root / FAILED_DIR
        self.quarantined_dir = self.root / QUARANTINED_DIR
        self.logs_dir = self.root / LOGS_DIR
        if max_deliveries < 1:
            raise ConfigError(
                f"max_deliveries must be >= 1, got {max_deliveries}"
            )
        self.max_deliveries = max_deliveries
        self._clock = clock
        for sub in (self.items_dir, self.failed_dir,
                    self.quarantined_dir, self.logs_dir):
            sub.mkdir(parents=True, exist_ok=True)
        self.leases = LeaseDir(
            self.root / LEASES_DIR, ttl_s=ttl_s, clock=clock, alive=alive
        )
        #: Optional fleet event sidecar (:class:`~repro.observability.
        #: events.EventLog`).  None by default — the bare queue used by
        #: benchmarks and ad-hoc scripts pays one ``is not None`` test
        #: per lifecycle boundary, nothing more.
        self.events = None

    def arm_events(self) -> None:
        """Attach a per-process event sidecar under ``.queue/metrics/``.

        Idempotent; the sidecar inherits this queue's clock so fake
        -clock tests produce deterministic timelines.
        """
        if self.events is None:
            from repro.observability.events import METRICS_DIR_NAME, EventLog

            self.events = EventLog(
                self.root / METRICS_DIR_NAME, clock=self._clock
            )

    def _emit(self, kind: str, run_id: str | None = None, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, run_id, **fields)

    # ------------------------------------------------------------------
    # Config
    # ------------------------------------------------------------------
    def write_config(self, config: Mapping[str, object]) -> Path:
        path = self.root / CONFIG_NAME
        data = json.dumps(dict(config), sort_keys=True, indent=1).encode(
            "utf-8"
        )
        self._atomic_write(path, data, name=None)
        return path

    def read_config(self) -> dict[str, object]:
        path = self.root / CONFIG_NAME
        try:
            with path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return {}
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"queue config {str(path)!r} is unreadable: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Item files
    # ------------------------------------------------------------------
    def _item_path(self, run_id: str) -> Path:
        if not run_id or "/" in run_id or run_id.startswith("."):
            raise ConfigError(f"invalid run id {run_id!r}")
        return self.items_dir / f"{run_id}.json"

    def read_item(self, run_id: str) -> QueueItem | None:
        try:
            with self._item_path(run_id).open("r", encoding="utf-8") as fh:
                return QueueItem.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError):
            return None

    def write_item(self, item: QueueItem) -> None:
        data = json.dumps(item.to_dict(), sort_keys=True, indent=1).encode(
            "utf-8"
        )
        self._atomic_write(
            self._item_path(item.run_id), data, name="queue.item.write"
        )

    def _atomic_write(
        self, path: Path, data: bytes, *, name: str | None
    ) -> None:
        def _attempt() -> None:
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{path.stem}-", suffix=".tmp", dir=path.parent
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    if name is not None:
                        failpoint_write(name, handle, data)
                    else:
                        handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

        with_io_retries(_attempt)

    def _remove_item(self, run_id: str) -> None:
        self._item_path(run_id).unlink(missing_ok=True)

    def iter_items(self) -> list[QueueItem]:
        """All readable pending items, sorted by enqueue sequence."""
        items = []
        for path in sorted(self.items_dir.glob("*.json")):
            if path.name.startswith("."):
                continue
            item = self.read_item(path.stem)
            if item is not None:
                items.append(item)
        items.sort(key=lambda it: (it.seq, it.run_id))
        return items

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def enqueue(
        self,
        runs: Sequence[RunSpec],
        *,
        extras: Mapping[str, Mapping[str, object]] | None = None,
        reset_terminal: bool = True,
    ) -> int:
        """Idempotently enqueue *runs*; returns how many items exist
        after the pass (excluding runs already complete in the store).

        Runs whose result is already stored are skipped; existing
        items keep their delivery accounting (two racing enqueuers
        write identical fresh items, so the race is benign).  With
        *reset_terminal* (the default, matching how a resumed
        campaign re-attempts failed runs), terminal ``failed/`` and
        ``quarantined/`` entries for re-enqueued runs are cleared.
        """
        pending = 0
        for seq, run in enumerate(runs):
            if self.store.has(run.run_id):
                continue
            pending += 1
            if reset_terminal:
                (self.failed_dir / f"{run.run_id}.json").unlink(
                    missing_ok=True
                )
                (self.quarantined_dir / f"{run.run_id}.json").unlink(
                    missing_ok=True
                )
            if self._item_path(run.run_id).exists():
                continue
            extra = dict((extras or {}).get(run.run_id, {}))
            self.write_item(
                QueueItem(
                    run_id=run.run_id,
                    seq=seq,
                    label=run.label,
                    params=dict(run.params),
                    extra=extra,
                )
            )
            self._emit(
                "enqueue", run.run_id, seq=seq, trace=extra.get("trace")
            )
        return pending

    # ------------------------------------------------------------------
    # Claim / fence / commit
    # ------------------------------------------------------------------
    def claim_next(
        self, *, in_order: bool = False
    ) -> tuple[QueueItem, int] | None:
        """Claim the first eligible item; ``(item, token)`` or None.

        With *in_order*, only the first pending item may be claimed:
        a chain whose runs depend on their predecessors (replay
        windows) waits for a backed-off or leased head instead of
        skipping past it.  The returned *item* reflects the
        post-claim state (token and delivery count bumped); *token*
        is the claim's fencing token.
        """
        now = self._clock()
        for item in self.iter_items():
            run_id = item.run_id
            if self.store.has(run_id):
                # Crash between result commit and item removal:
                # finish the retirement, no execution needed.
                self._remove_item(run_id)
                continue
            if item.not_before > now or self.leases.path_for(run_id).exists():
                if in_order:
                    return None
                continue
            if item.deliveries >= self.max_deliveries:
                self.quarantine_item(
                    item,
                    reason=(
                        f"delivery budget exhausted "
                        f"({item.deliveries}/{self.max_deliveries} "
                        f"deliveries reclaimed from dead or stalled "
                        f"workers)"
                    ),
                )
                continue
            if not self.leases.claim(run_id, item.token + 1):
                if in_order:
                    return None
                continue  # lost the race; the winner has it
            fresh = self.read_item(run_id)
            if fresh is None or self.store.has(run_id):
                # Completed (or retired) between scan and claim.
                if fresh is not None:
                    self._remove_item(run_id)
                self.leases.force_remove(run_id)
                continue
            token = fresh.token + 1
            claimed = replace(
                fresh, token=token, deliveries=fresh.deliveries + 1
            )
            self.write_item(claimed)
            if token != item.token + 1:
                # The item advanced between scan and claim (a full
                # claim/requeue cycle slipped in); restamp the lease
                # with the authoritative token.  Safe: the lease is
                # milliseconds old, far inside the reclaim TTL.
                self.leases.rewrite(run_id, token)
            self._emit(
                "claim",
                run_id,
                token=token,
                deliveries=claimed.deliveries,
                trace=claimed.extra.get("trace"),
            )
            return claimed, token
        return None

    def fence_ok(self, run_id: str, token: int) -> bool:
        """May a holder with *token* commit durable state for
        *run_id*?  False once the claim was reclaimed (superseded
        token) or the item retired."""
        item = self.read_item(run_id)
        return item is not None and item.token == token

    def complete(self, run_id: str, token: int) -> None:
        """Retire a committed run: remove the item, release the lease.

        Called *after* the result is in the store.  The token guard
        means a zombie that somehow got here after a reclaim cannot
        retire the successor's item.
        """
        item = self.read_item(run_id)
        if item is not None and item.token == token:
            self._emit(
                "complete", run_id, token=token,
                trace=item.extra.get("trace"),
            )
            self._remove_item(run_id)
        self.leases.release(run_id)

    def requeue(
        self,
        item: QueueItem,
        token: int,
        *,
        penalty: bool,
        snapshot: str | None = None,
        reason: str = "",
    ) -> bool:
        """Voluntarily hand a claimed run back to the queue.

        Used by the degradation ladder (RSS shed, SIGTERM drain):
        *penalty* ``False`` refunds the delivery this claim consumed,
        so a worker shed by a resource guard does not march the run
        toward the quarantine budget.  Returns False when the claim
        was already fenced (nothing to hand back).
        """
        fresh = self.read_item(item.run_id)
        if fresh is None or fresh.token != token:
            return False
        deliveries = fresh.deliveries if penalty else fresh.deliveries - 1
        not_before = (
            self._clock()
            + backoff_delay(
                max(1, deliveries),
                base_delay_s=REDELIVERY_BASE_S,
                max_delay_s=REDELIVERY_MAX_S,
            )
            if penalty
            else 0.0
        )
        extra = dict(fresh.extra)
        if snapshot:
            extra["snapshot"] = snapshot
        if reason:
            extra["requeued"] = reason
        self.write_item(
            replace(
                fresh,
                deliveries=max(0, deliveries),
                not_before=not_before,
                extra=extra,
            )
        )
        self._emit(
            "requeue",
            item.run_id,
            token=token,
            reason=reason or None,
            trace=extra.get("trace"),
        )
        self.leases.release(item.run_id)
        return True

    # ------------------------------------------------------------------
    # Terminal states
    # ------------------------------------------------------------------
    def _terminate(
        self, item: QueueItem, target: Path, payload: dict[str, object]
    ) -> None:
        data = json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")
        self._atomic_write(target / f"{item.run_id}.json", data, name=None)
        self._remove_item(item.run_id)

    def fail_item(
        self, item: QueueItem, token: int, error: str, attempts: int = 1
    ) -> bool:
        """Terminal failure (attempts exhausted); token-guarded."""
        fresh = self.read_item(item.run_id)
        if fresh is None or fresh.token != token:
            return False
        doc = fresh.to_dict()
        doc["error"] = error
        doc["attempts"] = attempts
        doc["status"] = "failed"
        self._terminate(fresh, self.failed_dir, doc)
        self._emit(
            "failed", item.run_id, token=token,
            trace=fresh.extra.get("trace"),
        )
        self.leases.release(item.run_id)
        return True

    def quarantine_item(
        self,
        item: QueueItem,
        *,
        reason: str,
        token: int | None = None,
        details: Mapping[str, object] | None = None,
    ) -> bool:
        """Terminal quarantine (poison run, deadline blown, delivery
        budget spent); *details* (error, incidents, bundle) join the
        terminal document.

        With *token* given the move is fenced like :meth:`fail_item`;
        without (the claim-time budget check) the item is moved as-is.
        """
        fresh = self.read_item(item.run_id)
        if fresh is None:
            return False
        if token is not None and fresh.token != token:
            return False
        doc = fresh.to_dict()
        doc.update(details or {})
        doc["reason"] = reason
        doc["status"] = "quarantined"
        self._terminate(fresh, self.quarantined_dir, doc)
        self._emit(
            "quarantined", item.run_id, token=token, reason=reason,
            trace=fresh.extra.get("trace"),
        )
        if token is not None:
            self.leases.release(item.run_id)
        return True

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def reclaim_stale(self) -> list[str]:
        """Requeue every item whose lease went stale; reap orphans.

        The order is the heart of the fencing protocol: the item's
        token is bumped (with redelivery backoff) *before* the stale
        lease is deleted, so the old holder is provably superseded by
        the time anyone else can claim.
        """
        reclaimed: list[str] = []
        now = self._clock()
        for run_id in self.leases.list():
            lease = self.leases.read(run_id)
            if lease is None:
                continue  # released under us
            if not self.leases.is_stale(lease, now):
                continue
            item = self.read_item(run_id)
            if item is None or self.store.has(run_id):
                # Orphan lease: the run was committed or retired but
                # the holder died before releasing.  Finish the job.
                if item is not None:
                    self._remove_item(run_id)
                self.leases.force_remove(run_id)
                continue
            bumped = replace(
                item,
                token=item.token + 1,
                not_before=now
                + backoff_delay(
                    max(1, item.deliveries),
                    base_delay_s=REDELIVERY_BASE_S,
                    max_delay_s=REDELIVERY_MAX_S,
                ),
            )
            self.write_item(bumped)
            self.leases.force_remove(run_id)
            self._emit(
                "reclaim",
                run_id,
                token=item.token,
                new_token=bumped.token,
                holder_pid=lease.pid,
                holder_host=lease.host or None,
                trace=item.extra.get("trace"),
            )
            log.warning(
                "queue %s: reclaimed run %s from %s@%s (delivery %d, "
                "token %d -> %d)",
                self.root.parent, run_id, lease.pid, lease.host or "?",
                item.deliveries, item.token, bumped.token,
            )
            reclaimed.append(run_id)
        return reclaimed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def drained(self) -> bool:
        """No pending items remain (terminal dirs may be non-empty)."""
        return next(
            (
                True
                for p in self.items_dir.glob("*.json")
                if not p.name.startswith(".")
            ),
            None,
        ) is None

    def terminal_ids(self, kind: str) -> list[str]:
        base = {"failed": self.failed_dir,
                "quarantined": self.quarantined_dir}[kind]
        return sorted(
            p.stem for p in base.glob("*.json") if not p.name.startswith(".")
        )

    def read_terminal(self, kind: str, run_id: str) -> dict[str, object]:
        base = {"failed": self.failed_dir,
                "quarantined": self.quarantined_dir}[kind]
        with (base / f"{run_id}.json").open("r", encoding="utf-8") as fh:
            return json.load(fh)

    def status(self) -> dict[str, object]:
        """Point-in-time queue census for ``repro queue status``.

        One pass over each directory: the lease scan below is the
        *only* lease read, and the claimable count reuses it as a set
        membership test instead of re-statting ``leases/`` once per
        item (``--watch`` used to pay items × leases stats per tick).
        """
        now = self._clock()
        items = self.iter_items()
        leases = []
        leased_ids: set[str] = set()
        stale = 0
        oldest_heartbeat = 0.0
        for run_id in self.leases.list():
            lease = self.leases.read(run_id)
            if lease is None:
                continue
            leased_ids.add(run_id)
            age = lease.age(now)
            is_stale = self.leases.is_stale(lease, now)
            stale += 1 if is_stale else 0
            oldest_heartbeat = max(oldest_heartbeat, age)
            leases.append(
                {
                    "run_id": run_id,
                    "pid": lease.pid,
                    "host": lease.host,
                    "token": lease.token,
                    "heartbeat_age_s": round(age, 3),
                    "stale": is_stale,
                }
            )
        backlog = sum(1 for it in items if it.run_id not in leased_ids)
        return {
            "store": str(self.store.root),
            "pending": len(items),
            "claimable": backlog,
            "leased": len(leases),
            "failed": len(self.terminal_ids("failed")),
            "quarantined": len(self.terminal_ids("quarantined")),
            "completed": len(self.store),
            "stale": stale,
            "heartbeat_age_max_s": round(oldest_heartbeat, 3),
            "leases": leases,
        }


def has_queue(store_root: str | Path) -> bool:
    """Does *store_root* carry a work queue (any items dir)?"""
    return (Path(store_root) / QUEUE_DIR_NAME / ITEMS_DIR).is_dir()


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------

#: Defaults for ``config.json``; ``repro campaign`` overrides them from
#: the campaign settings so ``repro queue work`` needs no flags at all.
DEFAULT_WORKER_CONFIG: dict[str, object] = {
    "retries": 2,
    "backoff": 0.5,
    "deadline_s": 0.0,          # 0 = no per-run deadline
    "quarantine_after": 2,      # watchdog trips per claim; 0 = never
    "heartbeat_s": DEFAULT_HEARTBEAT_S,
    "ttl_s": DEFAULT_TTL_S,
    "max_deliveries": DEFAULT_MAX_DELIVERIES,
    "rss_budget_mb": 0.0,       # 0 = unguarded
    "disk_min_free_mb": 0.0,
    "suspend_grace": 10.0,
    "bundle_dir": None,
    "snapshot_dir": None,
    "snapshot_every": None,
    "telemetry_dir": None,
    # Fleet event sidecars under .queue/metrics/ (the observability
    # plane).  Always outside the store fingerprint, so leaving this
    # on costs a few fsync'd appends per run and changes no result.
    "metrics": True,
}


#: Config keys that must be non-negative numbers.
_NON_NEGATIVE_KEYS = (
    "retries", "backoff", "deadline_s", "quarantine_after",
    "rss_budget_mb", "disk_min_free_mb",
)


def build_entry(
    bundle_dir: str | Path | None = None,
    snapshot_dir: str | Path | None = None,
    snapshot_every: str | None = None,
    telemetry_dir: str | Path | None = None,
) -> Callable[[Mapping[str, object]], dict[str, object]]:
    """The default run entry, :func:`repro.slurm.entry.execute_run`,
    with the worker's bundle, snapshot and telemetry directories."""
    from repro.slurm.entry import execute_run

    kwargs: dict[str, str] = {}
    if bundle_dir:
        kwargs["bundle_dir"] = str(bundle_dir)
    if snapshot_dir:
        kwargs["snapshot_dir"] = str(snapshot_dir)
        if snapshot_every:
            kwargs["snapshot_every"] = snapshot_every
    if telemetry_dir:
        kwargs["telemetry_dir"] = str(telemetry_dir)
    return partial(execute_run, **kwargs) if kwargs else execute_run


@dataclass
class WorkerOutcome:
    """What one :meth:`QueueWorker.drain` call did."""

    status: str = "drained"  # drained | suspended | shed
    completed: int = 0
    failed: int = 0
    quarantined: int = 0
    requeued: int = 0
    fenced: int = 0

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "drained" else 4


class QueueWorker:
    """One drain process: claim → execute → commit, forever.

    Runs items strictly one at a time (parallelism comes from running
    more workers), heartbeats its single active lease from a daemon
    thread, and reacts to the degradation ladder documented in the
    module docstring.  ``drain()`` returns when the queue is empty,
    when a SIGTERM asks for a clean drain, or when an RSS trip
    recycles the process.
    """

    IDLE_SLEEP_S = 0.2

    def __init__(
        self,
        store_root: str | Path,
        *,
        config: Mapping[str, object] | None = None,
        entry: Callable | None = None,
        install_signal_handlers: bool = False,
        note: Callable[[str], None] | None = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        in_order: bool = False,
        hard_stop: bool = False,
    ) -> None:
        probe = WorkQueue(store_root)  # ensures layout, reads config
        merged = dict(DEFAULT_WORKER_CONFIG)
        merged.update(probe.read_config())
        merged.update(config or {})
        for key in _NON_NEGATIVE_KEYS:
            if float(merged[key] or 0) < 0:  # type: ignore[arg-type]
                raise ConfigError(
                    f"{key} must be >= 0, got {merged[key]}"
                )
        self.config = merged
        self.queue = WorkQueue(
            store_root,
            ttl_s=float(merged["ttl_s"]),
            max_deliveries=int(merged["max_deliveries"]),
            clock=clock,
        )
        self.store = self.queue.store
        if merged.get("metrics"):
            self.queue.arm_events()
        self.install_signal_handlers = install_signal_handlers
        #: Claim strictly in enqueue order (see WorkQueue.claim_next).
        self.in_order = in_order
        #: May exit the process to abandon a run that overruns its
        #: deadline and does not stop (fleet workers only: an
        #: in-process drain must not kill its caller).
        self.hard_stop = hard_stop
        self._note = note or (lambda message: None)
        self._clock = clock
        self._sleep = sleep
        self.entry = entry or self._build_entry()
        self._keeper = HeartbeatKeeper(
            self.queue.leases,
            interval_s=float(merged["heartbeat_s"]),
            on_lost=self._on_lease_lost,
        )
        # Per-run degradation flags, set by monitor/heartbeat threads.
        self._fenced = False
        self._shed = False
        self._deadline_hit = False
        # True while the entry executes; the monitor abandons a run
        # only then, never while the main thread settles its result.
        self._entry_lock = threading.Lock()
        self._in_entry = False
        self._claimed: tuple[QueueItem, int] | None = None

    def _build_entry(self) -> Callable:
        cfg = self.config
        return build_entry(
            cfg.get("bundle_dir"),  # type: ignore[arg-type]
            cfg.get("snapshot_dir"),  # type: ignore[arg-type]
            cfg.get("snapshot_every"),  # type: ignore[arg-type]
            cfg.get("telemetry_dir"),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    def _on_lease_lost(self, run_id: str) -> None:
        """Heartbeat callback: our claim was reclaimed.  Fence the
        in-flight execution — ask it to stop at the next event
        boundary and mark the result for discard.  A heartbeat that
        lost a race with our own release of the lease (the run was
        settled, or belongs to an earlier claim) asks for no stop."""
        with self._entry_lock:
            if self._claimed is None or self._claimed[0].run_id != run_id:
                return
            self._fenced = True
            if self._in_entry:
                _suspend.request_suspend()

    # ------------------------------------------------------------------
    def drain(self) -> WorkerOutcome:
        outcome = WorkerOutcome()
        previous = (
            _suspend.install_signal_handlers()
            if self.install_signal_handlers
            else None
        )
        lock = StoreLock(self.store.root, shared=True)
        lock.acquire()
        self._keeper.start()
        try:
            self._drain_loop(outcome)
        finally:
            self._keeper.stop()
            lock.release()
            if previous is not None:
                _suspend.restore_signal_handlers(previous)
        return outcome

    def _drain_loop(self, outcome: WorkerOutcome) -> None:
        disk_limit = float(self.config["disk_min_free_mb"] or 0.0)
        while True:
            if _suspend.suspend_requested():
                # SIGTERM between runs: nothing leased, just leave.
                _suspend.reset()
                outcome.status = "suspended"
                self._note("suspend requested; draining cleanly")
                return
            self.queue.reclaim_stale()
            if disk_limit > 0:
                free = disk_free_mb(self.store.root)
                if free < disk_limit:
                    if self.queue.drained():
                        return
                    self._note(
                        f"paused: {free:.0f} MB free under the "
                        f"{disk_limit:.0f} MB watermark"
                    )
                    self._sleep(2.0)
                    continue
            claimed = self.queue.claim_next(in_order=self.in_order)
            if claimed is None:
                if self.queue.drained():
                    return
                self._sleep(self.IDLE_SLEEP_S)
                continue
            item, token = claimed
            self._execute_claimed(item, token, outcome)
            if outcome.status in ("suspended", "shed"):
                return

    # ------------------------------------------------------------------
    def _execute_claimed(
        self, item: QueueItem, token: int, outcome: WorkerOutcome
    ) -> None:
        self._fenced = False
        self._shed = False
        self._deadline_hit = False
        try:
            # First heartbeat immediately at claim time: short runs
            # finish inside the keeper's interval and would otherwise
            # never exercise the renew path (or its failpoint).
            self.queue.leases.renew(item.run_id)
        except LeaseLost:
            self._fenced = True
            outcome.fenced += 1
            self.queue._emit("fenced", item.run_id, token=token)
            return
        self.queue._emit("renew", item.run_id, token=token)
        self._claimed = (item, token)
        self._keeper.watch(item.run_id)
        signals = _suspend.signals_received()
        stop = threading.Event()
        monitor = threading.Thread(
            target=self._monitor_run,
            args=(stop,),
            name="queue-run-monitor",
            daemon=True,
        )
        monitor.start()
        retries = int(self.config["retries"])
        backoff = float(self.config["backoff"])
        quarantine_after = int(self.config["quarantine_after"] or 0)
        attempt = incidents = 0
        started = self._clock()
        self._note(
            f"run {item.run_id} claimed (token {token}, "
            f"delivery {item.deliveries})"
        )
        try:
            while True:
                attempt += 1
                try:
                    payload = self._execute_item(item)
                except SuspendRequested as exc:
                    self._handle_suspend(item, token, exc, outcome)
                    return
                except KeyboardInterrupt:
                    self.queue.requeue(
                        item, token, penalty=False, reason="interrupted"
                    )
                    outcome.requeued += 1
                    outcome.status = "suspended"
                    return
                except Exception as exc:
                    if self._deadline_hit:
                        self._quarantine_overrun(item, token, outcome)
                        return
                    error = f"{type(exc).__name__}: {exc}"
                    if isinstance(exc, WatchdogError) and quarantine_after:
                        incidents += 1
                        if incidents >= quarantine_after:
                            self._isolate_poison(
                                item, token, exc, incidents,
                                self._clock() - started, outcome,
                            )
                            return
                    if attempt <= retries:
                        self._note(
                            f"run {item.run_id} attempt {attempt} failed "
                            f"({error}); retrying"
                        )
                        self._sleep(backoff * (2.0 ** (attempt - 1)))
                        continue
                    if self.queue.fail_item(item, token, error, attempt):
                        outcome.failed += 1
                        self._note(f"run {item.run_id} FAILED: {error}")
                    else:
                        outcome.fenced += 1
                    return
                else:
                    if self._deadline_hit:
                        # It finished, but over its deadline without
                        # reaching a suspend poll: the deadline holds.
                        self._quarantine_overrun(item, token, outcome)
                    else:
                        self._commit(item, token, payload, attempt, outcome)
                    return
        finally:
            stop.set()
            monitor.join()
            self._keeper.unwatch(item.run_id)
            if outcome.status == "drained" and (
                self._shed or self._deadline_hit or self._fenced
            ):
                # The run ended before it saw the monitor's or the
                # heartbeat's suspend request: withdraw the request,
                # and still recycle a worker over its RSS budget.
                _suspend.reset()
                if self._shed:
                    outcome.status = "shed"
            if (
                _suspend.signals_received() > signals
                and outcome.status == "drained"
                and not _suspend.suspend_requested()
            ):
                # A SIGTERM/SIGINT arrived during the run, but a reset
                # (above, or the entry's own) cleared it: raise it
                # again so the drain loop stops cleanly.
                _suspend.request_suspend()

    def _isolate_poison(
        self,
        item: QueueItem,
        token: int,
        exc: Exception,
        incidents: int,
        elapsed_s: float,
        outcome: WorkerOutcome,
    ) -> None:
        """Quarantine a run whose watchdog tripped ``quarantine_after``
        times, with the replay bundle the entry captured for it."""
        snapshot = None
        if self.config.get("snapshot_dir"):
            path = snapshot_path_for(
                str(self.config["snapshot_dir"]), item.run_id
            )
            snapshot = str(path) if path.is_file() else None
        error = f"{type(exc).__name__}: {exc}"
        if self.queue.quarantine_item(
            item,
            token=token,
            reason=f"poison run: {incidents} watchdog trips ({error})",
            details={
                "error": error,
                "incidents": incidents,
                "bundle": getattr(exc, "bundle_path", None),
                "snapshot": snapshot,
                "elapsed_s": elapsed_s,
            },
        ):
            outcome.quarantined += 1
            self._note(f"run {item.run_id} quarantined (poison: {error})")
        else:
            outcome.fenced += 1

    def _commit(
        self,
        item: QueueItem,
        token: int,
        payload: dict[str, object],
        attempts: int,
        outcome: WorkerOutcome,
    ) -> None:
        if not self.queue.fence_ok(item.run_id, token):
            # Superseded: a reclaim handed this run to someone else
            # while we were computing.  The result is discarded, not
            # merged — the successor's (deterministic, identical)
            # result is the one that counts.
            outcome.fenced += 1
            self.queue._emit(
                "fenced", item.run_id, token=token,
                trace=item.extra.get("trace"),
            )
            self._note(f"run {item.run_id} fenced (token {token} stale)")
            return
        # One record shape for every drain, so a store's bytes do
        # not depend on how many workers drained it.
        record = {
            "run_id": item.run_id,
            "label": item.label,
            "params": item.params,
            "result": payload,
            "meta": {"attempts": attempts},
        }
        self.store.save(item.run_id, record)
        self.queue.complete(item.run_id, token)
        outcome.completed += 1
        self._note(f"run {item.run_id} done")

    def _handle_suspend(
        self,
        item: QueueItem,
        token: int,
        exc: SuspendRequested,
        outcome: WorkerOutcome,
    ) -> None:
        snapshot = exc.snapshot_path
        if self._fenced:
            # Reclaimed mid-run: the queue already rerouted the item;
            # drop the claim state and keep draining.
            _suspend.reset()
            outcome.fenced += 1
            self.queue._emit(
                "fenced", item.run_id, token=token,
                trace=item.extra.get("trace"),
            )
            self._note(f"run {item.run_id} fenced mid-run; discarded")
            return
        if self._deadline_hit:
            _suspend.reset()
            self._quarantine_overrun(item, token, outcome)
            return
        if self._shed:
            _suspend.reset()
            self.queue.requeue(
                item, token, penalty=False, snapshot=snapshot,
                reason="rss-shed",
            )
            outcome.requeued += 1
            outcome.status = "shed"
            self._note(
                f"run {item.run_id} shed (RSS over budget); recycling "
                f"worker"
            )
            return
        # External SIGTERM/SIGINT: clean drain within suspend_grace —
        # park the run (with its snapshot) and exit suspended.
        self.queue.requeue(
            item, token, penalty=False, snapshot=snapshot, reason="sigterm"
        )
        outcome.requeued += 1
        outcome.status = "suspended"
        self._note(f"run {item.run_id} requeued (suspend); draining")

    def _quarantine_overrun(
        self,
        item: QueueItem,
        token: int,
        outcome: WorkerOutcome,
        abandoned: bool = False,
    ) -> None:
        """Quarantine a run that went over its deadline budget."""
        deadline = float(self.config["deadline_s"])
        reason = (
            f"run exceeded its {deadline:g}s deadline budget "
            f"on delivery {item.deliveries}"
        )
        if abandoned:
            reason += "; it did not stop, so its worker exited"
        if self.queue.quarantine_item(item, token=token, reason=reason):
            outcome.quarantined += 1
            self._note(f"run {item.run_id} quarantined (deadline)")
        else:
            outcome.fenced += 1

    # ------------------------------------------------------------------
    def _monitor_run(self, stop: threading.Event) -> None:
        """Per-run watchdog thread: deadline budget + RSS self-probe."""
        deadline_s = float(self.config["deadline_s"] or 0.0)
        rss_budget = float(self.config["rss_budget_mb"] or 0.0)
        if deadline_s <= 0 and rss_budget <= 0:
            return
        started = self._clock()
        while True:
            if deadline_s > 0 and self._clock() - started >= deadline_s:
                self._deadline_hit = True
                _suspend.request_suspend()
                if self.hard_stop:
                    self._abandon_after_grace(stop)
                return
            if rss_budget > 0:
                # Probed at claim time too: a worker already over its
                # budget sheds the run before it grows further.
                rss = rss_mb_of(os.getpid())
                if rss is not None and rss > rss_budget:
                    self._shed = True
                    _suspend.request_suspend()
                    return
            if stop.wait(0.2):
                return

    def _abandon_after_grace(self, stop: threading.Event) -> None:
        """Give the claimed run, over its deadline, ``suspend_grace``
        seconds to reach a suspend poll; if its entry is still
        executing then, quarantine it and exit the process."""
        if stop.wait(float(self.config["suspend_grace"] or 0.0)):
            return
        assert self._claimed is not None
        item, token = self._claimed
        while True:
            with self._entry_lock:
                if self._in_entry:
                    # The lock stays held until the process is gone,
                    # so the main thread cannot settle the run too.
                    self._note(
                        f"run {item.run_id} ignored its deadline; "
                        f"abandoning it"
                    )
                    self._quarantine_overrun(
                        item, token, WorkerOutcome(), abandoned=True
                    )
                    os._exit(EXIT_ABANDONED)
            if stop.wait(0.2):
                return

    # ------------------------------------------------------------------
    def _execute_item(self, item: QueueItem) -> dict[str, object]:
        # Install the submission's trace id as ambient context so the
        # entry point's telemetry sidecar and decision trace can tag
        # themselves without widening any signature.
        from repro.observability.events import set_current_trace

        previous = set_current_trace(item.extra.get("trace"))
        with self._entry_lock:
            self._in_entry = True
        try:
            if item.params.get("kind") == "replay_chain":
                return self._execute_replay_chain(item)
            return self.entry(item.params)
        finally:
            with self._entry_lock:
                self._in_entry = False
            set_current_trace(previous)

    def _execute_replay_chain(self, item: QueueItem) -> dict[str, object]:
        """One whole per-strategy replay window chain as a queue item.

        The chain executes serially inside this worker (window order
        is a correctness requirement), into its own sub-store — the
        queue provides the *across-strategy* parallelism ROADMAP item
        2 left open.  Suspension of the inner chain propagates as
        :class:`SuspendRequested` so the degradation ladder requeues
        the chain; completed windows stay cached in the sub-store and
        a redelivery resumes where it stopped.
        """
        from repro.archive.replay import replay_archive

        archive_dir = item.extra.get("archive_dir")
        store_dir = item.extra.get("store_dir")
        if not archive_dir or not store_dir:
            raise ConfigError(
                f"replay_chain item {item.run_id} lacks archive_dir/"
                f"store_dir extras"
            )
        params = item.params
        outcome = replay_archive(
            str(archive_dir),
            str(store_dir),
            strategy=str(params["strategy"]),
            num_nodes=int(params["num_nodes"]),  # type: ignore[arg-type]
            config=params.get("config"),  # type: ignore[arg-type]
            telemetry_dir=(
                str(self.config["telemetry_dir"])
                if self.config.get("telemetry_dir")
                else None
            ),
        )
        campaign = outcome.campaign
        if campaign.interrupted or campaign.suspended:
            raise SuspendRequested(
                f"replay chain {outcome.chain} suspended mid-drain"
            )
        if not campaign.ok:
            problems = [f.error for f in campaign.failures]
            problems += [q.incidents for q in campaign.quarantined]
            raise CampaignError(
                f"replay chain {outcome.chain} failed: {problems!r}"
            )
        stitched = dict(outcome.stitched or {})
        return {
            "kind": "replay_chain",
            "chain": outcome.chain,
            "strategy": str(params["strategy"]),
            "num_nodes": int(params["num_nodes"]),  # type: ignore[arg-type]
            "windows": int(params["windows"]),  # type: ignore[arg-type]
            "stitched": stitched,
        }


# ----------------------------------------------------------------------
# Join supervisor: a worker fleet draining one store
# ----------------------------------------------------------------------


@dataclass
class JoinOutcome:
    """Result of :func:`drain_with_workers`."""

    status: str  # drained | suspended | stalled
    workers: int
    respawns: int = 0
    worker_exits: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "drained"


def _spawn_worker(
    store_root: Path, index: int, python: str, env: Mapping[str, str]
) -> subprocess.Popen:
    log_path = (
        store_root / QUEUE_DIR_NAME / LOGS_DIR / f"worker-{index:03d}.log"
    )
    handle = log_path.open("ab")
    try:
        return subprocess.Popen(
            [
                python, "-m", "repro.cli",
                "queue", "work", str(store_root), "--quiet",
            ],
            stdout=handle,
            stderr=subprocess.STDOUT,
            env=dict(env),
        )
    finally:
        handle.close()  # the child owns its inherited descriptor


def drain_with_workers(
    store_root: str | Path,
    workers: int,
    *,
    python: str = sys.executable,
    suspend_grace: float = 10.0,
    env: Mapping[str, str] | None = None,
    note: Callable[[str], None] | None = None,
    poll_s: float = 0.2,
) -> JoinOutcome:
    """Spawn *workers* ``repro queue work`` processes and supervise
    them until the store's queue is drained.

    The parent is the reclaim supervisor of last resort (a hard-killed
    worker's leases come back even if every sibling died too), and the
    respawn authority: a worker that exits without draining the queue
    (injected kill, RSS recycle, real crash) is replaced while the
    respawn budget lasts.  On a suspend request the fleet is SIGTERMed,
    given *suspend_grace* to park leases, then SIGKILLed.
    """
    store_root = Path(store_root)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    queue = WorkQueue(store_root)
    if queue.read_config().get("metrics", True):
        # The parent's reclaim pass is an observability actor too: its
        # supersession events are what the trace stitcher marks zombie
        # tenures with.
        queue.arm_events()
    say = note or (lambda message: None)
    environment = dict(os.environ if env is None else env)
    budget = RESPAWN_BUDGET_PER_WORKER * workers + 8
    outcome = JoinOutcome(status="drained", workers=workers)
    fleet: dict[int, subprocess.Popen] = {}
    spawned = 0

    def _launch() -> None:
        nonlocal spawned
        proc = _spawn_worker(store_root, spawned, python, environment)
        fleet[spawned] = proc
        spawned += 1

    for _ in range(workers):
        _launch()
    say(f"joined store {store_root} with {workers} workers")
    try:
        while True:
            if _suspend.suspend_requested():
                _suspend.reset()
                outcome.status = "suspended"
                say("suspend requested; draining the worker fleet")
                return outcome
            queue.reclaim_stale()
            for index, proc in list(fleet.items()):
                code = proc.poll()
                if code is None:
                    continue
                del fleet[index]
                outcome.worker_exits[index] = code
                if code not in (0, 4):
                    say(f"worker {index} exited {code}")
            if queue.drained() and not fleet:
                return outcome
            if not queue.drained() and not fleet:
                if outcome.respawns >= budget:
                    outcome.status = "stalled"
                    say(
                        f"respawn budget ({budget}) exhausted with work "
                        f"pending; giving up"
                    )
                    return outcome
            # Keep the fleet at strength while claimable work remains.
            while (
                not queue.drained()
                and len(fleet) < workers
                and outcome.respawns < budget
            ):
                _launch()
                outcome.respawns += 1
            time.sleep(poll_s)
    finally:
        _terminate_fleet(fleet, outcome, suspend_grace, say)


def _terminate_fleet(
    fleet: Mapping[int, subprocess.Popen],
    outcome: JoinOutcome,
    grace: float,
    say: Callable[[str], None],
) -> None:
    if not fleet:
        return
    for proc in fleet.values():
        if proc.poll() is None:
            try:
                proc.terminate()
            except OSError:
                pass
    deadline = time.monotonic() + max(0.5, grace)
    for index, proc in fleet.items():
        budget = max(0.1, deadline - time.monotonic())
        try:
            outcome.worker_exits[index] = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            say(f"worker {index} ignored SIGTERM; killing")
            proc.kill()
            outcome.worker_exits[index] = proc.wait()


# ----------------------------------------------------------------------
# Campaign entry point: enqueue, drain, report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunFailure:
    """A run whose attempts were exhausted."""

    run_id: str
    label: str
    attempts: int
    error: str


@dataclass(frozen=True)
class SuspendedRun:
    """A run handed back to the queue by a shutdown or an RSS shed.

    ``snapshot`` is the state file its next claim resumes from;
    ``None`` means the run restarts from scratch (still correct — just
    slower — because runs are deterministic).
    """

    run_id: str
    label: str
    snapshot: str | None = None


@dataclass
class CampaignResult:
    """One campaign drain, read back from its store and queue."""

    order: list[str]
    results: dict[str, dict[str, object]]
    failures: list[RunFailure] = field(default_factory=list)
    quarantined: list[QuarantinedRun] = field(default_factory=list)
    suspended: list[SuspendedRun] = field(default_factory=list)
    completed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0
    #: How the drain ended: drained | suspended | shed | stalled.
    status: str = "drained"
    workers: int = 1

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def interrupted(self) -> bool:
        """A shutdown or an RSS shed cut the drain short."""
        return self.status in ("suspended", "shed")

    @property
    def ok(self) -> bool:
        return (
            self.status == "drained"
            and not self.failures
            and not self.quarantined
        )

    def records(self) -> list[dict[str, object]]:
        """Stored result records, in campaign order."""
        return [self.results[rid] for rid in self.order if rid in self.results]

    def payloads(self) -> list[dict[str, object] | None]:
        """Entry payload per run in campaign order; None where missing."""
        return [
            self.results[rid]["result"] if rid in self.results else None  # type: ignore[misc]
            for rid in self.order
        ]


def campaign_result(
    queue: WorkQueue,
    runs: Sequence[RunSpec],
    *,
    cached: int = 0,
    status: str = "drained",
    elapsed_s: float = 0.0,
    workers: int = 1,
) -> CampaignResult:
    """The report of *runs* as their store and queue now stand."""
    labels = {run.run_id: run.label for run in runs}
    result = CampaignResult(
        order=list(labels), results={}, cached=cached, status=status,
        elapsed_s=elapsed_s, workers=workers,
    )
    failed = set(queue.terminal_ids("failed"))
    quarantined = set(queue.terminal_ids("quarantined"))
    for run_id, label in labels.items():
        if queue.store.has(run_id):
            result.results[run_id] = queue.store.load(run_id)
        elif run_id in failed:
            doc = queue.read_terminal("failed", run_id)
            result.failures.append(RunFailure(
                run_id, label, int(doc.get("attempts", 1)),  # type: ignore[arg-type]
                str(doc.get("error", "")),
            ))
        elif run_id in quarantined:
            doc = queue.read_terminal("quarantined", run_id)
            result.quarantined.append(QuarantinedRun(
                run_id=run_id,
                label=label,
                incidents=int(doc.get("incidents", doc.get("deliveries", 0))),  # type: ignore[arg-type]
                error=str(doc.get("error") or doc.get("reason", "")),
                params=dict(doc.get("params", {})),  # type: ignore[arg-type]
                bundle=doc.get("bundle"),  # type: ignore[arg-type]
                elapsed_s=float(doc.get("elapsed_s", 0.0)),  # type: ignore[arg-type]
                snapshot=doc.get("snapshot"),  # type: ignore[arg-type]
            ))
    result.completed = max(0, len(result.results) - cached)
    if status != "drained":
        result.suspended = [
            SuspendedRun(item.run_id, item.label, item.extra.get("snapshot"))
            for item in queue.iter_items()
            if item.run_id in labels and item.extra.get("requeued")
        ]
    return result


def run_campaign(
    store_root: str | Path,
    runs: Sequence[RunSpec],
    *,
    workers: int = 1,
    config: Mapping[str, object] | None = None,
    entry: Callable | None = None,
    extras: Mapping[str, Mapping[str, object]] | None = None,
    note: Callable[[str], None] | None = None,
    install_signal_handlers: bool = False,
    sleep: Callable[[float], None] = time.sleep,
    in_order: bool = False,
) -> CampaignResult:
    """Enqueue *runs* under *store_root*, drain them, and report.

    *config*, when given, becomes the queue's ``config.json`` first.
    With one worker the drain runs in this process, through *entry*
    when given and strictly in run order with *in_order*; more
    workers drain as a ``repro queue work`` fleet, which runs the
    default entry.  Runs already in the store are cached: they are
    not enqueued again.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if (entry is not None or in_order) and workers > 1:
        raise ConfigError(
            "a custom entry or an in-order drain runs in-process only "
            "(workers=1); fleet workers run the default entry"
        )
    started = time.monotonic()
    queue = WorkQueue(store_root)
    if config is not None:
        queue.write_config(config)
    if queue.read_config().get("metrics", True):
        queue.arm_events()
    cached = sum(1 for run in runs if queue.store.has(run.run_id))
    queue.enqueue(runs, extras=extras)
    if workers == 1:
        status = QueueWorker(
            store_root,
            entry=entry,
            install_signal_handlers=install_signal_handlers,
            note=note,
            sleep=sleep,
            in_order=in_order,
        ).drain().status
    elif queue.drained():
        status = "drained"
    else:
        previous = (
            _suspend.install_signal_handlers()
            if install_signal_handlers
            else None
        )
        try:
            status = drain_with_workers(store_root, workers, note=note).status
        finally:
            _suspend.restore_signal_handlers(previous)
    # Final supervisor pass: reap anything the drain left leased.
    queue.reclaim_stale()
    return campaign_result(
        queue, runs, cached=cached, status=status,
        elapsed_s=time.monotonic() - started, workers=workers,
    )


#: Claim-cycle microbenchmark hook (claim → renew → release), shared
#: by the benchmark suite so the "<1% of run wall time" budget has one
#: definition.
def lease_cycle_once(queue: WorkQueue, run: RunSpec) -> None:
    queue.enqueue([run])
    claimed = queue.claim_next()
    assert claimed is not None
    item, token = claimed
    queue.leases.renew(item.run_id)
    queue.complete(item.run_id, token)
