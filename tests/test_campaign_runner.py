"""Tests for the campaign executor, the durable queue: caching, resume,
retry, deadlines, crashed workers, poison quarantine, and one-worker /
fleet result equality.

In-process drains take a custom entry function; fleet drains (more
than one worker) run ``repro queue work`` subprocesses with the
default entry, so those tests use real, tiny simulation runs.
"""

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.sweep import run_params_many
from repro.campaign.queue import (
    EXIT_ABANDONED,
    QueueWorker,
    WorkQueue,
    campaign_result,
    drain_with_workers,
    run_campaign,
)
from repro.campaign.spec import (
    RunSpec,
    simulate_params,
    trinity_workload,
)
from repro.campaign.store import ResultStore
from repro.cli import main
from repro.errors import ConfigError, SuspendRequested
from repro.observability.events import read_fleet_events
from repro.snapshot import suspend

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _clean_suspend_state():
    suspend.reset()
    yield
    suspend.reset()


# ----------------------------------------------------------------------
# Entry functions
# ----------------------------------------------------------------------
def double_entry(params):
    return {"value": params["value"] * 2}


def failing_entry(params):
    raise ValueError("always broken")


def flaky_entry(params):
    """Fails until its marker file exists (i.e. succeeds on retry)."""
    marker = Path(params["marker"])
    if marker.exists():
        return {"value": "recovered"}
    marker.touch()
    raise RuntimeError("first attempt fails")


def logging_entry(params):
    """Appends its name to a log file — counts real executions."""
    with open(params["log"], "a", encoding="utf-8") as handle:
        handle.write(params["name"] + "\n")
    return {"name": params["name"]}


def sleepy_entry(params):
    time.sleep(params["sleep_s"])
    return {"value": "slept"}


def polling_entry(params):
    """Sleeps, stopping at the next poll once a suspend is requested,
    as the simulator does at its next event boundary."""
    deadline = time.monotonic() + params["sleep_s"]
    while time.monotonic() < deadline:
        if suspend.suspend_requested():
            raise SuspendRequested("stopped at the next poll")
        time.sleep(0.01)
    return {"value": "slept"}


def watchdog_entry(params):
    from repro.errors import WatchdogError

    raise WatchdogError("wall-clock watchdog: synthetic trip",
                        kind="wall_clock")


def runs_of(values):
    return [RunSpec.from_params({"kind": "test", "value": v}) for v in values]


def sim_runs(n):
    """Tiny real simulation runs, for drains by a worker fleet."""
    return [
        RunSpec.from_params(simulate_params(
            "easy_backfill", trinity_workload(jobs=12, nodes=8, seed=seed), 8
        ))
        for seed in range(1, n + 1)
    ]


def executions(log_path):
    if not Path(log_path).exists():
        return []
    return Path(log_path).read_text().splitlines()


def drain(root, runs, entry, **config):
    """One in-process drain of *runs* with *config* as queue config."""
    return run_campaign(root, runs, entry=entry, config=config)


def crash_holding_a_lease(root):
    """A worker process that claims the next item and dies at once."""
    code = (
        "import os, sys\n"
        "from repro.campaign.queue import WorkQueue\n"
        "assert WorkQueue(sys.argv[1]).claim_next() is not None\n"
        "os._exit(13)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )}
    proc = subprocess.run([sys.executable, "-c", code, str(root)], env=env)
    assert proc.returncode == 13


def make_due(root):
    """Reclaim dead holders' leases and let the redelivery be claimed
    now, as if its backoff had passed."""
    queue = WorkQueue(root)
    queue.reclaim_stale()
    for item in queue.iter_items():
        queue.write_item(replace(item, not_before=0.0))


# ----------------------------------------------------------------------
class TestValidation:
    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="workers"):
            run_campaign(tmp_path, runs_of([1]), workers=0)
        with pytest.raises(ConfigError, match="entry"):
            run_campaign(tmp_path, runs_of([1]), workers=2, entry=double_entry)
        with pytest.raises(ConfigError, match="retries"):
            QueueWorker(tmp_path, config={"retries": -1})
        with pytest.raises(ConfigError, match="deadline_s"):
            QueueWorker(tmp_path, config={"deadline_s": -1.0})
        with pytest.raises(ConfigError, match="backoff"):
            QueueWorker(tmp_path, config={"backoff": -1.0})


class TestSerial:
    def test_runs_and_records(self, tmp_path):
        result = drain(tmp_path, runs_of([1, 2, 3]), double_entry)
        assert result.ok
        assert result.completed == 3
        assert result.cached == 0
        assert [p["value"] for p in result.payloads()] == [2, 4, 6]
        assert len(ResultStore(tmp_path)) == 3
        assert WorkQueue(tmp_path).drained()

    def test_memory_only_without_store(self):
        """Without a store, a sweep drains a temporary one and removes it."""
        temp = Path(tempfile.gettempdir())
        before = set(temp.glob("repro-sweep-*"))
        params = dict(sim_runs(1)[0].params)
        payloads = run_params_many([params, params])
        assert payloads[0] == payloads[1]
        assert payloads[0]["kind"] == "simulate"
        assert set(temp.glob("repro-sweep-*")) == before

    def test_caching_skips_completed_runs(self, tmp_path):
        runs = [
            RunSpec.from_params(
                {"kind": "test", "name": n, "log": str(tmp_path / "log")}
            )
            for n in ("a", "b", "c")
        ]
        first = drain(tmp_path / "s", runs, logging_entry)
        assert first.completed == 3
        second = drain(tmp_path / "s", runs, logging_entry)
        assert second.completed == 0
        assert second.cached == 3
        # The entry executed exactly once per run across both campaigns.
        assert sorted(executions(tmp_path / "log")) == ["a", "b", "c"]
        # Cached payloads match executed ones.
        assert second.payloads() == first.payloads()

    def test_resume_executes_only_missing_runs(self, tmp_path):
        """Simulates an interrupted campaign: one result file deleted,
        the re-run must execute exactly that run."""
        store = ResultStore(tmp_path / "s")
        log = tmp_path / "log"
        runs = [
            RunSpec.from_params(
                {"kind": "test", "name": n, "log": str(log)}
            )
            for n in ("a", "b", "c", "d")
        ]
        drain(store.root, runs, logging_entry)
        store.delete(runs[1].run_id)
        log.unlink()
        result = drain(store.root, runs, logging_entry)
        assert result.completed == 1
        assert result.cached == 3
        assert executions(log) == ["b"]

    def test_retry_recovers_and_counts_attempts(self, tmp_path):
        run = RunSpec.from_params(
            {"kind": "test", "marker": str(tmp_path / "marker")}
        )
        notes = []
        result = run_campaign(
            tmp_path / "s", [run], entry=flaky_entry, note=notes.append,
            config={"retries": 2, "backoff": 0.0},
        )
        assert result.ok
        record = ResultStore(tmp_path / "s").load(run.run_id)
        assert record["meta"]["attempts"] == 2
        retried = [n for n in notes if "attempt 1 failed" in n]
        assert len(retried) == 1 and "retrying" in retried[0]

    def test_exhausted_attempts_fail_and_are_not_persisted(self, tmp_path):
        result = drain(
            tmp_path / "s", runs_of([1]), failing_entry, retries=1, backoff=0.0
        )
        assert not result.ok
        assert result.failed == 1
        failure = result.failures[0]
        assert failure.attempts == 2
        assert "always broken" in failure.error
        # Failed runs leave no artifact, only a terminal queue entry: a
        # re-run retries them.
        assert len(ResultStore(tmp_path / "s")) == 0
        queue = WorkQueue(tmp_path / "s")
        assert queue.terminal_ids("failed") == [failure.run_id]

    def test_failure_does_not_stop_later_runs(self, tmp_path):
        runs = runs_of([1]) + [
            RunSpec.from_params({"kind": "test", "value": 2, "bad": True})
        ]

        def entry(params):
            if params.get("bad"):
                raise ValueError("nope")
            return {"value": params["value"]}

        result = drain(tmp_path, runs, entry, retries=0)
        assert result.completed == 1
        assert result.failed == 1
        assert result.payloads()[1] is None

    def test_backoff_schedule(self, tmp_path):
        sleeps = []
        result = run_campaign(
            tmp_path, runs_of([1]), entry=failing_entry, sleep=sleeps.append,
            config={"retries": 2, "backoff": 0.5},
        )
        assert not result.ok
        assert sleeps == [0.5, 1.0]


class TestParallel:
    def test_parallel_matches_serial_payloads(self, tmp_path):
        runs = sim_runs(4)
        serial = run_campaign(tmp_path / "one", runs, workers=1)
        fleet = run_campaign(tmp_path / "two", runs, workers=2)
        assert serial.ok and fleet.ok
        assert fleet.payloads() == serial.payloads()
        assert fleet.order == serial.order

    def test_parallel_retry_recovers(self, tmp_path):
        """Two workers drain one store concurrently; the failed first
        attempt is retried by the worker that claimed the run."""
        runs = [
            RunSpec.from_params(
                {"kind": "test", "marker": str(tmp_path / f"marker-{i}")}
            )
            for i in range(4)
        ]
        queue = WorkQueue(tmp_path / "s")
        queue.write_config({"retries": 2, "backoff": 0.0})
        queue.enqueue(runs)
        workers = [
            QueueWorker(tmp_path / "s", entry=flaky_entry) for _ in range(2)
        ]
        threads = [threading.Thread(target=w.drain) for w in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        result = campaign_result(queue, runs)
        assert result.ok and result.completed == 4
        for run in runs:
            assert result.results[run.run_id]["meta"]["attempts"] == 2

    def test_worker_crash_recovers_with_retry(self, tmp_path):
        """A worker hard-killed while holding a lease costs its run one
        delivery: the lease is reclaimed and the run redelivered."""
        root = tmp_path / "s"
        runs = runs_of([1, 2, 3, 4])
        WorkQueue(root).enqueue(runs)
        crash_holding_a_lease(root)
        result = drain(root, runs, double_entry)
        assert result.ok
        assert result.completed == 4
        assert result.payloads() == [{"value": v} for v in (2, 4, 6, 8)]
        reclaims = [
            e for e in read_fleet_events(root) if e["kind"] == "reclaim"
        ]
        assert [e["run_id"] for e in reclaims] == [runs[0].run_id]

    def test_worker_crash_exhausts_attempts(self, tmp_path):
        """A run whose workers keep dying exhausts its delivery budget
        and is quarantined, not retried forever."""
        root = tmp_path / "s"
        runs = runs_of([1])
        WorkQueue(root).enqueue(runs)
        crash_holding_a_lease(root)
        result = drain(root, runs, double_entry, max_deliveries=1)
        assert not result.ok
        assert not result.failures
        assert len(result.quarantined) == 1
        assert "delivery budget exhausted" in result.quarantined[0].error

    def test_serial_watchdog_trips_quarantine(self, tmp_path):
        """A watchdog-tripping run is quarantined after
        ``quarantine_after`` trips, with attempts remaining."""
        poisoned = runs_of([1])[0]
        clean = runs_of([2])[0]
        result = drain(
            tmp_path / "s", [poisoned, clean],
            lambda p: watchdog_entry(p) if p["value"] == 1
            else double_entry(p),
            retries=9, backoff=0.0, quarantine_after=3,
        )
        assert len(result.quarantined) == 1
        assert result.quarantined[0].incidents == 3
        assert "WatchdogError" in result.quarantined[0].error
        assert not result.failures
        assert result.completed == 1
        assert not ResultStore(tmp_path / "s").has(poisoned.run_id)

    def test_quarantine_disabled_falls_back_to_retry(self, tmp_path):
        result = drain(
            tmp_path, runs_of([1]), watchdog_entry,
            retries=1, backoff=0.0, quarantine_after=0,
        )
        assert not result.quarantined
        assert result.failures[0].attempts == 2

    def test_bad_quarantine_after_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="quarantine_after"):
            QueueWorker(tmp_path, config={"quarantine_after": -1})

    def test_worker_crash_quarantines_poison_run(self, tmp_path):
        """A run that kills its worker on every delivery is isolated
        once the delivery budget is spent."""
        root = tmp_path / "s"
        runs = runs_of([1])
        WorkQueue(root).enqueue(runs)
        crash_holding_a_lease(root)
        make_due(root)
        crash_holding_a_lease(root)
        result = drain(root, runs, double_entry, max_deliveries=2)
        assert not result.ok
        assert not result.failures
        assert len(result.quarantined) == 1
        poisoned = result.quarantined[0]
        assert poisoned.incidents == 2
        assert "2/2 deliveries" in poisoned.error
        assert poisoned.bundle is None  # no bundle: the worker died

    def test_timeout_abandons_run_spares_the_rest(self, tmp_path):
        """In a fleet, a run over its deadline that never polls for a
        stop (no snapshot dir) is abandoned: its worker quarantines it
        and exits.  The other runs still complete."""
        root = tmp_path / "s"
        slow = RunSpec.from_params(simulate_params(
            "easy_backfill", trinity_workload(jobs=4000, nodes=64, seed=1), 64
        ))
        runs = [slow] + sim_runs(3)
        queue = WorkQueue(root)
        queue.write_config({"deadline_s": 1.0, "suspend_grace": 0.5})
        queue.enqueue(runs)
        outcome = drain_with_workers(root, 2)
        result = campaign_result(queue, runs)
        assert result.completed == 3
        assert [q.run_id for q in result.quarantined] == [slow.run_id]
        assert "did not stop" in result.quarantined[0].error
        assert EXIT_ABANDONED in outcome.worker_exits.values()
        assert not queue.store.has(slow.run_id)

    def test_deadline_stops_polling_run_in_process(self, tmp_path):
        """In-process, a run over its deadline is stopped at its next
        suspend poll and quarantined; the other runs still complete."""
        store = ResultStore(tmp_path / "s")
        slow = RunSpec.from_params({"kind": "test", "sleep_s": 5.0})
        fast = [
            RunSpec.from_params({"kind": "test", "sleep_s": 0.01, "i": i})
            for i in range(3)
        ]
        started = time.monotonic()
        result = drain(
            store.root, [slow] + fast, polling_entry, deadline_s=0.3
        )
        assert time.monotonic() - started < 4.0
        assert result.completed == 3
        assert [q.run_id for q in result.quarantined] == [slow.run_id]
        assert "deadline" in result.quarantined[0].error
        # The stopped run left no artifact.
        assert not store.has(slow.run_id)

    def test_deadline_quarantines_late_run_in_process(self, tmp_path):
        """In-process, a run that does not poll cannot be stopped; it
        finishes over its deadline and is quarantined, not stored."""
        store = ResultStore(tmp_path / "s")
        slow = RunSpec.from_params({"kind": "test", "sleep_s": 0.8})
        fast = RunSpec.from_params({"kind": "test", "sleep_s": 0.01})
        result = drain(store.root, [slow, fast], sleepy_entry, deadline_s=0.2)
        assert result.completed == 1
        assert [q.run_id for q in result.quarantined] == [slow.run_id]
        assert not store.has(slow.run_id)

    def test_parallel_caching(self, tmp_path):
        runs = sim_runs(4)
        run_campaign(tmp_path / "s", runs, workers=2)
        again = run_campaign(tmp_path / "s", runs, workers=2)
        assert again.cached == 4
        assert again.completed == 0


class TestProgressEvents:
    """The fleet event sidecar under ``.queue/metrics/`` is the
    campaign's progress log (``repro top`` reads it)."""

    def test_event_stream_counts(self, tmp_path):
        runs = runs_of([1, 2])
        drain(tmp_path, runs, double_entry)
        events = read_fleet_events(tmp_path)
        for kind in ("enqueue", "claim", "complete"):
            assert sorted(
                e["run_id"] for e in events if e["kind"] == kind
            ) == sorted(r.run_id for r in runs)

    def test_cached_events(self, tmp_path):
        runs = runs_of([1])
        drain(tmp_path, runs, double_entry)
        before = len(read_fleet_events(tmp_path))
        result = drain(tmp_path, runs, double_entry)
        assert result.cached == 1
        # A cached run is neither enqueued nor claimed again.
        assert len(read_fleet_events(tmp_path)) == before


SPEC_ARGS = [
    "--name", "identity", "--jobs", "25",
    "--strategies", "easy_backfill", "shared_backfill",
    "--seeds", "1", "2", "--sizes", "16", "--quiet",
]


def _campaign_bytes(store: Path) -> dict[str, bytes]:
    files = {
        p.name: p.read_bytes()
        for p in store.glob("*.json")
        if not p.name.startswith(".")
    }
    files["results.jsonl"] = (store / "results.jsonl").read_bytes()
    return files


class TestSerialParallelIdentity:
    """The headline guarantee: ``repro campaign`` drained by a worker
    fleet writes byte-identical result files and ``results.jsonl`` to
    the same campaign drained by one in-process worker."""

    def test_store_files_identical(self, tmp_path):
        for workers, store in (("1", "one"), ("2", "two")):
            assert main([
                "campaign", *SPEC_ARGS, "--workers", workers,
                "--store", str(tmp_path / store),
            ]) == 0
        one = _campaign_bytes(tmp_path / "one")
        assert len(one) == 5
        assert one == _campaign_bytes(tmp_path / "two")

    def test_simulation_payloads_differ_across_strategies(self, tmp_path):
        """Sanity: the identity above is not vacuous — different runs
        really produce different results."""
        assert main([
            "campaign", *SPEC_ARGS, "--workers", "2",
            "--store", str(tmp_path / "s"),
        ]) == 0
        store = ResultStore(tmp_path / "s")
        makespans = {
            store.load(rid)["result"]["makespan_s"]
            for rid in store.completed_ids()
        }
        assert len(makespans) > 1


class TestResilienceDeterminism:
    """Seeded failure injection stays byte-identical between one-worker
    and fleet drains of ``repro campaign``."""

    def test_failure_campaign_serial_parallel_identical(self, tmp_path):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "resilience",
            "jobs": 30,
            "strategies": ["easy_backfill", "shared_backfill"],
            "seeds": [1, 2],
            "cluster_sizes": [16],
            "config": {"resilience": {
                "node_mtbf_hours": 150.0,
                "rack_mtbf_hours": 400.0,
                "checkpoint": "daly",
                "max_requeues": 2,
                "blacklist_failures": 2,
                "seed": 3,
            }},
        }))
        for workers, store in (("1", "one"), ("2", "two")):
            assert main([
                "campaign", "--spec", str(spec), "--workers", workers,
                "--store", str(tmp_path / store), "--quiet",
            ]) == 0
        one = _campaign_bytes(tmp_path / "one")
        assert len(one) == 5
        assert one == _campaign_bytes(tmp_path / "two")
        # Not vacuous: failures actually fired in at least one run.
        store = ResultStore(tmp_path / "one")
        blasted = [
            store.load(rid)["result"].get("resilience", {})
            for rid in store.completed_ids()
        ]
        assert any(block.get("failures", 0) > 0 for block in blasted)
