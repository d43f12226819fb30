"""The fleet observability plane: event sidecars, aggregation,
Prometheus rendering, fsck hygiene, and the byte-identity contract."""

from __future__ import annotations

import json

import pytest

from repro.campaign.queue import WorkQueue
from repro.campaign.spec import RunSpec
from repro.faultinject import CATALOG
from repro.observability.events import (
    METRIC_NAMES,
    SLO_SECONDS_EDGES,
    EventLog,
    current_trace,
    fleet_metrics,
    merge_fleet_metrics,
    metrics_dir_for,
    read_event_log,
    read_fleet_events,
    render_prometheus,
    set_current_trace,
)


def _runs(n: int) -> list[RunSpec]:
    return [
        RunSpec.from_params({"kind": "experiment", "experiment": f"t{i}"})
        for i in range(n)
    ]


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> float:
        self.now += dt
        return self.now


class TestEventLog:
    def test_round_trip(self, tmp_path):
        log = EventLog(tmp_path, pid=42, host="node-a", clock=lambda: 7.5)
        log.emit("claim", "r1", token=3, trace="abc")
        log.emit("complete", "r1", token=3, skipped=None)
        events = read_event_log(log.path)
        assert [e["kind"] for e in events] == ["claim", "complete"]
        assert events[0] == {
            "t": 7.5, "kind": "claim", "pid": 42, "host": "node-a",
            "run_id": "r1", "token": 3, "trace": "abc",
        }
        assert "skipped" not in events[1]  # None fields dropped

    def test_torn_tail_tolerated(self, tmp_path):
        log = EventLog(tmp_path, pid=1, host="h", clock=lambda: 1.0)
        log.emit("claim", "r1", token=1)
        log.emit("complete", "r1", token=1)
        log.close()
        with log.path.open("ab") as handle:
            handle.write(b'{"t": 2.0, "kind": "requ')  # torn mid-append
        events = read_event_log(log.path)
        assert [e["kind"] for e in events] == ["claim", "complete"]

    def test_failpoint_registered(self):
        assert EventLog.FAILPOINT == "queue.metrics.write"
        assert EventLog.FAILPOINT in CATALOG

    def test_filenames_dodge_fsck_residue_globs(self, tmp_path):
        log = EventLog(tmp_path, pid=9, host="x")
        log.emit("enqueue", "r")
        assert log.path.name.endswith(".events.jsonl")
        assert not log.path.name.endswith(".tmp")


class TestTraceContext:
    def test_set_and_restore(self):
        assert current_trace() is None
        previous = set_current_trace("trace-1")
        assert previous is None
        assert current_trace() == "trace-1"
        assert set_current_trace(previous) == "trace-1"
        assert current_trace() is None


class TestQueueEmitsEvents:
    def _armed_queue(self, tmp_path, clock) -> WorkQueue:
        queue = WorkQueue(tmp_path, clock=clock)
        queue.arm_events()
        return queue

    def test_lifecycle_events(self, tmp_path):
        clock = FakeClock()
        queue = self._armed_queue(tmp_path, clock)
        runs = _runs(1)
        queue.enqueue(
            runs, extras={runs[0].run_id: {"trace": "t-1"}}
        )
        clock.tick(0.5)
        item, token = queue.claim_next()
        clock.tick(2.0)
        queue.store.save(item.run_id, {
            "run_id": item.run_id, "params": dict(item.params),
            "result": {"kind": "test"},
        })
        queue.complete(item.run_id, token)
        kinds = [e["kind"] for e in read_fleet_events(tmp_path)]
        assert kinds == ["enqueue", "claim", "complete"]
        for event in read_fleet_events(tmp_path):
            assert event["trace"] == "t-1"

    def test_bare_queue_emits_nothing(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue(_runs(1))
        assert queue.claim_next() is not None
        assert not metrics_dir_for(tmp_path).exists()

    def test_reclaim_records_supersession(self, tmp_path):
        import os
        import time

        queue = WorkQueue(tmp_path)
        queue.arm_events()
        queue.enqueue(_runs(1))
        item, token = queue.claim_next()
        # Staleness is judged from the lease file's mtime; age it past
        # the TTL instead of sleeping through it.
        lease_path = queue.leases.path_for(item.run_id)
        aged = time.time() - 60.0
        os.utime(lease_path, (aged, aged))
        assert queue.reclaim_stale() == [item.run_id]
        reclaim = [
            e for e in read_fleet_events(tmp_path) if e["kind"] == "reclaim"
        ][0]
        assert reclaim["token"] == token
        assert reclaim["new_token"] == token + 1


class TestFleetMetrics:
    def _drained_store(self, tmp_path):
        clock = FakeClock()
        queue = WorkQueue(tmp_path, clock=clock)
        queue.arm_events()
        runs = _runs(3)
        queue.enqueue(
            runs, extras={r.run_id: {"trace": "sub-1"} for r in runs}
        )
        for wait, execution in ((0.1, 2.0), (0.3, 4.0), (0.6, 8.0)):
            clock.tick(wait)
            item, token = queue.claim_next()
            clock.tick(execution)
            queue.store.save(item.run_id, {
                "run_id": item.run_id, "params": dict(item.params),
                "result": {"kind": "test"},
            })
            queue.complete(item.run_id, token)
        return clock

    def test_counters_and_slo(self, tmp_path):
        clock = self._drained_store(tmp_path)
        doc = fleet_metrics(tmp_path, now=clock())
        assert doc["counters"]["enqueued"] == 3
        assert doc["counters"]["claimed"] == 3
        assert doc["counters"]["completed"] == 3
        assert doc["counters"]["reclaimed"] == 0
        assert doc["traces"] == ["sub-1"]
        wait = doc["slo"]["queue_wait_seconds"]
        assert wait["count"] == 3
        # Sequential drain: all three enqueue at t=0, so each run's
        # queue wait includes the runtime of the runs before it.
        assert wait["sum"] == pytest.approx(0.1 + (0.1 + 2.0 + 0.3) + (0.1 + 2.0 + 0.3 + 4.0 + 0.6))
        execution = doc["slo"]["execution_seconds"]
        assert execution["count"] == 3
        assert execution["sum"] == pytest.approx(2.0 + 4.0 + 8.0)
        total = doc["slo"]["end_to_end_seconds"]
        assert total["sum"] == pytest.approx(wait["sum"] + execution["sum"])
        assert tuple(wait["edges"]) == SLO_SECONDS_EDGES

    def test_census_rides_along(self, tmp_path):
        self._drained_store(tmp_path)
        doc = fleet_metrics(tmp_path)
        assert doc["census"]["completed"] == 3
        assert doc["census"]["pending"] == 0
        assert "stale" in doc["census"]
        assert "heartbeat_age_max_s" in doc["census"]

    def test_merge(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        self._drained_store(tmp_path / "a")
        self._drained_store(tmp_path / "b")
        merged = merge_fleet_metrics([
            fleet_metrics(tmp_path / "a"),
            fleet_metrics(tmp_path / "b"),
        ])
        assert merged["counters"]["completed"] == 6
        assert merged["census"]["completed"] == 6
        assert merged["slo"]["queue_wait_seconds"]["count"] == 6
        assert merged["traces"] == ["sub-1"]


class TestPrometheusText:
    def test_render_format(self, tmp_path):
        clock = FakeClock()
        queue = WorkQueue(tmp_path, clock=clock)
        queue.arm_events()
        runs = _runs(2)
        queue.enqueue(runs)
        clock.tick(0.2)
        item, token = queue.claim_next()
        clock.tick(1.0)
        queue.store.save(item.run_id, {
            "run_id": item.run_id, "params": dict(item.params),
            "result": {"kind": "test"},
        })
        queue.complete(item.run_id, token)
        text = render_prometheus(
            fleet_metrics(tmp_path, now=clock()),
            admission={"requests": 5, "accepted": 4, "shed": 1},
        )
        lines = text.splitlines()
        assert text.endswith("\n")
        # Every sample line's metric name is in the authority table.
        for line in lines:
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            base = (
                name.rsplit("_", 1)[0]
                if name.endswith(("_bucket", "_sum", "_count"))
                else name
            )
            assert base in METRIC_NAMES, name
        assert "repro_queue_completed 1" in lines
        assert "repro_queue_pending 1" in lines
        assert "repro_runs_claimed_total 1" in lines
        assert "repro_http_requests_total 5" in lines
        # Histogram buckets are cumulative and end at +Inf == _count.
        buckets = [
            line for line in lines
            if line.startswith("repro_slo_queue_wait_seconds_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert buckets[-1].startswith(
            'repro_slo_queue_wait_seconds_bucket{le="+Inf"}'
        )
        assert "repro_slo_queue_wait_seconds_count 1" in lines

    def test_every_metric_name_has_type_and_help(self):
        for name, (kind, help_text) in METRIC_NAMES.items():
            assert name.startswith("repro_")
            assert kind in ("counter", "gauge", "histogram")
            assert help_text


class TestStatusCensus:
    def test_single_pass_census_shape(self, tmp_path):
        import os
        import time

        queue = WorkQueue(tmp_path)
        queue.enqueue(_runs(3))
        item, _token = queue.claim_next()
        status = queue.status()
        assert status["pending"] == 3
        assert status["claimable"] == 2
        assert status["leased"] == 1
        assert status["stale"] == 0
        assert status["heartbeat_age_max_s"] >= 0.0
        aged = time.time() - 60.0
        os.utime(queue.leases.path_for(item.run_id), (aged, aged))
        status = queue.status()
        assert status["stale"] == 1
        assert status["heartbeat_age_max_s"] == pytest.approx(60.0, abs=2.0)
        assert status["leases"][0]["stale"] is True

    def test_claimable_does_not_stat_leases_per_item(
        self, tmp_path, monkeypatch
    ):
        queue = WorkQueue(tmp_path)
        queue.enqueue(_runs(5))
        queue.claim_next()

        calls = []
        original = queue.leases.path_for

        def _counted(run_id):
            calls.append(run_id)
            return original(run_id)

        monkeypatch.setattr(queue.leases, "path_for", _counted)
        status = queue.status()
        assert status["claimable"] == 4
        # One lease lookup per *lease*, never per pending item: the old
        # --watch loop paid items x leases stats on every tick.
        assert len(calls) == status["leased"] == 1


class TestFsckSidecars:
    def _store_with_sidecar(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.arm_events()
        queue.enqueue(_runs(1))
        item, token = queue.claim_next()
        queue.store.save(item.run_id, {
            "run_id": item.run_id, "params": dict(item.params),
            "result": {"kind": "test"},
        })
        queue.complete(item.run_id, token)
        queue.events.close()
        return queue.events.path

    def test_clean_sidecar_passes(self, tmp_path):
        from repro.faultinject.fsck import fsck_store

        self._store_with_sidecar(tmp_path)
        report = fsck_store(tmp_path)
        assert report.ok
        assert not [p for p in report.findings
                    if p.code.startswith("queue.metrics")]

    def test_torn_tail_warns_and_repairs(self, tmp_path):
        from repro.faultinject.fsck import fsck_store

        path = self._store_with_sidecar(tmp_path)
        clean = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(b'{"t": 9.9, "kind": "cla')
        report = fsck_store(tmp_path)
        assert report.ok  # warning, not error
        assert [p.code for p in report.findings
                if p.code.startswith("queue.metrics")] == [
            "queue.metrics-torn-tail"
        ]
        repaired = fsck_store(tmp_path, repair=True)
        assert repaired.ok
        assert path.read_bytes() == clean  # truncated back to good tail
        assert not [
            p for p in fsck_store(tmp_path).findings
            if p.code.startswith("queue.metrics")
        ]

    def test_garbled_midfile_is_not_a_torn_tail(self, tmp_path):
        from repro.faultinject.fsck import fsck_store

        path = self._store_with_sidecar(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 2
        lines[0] = b"not json at all\n"
        path.write_bytes(b"".join(lines))
        report = fsck_store(tmp_path)
        codes = [p.code for p in report.findings
                 if p.code.startswith("queue.metrics")]
        assert codes == ["queue.metrics-garbled"]


class TestByteIdentity:
    def test_armed_vs_disarmed_stores_identical(self, tmp_path):
        """Observability must not leak into results: a metrics-armed
        2-worker drain leaves a store byte-identical to a metrics-off
        drain of the same campaign (sidecars live under ``.queue/``,
        outside the fingerprint surface)."""
        from repro.campaign.queue import QueueWorker
        from repro.faultinject.chaos import store_fingerprint

        def entry(params):
            return {"kind": "test", "experiment": params["experiment"]}

        runs = _runs(4)
        fingerprints = {}
        for mode, metrics in (("armed", True), ("disarmed", False)):
            store_dir = tmp_path / mode
            queue = WorkQueue(store_dir)
            queue.write_config({"metrics": metrics})
            if metrics:
                queue.arm_events()
            queue.enqueue(
                runs,
                extras={r.run_id: {"trace": "sub"} for r in runs}
                if metrics else None,
            )
            for _ in range(2):  # two sequential "workers"
                worker = QueueWorker(store_dir, entry=entry)
                worker.drain()
            fingerprints[mode] = store_fingerprint(store_dir)
            sidecars = list(metrics_dir_for(store_dir).glob("*"))
            assert bool(sidecars) == metrics
        assert fingerprints["armed"] == fingerprints["disarmed"]

    def test_trace_extra_does_not_change_run_ids(self):
        runs_plain = _runs(2)
        runs_again = _runs(2)
        assert [r.run_id for r in runs_plain] == [
            r.run_id for r in runs_again
        ]


class TestChaosFailpoint:
    def test_metrics_write_kill_recovers(self, tmp_path):
        """A hard kill mid-sidecar-append must leave a recoverable
        store: the re-run drains clean and fsck tolerates the tear."""
        from repro.faultinject.chaos import run_chaos

        outcome = run_chaos(
            tmp_path,
            workload="campaign",
            workers=2,
            failpoints=("queue.metrics.write",),
        )
        assert outcome.ok, [t.as_dict() for t in outcome.trials]
        statuses = {t.status for t in outcome.trials}
        assert statuses <= {"recovered", "not-hit"}
