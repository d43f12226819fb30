"""Tests for the preemption-safe snapshot subsystem.

The headline property: a simulation suspended mid-run, serialised,
restored and run to completion produces results byte-identical to the
same simulation executed uninterrupted — across every scheduler
strategy, with and without the resilience layer.
"""

from __future__ import annotations

import json
import pickle
import signal

import numpy as np
import pytest

from repro.core.strategy import all_strategy_names
from repro.engine.events import EventKind
from repro.engine.simulator import Simulator
from repro.errors import ConfigError, SnapshotError, SuspendRequested
from repro.metrics.summary import summarize
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import WorkloadManager, build_manager
from repro.snapshot import suspend
from repro.snapshot.auto import AutoSnapshotter, parse_snapshot_every
from repro.snapshot.state import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    read_snapshot,
    read_snapshot_header,
    snapshot_bytes,
    snapshot_path_for,
    write_snapshot,
)
from repro.workload.trinity import TrinityWorkloadGenerator


@pytest.fixture(autouse=True)
def _clean_suspend_state():
    """Keep the process-wide suspend flag and signal handlers pristine."""
    previous = {
        sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    suspend.reset()
    yield
    suspend.reset()
    for sig, handler in previous.items():
        signal.signal(sig, handler)


def build(strategy="shared_backfill", jobs=60, nodes=16, seed=7, resilience=None):
    rng = np.random.default_rng(seed)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.85, offered_load=1.3
    ).generate(jobs, nodes, rng)
    config = SchedulerConfig(strategy=strategy, resilience=resilience)
    return build_manager(trace, num_nodes=nodes, strategy=strategy, config=config)


def fingerprint(result):
    """Everything a result byte-comparison cares about."""
    return (
        json.dumps(summarize(result).as_dict(), sort_keys=True),
        [repr(record) for record in result.accounting],
        result.events_dispatched,
        result.scheduler_passes,
    )


# ----------------------------------------------------------------------
# Round-trip property across every strategy
# ----------------------------------------------------------------------
class TestRoundTripProperty:
    @pytest.mark.parametrize("strategy", sorted(all_strategy_names()))
    def test_mid_run_snapshot_restores_bit_identical(self, strategy):
        baseline = fingerprint(build(strategy).run())

        manager = build(strategy)
        manager.sim.run(until=4000.0)
        assert manager.sim.heap, "snapshot point must be mid-run"
        restored = pickle.loads(snapshot_bytes(manager))
        assert isinstance(restored, WorkloadManager)
        assert fingerprint(restored.run()) == baseline

    def test_resilience_state_survives_snapshot(self):
        from repro.resilience import ResilienceConfig

        resil = ResilienceConfig(
            node_mtbf_hours=200.0, checkpoint="daly", seed=3
        )
        baseline = fingerprint(build(resilience=resil).run())
        manager = build(resilience=resil)
        manager.sim.run(until=6000.0)
        restored = pickle.loads(snapshot_bytes(manager))
        assert fingerprint(restored.run()) == baseline


# ----------------------------------------------------------------------
# Engine-level snapshot hooks
# ----------------------------------------------------------------------
def _noop_handler(sim, event):
    """Module-level so a simulator holding it stays picklable."""


class TestSimulatorSnapshot:
    def test_snapshot_restore_preserves_clock_and_queue(self):
        sim = Simulator()
        kind = list(EventKind)[0]
        sim.on(kind, _noop_handler)
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, kind)
        sim.run(until=1.5)
        restored = Simulator.restore(sim.snapshot())
        assert restored.now == sim.now
        assert len(restored.heap) == len(sim.heap)
        assert restored.events_dispatched == sim.events_dispatched
        restored.run()
        assert restored.events_dispatched == 3

    def test_restore_rejects_foreign_pickles(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="snapshot"):
            Simulator.restore(pickle.dumps({"not": "a simulator"}))

    def test_transient_state_not_pickled(self):
        sim = Simulator()
        sim.set_suspend_poll(lambda: False)
        state = sim.__getstate__()
        assert state["_suspend_poll"] is None
        assert state["_autosnap"] is None
        assert state["_running"] is False

    def test_suspend_poll_raises_at_event_boundary(self):
        manager = build()
        polls = {"n": 0}

        def poll():
            polls["n"] += 1
            return polls["n"] > 50

        manager.sim.set_suspend_poll(poll)
        with pytest.raises(SuspendRequested) as excinfo:
            manager.run()
        assert excinfo.value.events_dispatched == 50
        assert manager.sim.heap, "queue must survive the suspension"

    def test_suspended_run_resumes_bit_identical(self, tmp_path):
        baseline = fingerprint(build().run())
        manager = build()
        polls = {"n": 0}
        manager.sim.set_suspend_poll(
            lambda: [polls.__setitem__("n", polls["n"] + 1), polls["n"] > 80][1]
        )
        path = tmp_path / "run.snap"
        with pytest.raises(SuspendRequested):
            manager.run()
        write_snapshot(manager, path, spec_hash="abc")
        restored = read_snapshot(path, expect_spec_hash="abc")
        assert fingerprint(restored.run()) == baseline


# ----------------------------------------------------------------------
# Snapshot file format
# ----------------------------------------------------------------------
class TestSnapshotFile:
    def test_header_records_provenance(self, tmp_path):
        manager = build()
        manager.sim.run(until=2000.0)
        path = write_snapshot(manager, tmp_path / "x.snap", spec_hash="cafe")
        header = read_snapshot_header(path)
        assert header["format"] == SNAPSHOT_MAGIC
        assert header["version"] == SNAPSHOT_VERSION
        assert header["spec_hash"] == "cafe"
        assert header["sim_time"] == manager.sim.now
        assert header["events_dispatched"] == manager.sim.events_dispatched
        assert header["payload_bytes"] > 0

    def test_manager_snapshot_restore_methods(self, tmp_path):
        manager = build()
        manager.sim.run(until=2000.0)
        path = manager.snapshot(tmp_path / "m.snap", spec_hash="feed")
        restored = WorkloadManager.restore(path, expect_spec_hash="feed")
        assert isinstance(restored, WorkloadManager)
        assert restored.sim.now == manager.sim.now

    def test_rejects_non_snapshot_file(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b'{"format": "something-else"}\nxxxx')
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot_header(path)
        assert excinfo.value.reason == "format"
        path.write_bytes(b"\x80\x04 not json at all\n")
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot_header(path)
        assert excinfo.value.reason == "format"

    def test_rejects_version_mismatch(self, tmp_path):
        path = tmp_path / "v.snap"
        header = {"format": SNAPSHOT_MAGIC, "version": SNAPSHOT_VERSION + 1}
        path.write_bytes(json.dumps(header).encode() + b"\npayload")
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot_header(path)
        assert excinfo.value.reason == "version"

    def test_rejects_corrupt_payload(self, tmp_path):
        manager = build()
        path = write_snapshot(manager, tmp_path / "c.snap")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason == "checksum"

    def test_rejects_truncated_payload(self, tmp_path):
        manager = build()
        path = write_snapshot(manager, tmp_path / "t.snap")
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason == "checksum"

    def test_rejects_spec_hash_mismatch(self, tmp_path):
        manager = build()
        path = write_snapshot(manager, tmp_path / "s.snap", spec_hash="old")
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot(path, expect_spec_hash="new")
        assert excinfo.value.reason == "spec_hash"

    def test_missing_file_is_unreadable(self, tmp_path):
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot_header(tmp_path / "absent.snap")
        assert excinfo.value.reason == "unreadable"

    def test_snapshot_path_naming(self, tmp_path):
        path = snapshot_path_for(tmp_path, "deadbeef")
        assert path == tmp_path / "deadbeef.snap"


# ----------------------------------------------------------------------
# Periodic auto-snapshot
# ----------------------------------------------------------------------
class TestAutoSnapshotter:
    def test_event_trigger_writes_periodically(self, tmp_path):
        manager = build(jobs=40)
        path = tmp_path / "auto.snap"
        snapper = AutoSnapshotter(
            manager, path, spec_hash="x", every_events=50
        ).install()
        manager.run()
        assert snapper.written >= 2
        assert snapper.write_failures == 0
        restored = read_snapshot(path, expect_spec_hash="x")
        assert isinstance(restored, WorkloadManager)

    def test_wall_clock_trigger(self, tmp_path):
        manager = build(jobs=20)
        ticks = iter(range(0, 100000, 100))  # every call is 100s later
        snapper = AutoSnapshotter(
            manager, tmp_path / "w.snap",
            every_wall_s=50.0, clock=lambda: float(next(ticks)),
        ).install()
        manager.run()
        assert snapper.written >= 1

    def test_write_failures_are_swallowed(self, tmp_path, monkeypatch):
        manager = build(jobs=20)
        snapper = AutoSnapshotter(
            manager, tmp_path / "f.snap", every_events=10
        ).install()
        import repro.snapshot.state as state_mod

        def broken_write(*args, **kwargs):
            raise OSError("disk full")

        # fire() imports write_snapshot from state at call time.
        monkeypatch.setattr(state_mod, "write_snapshot", broken_write)
        manager.run()
        assert snapper.write_failures >= 1
        assert snapper.written == 0

    def test_requires_a_trigger(self, tmp_path):
        with pytest.raises(ConfigError):
            AutoSnapshotter(build(jobs=5), tmp_path / "n.snap")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("5000e", (5000, None)),
            ("30", (None, 30.0)),
            ("2.5s", (None, 2.5)),
            ("", (None, None)),
            ("0", (None, None)),
            (None, (None, None)),
        ],
    )
    def test_parse_snapshot_every(self, text, expected):
        assert parse_snapshot_every(text) == expected

    @pytest.mark.parametrize("text", ["abc", "-5", "0e", "-3e", "1.5e"])
    def test_parse_snapshot_every_rejects_garbage(self, text):
        with pytest.raises(ConfigError):
            parse_snapshot_every(text)


# ----------------------------------------------------------------------
# Suspension flag and signals
# ----------------------------------------------------------------------
class TestSuspendFlag:
    def test_flag_set_and_reset(self):
        assert not suspend.suspend_requested()
        suspend.request_suspend()
        assert suspend.suspend_requested()
        suspend.reset()
        assert not suspend.suspend_requested()

    def test_third_request_escalates(self):
        suspend.request_suspend()
        suspend.request_suspend()
        with pytest.raises(KeyboardInterrupt):
            suspend.request_suspend()

    def test_install_and_restore_handlers(self):
        previous = suspend.install_signal_handlers()
        assert previous is not None
        assert signal.getsignal(signal.SIGTERM) is suspend.request_suspend
        assert signal.getsignal(signal.SIGINT) is suspend.request_suspend
        suspend.restore_signal_handlers(previous)
        assert signal.getsignal(signal.SIGTERM) is previous[signal.SIGTERM]


# ----------------------------------------------------------------------
# Entry-level suspend/resume (the worker code path)
# ----------------------------------------------------------------------
class TestEntryResume:
    def _params(self):
        from repro.campaign.spec import simulate_params, trinity_workload

        return simulate_params(
            "shared_backfill", trinity_workload(40, 16, seed=1), 16
        )

    def test_suspended_entry_resumes_byte_identical(self, tmp_path):
        from repro.campaign.spec import run_id_of
        from repro.slurm.entry import execute_run

        params = self._params()
        baseline = execute_run(params)

        suspend.request_suspend()  # suspend at the first event boundary
        with pytest.raises(SuspendRequested) as excinfo:
            execute_run(params, snapshot_dir=str(tmp_path))
        snap = snapshot_path_for(tmp_path, run_id_of(params))
        assert excinfo.value.snapshot_path == str(snap)
        assert snap.is_file()
        assert not suspend.suspend_requested(), "worker resets after parking"

        resumed = execute_run(params, snapshot_dir=str(tmp_path))
        assert resumed == baseline
        assert not snap.exists(), "completed runs drop their snapshot"

    def test_stale_snapshot_falls_back_to_fresh_run(self, tmp_path):
        from repro.campaign.spec import run_id_of
        from repro.slurm.entry import execute_run

        params = self._params()
        baseline = execute_run(params)
        snap = snapshot_path_for(tmp_path, run_id_of(params))
        snap.write_bytes(b'{"format": "garbage"}\nnope')
        assert execute_run(params, snapshot_dir=str(tmp_path)) == baseline


# ----------------------------------------------------------------------
# Resource guards: the queue worker's RSS budget and disk watermark
# ----------------------------------------------------------------------
def _guarded_worker(tmp_path, **config):
    from repro.campaign.queue import QueueWorker, WorkQueue
    from repro.campaign.spec import RunSpec

    WorkQueue(tmp_path).enqueue(
        [RunSpec.from_params({"kind": "test", "value": 1})]
    )
    sleeps: list[float] = []
    worker = QueueWorker(
        tmp_path, config=config, sleep=sleeps.append,
        entry=lambda params: {"value": params["value"]},
    )
    return worker, sleeps


def _probe_must_not_run(*args):
    raise AssertionError("a disarmed guard probed")


class TestResourceGuards:
    def test_disarmed_guards_are_inert(self, tmp_path, monkeypatch):
        import threading

        import repro.campaign.queue as queue_mod

        monkeypatch.setattr(queue_mod, "rss_mb_of", _probe_must_not_run)
        monkeypatch.setattr(queue_mod, "disk_free_mb", _probe_must_not_run)
        worker, sleeps = _guarded_worker(tmp_path)
        worker._monitor_run(threading.Event())  # returns at once
        assert worker.drain().completed == 1
        assert sleeps == []

    def test_rss_trip(self, tmp_path, monkeypatch):
        import threading

        import repro.campaign.queue as queue_mod

        monkeypatch.setattr(queue_mod, "rss_mb_of", lambda pid: 250.0)
        worker, _ = _guarded_worker(tmp_path, rss_budget_mb=100.0)
        # The first probe runs at claim time, before any wait.
        worker._monitor_run(threading.Event())
        assert worker._shed and not worker._deadline_hit
        assert suspend.suspend_requested()

    def test_unknowable_rss_never_trips(self, tmp_path, monkeypatch):
        import threading
        import time

        import repro.campaign.queue as queue_mod

        probes = []
        monkeypatch.setattr(
            queue_mod, "rss_mb_of", lambda pid: probes.append(pid)
        )
        worker, _ = _guarded_worker(tmp_path, rss_budget_mb=1.0)
        stop = threading.Event()
        monitor = threading.Thread(target=worker._monitor_run, args=(stop,))
        monitor.start()
        deadline = time.monotonic() + 10.0
        while len(probes) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        stop.set()
        monitor.join(timeout=5)
        assert len(probes) >= 2  # polled, but None never trips
        assert not worker._shed
        assert not suspend.suspend_requested()

    def test_disk_trip_and_recovery(self, tmp_path, monkeypatch):
        import repro.campaign.queue as queue_mod

        frees = iter([10.0, 10.0])
        monkeypatch.setattr(
            queue_mod, "disk_free_mb", lambda path: next(frees, 900.0)
        )
        worker, sleeps = _guarded_worker(tmp_path, disk_min_free_mb=100.0)
        outcome = worker.drain()
        # Two low-disk polls pause claiming; then the run is claimed.
        assert sleeps == [2.0, 2.0]
        assert outcome.completed == 1 and outcome.status == "drained"

    def test_config_validation(self, tmp_path):
        from repro.campaign.queue import QueueWorker

        with pytest.raises(ConfigError, match="rss_budget_mb"):
            QueueWorker(tmp_path, config={"rss_budget_mb": -1.0})
        with pytest.raises(ConfigError, match="disk_min_free_mb"):
            QueueWorker(tmp_path, config={"disk_min_free_mb": -5.0})

    def test_real_probes_on_this_host(self, tmp_path):
        import os

        from repro.snapshot.guards import disk_free_mb, rss_mb_of

        assert disk_free_mb(tmp_path) > 0
        rss = rss_mb_of(os.getpid())
        if rss is not None:  # /proc exists on Linux CI
            assert rss > 1.0
        assert rss_mb_of(99999999) is None
