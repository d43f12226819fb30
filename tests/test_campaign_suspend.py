"""Tests for graceful campaign shutdown, resource guards, store
locking, and the ``repro resume`` command — all through the one
campaign executor, the durable queue.

The flagship test SIGTERMs a live multi-worker campaign subprocess
(including a registry experiment) and asserts that ``repro resume``
completes it with result files byte-identical to an uninterrupted
baseline campaign.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.campaign.queue as queue_mod
from repro.campaign.queue import SuspendedRun, WorkQueue, run_campaign
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore, StoreLock
from repro.cli import EXIT_INTERRUPTED, EXIT_SUSPENDED, main
from repro.errors import ConfigError, SuspendRequested
from repro.observability.events import read_fleet_events
from repro.snapshot import suspend

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _clean_suspend_state():
    previous = {
        sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    suspend.reset()
    yield
    suspend.reset()
    for sig, handler in previous.items():
        signal.signal(sig, handler)


def runs_of(values):
    return [
        RunSpec.from_params({"kind": "test", "value": v}) for v in values
    ]


def double_entry(params):
    return {"doubled": params["value"] * 2}


def polling_entry(params):
    """Runs until a suspend is requested, then checkpoints, as the
    simulator does at its next event boundary."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if suspend.suspend_requested():
            suspend.reset()
            raise SuspendRequested("shed", snapshot_path=params.get("snap"))
        time.sleep(0.01)
    return {"finished": True}


def suspending_entry(params):
    """Suspends on the first call (per marker file), succeeds after."""
    marker = Path(params["marker"])
    if not marker.exists():
        marker.touch()
        raise SuspendRequested(
            "synthetic suspend", snapshot_path=params.get("snap")
        )
    return {"resumed": True}


# ----------------------------------------------------------------------
# Serial shutdown semantics
# ----------------------------------------------------------------------
class TestSerialSuspend:
    def test_flag_set_before_dispatch_stops_cleanly(self, tmp_path):
        suspend.request_suspend()
        outcome = run_campaign(
            tmp_path / "store", runs_of([1, 2, 3]), entry=double_entry
        )
        assert outcome.interrupted
        assert not outcome.ok
        assert outcome.results == {}
        assert not suspend.suspend_requested(), "flag consumed by shutdown"

    def test_entry_suspension_parks_the_run(self, tmp_path):
        marker = tmp_path / "marker"
        runs = [
            RunSpec.from_params(
                {"kind": "test", "marker": str(marker), "snap": "here.snap"}
            ),
            RunSpec.from_params({"kind": "test", "value": 9}),
        ]
        outcome = run_campaign(tmp_path / "store", runs, entry=suspending_entry)
        assert outcome.interrupted
        assert outcome.suspended == [
            SuspendedRun(runs[0].run_id, runs[0].label, "here.snap")
        ]
        # claiming stopped: the second run never executed
        assert outcome.results == {}
        item = WorkQueue(tmp_path / "store").read_item(runs[0].run_id)
        assert item.extra["requeued"] == "sigterm"
        assert item.deliveries == 0  # handed back without a penalty

    def test_rerun_after_suspension_completes(self, tmp_path):
        marker = tmp_path / "marker"
        store = tmp_path / "store"
        runs = [
            RunSpec.from_params({"kind": "test", "marker": str(marker)})
        ]
        first = run_campaign(store, runs, entry=suspending_entry)
        assert first.interrupted and len(first.suspended) == 1
        second = run_campaign(store, runs, entry=suspending_entry)
        assert second.ok
        assert second.payloads() == [{"resumed": True}]


# ----------------------------------------------------------------------
# Parallel shutdown and shed semantics
# ----------------------------------------------------------------------
class TestParallelSuspend:
    def test_graceful_shutdown_drains_inflight_and_leaves_queue(self, tmp_path):
        # SIGTERM lands while the first run is in flight; that run does
        # not poll the flag, so it finishes and is recorded.  The
        # worker then stops claiming and the queued runs are left for
        # a resume.
        def signalled_entry(params):
            if params["value"] == 0:
                suspend.request_suspend()
            return double_entry(params)

        store = ResultStore(tmp_path / "store")
        runs = runs_of(range(4))
        outcome = run_campaign(store.root, runs, entry=signalled_entry)
        assert outcome.interrupted
        assert outcome.completed == 1
        assert len(store.completed_ids()) == 1
        assert outcome.suspended == []
        assert not suspend.suspend_requested()

        resumed = run_campaign(store.root, runs, entry=double_entry)
        assert resumed.ok
        assert resumed.cached == 1 and resumed.completed == 3
        assert len(store.completed_ids()) == 4

    def test_shed_run_requeues_without_attempt_penalty(
        self, tmp_path, monkeypatch
    ):
        # A worker over its RSS budget sheds its run: the run goes back
        # to the queue with its snapshot and no delivery penalty, and
        # a later drain completes it — with retries=0, so the shed
        # cannot have consumed an attempt.
        monkeypatch.setattr(queue_mod, "rss_mb_of", lambda pid: 500.0)
        runs = [
            RunSpec.from_params({"kind": "test", "snap": "shed.snap"}),
            RunSpec.from_params({"kind": "test", "value": 5}),
        ]
        config = {"retries": 0, "rss_budget_mb": 100.0}
        store = tmp_path / "store"
        outcome = run_campaign(store, runs, entry=polling_entry, config=config)
        assert outcome.status == "shed" and outcome.interrupted
        assert outcome.suspended == [
            SuspendedRun(runs[0].run_id, runs[0].label, "shed.snap")
        ]
        item = WorkQueue(store).read_item(runs[0].run_id)
        assert item.extra["requeued"] == "rss-shed"
        assert item.deliveries == 0

        monkeypatch.setattr(queue_mod, "rss_mb_of", lambda pid: 10.0)
        again = run_campaign(store, runs, entry=lambda params: {"ok": 1})
        assert again.ok and not again.failures
        assert again.completed == 2


# ----------------------------------------------------------------------
# Resource-guard ladder of the queue worker (fake probes)
# ----------------------------------------------------------------------
class TestGuardDispatch:
    def test_rss_trip_sigterms_offender_once(self, tmp_path, monkeypatch):
        # The over-budget worker sheds its run once, and only once: it
        # leaves the drain instead of requesting suspension again, which
        # would escalate into a hard KeyboardInterrupt.
        monkeypatch.setattr(queue_mod, "rss_mb_of", lambda pid: 500.0)
        runs = [
            RunSpec.from_params({"kind": "test", "value": v}) for v in (1, 2)
        ]
        outcome = run_campaign(
            tmp_path, runs, entry=polling_entry,
            config={"rss_budget_mb": 100.0},
        )
        assert outcome.status == "shed"
        events = read_fleet_events(tmp_path)
        assert [e["kind"] for e in events if e["kind"] == "claim"] == ["claim"]
        requeues = [e for e in events if e["kind"] == "requeue"]
        assert [e["reason"] for e in requeues] == ["rss-shed"]
        assert not suspend.suspend_requested()

    def test_disk_trip_pauses_then_recovers(self, tmp_path, monkeypatch):
        frees = iter([5.0])
        monkeypatch.setattr(
            queue_mod, "disk_free_mb", lambda path: next(frees, 5000.0)
        )
        notes, sleeps = [], []
        outcome = run_campaign(
            tmp_path, runs_of([1]), entry=double_entry, note=notes.append,
            sleep=sleeps.append, config={"disk_min_free_mb": 100.0},
        )
        assert outcome.ok
        assert any("under the 100 MB watermark" in n for n in notes)
        assert sleeps == [2.0]  # paused once, then claimed

    def test_no_guards_never_pauses(self, tmp_path, monkeypatch):
        def probe(*args):
            raise AssertionError("an unarmed guard probed")

        monkeypatch.setattr(queue_mod, "rss_mb_of", probe)
        monkeypatch.setattr(queue_mod, "disk_free_mb", probe)
        sleeps = []
        outcome = run_campaign(
            tmp_path, runs_of([1, 2]), entry=double_entry, sleep=sleeps.append
        )
        assert outcome.ok and sleeps == []

    def test_rss_budget_sheds_at_one_worker(self, tmp_path, monkeypatch, capsys):
        # The in-process drain of `repro campaign --workers 1` enforces
        # --rss-budget-mb: the run snapshots, goes back to the queue as
        # an rss-shed with its snapshot, and the campaign exits 4.
        monkeypatch.setattr(queue_mod, "rss_mb_of", lambda pid: 10_000.0)
        store = tmp_path / "store"
        code = main([
            "campaign", "--jobs", "200", "--sizes", "32", "--seeds", "1",
            "--strategies", "easy_backfill", "--workers", "1",
            "--rss-budget-mb", "100", "--store", str(store), "--quiet",
        ])
        assert code == EXIT_SUSPENDED
        assert "campaign suspended" in capsys.readouterr().err
        (item,) = WorkQueue(store).iter_items()
        assert item.extra["requeued"] == "rss-shed"
        assert Path(item.extra["snapshot"]).is_file()
        assert not ResultStore(store).completed_ids()


# ----------------------------------------------------------------------
# Store locking
# ----------------------------------------------------------------------
class TestStoreLock:
    def test_second_acquire_fails_with_holder_pid(self, tmp_path):
        first = StoreLock(tmp_path).acquire()
        try:
            with pytest.raises(ConfigError, match="locked by another campaign"):
                StoreLock(tmp_path).acquire()
            with pytest.raises(ConfigError, match=str(os.getpid())):
                StoreLock(tmp_path).acquire()
        finally:
            first.release()

    def test_release_allows_reacquire(self, tmp_path):
        lock = StoreLock(tmp_path).acquire()
        lock.release()
        with StoreLock(tmp_path) as again:
            assert again.held

    def test_acquire_is_idempotent_within_holder(self, tmp_path):
        lock = StoreLock(tmp_path).acquire()
        assert lock.acquire() is lock
        lock.release()

    def _dead_pid(self):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def _flaky_flock(self, monkeypatch, failures):
        """First *failures* LOCK_EX|LOCK_NB calls fail, then delegate.

        Models a dead holder whose forked pool workers briefly keep
        the shared open-file description (and thus the flock) alive.
        """
        import fcntl as fcntl_mod

        import repro.campaign.store as store_mod

        real = fcntl_mod.flock
        state = {"left": failures}

        def flock(fd, op):
            if op == (fcntl_mod.LOCK_EX | fcntl_mod.LOCK_NB) and state["left"]:
                state["left"] -= 1
                raise OSError(11, "Resource temporarily unavailable")
            return real(fd, op)

        monkeypatch.setattr(store_mod.fcntl, "flock", flock)
        monkeypatch.setattr(store_mod, "STALE_LOCK_POLL_S", 0.001)
        return state

    def test_stale_lock_from_dead_holder_is_reclaimed(
        self, tmp_path, monkeypatch, caplog
    ):
        (tmp_path / ".lock").write_text(f"{self._dead_pid()}\n")
        self._flaky_flock(monkeypatch, failures=3)
        with caplog.at_level("WARNING", logger="repro.campaign.store"):
            lock = StoreLock(tmp_path).acquire()
        assert lock.held
        lock.release()
        assert any(
            "reclaiming stale lock" in rec.message for rec in caplog.records
        )

    def test_dead_holder_that_never_unlocks_times_out(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.store as store_mod

        (tmp_path / ".lock").write_text(f"{self._dead_pid()}\n")
        self._flaky_flock(monkeypatch, failures=10_000)
        monkeypatch.setattr(store_mod, "STALE_LOCK_GRACE_S", 0.05)
        with pytest.raises(ConfigError, match="locked by another campaign"):
            StoreLock(tmp_path).acquire()

    def test_live_holder_fails_fast_without_polling(
        self, tmp_path, monkeypatch
    ):
        # Our own (live) pid as holder: no grace period, no sleeps.
        (tmp_path / ".lock").write_text(f"{os.getpid()}\n")
        self._flaky_flock(monkeypatch, failures=10_000)
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        with pytest.raises(ConfigError, match=str(os.getpid())):
            StoreLock(tmp_path).acquire()
        assert sleeps == []

    def test_pidfile_fallback_reclaims_dead_holder(self, tmp_path):
        lock = StoreLock(tmp_path)
        (tmp_path / ".lock").write_text(f"{self._dead_pid()}\n")
        assert lock._acquire_pidfile() is lock
        assert lock.held
        lock.release()
        assert not (tmp_path / ".lock").exists()

    def test_pidfile_fallback_fails_fast_on_live_holder(self, tmp_path):
        (tmp_path / ".lock").write_text(f"{os.getpid()}\n")
        with pytest.raises(ConfigError, match="locked by another campaign"):
            StoreLock(tmp_path)._acquire_pidfile()

    def test_runner_fails_fast_on_locked_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        holder = store.lock().acquire()
        try:
            with pytest.raises(ConfigError, match="locked"):
                run_campaign(store.root, runs_of([1]), entry=double_entry)
        finally:
            holder.release()

    def test_runner_releases_lock_after_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(store.root, runs_of([1]), entry=double_entry)
        with store.lock() as lock:
            assert lock.held

    # -- host identity -------------------------------------------------
    def test_lock_records_pid_and_host(self, tmp_path):
        from repro.campaign.store import _local_host

        with StoreLock(tmp_path):
            parts = (tmp_path / ".lock").read_text("ascii").split()
            assert parts == [str(os.getpid()), _local_host()]

    def test_foreign_host_record_is_never_probed_as_local(
        self, tmp_path, monkeypatch
    ):
        # A recycled pid on ANOTHER host must not be treated as a live
        # local holder: under flock, the holder error keeps the host;
        # the pid probe only ever applies to local records.
        self._flaky_flock(monkeypatch, failures=10_000)
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        # Our own pid, which IS alive here — but recorded on elsewhere.
        (tmp_path / ".lock").write_text(f"{os.getpid()} elsewhere\n")
        with pytest.raises(ConfigError, match="elsewhere"):
            StoreLock(tmp_path).acquire()
        assert sleeps == []  # no dead-holder grace poll for foreign pids

    def test_pidfile_fallback_reclaims_foreign_host_record(
        self, tmp_path, caplog
    ):
        # Without flock there is no kernel lease, so a foreign-host
        # record is stale by definition — even when its pid happens to
        # be alive locally (pid recycling across hosts).
        (tmp_path / ".lock").write_text(f"{os.getpid()} elsewhere\n")
        with caplog.at_level("WARNING", logger="repro.campaign.store"):
            lock = StoreLock(tmp_path)._acquire_pidfile()
        assert lock.held
        lock.release()
        assert any(
            "lives on 'elsewhere', not here" in rec.message
            for rec in caplog.records
        )

    def test_pidfile_fallback_respects_local_live_holder(self, tmp_path):
        from repro.campaign.store import _local_host

        (tmp_path / ".lock").write_text(f"{os.getpid()} {_local_host()}\n")
        with pytest.raises(ConfigError, match="locked by another campaign"):
            StoreLock(tmp_path)._acquire_pidfile()

    def test_pidfile_fallback_shared_mode_is_cooperative(self, tmp_path):
        # Shared claims (queue workers) degrade to unlocked in the
        # pidfile fallback; the per-run lease files still fence.
        lock = StoreLock(tmp_path, shared=True)._acquire_pidfile()
        assert not (tmp_path / ".lock").exists()
        lock.release()

    def test_shared_holders_coexist_and_block_exclusive(self, tmp_path):
        a = StoreLock(tmp_path, shared=True).acquire()
        b = StoreLock(tmp_path, shared=True).acquire()
        try:
            with pytest.raises(ConfigError, match="locked"):
                StoreLock(tmp_path).acquire()
        finally:
            a.release()
            b.release()

    def test_exclusive_holder_blocks_shared(self, tmp_path):
        with StoreLock(tmp_path):
            with pytest.raises(ConfigError, match=str(os.getpid())):
                StoreLock(tmp_path, shared=True).acquire()


# ----------------------------------------------------------------------
# Manifest read/write
# ----------------------------------------------------------------------
class TestManifest:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.write_manifest({"manifest_version": 1, "name": "x", "spec": {}})
        assert store.read_manifest()["name"] == "x"
        # hidden: not mistaken for a result record
        assert store.completed_ids() == set()

    def test_missing_manifest_is_config_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ConfigError, match="no campaign manifest"):
            store.read_manifest()

    def test_corrupt_manifest_is_config_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        (store.root / ".campaign.json").write_text("{not json")
        with pytest.raises(ConfigError, match="unreadable"):
            store.read_manifest()


# ----------------------------------------------------------------------
# CLI: resume command and exit codes
# ----------------------------------------------------------------------
SMALL = [
    "--jobs", "25", "--sizes", "16", "--seeds", "1",
    "--strategies", "fcfs", "easy_backfill",
]


class TestResumeCommand:
    def test_resume_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope")]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["command"] == "resume"
        assert "no such store" in doc["message"]

    def test_resume_store_without_manifest_exits_2(self, tmp_path, capsys):
        (tmp_path / "store").mkdir()
        assert main(["resume", str(tmp_path / "store")]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "ConfigError"
        assert "manifest" in doc["message"]

    def test_resume_corrupt_manifest_is_structured_error(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / ".campaign.json").write_text("{not json", encoding="utf-8")
        assert main(["resume", str(store)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["command"] == "resume"
        assert doc["error"] == "ConfigError"

    def test_resume_non_object_manifest_is_structured_error(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / ".campaign.json").write_text("[1, 2]", encoding="utf-8")
        assert main(["resume", str(store)]) == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "ConfigError"
        assert "JSON object" in doc["message"]

    def test_resume_completed_campaign_is_all_cached(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["campaign", *SMALL, "--workers", "1", "--store", store, "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(["resume", store, "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "resuming campaign" in captured.err
        assert "0 executed, 2 cached" in captured.out

    def test_resume_executes_missing_runs(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(
            ["campaign", *SMALL, "--workers", "1",
             "--store", str(store_dir), "--quiet"]
        ) == 0
        # Simulate an interrupted campaign: drop one result record.
        victim = sorted(
            p for p in store_dir.glob("*.json") if not p.name.startswith(".")
        )[0]
        victim.unlink()
        capsys.readouterr()
        assert main(["resume", str(store_dir), "--quiet"]) == 0
        assert "1 executed, 1 cached" in capsys.readouterr().out


    def test_resume_completes_plain_campaign_store(self, tmp_path, capsys):
        # A store written by the former in-process campaign runner: its
        # manifest records a worker count and no `queue: true`, and it
        # has no .queue/ directory.  Resume drains it through the queue
        # to the bytes a fresh campaign writes.
        fresh = tmp_path / "fresh"
        assert main(
            ["campaign", *SMALL, "--workers", "1",
             "--store", str(fresh), "--quiet"]
        ) == 0
        plain = tmp_path / "plain"
        plain.mkdir()
        records = sorted(
            p for p in fresh.glob("*.json") if not p.name.startswith(".")
        )
        (plain / records[0].name).write_bytes(records[0].read_bytes())
        manifest = json.loads((fresh / ".campaign.json").read_text())
        del manifest["settings"]["queue"]
        manifest["settings"]["workers"] = 1
        ResultStore(plain).write_manifest(manifest)
        assert not (plain / ".queue").exists()
        capsys.readouterr()
        assert main(["resume", str(plain), "--quiet"]) == 0
        assert "1 executed, 1 cached" in capsys.readouterr().out
        for name in [p.name for p in records] + ["results.jsonl"]:
            assert (plain / name).read_bytes() == (fresh / name).read_bytes()


class TestExitCodes:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_matrix", interrupted)
        assert cli.main(["matrix"]) == EXIT_INTERRUPTED == 130
        assert "interrupted" in capsys.readouterr().err

    def test_exit_code_constants_documented(self):
        import repro.cli as cli

        assert EXIT_SUSPENDED == 4
        # The module docstring is the single authority for the table.
        for code in ("0", "1", "2", "3", "4", "130"):
            assert code in cli.__doc__


# ----------------------------------------------------------------------
# Full-stack integration: SIGTERM a live campaign, resume it, and
# demand byte-identical results (includes registry experiment e8).
# ----------------------------------------------------------------------
CAMPAIGN_ARGS = [
    "--jobs", "700", "--sizes", "64", "--seeds", "1", "2",
    "--strategies", "easy_backfill", "shared_backfill",
    "--experiments", "e8",
    "--workers", "2", "--quiet", "--name", "suspendit",
]


def _store_fingerprint(store: Path) -> dict[str, bytes]:
    files = {
        p.name: p.read_bytes()
        for p in store.glob("*.json")
        if not p.name.startswith(".")
    }
    files["results.jsonl"] = (store / "results.jsonl").read_bytes()
    return files


class TestSuspendResumeIntegration:
    def _run_cli(self, *args, timeout=180):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=timeout,
            cwd=REPO, env={**os.environ, "PYTHONPATH": "src"},
        )

    def test_sigterm_then_resume_is_byte_identical(self, tmp_path):
        baseline_store = tmp_path / "baseline"
        proc = self._run_cli(
            "campaign", *CAMPAIGN_ARGS, "--store", str(baseline_store)
        )
        assert proc.returncode == 0, proc.stderr

        interrupted_store = tmp_path / "interrupted"
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", *CAMPAIGN_ARGS,
             "--store", str(interrupted_store)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=REPO, env={**os.environ, "PYTHONPATH": "src"},
        )
        # Don't SIGTERM before the campaign's handlers are installed:
        # wait until the fleet's event sidecars show runs claimed.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            events = read_fleet_events(interrupted_store)
            if any(e["kind"] == "claim" for e in events):
                break
            time.sleep(0.05)
        else:
            pytest.fail("campaign never started dispatching")
        time.sleep(1.0)  # let the in-flight runs do real work
        child.send_signal(signal.SIGTERM)
        out, err = child.communicate(timeout=120)
        assert child.returncode == EXIT_SUSPENDED, (out, err)
        assert "campaign suspended" in err
        assert "repro resume" in err

        done_before = len(
            [p for p in interrupted_store.glob("*.json")
             if not p.name.startswith(".")]
        )
        assert done_before < 5, "SIGTERM landed after the campaign finished"

        proc = self._run_cli("resume", str(interrupted_store), "--quiet")
        assert proc.returncode == 0, proc.stderr
        assert "resuming campaign 'suspendit'" in proc.stderr

        assert _store_fingerprint(interrupted_store) == _store_fingerprint(
            baseline_store
        )
        # Completed stores keep no snapshots behind.
        snaps = list((interrupted_store / "snapshots").glob("*.snap"))
        assert snaps == []
