"""CLI surface of the durable work queue: ``repro campaign`` drains,
``repro queue status|work``, and a live two-worker crash drill."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.queue import WorkQueue
from repro.campaign.spec import CampaignSpec
from repro.cli import build_parser, main
from repro.faultinject.chaos import store_fingerprint
from repro.faultinject.fsck import fsck_path

SMALL = [
    "--jobs", "25", "--sizes", "16", "--seeds", "1",
    "--strategies", "fcfs", "easy_backfill",
]


def join(tmp_path, *extra, store="store", workers="1"):
    return main(
        ["campaign", *SMALL, "--workers", workers,
         "--store", str(tmp_path / store), *extra]
    )


class TestParser:
    def test_campaign_join_flag(self):
        # Every campaign drains through the queue, so the former
        # --join opt-in (and --progress-log) are gone.
        for flag in ("--join", "--progress-log=x"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["campaign", "--jobs", "10", flag])

    def test_queue_status_and_work(self):
        parser = build_parser()
        args = parser.parse_args(["queue", "status", "somewhere", "--json"])
        assert args.queue_command == "status" and args.json is True
        args = parser.parse_args(["queue", "work", "somewhere", "--quiet"])
        assert args.queue_command == "work" and args.quiet is True

    def test_queue_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["queue"])

    def test_replay_trace_strategies_fanout_flags(self):
        args = build_parser().parse_args(
            ["replay-trace", "arch", "--store", "st",
             "--strategies", "fcfs", "easy_backfill", "--workers", "2"]
        )
        assert args.strategies == ["fcfs", "easy_backfill"]
        assert args.workers == 2


class TestQueueStatusAndWork:
    def test_status_without_queue_exits_2(self, tmp_path, capsys):
        assert main(["queue", "status", str(tmp_path)]) == 2
        assert "no work queue" in capsys.readouterr().err

    def test_work_without_queue_exits_2(self, tmp_path, capsys):
        assert main(["queue", "work", str(tmp_path)]) == 2
        assert "no work queue" in capsys.readouterr().err

    def test_status_reports_census(self, tmp_path, capsys):
        spec = CampaignSpec(
            jobs=25, cluster_sizes=(16,), seeds=(1,),
            strategies=("fcfs", "easy_backfill"),
        )
        WorkQueue(tmp_path).enqueue(spec.expand())
        assert main(["queue", "status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pending" in out and "2" in out

    def test_status_json(self, tmp_path, capsys):
        spec = CampaignSpec(
            jobs=25, cluster_sizes=(16,), seeds=(1,), strategies=("fcfs",),
        )
        WorkQueue(tmp_path).enqueue(spec.expand())
        assert main(["queue", "status", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pending"] == 1
        assert doc["leases"] == []

    def test_work_drains_prepared_queue(self, tmp_path, capsys):
        spec = CampaignSpec(
            jobs=25, cluster_sizes=(16,), seeds=(1,), strategies=("fcfs",),
        )
        WorkQueue(tmp_path).enqueue(spec.expand())
        assert main(["queue", "work", str(tmp_path), "--quiet"]) == 0
        queue = WorkQueue(tmp_path)
        assert queue.drained()
        assert queue.store.has(spec.expand()[0].run_id)


class TestCampaignJoin:
    def test_join_drains_and_reports(self, tmp_path, capsys):
        assert join(tmp_path) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached, 0 failed of 2 runs" in out
        assert "workers=1" in out
        store = tmp_path / "store"
        assert WorkQueue(store).drained()
        lines = (store / "results.jsonl").read_text().splitlines()
        assert len(lines) == 2

    def test_join_is_resumable_noop_when_done(self, tmp_path, capsys):
        assert join(tmp_path) == 0
        capsys.readouterr()
        assert join(tmp_path) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out

    def test_join_store_matches_direct_campaign_byte_for_byte(
        self, tmp_path, capsys
    ):
        assert join(tmp_path, store="joined") == 0
        assert join(tmp_path, store="joined2", workers="2") == 0
        fp1 = store_fingerprint(tmp_path / "joined")
        fp2 = store_fingerprint(tmp_path / "joined2")
        assert fp1 == fp2

    def test_join_manifest_records_queue_mode(self, tmp_path):
        assert join(tmp_path) == 0
        manifest = json.loads(
            (tmp_path / "store" / ".campaign.json").read_text()
        )
        assert manifest["settings"]["queue"] is True
        assert "workers" not in manifest["settings"]

    def test_joined_store_is_fsck_clean(self, tmp_path):
        assert join(tmp_path) == 0
        report = fsck_path(tmp_path / "store")
        assert report.ok


def _spawn_worker(store: Path, env: dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "queue", "work",
         str(store), "--quiet"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestTwoWorkerCrashDrill:
    def test_sigkill_one_worker_survivor_finishes_identically(
        self, tmp_path
    ):
        """Two live worker processes drain one store; one is SIGKILLed
        while it holds a lease.  The survivor must reclaim and finish,
        leaving a store byte-identical to an undisturbed drain."""
        spec = CampaignSpec(
            jobs=40, cluster_sizes=(32,), seeds=(7, 11),
            strategies=("fcfs", "easy_backfill"),
        )
        runs = spec.expand()

        baseline = tmp_path / "baseline"
        queue = WorkQueue(baseline)
        queue.enqueue(runs)
        queue.write_config({"retries": 0})
        assert main(["queue", "work", str(baseline), "--quiet"]) == 0

        store = tmp_path / "store"
        queue = WorkQueue(store)
        queue.enqueue(runs)
        # A dead holder on this host is stale immediately (pid probe),
        # so the generous TTL never delays the reclaim.
        queue.write_config({"retries": 0, "heartbeat_s": 0.1})

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        workers = [_spawn_worker(store, env) for _ in range(2)]
        victim = None
        deadline = time.monotonic() + 60.0
        try:
            while time.monotonic() < deadline and victim is None:
                for run in runs:
                    lease = queue.leases.read(run.run_id)
                    if lease is None or lease.pid <= 0:
                        continue
                    if lease.pid in (w.pid for w in workers):
                        os.kill(lease.pid, signal.SIGKILL)
                        victim = lease.pid
                        break
                time.sleep(0.02)
            assert victim is not None, "no worker ever held a lease"
            for worker in workers:
                worker.wait(timeout=60.0)
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                    worker.wait()
        survivors = [w for w in workers if w.pid != victim]
        assert any(w.returncode == 0 for w in survivors)
        assert queue.drained()
        assert not queue.terminal_ids("failed")
        assert not queue.terminal_ids("quarantined")
        report = fsck_path(store)
        assert report.ok, [str(f) for f in report.findings]
        assert store_fingerprint(store) == store_fingerprint(baseline)
