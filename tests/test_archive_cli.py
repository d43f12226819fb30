"""CLI pipeline: synth → ingest → replay-trace → stats."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("clipipe")
    assert main([
        "synth", str(root / "t.swf"), "--jobs", "400", "--nodes", "32",
        "--seed", "5",
    ]) == 0
    assert main([
        "ingest", str(root / "t.swf"), str(root / "archive"),
        "--window-jobs", "120",
    ]) == 0
    assert main([
        "replay-trace", str(root / "archive"), "--store", str(root / "store"),
        "--strategy", "shared_backfill", "--nodes", "32", "--quiet",
    ]) == 0
    return root


class TestSynthCommand:
    def test_json_output(self, tmp_path, capsys):
        assert main([
            "synth", str(tmp_path / "x.swf"), "--jobs", "50", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["jobs"] == 50
        assert (tmp_path / "x.swf").is_file()

    def test_bad_params_exit_2(self, tmp_path, capsys):
        assert main([
            "synth", str(tmp_path / "x.swf"), "--jobs", "0",
        ]) == 2


class TestIngestCommand:
    def test_json_output(self, pipeline, tmp_path, capsys):
        assert main([
            "ingest", str(pipeline / "t.swf"), str(tmp_path / "arch"),
            "--window-jobs", "120", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["jobs"] == 400
        assert doc["windows"] == 4
        assert len(doc["windows_detail"]) == 4

    def test_missing_swf_exit_1(self, tmp_path, capsys):
        assert main([
            "ingest", str(tmp_path / "absent.swf"), str(tmp_path / "arch"),
        ]) == 1


class TestReplayTraceCommand:
    def test_full_pipeline_stats(self, pipeline, capsys):
        assert main(["stats", str(pipeline / "store")]) == 0
        out = capsys.readouterr().out
        assert "shared_backfill" in out

    def test_rerun_is_cached(self, pipeline, capsys):
        assert main([
            "replay-trace", str(pipeline / "archive"),
            "--store", str(pipeline / "store"),
            "--strategy", "shared_backfill", "--nodes", "32",
            "--quiet", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stitched"]["jobs"] == 400
        assert doc["cached"] == 4
        assert doc["executed"] == 0

    def test_bad_archive_exit_2(self, tmp_path, capsys):
        (tmp_path / "notarch").mkdir()
        assert main([
            "replay-trace", str(tmp_path / "notarch"),
            "--store", str(tmp_path / "store"), "--quiet",
        ]) == 2

    def test_quarantined_last_window_is_reported(self, pipeline, tmp_path,
                                                 capsys):
        # A last window whose delivery budget is used up is quarantined
        # at claim time: no stitched summary, so the command must fail
        # loudly instead of exiting 0.
        from repro.archive import load_archive
        from repro.archive.replay import replay_window_params
        from repro.campaign.queue import (
            DEFAULT_MAX_DELIVERIES,
            QueueItem,
            WorkQueue,
        )
        from repro.campaign.spec import RunSpec

        archive = load_archive(pipeline / "archive")
        last = len(archive) - 1
        run = RunSpec.from_params(replay_window_params(
            archive.archive_id, window=last, windows=len(archive),
            strategy="easy_backfill", num_nodes=32,
        ))

        def replay(store, *extra):
            WorkQueue(store).write_item(QueueItem(
                run_id=run.run_id, seq=last, label=run.label,
                params=dict(run.params), deliveries=DEFAULT_MAX_DELIVERIES,
            ))
            return main([
                "replay-trace", str(pipeline / "archive"),
                "--store", str(store), "--strategy", "easy_backfill",
                "--nodes", "32", "--quiet", *extra,
            ])

        store = tmp_path / "store"
        status = replay(store)
        err = capsys.readouterr().err
        assert status == 3  # partial: the earlier windows completed
        assert f"QUARANTINED {run.run_id}" in err
        assert "delivery budget exhausted" in err
        assert (store / "quarantine.json").is_file()
        assert not (store / "stitched.json").exists()
        # The --json payload counts the quarantined window as well.
        assert replay(tmp_path / "json-store", "--json") == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["quarantined"] == 1
        assert doc["failed"] == 0
        assert doc["suspended"] == 0
        assert doc["stitched"] is None
