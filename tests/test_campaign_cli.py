"""Tests for the ``repro campaign`` CLI command."""

import json

from repro.cli import main

SMALL = [
    "--jobs", "25", "--sizes", "16", "--seeds", "1",
    "--strategies", "fcfs", "easy_backfill",
]


def campaign(tmp_path, *extra, store="store"):
    return main(
        ["campaign", *SMALL, "--workers", "1",
         "--store", str(tmp_path / store), *extra]
    )


class TestCampaignCommand:
    def test_grid_campaign_runs_and_reports(self, tmp_path, capsys):
        assert campaign(tmp_path) == 0
        out = capsys.readouterr().out
        assert "campaign: campaign" in out
        assert "fcfs" in out and "easy_backfill" in out
        assert "2 executed, 0 cached, 0 failed of 2 runs" in out

    def test_store_and_jsonl_artifacts(self, tmp_path, capsys):
        assert campaign(tmp_path) == 0
        store = tmp_path / "store"
        # Hidden dotfiles (the .campaign.json manifest, the .lock) are
        # store metadata, not result records.
        run_files = sorted(
            p for p in store.glob("*.json") if not p.name.startswith(".")
        )
        assert len(run_files) == 2
        records = [json.loads(p.read_text()) for p in run_files]
        assert {r["params"]["strategy"] for r in records} == {
            "fcfs", "easy_backfill"
        }
        lines = (store / "results.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all("makespan_s" in json.loads(l)["result"] for l in lines)

    def test_rerun_is_fully_cached(self, tmp_path, capsys):
        assert campaign(tmp_path) == 0
        capsys.readouterr()
        assert campaign(tmp_path) == 0
        assert "0 executed, 2 cached, 0 failed" in capsys.readouterr().out

    def test_no_jsonl_flag(self, tmp_path):
        assert campaign(tmp_path, "--no-jsonl") == 0
        assert not (tmp_path / "store" / "results.jsonl").exists()

    def test_progress_log(self, tmp_path):
        # The fleet event sidecar under .queue/metrics/ is the progress
        # log: one submit, then an enqueue, claim and complete per run.
        from repro.observability.events import read_fleet_events

        assert campaign(tmp_path, "--quiet") == 0
        events = read_fleet_events(tmp_path / "store")
        kinds = [e["kind"] for e in events]
        assert kinds.count("submit") == 1
        for kind in ("enqueue", "claim", "complete"):
            assert kinds.count(kind) == 2
        runs = {e["run_id"] for e in events if e["kind"] == "complete"}
        assert len(runs) == 2

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        assert campaign(tmp_path, "--quiet", "--no-jsonl") == 0
        assert capsys.readouterr().err == ""

    def test_experiment_refs(self, tmp_path, capsys):
        assert main(
            ["campaign", "--experiments", "e1", "--seeds",
             "--store", str(tmp_path / "store"), "--workers", "1", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "E1:" in out
        assert "1 executed, 0 cached, 0 failed of 1 runs" in out

    def test_spec_file(self, tmp_path, capsys):
        spec = {
            "name": "filed",
            "jobs": 25,
            "strategies": ["fcfs"],
            "seeds": [1, 2],
            "cluster_sizes": [16],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(
            ["campaign", "--spec", str(path),
             "--store", str(tmp_path / "store"), "--workers", "1", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign: filed" in out
        assert "2 executed" in out

    def test_bad_spec_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "bogus_key": 1}))
        assert main(
            ["campaign", "--spec", str(path),
             "--store", str(tmp_path / "store")]
        ) == 2
        assert "campaign error" in capsys.readouterr().err

    def test_empty_axis_exits_2(self, tmp_path, capsys):
        assert main(
            ["campaign", "--seeds", "--store", str(tmp_path / "store")]
        ) == 2
        assert "campaign error" in capsys.readouterr().err
