"""Result-store backends: detection, columnar streaming aggregation.

``repro stats`` must aggregate a replay store without loading any
per-run JSON (the whole point of the columnar store at archive
scale); the JSON-store path keeps working unchanged behind the same
interface.
"""

import json

import pytest

from repro.archive import ingest_swf, replay_archive, synth_swf
from repro.campaign import (
    ColumnarBackend,
    JsonStoreBackend,
    detect_backend,
)
from repro.cli import main
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def replay_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("statsarch")
    synth_swf(root / "t.swf", jobs=300, nodes=32, seed=11)
    ingest_swf(root / "t.swf", root / "archive", window_jobs=80)
    outcome = replay_archive(
        root / "archive", root / "store", strategy="easy_backfill",
        num_nodes=32,
    )
    assert outcome.ok
    return root / "store"


class TestDetectBackend:
    def test_replay_store_detected_as_columnar(self, replay_store):
        backend = detect_backend(replay_store)
        assert isinstance(backend, ColumnarBackend)

    def test_bare_columnar_root_detected(self, replay_store):
        backend = detect_backend(replay_store / "columnar")
        assert isinstance(backend, ColumnarBackend)

    def test_json_store_detected(self, tmp_path):
        (tmp_path / "deadbeef.json").write_text("{}")
        assert isinstance(detect_backend(tmp_path), JsonStoreBackend)

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            detect_backend(tmp_path / "nope")


class TestColumnarAggregation:
    def test_aggregate_without_per_run_json(self, replay_store):
        # Corrupt every per-run JSON: a columnar aggregation must not
        # read them at all.
        for path in replay_store.glob("*.json"):
            if path.name != "stitched.json":
                path.write_text("{corrupt")
        doc = detect_backend(replay_store).aggregate()
        assert doc["backend"] == "columnar"
        assert doc["summary"]["jobs"] == 300
        assert doc["summary"]["windows"] == 4
        assert doc["strategy"] == "easy_backfill"

    def test_summary_rows_one_per_window(self, replay_store):
        rows = detect_backend(replay_store).summary_rows()
        assert [r["window"] for r in rows] == [0, 1, 2, 3]
        assert sum(r["jobs_flushed"] for r in rows) == 300


class TestStatsCli:
    def test_table_output(self, replay_store, capsys):
        assert main(["stats", str(replay_store)]) == 0
        out = capsys.readouterr().out
        assert "easy_backfill" in out
        assert "window" in out.lower()

    def test_json_output(self, replay_store, capsys):
        assert main(["stats", str(replay_store), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["jobs"] == 300

    def test_csv_output(self, replay_store, capsys):
        assert main(["stats", str(replay_store), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("window,")
        assert len(lines) == 5  # header + one row per window

    def test_json_store_path_still_works(self, tmp_path, capsys):
        from repro.campaign.queue import run_campaign
        from repro.campaign.spec import (
            RunSpec,
            simulate_params,
            trinity_workload,
        )

        params = simulate_params(
            strategy="fcfs", num_nodes=8,
            workload=trinity_workload(jobs=15, nodes=8, seed=2),
        )
        assert run_campaign(tmp_path, [RunSpec.from_params(params)]).ok
        backend = detect_backend(tmp_path)
        assert isinstance(backend, JsonStoreBackend)
        assert main(["stats", str(tmp_path)]) == 0
        assert "fcfs" in capsys.readouterr().out
        assert main(["stats", str(tmp_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backend"] == "json-store"
