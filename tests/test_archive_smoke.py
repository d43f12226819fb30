"""Large-trace smoke: 50k-job synthetic replay under a memory bound.

Gated behind ``REPRO_LARGE_SMOKE=1`` so the regular suite stays fast;
CI runs it in a dedicated job with a pytest timeout.  The point is
constant-memory behaviour at archive scale: ingest streams, windows
execute one at a time, and peak RSS stays bounded regardless of
trace length.
"""

import os

import numpy as np
import pytest

from repro.archive import ingest_swf, replay_archive, synth_swf
from repro.archive.columnar import ColumnarStore
from repro.snapshot.guards import rss_mb_of

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_LARGE_SMOKE"),
    reason="set REPRO_LARGE_SMOKE=1 to run the 50k-job archive smoke",
)

JOBS = 50_000
RSS_BUDGET_MB = 2048.0


def test_50k_job_replay_end_to_end(tmp_path):
    swf = tmp_path / "large.swf"
    synth = synth_swf(swf, jobs=JOBS, nodes=256, seed=42, load=1.1)
    assert synth.jobs == JOBS

    ingest = ingest_swf(swf, tmp_path / "archive", window_jobs=10_000)
    assert ingest.jobs == JOBS
    assert ingest.quarantined == 0
    assert ingest.windows >= 5

    outcome = replay_archive(
        tmp_path / "archive",
        tmp_path / "store",
        strategy="easy_backfill",
        num_nodes=256,
        rss_budget_mb=RSS_BUDGET_MB,
    )
    assert outcome.ok, "replay tripped a guard or failed a window"

    store = ColumnarStore(outcome.columnar)
    assert store.rows("jobs") == JOBS
    jobs = np.asarray(store.read("jobs"))
    assert int(jobs["job_id"].min()) >= 1
    assert len(np.unique(jobs["job_id"])) == JOBS

    assert outcome.stitched is not None
    assert outcome.stitched["jobs"] == JOBS

    rss = rss_mb_of(os.getpid())
    if rss is not None:
        assert rss < RSS_BUDGET_MB, f"peak RSS {rss:.0f}MB over budget"
