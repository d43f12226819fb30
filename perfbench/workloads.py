"""The four benchmark workloads.

A workload turns a seed into inputs (``prepare``), hands out one
round of operations at a time (``round_ops``), and checks each
operation's output.  A round is a fixed, seed-determined set of
operations, so the work counters of a round repeat exactly; timing
repeats rounds until the run's time is spent.

Sizes are set for a 2-core host with one client thread and
``workers=1`` throughout.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.analysis.experiments import default_campaign
from repro.archive.columnar import job_records_to_array
from repro.core.strategy import all_strategy_names
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import build_manager

#: Paper-evaluation trace parameters (``default_campaign`` defaults).
E3_JOBS, E3_NODES = 400, 128
#: Deep queue: the same generator on 4x the nodes with 2x the jobs (a
#: 1600-job trace takes ~10 s, too few traces per run to be steady).
DEEP_JOBS, DEEP_NODES = 800, 512
#: Archive replay: synthetic SWF, ingested into five windows.
ARCHIVE_JOBS, ARCHIVE_NODES, ARCHIVE_WINDOWS = 5000, 256, 5
#: Served campaign: specs per round, and each spec's grid.
SERVED_SPECS_PER_ROUND = 10
SERVED_MIN_CREATES = 100
SERVED_COMPARED = 50
SERVED_SPEC = {
    "jobs": 80,
    "cluster_sizes": [16],
    "strategies": ["easy_backfill", "shared_backfill"],
}


class OutputMismatch(Exception):
    """An operation's output differs from its reference."""


@dataclass
class OpResult:
    """What one operation did, for throughput and for checking."""

    events: int
    jobs: int
    #: The op's output; :meth:`Workload.digest` reduces it outside timing.
    output: object
    #: Client-side latencies in seconds, by kind (served workload).
    latencies: dict[str, list[float]] = field(default_factory=dict)


def digest_records(records) -> str:
    """Content digest of accounting records in their columnar packing."""
    return hashlib.sha256(job_records_to_array(records).tobytes()).hexdigest()[:16]


def digest_json(value) -> str:
    blob = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class Workload:
    """Base: subclasses define the inputs, one round of ops, and checks."""

    name = ""
    #: Fewest ops a run measures, even past its time.
    min_ops = 1
    #: The traced phase re-runs the untraced phase's rounds from here, so
    #: tracing overhead compares the same ops and traced outputs are
    #: checked against untraced ones.
    traced_first_round = 0

    def prepare(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def round_ops(self, index: int) -> list[Callable[[], OpResult]]:
        raise NotImplementedError

    def digest(self, output: object) -> str:
        """Content digest of one op's output."""
        return digest_json(output)

    def check_round(self, results: list[OpResult]) -> int:
        """Workload-level checks over one round; returns failures found."""
        return 0

    def final_check(self) -> tuple[int, int]:
        """Checks after timing; returns ``(attempted, failed)``."""
        return 0, 0

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
def round_seed(seed: int, index: int) -> int:
    """Generator seed of round *index*: a run walks the trace sequence
    from its own seed, so its figure is set by a window of traces rather
    than by one draw of the generator (per-trace cost varies by ~15%)."""
    return seed + index


class _Simulations(Workload):
    """Each round, the next trace of the seed's window, under the strategies."""

    strategies: tuple[str, ...] = ()
    jobs = nodes = 0

    def __init__(self) -> None:
        #: Latest SimulationResult per strategy, for round checks.
        self.last: dict[str, object] = {}

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def round_ops(self, index: int) -> list[Callable[[], OpResult]]:
        # Trace generation and manager construction are set-up; the op
        # is the run.
        trace = default_campaign(
            num_jobs=self.jobs,
            cluster_nodes=self.nodes,
            seed=round_seed(self.seed, index),
        )
        return [self._op(self._build(trace, s), s) for s in self.strategies]

    def _build(self, trace, strategy: str):
        return build_manager(
            trace,
            num_nodes=self.nodes,
            strategy=strategy,
            config=SchedulerConfig(strategy=strategy),
        )

    def _op(self, manager, strategy: str) -> Callable[[], OpResult]:
        def run() -> OpResult:
            result = manager.run()
            records = list(result.accounting)
            self.last[strategy] = result
            return OpResult(
                events=result.events_dispatched, jobs=len(records), output=records
            )

        return run

    def digest(self, output: object) -> str:
        return digest_records(output)


class E3Strategies(_Simulations):
    """The paper's e3 trace under all seven strategies, collector on."""

    name = "e3-strategies"
    strategies = all_strategy_names()
    jobs, nodes = E3_JOBS, E3_NODES

    def check_round(self, results: list[OpResult]) -> int:
        """The paper's shape: sharing beats exclusive EASY on
        computational and scheduling efficiency (makespan)."""
        from repro.metrics.summary import summarize

        easy = summarize(self.last["easy_backfill"])
        shared = summarize(self.last["shared_backfill"])
        ok = (
            shared.computational_efficiency > easy.computational_efficiency
            and shared.makespan < easy.makespan
        )
        return 0 if ok else 1


class DeepQueue(_Simulations):
    """``shared_backfill`` on a large cluster with a long pending queue."""

    name = "deep-queue"
    strategies = ("shared_backfill",)
    jobs, nodes = DEEP_JOBS, DEEP_NODES


# ----------------------------------------------------------------------
# Archive replay
# ----------------------------------------------------------------------
class ArchiveReplay(Workload):
    """synth_swf -> ingest_swf (5 windows) -> replay_archive, EASY.

    Each round synthesises and ingests the next archive of the seed's
    window (set-up), then replays it into a fresh store (the op).
    """

    name = "archive-replay"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def round_ops(self, index: int) -> list[Callable[[], OpResult]]:
        from repro.archive.ingest import ingest_swf
        from repro.archive.synth import synth_swf

        for stale in self.workdir.glob("round-*"):
            shutil.rmtree(stale)
        base = self.workdir / f"round-{index}"
        base.mkdir()
        swf, archive, store = base / "trace.swf", base / "archive", base / "store"
        synth_swf(
            swf, jobs=ARCHIVE_JOBS, nodes=ARCHIVE_NODES,
            seed=round_seed(self.seed, index),
        )
        ingest_swf(swf, archive, window_jobs=ARCHIVE_JOBS // ARCHIVE_WINDOWS)

        def run() -> OpResult:
            from repro.archive.replay import replay_archive

            outcome = replay_archive(
                archive, store, strategy="easy_backfill", num_nodes=ARCHIVE_NODES
            )
            if not outcome.ok or outcome.stitched is None:
                raise OutputMismatch("replay did not complete")
            stitched = outcome.stitched
            last = outcome.campaign.results[outcome.campaign.order[-1]]
            return OpResult(
                events=int(last["result"]["events_dispatched"]),
                jobs=int(stitched["jobs"]),
                output=stitched,
            )

        return [run]


# ----------------------------------------------------------------------
# Served campaign
# ----------------------------------------------------------------------
class _ServiceThread:
    """Serve-only ``ReproService`` on an ephemeral port in one thread."""

    def __init__(self, root: Path) -> None:
        from repro.service.config import ServiceConfig
        from repro.service.server import ReproService

        self.service = ReproService(root, ServiceConfig(port=0, workers=0))
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._failed: BaseException | None = None
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._main(),), name="perfbench-serve"
        )
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("service did not start within 30 s")
        if self._failed is not None:
            raise self._failed

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.service.start()
        except BaseException as exc:  # reported to the starting thread
            self._failed = exc
            self._ready.set()
            return
        self._ready.set()
        await self.service.run_until_drained()

    @property
    def port(self) -> int:
        return int(self.service.port)

    def stop(self) -> None:
        if self._loop is not None and self._failed is None:
            self._loop.call_soon_threadsafe(
                self.service.request_drain, "benchmark done"
            )
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop within 30 s")


class ServedCampaign(Workload):
    """Closed loop, one client: POST, re-POST with the same key, drain."""

    name = "served-campaign"
    #: p90 of create latency needs ten samples beyond it.
    min_ops = SERVED_MIN_CREATES
    #: Re-posting a spec replays it, so the traced phase takes new specs
    #: from a fixed index: its first round, and so its exact counters,
    #: do not depend on how many rounds the untraced phase managed.
    traced_first_round = 100

    def prepare(self, seed: int, workdir: Path) -> None:
        from repro.campaign.spec import CampaignSpec

        self.seed = seed
        self.workdir = workdir
        self.starts = getattr(self, "starts", 0) + 1
        self.root = workdir / f"service-{self.starts:06d}"
        self.server = _ServiceThread(self.root)
        self.submitted: list[tuple[dict, str]] = []
        # The client validates the specs both phases will post, as the
        # service does.  Service start alone is ~1 ms, and its durable
        # manifest write swings 2x with the host's disk load: too little
        # work to hold setup_s to its bound.
        for index in range(2 * self.traced_first_round * SERVED_SPECS_PER_ROUND):
            CampaignSpec.from_dict(self.spec(index)).expand()

    def spec(self, index: int) -> dict:
        # Distinct trace seeds per spec: each POST is a new submission.
        return {
            "name": f"perfbench-{self.seed}-{index}",
            "seeds": [self.seed * 100_000 + index],
            **SERVED_SPEC,
        }

    def round_ops(self, index: int) -> list[Callable[[], OpResult]]:
        first = index * SERVED_SPECS_PER_ROUND
        # The direct-campaign comparison covers each phase's first
        # SERVED_COMPARED submissions, which bounds its cost.
        compare = (index % self.traced_first_round) * SERVED_SPECS_PER_ROUND
        return [
            self._op(self.spec(first + k), compare < SERVED_COMPARED)
            for k in range(SERVED_SPECS_PER_ROUND)
        ]

    def post(self, spec: dict, key: str) -> tuple[int, dict]:
        from repro.service import client

        return client.post_json(
            "127.0.0.1", self.server.port, "/v1/campaigns", spec,
            headers={"Idempotency-Key": key},
        )

    def _op(self, spec: dict, compare: bool) -> Callable[[], OpResult]:
        def run() -> OpResult:
            from repro.campaign.queue import QueueWorker
            from repro.campaign.store import ResultStore

            key = f"key-{spec['name']}"
            started = time.perf_counter()
            status, doc = self.post(spec, key)
            created = time.perf_counter() - started
            if status != 201 or doc.get("replayed"):
                raise OutputMismatch(f"create answered {status}: {doc}")
            started = time.perf_counter()
            status, again = self.post(spec, key)
            replayed = time.perf_counter() - started
            if status != 200 or not again.get("replayed") or (
                again.get("submission") != doc["submission"]
            ):
                raise OutputMismatch(f"replay answered {status}: {again}")
            store_dir = self.root / doc["store"]
            outcome = QueueWorker(store_dir).drain()
            if outcome.completed != doc["runs"] or outcome.failed:
                raise OutputMismatch(f"drain: {outcome}")
            store = ResultStore(store_dir)
            events = jobs = 0
            records = {}
            for run_id in sorted(store.completed_ids()):
                result = store.load(run_id)["result"]
                events += int(result["events_dispatched"])
                jobs += int(result["jobs"])
                records[run_id] = store.path_for(run_id).read_bytes()
            if compare:
                self.submitted.append((spec, doc["store"]))
            return OpResult(
                events=events, jobs=jobs,
                output={k: v.decode("utf-8") for k, v in records.items()},
                latencies={"create": [created], "replay": [replayed]},
            )

        return run

    def final_check(self) -> tuple[int, int]:
        """Every drained store's records equal a direct ``repro campaign``
        run over the same grid, file for file."""
        from repro.campaign.store import ResultStore
        from repro.cli import main as repro_main

        if not self.submitted:
            return 0, 0
        reference = self.workdir / "direct-campaign"
        shutil.rmtree(reference, ignore_errors=True)
        seeds = [str(spec["seeds"][0]) for spec, _ in self.submitted]
        argv = [
            "campaign", "--jobs", str(SERVED_SPEC["jobs"]),
            "--sizes", *map(str, SERVED_SPEC["cluster_sizes"]),
            "--strategies", *SERVED_SPEC["strategies"],
            "--seeds", *seeds, "--workers", "1", "--no-jsonl", "--quiet",
            "--store", str(reference),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            status = repro_main(argv)
        if status != 0:
            return len(self.submitted), len(self.submitted)
        direct = ResultStore(reference)
        failed = 0
        for _spec, store_rel in self.submitted:
            served = ResultStore(self.root / store_rel)
            for run_id in served.completed_ids():
                if not direct.has(run_id) or (
                    served.path_for(run_id).read_bytes()
                    != direct.path_for(run_id).read_bytes()
                ):
                    failed += 1
                    break
        return len(self.submitted), failed

    def close(self) -> None:
        """Stop the service, if one runs."""
        server = getattr(self, "server", None)
        if server is not None:
            self.server = None
            server.stop()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (E3Strategies, DeepQueue, ArchiveReplay, ServedCampaign)
}

