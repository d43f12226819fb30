"""Serving overhead — what the HTTP front-end costs over direct CLI use.

Runs an in-process ``ReproService`` on an ephemeral port and measures
the three costs an operator sizing a deployment needs: submission
latency (create and idempotent-replay paths, p50/p99), the admission
gate's shed behaviour at saturation (every 429 must be fast and
accounted), and end-to-end streaming overhead — submit + worker drain
+ SSE-to-complete versus the same spec through ``repro campaign``.

Emits both the human table (``benchmarks/results/``) and the
machine-readable ``BENCH_serve.json`` at the repo root.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.cli import main
from repro.metrics.report import format_table
from repro.service import client
from repro.service.config import ServiceConfig
from repro.service.server import ReproService

SUBMITS = 40
SHED_CLIENTS = 20


def _spec(index: int) -> dict:
    return {
        "name": f"bench-{index}", "jobs": 25, "cluster_sizes": [16],
        "seeds": [index + 1], "strategies": ["fcfs"],
    }


def _percentiles(samples_s: list[float]) -> dict[str, float]:
    ordered = sorted(samples_s)
    pick = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return {
        "p50_ms": round(1000 * pick(0.50), 3),
        "p99_ms": round(1000 * pick(0.99), 3),
    }


class _Server:
    """ReproService on port 0 in a background thread."""

    def __init__(self, root, config: ServiceConfig) -> None:
        self.service = ReproService(root, config)
        self.loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        await self.service.start()
        self._ready.set()
        await self.service.run_until_drained()

    def __enter__(self) -> "_Server":
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc) -> None:
        self.loop.call_soon_threadsafe(
            self.service.request_drain, "bench-done"
        )
        self._thread.join(timeout=15)

    @property
    def port(self) -> int:
        return self.service.port


def _timed_posts(port: int, headers_of, count: int) -> list[float]:
    samples = []
    for index in range(count):
        start = time.perf_counter()
        status, _ = client.post_json(
            "127.0.0.1", port, "/v1/campaigns", _spec(index),
            headers=headers_of(index),
        )
        samples.append(time.perf_counter() - start)
        assert status in (200, 201), status
    return samples


def _measure_submit_latency(tmp_path) -> tuple[dict, dict]:
    config = ServiceConfig(port=0, poll_s=0.02)
    with _Server(tmp_path / "latency", config) as server:
        create_s = _timed_posts(
            server.port, lambda i: {"Idempotency-Key": f"k{i}"}, SUBMITS
        )
        replay_s = _timed_posts(
            server.port, lambda i: {"Idempotency-Key": f"k{i}"}, SUBMITS
        )
        admission = server.service.metrics.copy()
    return (
        {"create": _percentiles(create_s), "replay": _percentiles(replay_s)},
        admission,
    )


def _measure_shedding(tmp_path) -> dict:
    config = ServiceConfig(
        port=0, max_inflight=1, accept_backlog=2, deadline_s=30.0,
    )
    with _Server(tmp_path / "shed", config) as server:
        release = threading.Event()
        original = server.service.registry.submit

        def gated(spec_data, key=None):
            release.wait(30)
            return original(spec_data, key)

        server.service.registry.submit = gated
        occupier = threading.Thread(
            target=client.post_json,
            args=("127.0.0.1", server.port, "/v1/campaigns", _spec(0)),
        )
        occupier.start()
        while not server.service._sem.locked():
            time.sleep(0.01)

        statuses: list[tuple[int, float]] = []
        lock = threading.Lock()

        def probe() -> None:
            start = time.perf_counter()
            status, _, _ = client.request(
                "127.0.0.1", server.port, "GET", "/v1/campaigns"
            )
            with lock:
                statuses.append((status, time.perf_counter() - start))

        probes = [
            threading.Thread(target=probe) for _ in range(SHED_CLIENTS)
        ]
        for thread in probes:
            thread.start()
        time.sleep(0.5)  # sheds answer immediately; waiters keep waiting
        release.set()
        for thread in probes:
            thread.join(timeout=30)
        occupier.join(timeout=30)

        shed = [s for s in statuses if s[0] == 429]
        ok = [s for s in statuses if s[0] == 200]
        assert len(shed) + len(ok) == SHED_CLIENTS
        # The gate admits at most backlog waiters; the rest must shed.
        assert len(shed) >= SHED_CLIENTS - config.accept_backlog - 1
        metrics = server.service.metrics
        assert metrics["requests"] == (
            metrics["accepted"] + metrics["shed"]
            + metrics["rejected_draining"]
        )
        return {
            "clients": SHED_CLIENTS,
            "capacity": config.max_inflight,
            "backlog": config.accept_backlog,
            "shed": len(shed),
            "admitted": len(ok),
            "shed_latency": _percentiles([s[1] for s in shed]),
        }


def _measure_streaming(tmp_path) -> dict:
    spec = _spec(0)
    start = time.perf_counter()
    assert main([
        "campaign", "--jobs", "25", "--sizes", "16", "--seeds", "1",
        "--strategies", "fcfs", "--name", "bench-0",
        "--workers", "1", "--store", str(tmp_path / "direct"), "--quiet",
    ]) == 0
    direct_s = time.perf_counter() - start

    config = ServiceConfig(port=0, poll_s=0.02, heartbeat_s=0.5, workers=1)
    with _Server(tmp_path / "stream", config) as server:
        start = time.perf_counter()
        status, doc = client.post_json(
            "127.0.0.1", server.port, "/v1/campaigns", spec
        )
        assert status == 201
        for event, _data in client.stream_sse(
            "127.0.0.1", server.port,
            f"/v1/campaigns/{doc['submission']}/events", timeout=120,
        ):
            if event == "complete":
                break
        served_s = time.perf_counter() - start
    return {
        "direct_join_s": round(direct_s, 3),
        "served_sse_s": round(served_s, 3),
        "overhead_s": round(served_s - direct_s, 3),
    }


def test_serve_overhead(benchmark, record_artifact, record_bench, tmp_path):
    latency, admission = benchmark.pedantic(
        _measure_submit_latency, args=(tmp_path,), rounds=1, iterations=1,
    )
    assert admission["submissions_created"] == SUBMITS
    assert admission["submissions_replayed"] == SUBMITS

    shed = _measure_shedding(tmp_path)
    streaming = _measure_streaming(tmp_path)

    bench = {
        "submits": SUBMITS,
        "submit": latency,
        "shedding": shed,
        "streaming": streaming,
    }
    record_bench("serve", bench)

    rows = [
        {"path": "submit (create)", **latency["create"]},
        {"path": "submit (replay)", **latency["replay"]},
        {"path": "shed 429", **shed["shed_latency"]},
    ]
    record_artifact(
        "serve_overhead",
        format_table(
            rows,
            title=(
                f"serve overhead: {SUBMITS} submissions; shed "
                f"{shed['shed']}/{shed['clients']} at capacity "
                f"{shed['capacity']}+{shed['backlog']}; streaming "
                f"{streaming['served_sse_s']}s vs direct "
                f"{streaming['direct_join_s']}s"
            ),
        ),
    )
