"""The benchmark's own tests: exact counters, attribution, and its contract.

Run from the repository root (about three minutes)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_total  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_metrics_match_benchmark_json():
    result = result_of(bench("--workload", "e3-strategies", "--seed", "3",
                             "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize(
    "workload", ["e3-strategies", "archive-replay", "served-campaign"]
)
def test_exact_counters_repeat_for_a_seed(workload):
    """Two traced runs of one seed give bit-identical work counters."""
    runs = [
        result_of(bench("--workload", workload, "--seed", "5",
                        "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    ]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        # Layer self times plus unattributed cover the traced total.
        assert result["metrics"]["attribution_gap_pct"]["value"] < 5.0
    first, second = (
        {name: r["metrics"][name]["value"] for name in layers.EXACT_COUNTERS}
        for r in runs
    )
    assert first == second
    assert first["engine.events"] > 0


def _busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _SmallQueue(workloads.DeepQueue):
    name = "deep-queue-small"
    jobs, nodes = 150, 64


def _measure(workdir: Path):
    """One untraced and one traced round of a small shared_backfill run."""
    workload = _SmallQueue()
    checker = run.OutputChecker(workload, seed=11)
    workload.prepare(11, workdir)
    tracer = Tracer()
    with run.HostClock() as clock:
        untraced = run.run_phase(workload, checker, clock, 0.0, 0)
        layers.install(tracer)
        try:
            traced = run.run_phase(workload, checker, clock, 0.0, 0,
                                   tracer=tracer)
        finally:
            tracer.restore()
    assert untraced.failed == traced.failed == 0
    return untraced, tracer


def test_injected_slowdown_lands_in_its_layer(tmp_path, monkeypatch):
    """A fixed busy-wait added to InterferenceModel.speed from outside
    shows up as interference self time and as lost events_per_s, and not
    as self time of any other layer."""
    from repro.interference.model import InterferenceModel

    base_phase, base = _measure(tmp_path)
    delay_s = 100e-6
    original = InterferenceModel.speed

    def slowed(self, profile, co_profile):
        _busy_wait(delay_s)
        return original(self, profile, co_profile)

    monkeypatch.setattr(InterferenceModel, "speed", slowed)
    slow_phase, slow = _measure(tmp_path)

    calls = layer_total(slow.calls, "interference")
    assert calls == layer_total(base.calls, "interference") > 1000
    injected_ns = calls * delay_s * 1e9
    gained = (layer_total(slow.self_ns, "interference")
              - layer_total(base.self_ns, "interference"))
    assert 0.8 * injected_ns < gained < 1.3 * injected_ns
    others = [layer for layer in (*layers.LAYERS, layers.UNATTRIBUTED)
              if layer != "interference"]
    moved = sum(layer_total(slow.self_ns, layer) - layer_total(base.self_ns, layer)
                for layer in others)
    assert abs(moved) < 0.3 * injected_ns
    lost_cpu_s = slow_phase.raw_cpu_s - base_phase.raw_cpu_s
    assert 0.7 * injected_ns / 1e9 < lost_cpu_s < 1.5 * injected_ns / 1e9
    assert slow_phase.events_per_cpu_s() < base_phase.events_per_cpu_s()


def test_refuses_to_run_without_the_simulator(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "e3-strategies", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
