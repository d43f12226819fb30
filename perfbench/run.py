#!/usr/bin/env python3
"""The simulator's benchmark: one workload, measured for a fixed time.

Run from the repository root::

    python3 perfbench/run.py --workload e3-strategies --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half the time untraced and half with every layer's
public entry points wrapped, and reports the per-layer metrics, the
tracing overhead and the work counters of the first traced round.

Each metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every operation's output is checked: its digest must
match the seed's recorded digests and, in a traced run, the untraced
half's; workload-level checks (the paper's e3 shape, the served stores
against a direct ``repro campaign``) count as operations.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"
SEEN = WORKDIR / "seen-digests.json"
#: Rounds per phase whose digests ``--record-reference`` commits.
REFERENCE_ROUNDS = 3

#: Set-up is repeated, after one warm-up, at least SETUP_REPEATS times
#: and for at least SETUP_MIN_S seconds per run; a few-millisecond set-up
#: needs many repeats for a steady mean.
SETUP_REPEATS = 9
SETUP_MIN_S = 1.0

#: CPU seconds the calibration loop takes on the reference host.  Times
#: are scaled by CAL_REF_S / (the loop's median time during each op),
#: which cancels the host's drifting speed on a shared machine.
CAL_REF_S = 0.0005
#: Seconds between calibration samples inside an op (~1% of the time).
SAMPLE_EVERY_S = 0.05

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """Everything one measuring loop saw."""

    #: Per round: (user CPU s, wall s, events, jobs); times scaled to
    #: the reference host (see CAL_REF_S).
    rounds: list[tuple[float, float, int, int]] = field(default_factory=list)
    latencies: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    ops_done: int = 0
    raw_cpu_s: float = 0.0  # unscaled, for the printed report
    traced_ns: int = 0
    first_events: int = 0
    first: object = None  # tracer counters after the first round

    def total(self, column: int) -> float:
        return sum(row[column] for row in self.rounds)

    def events_per_cpu_s(self) -> float:
        return self.total(2) / self.total(0)

    def jobs_per_wall_s(self) -> float:
        return self.total(3) / self.total(1)


class OutputChecker:
    """Checks op digests against the seed's recorded outputs.

    References come from the committed ``reference.json`` and from
    ``SEEN`` in the working directory, where every clean run records
    its digests, so a seed's later runs in one checkout are checked
    against its first.  In a traced run, the traced half re-runs the
    untraced half's rounds and must repeat their digests.
    """

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = str(seed)
        self.reference: dict[str, list[str]] = {}
        for path in (SEEN, REFERENCE):
            self.reference.update(
                _load(path).get(workload.name, {}).get(self.seed, {})
            )
        self.seen: dict[str, list[str]] = {}

    def ok(self, round_index: int, position: int, output) -> bool:
        digest = self.workload.digest(output)
        key = str(round_index)
        seen = self.seen.setdefault(key, [])
        seen.extend([None] * (position + 1 - len(seen)))
        if seen[position] is None:
            seen[position] = digest
        recorded = self.reference.get(key, [])
        expected = [seen[position]] + recorded[position:position + 1]
        return all(digest == want for want in expected)

    def record(self, path: Path, rounds: int | None = None) -> None:
        """Merge this run's digests into the reference file at *path*,
        keeping the first *rounds* rounds of each phase when given."""
        data = _load(path)
        entry = data.setdefault(self.workload.name, {}).setdefault(self.seed, {})
        traced = self.workload.traced_first_round
        for key, digests in self.seen.items():
            index = int(key)
            if traced and index >= traced:
                index -= traced  # the traced phase's own rounds
            if rounds is not None and index >= rounds:
                continue
            if None not in digests and len(digests) > len(entry.get(key, [])):
                entry[key] = digests
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )


def _load(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def _calibration_loop() -> float:
    """Fixed pure-Python work (dict stores, a keyed sort, float sums)."""
    table: dict[int, int] = {}
    items = list(range(1000))
    total = 0.0
    for rep in range(2):
        for i in items:
            table[i] = (i * 7919 + rep) % 1009
        ordered = sorted(items, key=table.__getitem__)
        total += sum(x * 0.5 for x in ordered[:200])
    return total


def user_cpu_s() -> float:
    """User-mode CPU seconds of this process (all threads).

    Kernel time (fsync, sockets, thread wake-ups) is left out: it follows
    the host's I/O load, not the simulator's code.  The kernel splits
    user from system time by tick sampling, so one short interval can
    read 0; sums over a run are accurate.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class HostClock:
    """Tracks the host's speed with the calibration loop.

    The loop runs at every operation boundary and, from a SIGALRM timer,
    every SAMPLE_EVERY_S inside an operation, so a multi-second
    operation is scaled by the speed the host had while it ran.
    ``spent`` totals the loop's own time, which :meth:`measure`
    subtracts from the operation.  (A SIGPROF timer would follow CPU
    time, but on some virtual machines it stops the process CPU clock.)
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        started = time.process_time()
        _calibration_loop()
        took = time.process_time() - started
        self.samples.append(took)
        self.spent += took

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn) -> "Measured":
        """Run *fn* and time it, without the calibration inside it."""
        first = len(self.samples) - 1  # the boundary sample before *fn*
        spent = self.spent
        cpu0, wall0 = user_cpu_s(), time.perf_counter_ns()
        result = fn()
        cpu, wall_ns = user_cpu_s() - cpu0, time.perf_counter_ns() - wall0
        inside = self.spent - spent
        self.sample()
        return Measured(
            result=result,
            cpu_s=max(cpu - inside, 0.0),
            wall_s=max(wall_ns / 1e9 - inside, 0.0),
            wall_ns=wall_ns,
            scale=CAL_REF_S / statistics.median(self.samples[max(first, 0):]),
        )


@dataclass
class Measured:
    """One timed call: CPU and wall net of calibration, the raw wall
    time, and the factor that scales times to the reference host."""

    result: object
    cpu_s: float
    wall_s: float
    wall_ns: int
    scale: float


def run_phase(workload, checker, clock, seconds, first_round, first_ops=None,
              tracer=None) -> Phase:
    """Repeat rounds of ops until *seconds* are spent (at least one round
    and the workload's minimum op count)."""
    from layers import OP_KEY

    phase = Phase()
    deadline = time.perf_counter() + seconds
    hard_stop = deadline + seconds
    index = first_round
    ops = first_ops if first_ops is not None else workload.round_ops(index)
    clock.sample()
    while True:
        started = time.perf_counter()
        cpu = wall = 0.0
        events = jobs = 0
        outputs = []
        for position, op in enumerate(ops):
            phase.attempted += 1
            try:
                timed = clock.measure(
                    (lambda: tracer.op(OP_KEY, op)) if tracer else op
                )
            except Exception:
                traceback.print_exc(file=sys.stderr)
                phase.failed += 1
                clock.sample()
                continue
            result, scale = timed.result, timed.scale
            phase.raw_cpu_s += timed.cpu_s
            phase.traced_ns += timed.wall_ns if tracer else 0
            cpu += timed.cpu_s * scale
            wall += timed.wall_s * scale
            phase.ops_done += 1
            events += result.events
            jobs += result.jobs
            for kind, values in result.latencies.items():
                phase.latencies.setdefault(kind, []).extend(
                    value * scale for value in values
                )
            if not checker.ok(index, position, result.output):
                print(f"output mismatch: round {index} op {position}",
                      file=sys.stderr)
                phase.failed += 1
            outputs.append(result)
        if len(outputs) == len(ops):
            phase.attempted += 1
            phase.failed += workload.check_round(outputs)
        phase.rounds.append((cpu, wall, events, jobs))
        if tracer is not None and phase.first is None:
            phase.first = tracer.counters()
            phase.first_events = events
        index += 1
        now = time.perf_counter()
        round_s = now - started
        enough = phase.ops_done >= workload.min_ops
        # Start another round if at least half of it fits in the time.
        if (enough and now + round_s / 2 > deadline) or now > hard_stop:
            return phase
        ops = workload.round_ops(index)


def timed_setup(workload, seed: int, workdir: Path, clock: HostClock):
    """Prepare inputs and the first round's ops, repeatedly.

    Returns the mean user CPU seconds of one set-up, scaled like op
    times, over every repeat but the first (which pays one-time
    imports).  User CPU leaves out the kernel's share of durable writes,
    which follows the host's disk load: it made a ~2 ms service start
    vary by 2x between runs.  The kernel splits user from system time by
    tick sampling, so the total over all repeats is used, not per-repeat
    values.
    """
    ops = None
    total = 0.0
    repeats = 0
    deadline = time.perf_counter() + SETUP_MIN_S
    clock.sample()
    while repeats <= SETUP_REPEATS or time.perf_counter() < deadline:
        workload.close()  # the previous repeat's service, untimed
        timed = clock.measure(
            lambda: (workload.prepare(seed, workdir), workload.round_ops(0))
        )
        ops = timed.result[1]
        if repeats:
            total += timed.cpu_s * timed.scale
        repeats += 1
    return total / (repeats - 1), ops


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (*q* in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(phase: Phase, setup_s: float) -> dict:
    values = {
        "events_per_s": phase.events_per_cpu_s(),
        "jobs_per_s": phase.jobs_per_wall_s(),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(workload, checker, clock, seconds, phase_a: Phase):
    """Trace the second half; returns the per-layer metrics and its Phase."""
    import layers
    from tracer import Tracer, layer_total

    tracer = Tracer()
    layers.install(
        tracer, http_owner=type(workload) if hasattr(workload, "post") else None
    )
    try:
        phase_b = run_phase(workload, checker, clock, seconds,
                            workload.traced_first_round, tracer=tracer)
    finally:
        tracer.restore()
    events = sum(e for _c, _w, e, _j in phase_b.rounds)
    metrics = layers.per_layer_metrics(
        tracer, phase_b.first, events, phase_b.first_events, phase_b.traced_ns
    )
    attributed = sum(
        layer_total(tracer.self_ns, layer)
        for layer in (*layers.LAYERS, layers.UNATTRIBUTED)
    )
    gap = abs(attributed - phase_b.traced_ns) / max(1, phase_b.traced_ns)
    metrics["attribution_gap_pct"] = (100.0 * gap, "%")
    metrics["trace_overhead_pct"] = (
        100.0 * (phase_a.events_per_cpu_s() / phase_b.events_per_cpu_s() - 1.0),
        "%",
    )
    create = phase_a.latencies.get("create")
    replay = phase_a.latencies.get("replay")
    metrics["service.create_ms_p50"] = (
        1e3 * statistics.median(create) if create else 0.0, "ms"
    )
    metrics["service.create_ms_p90"] = (
        1e3 * percentile(create, 90) if create else 0.0, "ms"
    )
    metrics["service.replay_ms_p50"] = (
        1e3 * statistics.median(replay) if replay else 0.0, "ms"
    )
    return metrics, phase_b


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's output digests for the seed "
                             "in reference.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    # Fixed-width: paths land in snapshots, whose size is an exact counter.
    workdir = WORKDIR / f"{workload.name}-{os.getpid():08d}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        checker = OutputChecker(workload, args.seed)
        with HostClock() as clock:
            setup_s, ops = timed_setup(workload, args.seed, workdir, clock)
            seconds = args.seconds / 2 if args.trace else args.seconds
            phase = run_phase(workload, checker, clock, seconds, 0, first_ops=ops)
            if args.trace:
                metrics, traced = per_layer(workload, checker, clock, seconds,
                                            phase)
        attempted, failed = phase.attempted, phase.failed
        if args.trace:
            attempted += traced.attempted
            failed += traced.failed
        else:
            metrics = end_to_end(phase, setup_s)
        checked, mismatched = workload.final_check()
        attempted += checked
        failed += mismatched
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if failed == 0:
        checker.record(SEEN)
        if args.record_reference:
            checker.record(REFERENCE, rounds=REFERENCE_ROUNDS)
    print(f"{workload.name} seed={args.seed} attempted={attempted} "
          f"failed={failed} failed_ratio={failed / attempted:.4f} "
          f"unscaled_events_per_cpu_s="
          f"{phase.total(2) / max(phase.raw_cpu_s, 1e-9):.1f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
