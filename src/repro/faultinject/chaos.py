"""``repro chaos`` — systematic crash-consistency torture harness.

One *trial* arms exactly one registered failpoint as a hard kill
(``os._exit`` at the write boundary — no ``finally`` blocks, no
``atexit``, the closest a test can get to a power cut), runs a small
but real pipeline in subprocesses, lets it die, re-runs the same
pipeline disarmed (the recovery path the store designs promise), and
then demands two things of the survivor:

* ``repro fsck`` finds every invariant intact, and
* the recovered store is **byte-identical** to a fault-free baseline
  (manifest, records, results.jsonl, stitched summary, and the
  column-file bytes up to the manifest row counts).

The sweep walks the whole failpoint catalog, so adding a new durable
write without registering (and surviving) its failpoint shows up as a
hole in the report.  Three workloads cover the durable-state
families: a **campaign** drained by a worker fleet (result records,
store manifest, results.jsonl, queue items, leases, fencing tokens,
event sidecars) whose baseline is the one-worker in-process drain of
the same campaign — byte-identity there proves a hard-killed
worker's reclaimed work leaves no trace — a windowed synthetic
**replay** (archive ingestion, boundary snapshots, columnar appends +
idempotence marks, stitched summary), and a **serve** drive
(``repro serve --drive``: HTTP submission, idempotency-key replay,
SSE streaming, supervised drain) whose baseline is a CLI campaign of
the same spec, proving the HTTP front-end changes nothing about the
durable store.

Cross-process once-only firing (the ``REPRO_FAILPOINTS_STAMP``
protocol) keeps a killed worker's replacement from re-tripping the
same failpoint forever; a stamp file doubling as the "did it actually
fire?" signal lets the harness tell *recovered* from *not hit* (a
failpoint the workload never reaches is reported as skipped, not
silently counted as a pass).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.faultinject.fsck import fsck_path
from repro.faultinject.registry import (
    CATALOG,
    ENV_PLAN,
    ENV_STAMP,
    EXIT_FAILPOINT_KILL,
)

#: Per-stage subprocess budget; the workloads are seconds-scale.
STAGE_TIMEOUT_S = 300.0

#: Failpoints additionally exercised with a torn (truncated) write,
#: not just a clean kill at the boundary.
TORN_WRITE_FAILPOINTS = ("columnar.append.write", "snapshot.write")

#: Bytes of payload that survive a torn-write trial.
TORN_WRITE_BYTES = 17


# ----------------------------------------------------------------------
# Byte-identity fingerprinting
# ----------------------------------------------------------------------
def store_fingerprint(root: str | Path) -> dict[str, str]:
    """SHA-256 per durable artifact under *root*.

    Covers result records, ``.campaign.json``, ``results.jsonl``,
    ``stitched.json``, the columnar manifest and the column-file bytes
    *up to the manifest row count* (bytes past it are torn-tail
    garbage, invisible by design), and archive window files.
    Deliberately excluded: ``quarantine.json`` (carries wall-clock
    provenance), dotted temp files, snapshots (deleted on success),
    bundles and telemetry (wall-clock sidecars).
    """
    root = Path(root)
    out: dict[str, str] = {}

    def put(rel: str, data: bytes) -> None:
        out[rel] = hashlib.sha256(data).hexdigest()

    for path in sorted(root.glob("*.json")):
        if path.name.startswith(".") or path.name == "quarantine.json":
            continue
        put(path.name, path.read_bytes())
    for name in (".campaign.json", "results.jsonl"):
        path = root / name
        if path.is_file():
            put(name, path.read_bytes())
    windows = root / "windows"
    if windows.is_dir():
        for path in sorted(windows.glob("*.col")):
            put(f"windows/{path.name}", path.read_bytes())
    columnar = root / "columnar"
    if (columnar / "manifest.json").is_file():
        from repro.archive.columnar import ColumnarStore

        store = ColumnarStore(columnar)
        put("columnar/manifest.json", (columnar / "manifest.json").read_bytes())
        for family in store.families():
            visible = store.rows(family) * store.dtype(family).itemsize
            data = store.path_for(family).read_bytes()[:visible]
            put(f"columnar/{family}.col", data)
    return out


# ----------------------------------------------------------------------
# Workload pipelines
# ----------------------------------------------------------------------
class _CampaignPipeline:
    """Small campaign: 4 runs, 40 jobs, 32 nodes.

    The trial commands drain with ``workers`` processes, at least two
    so the fleet reclaim path always runs.  A hard kill thus lands
    inside one worker of a live fleet (or inside the parent's
    enqueue) while the survivors — plus the parent's reclaim/respawn
    supervision — must finish the store.  The
    baseline is the one-worker in-process drain of the same campaign:
    byte-identity against it proves leases, fencing and reclamation
    leave no trace in the durable artifacts.
    """

    name = "campaign"

    def __init__(self, work: Path, workers: int, python: str) -> None:
        self.work = work
        self.workers = max(2, workers)
        self.python = python

    def prepare(self) -> None:
        pass

    def _command(self, root: Path, workers: int) -> list[str]:
        return [
            self.python, "-m", "repro.cli", "campaign",
            "--name", "chaos",
            "--jobs", "40",
            "--sizes", "32",
            "--seeds", "7", "11",
            "--strategies", "easy_backfill", "shared_backfill",
            "--workers", str(workers),
            "--store", str(root / "store"),
            "--quiet",
        ]

    def baseline_commands(self, root: Path) -> list[list[str]]:
        return [self._command(root, 1)]

    def commands(self, root: Path) -> list[list[str]]:
        return [self._command(root, self.workers)]

    def fingerprint(self, root: Path) -> dict[str, str]:
        return store_fingerprint(root / "store")

    def fsck_roots(self, root: Path) -> list[Path]:
        return [root / "store"]


class _ReplayPipeline:
    """Windowed synthetic replay: 240 jobs over 3 windows, 32 nodes."""

    name = "replay"

    def __init__(self, work: Path, workers: int, python: str) -> None:
        self.work = work
        self.python = python
        self.trace = work / "trace.swf"

    def prepare(self) -> None:
        if self.trace.is_file():
            return
        code, tail = _run_stage(
            [
                self.python, "-m", "repro.cli", "synth", str(self.trace),
                "--jobs", "240", "--nodes", "32", "--seed", "3",
                "--load", "1.2",
            ],
            _clean_env(),
            self.work / "synth.log",
        )
        if code != 0:
            raise ConfigError(f"synth failed (exit {code}): {tail}")

    def commands(self, root: Path) -> list[list[str]]:
        return [
            [
                self.python, "-m", "repro.cli", "ingest",
                str(self.trace), str(root / "archive"),
                "--window-jobs", "80",
            ],
            [
                self.python, "-m", "repro.cli", "replay-trace",
                str(root / "archive"),
                "--store", str(root / "replay"),
                "--strategy", "easy_backfill",
                "--nodes", "32",
                "--quiet",
            ],
        ]

    def fingerprint(self, root: Path) -> dict[str, str]:
        out = {}
        for prefix, sub in (("archive", "archive"), ("replay", "replay")):
            for rel, digest in store_fingerprint(root / sub).items():
                out[f"{prefix}/{rel}"] = digest
        return out

    def fsck_roots(self, root: Path) -> list[Path]:
        return [root / "archive", root / "replay"]


class _ServePipeline:
    """HTTP-served campaign: ``repro serve --drive`` submits a spec to
    itself over the wire (twice, under one idempotency key — the
    duplicate must replay), streams progress over SSE to completion,
    and fetches results; a supervised worker drains the store.

    A hard kill can land in the server process (submission record,
    ``service.json``, an SSE frame) or inside its drain worker (any
    store/queue failpoint) — either way the harness restarts the
    pipeline disarmed and the drained store must be fsck-clean and
    byte-identical to the baseline: a plain CLI ``campaign`` of the
    *same spec file*, proving the HTTP path adds nothing to (and
    loses nothing from) the durable artifacts.
    """

    name = "serve"

    def __init__(self, work: Path, workers: int, python: str) -> None:
        self.work = work
        self.workers = max(1, workers)
        self.python = python
        self.spec_file = work / "serve-spec.json"

    def prepare(self) -> None:
        self.spec_file.write_text(json.dumps({
            "name": "chaos-serve",
            "jobs": 40,
            "cluster_sizes": [32],
            "seeds": [7, 11],
            "strategies": ["easy_backfill", "shared_backfill"],
        }), encoding="utf-8")

    def baseline_commands(self, root: Path) -> list[list[str]]:
        return [[
            self.python, "-m", "repro.cli", "campaign",
            "--spec", str(self.spec_file),
            "--workers", "1",
            "--store", str(root / "stores" / "baseline"),
            "--quiet",
        ]]

    def commands(self, root: Path) -> list[list[str]]:
        return [[
            self.python, "-m", "repro.cli", "serve",
            "--root", str(root),
            "--port", "0",
            "--workers", str(self.workers),
            "--heartbeat-s", "0.2",
            "--drive", str(self.spec_file),
            "--quiet",
        ]]

    def _store_dirs(self, root: Path) -> list[Path]:
        stores = root / "stores"
        if not stores.is_dir():
            return []
        return sorted(p for p in stores.iterdir() if p.is_dir())

    def fingerprint(self, root: Path) -> dict[str, str]:
        # Store directory *names* differ (baseline is hand-placed, the
        # service derives a content hash) but the bytes inside must
        # not: fingerprint the single store relative to itself.
        dirs = self._store_dirs(root)
        if len(dirs) != 1:
            return {"store-count": str(len(dirs))}
        return store_fingerprint(dirs[0])

    def fsck_roots(self, root: Path) -> list[Path]:
        return self._store_dirs(root)


_PIPELINES = {
    "campaign": _CampaignPipeline,
    "replay": _ReplayPipeline,
    "serve": _ServePipeline,
}


def _clean_env() -> dict[str, str]:
    """Subprocess environment: no inherited plan, repro importable."""
    env = dict(os.environ)
    env.pop(ENV_PLAN, None)
    env.pop(ENV_STAMP, None)
    import repro

    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    parts = [pkg_root] + [
        p for p in env.get("PYTHONPATH", "").split(os.pathsep)
        if p and p != pkg_root
    ]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# ----------------------------------------------------------------------
# Trials and reports
# ----------------------------------------------------------------------
@dataclass
class ChaosTrial:
    """Outcome of crashing one failpoint and recovering."""

    failpoint: str
    action: str
    #: "recovered" (fired, recovered, fsck clean, byte-identical),
    #: "not-hit" (workload never reached the site), or "failed".
    status: str = "failed"
    fired: bool = False
    crash_stage: int | None = None
    crash_code: int | None = None
    fsck_ok: bool = False
    identical: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("recovered", "not-hit")

    def as_dict(self) -> dict[str, object]:
        return {
            "failpoint": self.failpoint,
            "action": self.action,
            "status": self.status,
            "fired": self.fired,
            "crash_stage": self.crash_stage,
            "crash_code": self.crash_code,
            "fsck_ok": self.fsck_ok,
            "identical": self.identical,
            "detail": self.detail,
        }


@dataclass
class ChaosReport:
    """One workload's full sweep."""

    workload: str
    trials: list[ChaosTrial] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.trials) and all(t.ok for t in self.trials)

    @property
    def recovered(self) -> int:
        return sum(1 for t in self.trials if t.status == "recovered")

    @property
    def not_hit(self) -> int:
        return sum(1 for t in self.trials if t.status == "not-hit")

    @property
    def failed(self) -> int:
        return sum(1 for t in self.trials if t.status == "failed")

    def as_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "ok": self.ok,
            "recovered": self.recovered,
            "not_hit": self.not_hit,
            "failed": self.failed,
            "trials": [t.as_dict() for t in self.trials],
        }

    def render(self) -> str:
        lines = [f"chaos sweep: {self.workload} workload"]
        width = max(
            (len(f"{t.failpoint}={t.action}") for t in self.trials), default=0
        )
        for t in self.trials:
            label = f"{t.failpoint}={t.action}"
            flags = []
            if t.fired:
                flags.append("fired")
            if t.fsck_ok:
                flags.append("fsck-clean")
            if t.identical:
                flags.append("byte-identical")
            note = f"  ({t.detail})" if t.detail else ""
            lines.append(
                f"  {label:<{width}}  {t.status:<9s} "
                f"{' '.join(flags)}{note}"
            )
        lines.append(
            f"  {self.recovered} recovered, {self.not_hit} not hit, "
            f"{self.failed} failed"
        )
        return "\n".join(lines)


def _run_stage(
    cmd: list[str], env: dict[str, str], log_path: Path
) -> tuple[int, str]:
    """Run one pipeline stage; returns (exit code, output tail).

    Output goes to a log *file*, never a pipe: a hard-killed campaign
    parent leaves orphaned pool workers holding its stderr descriptor,
    and reading a pipe until EOF would block on them.  Waiting only on
    the direct child is exactly the semantics a supervisor has.
    """
    with open(log_path, "ab") as log:
        log.write(f"$ {' '.join(cmd)}\n".encode())
        log.flush()
        proc = subprocess.run(
            cmd, env=env, stdout=log, stderr=log, timeout=STAGE_TIMEOUT_S
        )
    try:
        text = log_path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        text = ""
    return proc.returncode, text.strip()[-400:].replace("\n", " | ")


def run_chaos(
    work_dir: str | Path,
    workload: str = "campaign",
    workers: int = 2,
    failpoints: Sequence[str] | None = None,
    python: str = sys.executable,
    progress: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Sweep *failpoints* (default: the whole catalog) over *workload*.

    Every trial gets a fresh pipeline root under *work_dir*; the
    fault-free baseline runs first and its fingerprint is the identity
    every recovered store must reproduce.
    """
    if workload not in _PIPELINES:
        raise ConfigError(
            f"unknown chaos workload {workload!r} "
            f"(one of {', '.join(sorted(_PIPELINES))})"
        )
    names = list(failpoints) if failpoints is not None else sorted(CATALOG)
    for name in names:
        if name not in CATALOG:
            raise ConfigError(
                f"unknown failpoint {name!r}; registered: "
                f"{', '.join(sorted(CATALOG))}"
            )
    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    pipeline = _PIPELINES[workload](work, workers, python)
    pipeline.prepare()

    say = progress if progress is not None else (lambda line: None)
    baseline_root = work / f"{workload}-baseline"
    say(f"chaos[{workload}]: building fault-free baseline")
    _run_pipeline_clean(pipeline, baseline_root)
    for fsck_root in pipeline.fsck_roots(baseline_root):
        baseline_report = fsck_path(fsck_root)
        if not baseline_report.ok:
            raise ConfigError(
                f"baseline store {fsck_root} fails fsck before any fault "
                f"was injected:\n{baseline_report.render()}"
            )
    baseline = pipeline.fingerprint(baseline_root)

    report = ChaosReport(workload=workload)
    trial_specs = [(name, "kill", 0) for name in names] + [
        (name, "truncate", TORN_WRITE_BYTES)
        for name in TORN_WRITE_FAILPOINTS
        if name in names
    ]
    for index, (name, action, arg) in enumerate(trial_specs):
        trial = _run_trial(
            pipeline,
            work / f"{workload}-t{index:02d}-{name.replace('.', '-')}-{action}",
            name,
            action,
            arg,
            baseline,
        )
        report.trials.append(trial)
        say(
            f"chaos[{workload}] {name}={action}: {trial.status}"
            + (f" ({trial.detail})" if trial.detail else "")
        )
    return report


def _run_pipeline_clean(pipeline, root: Path) -> None:
    """Fault-free run; pipelines may define a distinct baseline shape
    (the campaign pipeline's baseline is a one-worker drain)."""
    commands = getattr(pipeline, "baseline_commands", pipeline.commands)
    root.mkdir(parents=True, exist_ok=True)
    for stage, cmd in enumerate(commands(root)):
        code, tail = _run_stage(
            cmd, _clean_env(), root / f"stage-{stage}.log"
        )
        if code != 0:
            raise ConfigError(
                f"fault-free pipeline stage failed (exit {code}): {tail}"
            )


def _run_trial(
    pipeline,
    root: Path,
    name: str,
    action: str,
    arg: int,
    baseline: dict[str, str],
) -> ChaosTrial:
    trial = ChaosTrial(failpoint=name, action=action)
    root.mkdir(parents=True, exist_ok=True)
    stamp_dir = root / "stamps"
    stamp_dir.mkdir(exist_ok=True)
    plan = f"{name}={action}:1"
    if action == "truncate":
        plan += f":{arg}"
    armed_env = _clean_env()
    armed_env[ENV_PLAN] = plan
    armed_env[ENV_STAMP] = str(stamp_dir)

    crashed = False
    for stage, cmd in enumerate(pipeline.commands(root)):
        env = _clean_env() if crashed else armed_env
        code, tail = _run_stage(cmd, env, root / f"stage-{stage}.log")
        if code != 0 and not crashed:
            # The injected fault surfaced — either the distinctive
            # kill status, or a nonzero exit after a worker died.
            crashed = True
            trial.crash_stage = stage
            trial.crash_code = code
            # Recovery: re-run the identical stage with faults off.
            code, tail = _run_stage(
                cmd, _clean_env(), root / f"stage-{stage}.log"
            )
        if code != 0:
            trial.status = "failed"
            trial.detail = f"stage {stage} exit {code}: {tail}"
            return trial

    trial.fired = any(stamp_dir.iterdir())
    if trial.crash_stage is not None and not trial.fired:
        trial.status = "failed"
        trial.detail = (
            f"stage {trial.crash_stage} exited "
            f"{trial.crash_code} without the failpoint firing"
        )
        return trial

    for fsck_root in pipeline.fsck_roots(root):
        fsck_report = fsck_path(fsck_root)
        if not fsck_report.ok:
            trial.status = "failed"
            first = next(
                (f for f in fsck_report.findings if f.level == "error"), None
            )
            trial.detail = (
                f"fsck: {first.code} {first.message}" if first else "fsck"
            )
            return trial
    trial.fsck_ok = True

    recovered = pipeline.fingerprint(root)
    if recovered != baseline:
        trial.status = "failed"
        differing = sorted(
            set(baseline) ^ set(recovered)
        ) or sorted(
            k for k in baseline if baseline[k] != recovered.get(k)
        )
        trial.detail = f"diverges from baseline: {', '.join(differing[:4])}"
        return trial
    trial.identical = True
    trial.status = "recovered" if trial.fired else "not-hit"
    return trial


def default_chaos_dir() -> str:
    """A fresh scratch directory for one ``repro chaos`` invocation."""
    return tempfile.mkdtemp(prefix="repro-chaos-")
