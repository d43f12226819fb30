"""Failpoint registry and retry machinery.

Covers the plan language, arming scopes, nth-hit and fire-once
semantics, the cross-process stamp protocol, transient/permanent
error classification with bounded backoff, and the instrumented write
paths actually surviving (or propagating) injected faults.
"""

from __future__ import annotations

import ast
import errno
import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.archive import ingest_swf, replay_archive, synth_swf
from repro.archive.columnar import JOBS_DTYPE, ColumnarStore
from repro.campaign.queue import QueueItem, WorkQueue
from repro.campaign.spec import run_id_of
from repro.campaign.store import ResultStore
from repro.diagnostics.bundle import write_bundle
from repro.errors import ConfigError
from repro.faultinject import (
    CATALOG,
    EXIT_FAILPOINT_KILL,
    FailpointSpec,
    FaultPlan,
    armed,
    classify_io_error,
    failpoint,
    failpoint_write,
    parse_plan,
    with_io_retries,
)
from repro.faultinject import registry as registry_mod
from repro.faultinject.durable import TMP_GLOB
from repro.service.submit import write_service_manifest
from repro.slurm.manager import build_manager
from repro.snapshot.state import write_snapshot
from repro.workload.trinity import TrinityWorkloadGenerator


@pytest.fixture(autouse=True)
def _disarmed():
    saved = registry_mod._PLAN
    registry_mod.disarm()
    yield
    registry_mod._PLAN = saved


class TestPlanLanguage:
    def test_parse_single_clause_defaults(self):
        (spec,) = parse_plan("store.result.write=eio")
        assert spec == FailpointSpec("store.result.write", "eio", nth=1, arg=0)

    def test_parse_multiple_clauses_with_nth_and_arg(self):
        specs = parse_plan(
            "snapshot.write=truncate:2:17; columnar.append.write=kill:3"
        )
        assert specs[0] == FailpointSpec("snapshot.write", "truncate", 2, 17)
        assert specs[1] == FailpointSpec("columnar.append.write", "kill", 3, 0)

    def test_encode_round_trips(self):
        raw = "snapshot.write=truncate:2:17"
        assert parse_plan(raw)[0].encode() == raw
        plan = FaultPlan(parse_plan("store.jsonl.write=eio:4"))
        assert parse_plan(plan.encode()) == parse_plan("store.jsonl.write=eio:4")

    @pytest.mark.parametrize("raw", [
        "nope.unknown=eio",            # unregistered name
        "store.result.write=explode",  # unknown action
        "store.result.write",          # no action at all
        "store.result.write=eio:0",    # nth < 1
        "store.result.write=eio:x",    # non-integer nth
        "",                            # empty plan
    ])
    def test_bad_plans_rejected(self, raw):
        with pytest.raises(ConfigError):
            parse_plan(raw)

    def test_catalog_names_are_what_the_code_calls(self):
        # Every registered site appears in the source of the module it
        # claims to guard — a renamed hook must update the catalog.
        import inspect

        import repro.archive.columnar
        import repro.archive.ingest
        import repro.archive.replay
        import repro.campaign.lease
        import repro.campaign.queue
        import repro.campaign.store
        import repro.diagnostics.bundle
        import repro.observability.events
        import repro.service.server
        import repro.service.submit
        import repro.snapshot.state

        sources = "".join(
            inspect.getsource(mod)
            for mod in (
                repro.campaign.store,
                repro.campaign.queue,
                repro.campaign.lease,
                repro.snapshot.state,
                repro.archive.columnar,
                repro.archive.ingest,
                repro.archive.replay,
                repro.diagnostics.bundle,
                repro.observability.events,
                repro.service.server,
                repro.service.submit,
            )
        )
        # write_atomic(..., failpoint="<base>") hits <base>.write and
        # <base>.rename; every such base must register both.
        bases = set(re.findall(r'failpoint="([a-z.]+)"', sources))
        for base in bases:
            assert f"{base}.write" in CATALOG, base
            assert f"{base}.rename" in CATALOG, base
        for name in CATALOG:
            base, _, hook = name.rpartition(".")
            assert f'"{name}"' in sources or (
                hook in ("write", "rename") and base in bases
            ), name

    def test_from_env(self):
        plan = FaultPlan.from_env({"REPRO_FAILPOINTS": "bundle.write=enospc"})
        assert plan is not None and "bundle.write" in plan.specs
        assert FaultPlan.from_env({}) is None


class TestFiring:
    def test_disarmed_is_a_no_op(self):
        failpoint("store.result.write")  # must not raise

    def test_nth_hit_fires_once(self):
        plan = FaultPlan(parse_plan("bundle.write=eio:3"))
        with armed(plan):
            failpoint("bundle.write")
            failpoint("bundle.write")
            with pytest.raises(OSError) as excinfo:
                failpoint("bundle.write")
            assert excinfo.value.errno == errno.EIO
            failpoint("bundle.write")  # fired already: silent forever

    def test_enospc_action(self):
        with armed(FaultPlan(parse_plan("bundle.write=enospc"))):
            with pytest.raises(OSError) as excinfo:
                failpoint("bundle.write")
        assert excinfo.value.errno == errno.ENOSPC

    def test_unplanned_site_never_fires(self):
        with armed(FaultPlan(parse_plan("bundle.write=eio"))):
            failpoint("snapshot.write")

    def test_stamp_dir_makes_firing_once_only_across_plans(self, tmp_path):
        # Two plans with the same stamp dir model a killed process and
        # its replacement: only the first may fire.
        first = FaultPlan(parse_plan("bundle.write=eio"), stamp_dir=tmp_path)
        second = FaultPlan(parse_plan("bundle.write=eio"), stamp_dir=tmp_path)
        with armed(first):
            with pytest.raises(OSError):
                failpoint("bundle.write")
        assert (tmp_path / "bundle.write.fired").is_file()
        with armed(second):
            failpoint("bundle.write")  # stamp already claimed

    def test_failpoint_write_passthrough_and_eio(self, tmp_path):
        path = tmp_path / "out.bin"
        with path.open("wb") as handle:
            failpoint_write("store.jsonl.write", handle, b"payload")
        assert path.read_bytes() == b"payload"
        with armed(FaultPlan(parse_plan("store.jsonl.write=eio"))):
            with path.open("wb") as handle:
                with pytest.raises(OSError):
                    failpoint_write("store.jsonl.write", handle, b"payload")

    def test_kill_exit_code_is_distinctive(self):
        assert EXIT_FAILPOINT_KILL == 86  # documented in the CLI table


class TestRetries:
    def test_classification(self):
        assert classify_io_error(OSError(errno.EIO, "")) == "transient"
        assert classify_io_error(OSError(errno.ENOSPC, "")) == "transient"
        assert classify_io_error(OSError(errno.EACCES, "")) == "permanent"
        assert classify_io_error(OSError(errno.ENOENT, "")) == "permanent"

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        delays: list[float] = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError(errno.EIO, "injected")
            return "ok"

        assert with_io_retries(flaky, sleep=delays.append) == "ok"
        assert calls["n"] == 3
        assert len(delays) == 2 and delays[0] < delays[1]

    def test_permanent_error_raises_immediately(self):
        calls = {"n": 0}

        def denied():
            calls["n"] += 1
            raise OSError(errno.EACCES, "no")

        with pytest.raises(OSError):
            with_io_retries(denied, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_budget_exhaustion_reraises(self):
        def always():
            raise OSError(errno.ENOSPC, "full")

        with pytest.raises(OSError) as excinfo:
            with_io_retries(always, attempts=3, sleep=lambda s: None)
        assert excinfo.value.errno == errno.ENOSPC

    def test_on_retry_observes_each_attempt(self):
        seen = []

        def flaky():
            if len(seen) < 1:
                raise OSError(errno.EIO, "once")
            return 1

        with_io_retries(
            flaky,
            sleep=lambda s: None,
            on_retry=lambda exc, attempt, delay: seen.append(attempt),
        )
        assert seen == [1]


def _record(root):
    params = {"kind": "t", "value": 1}
    run_id = run_id_of(params)
    store = ResultStore(root)
    store.save(run_id, {"run_id": run_id, "label": "t", "params": params,
                        "result": {"x": 1}})
    return store, run_id


def _write_result(root):
    store, run_id = _record(root)
    return store.path_for(run_id)


def _write_store_manifest(root):
    return ResultStore(root).write_manifest({"spec": {"jobs": 1}})


def _write_jsonl(root):
    store, _ = _record(root)
    store.export_jsonl(root / "results.jsonl")
    return root / "results.jsonl"


def _write_snapshot(root):
    trace = TrinityWorkloadGenerator().generate(
        20, 8, np.random.default_rng(3)
    )
    manager = build_manager(trace, num_nodes=8, strategy="easy_backfill")
    return write_snapshot(manager, root / "run.snap", spec_hash="s")


def _write_columnar_manifest(root):
    batch = np.zeros(4, dtype=JOBS_DTYPE)
    batch["job_id"] = np.arange(4)
    ColumnarStore(root).append("jobs", batch)
    return root / "manifest.json"


def _ingest(root):
    synth_swf(root / "t.swf", jobs=60, nodes=16, seed=3)
    ingest_swf(root / "t.swf", root / "archive", window_jobs=30)
    return root / "archive"


def _write_archive_window(root):
    return _ingest(root) / "windows" / "window-00000.col"


def _write_archive_manifest(root):
    return _ingest(root) / "manifest.json"


def _write_queue_item(root):
    WorkQueue(root).write_item(QueueItem(
        run_id="0123456789abcdef", seq=0, label="t", params={"kind": "t"},
    ))
    return root / ".queue" / "items" / "0123456789abcdef.json"


def _write_service_manifest(root):
    return write_service_manifest(root, {"host": "127.0.0.1", "port": 1})


def _write_stitched(root):
    outcome = replay_archive(_ingest(root), root / "store", num_nodes=16)
    assert outcome.ok
    return root / "store" / "stitched.json"


#: Every named write_atomic site -> a writer returning the file it wrote.
ATOMIC_SITES = {
    "store.result": _write_result,
    "store.manifest": _write_store_manifest,
    "store.jsonl": _write_jsonl,
    "snapshot": _write_snapshot,
    "columnar.manifest": _write_columnar_manifest,
    "archive.window": _write_archive_window,
    "archive.manifest": _write_archive_manifest,
    "queue.item": _write_queue_item,
    "service.manifest": _write_service_manifest,
    "stitched": _write_stitched,
}


class TestInstrumentedPaths:
    """Injected faults against the real write paths."""

    def test_store_save_survives_transient_eio(self, tmp_path, monkeypatch):
        import repro.faultinject.retry as retry_mod

        monkeypatch.setattr(retry_mod.time, "sleep", lambda s: None)
        store = ResultStore(tmp_path)
        params = {"kind": "t", "value": 1}
        run_id = run_id_of(params)
        record = {"run_id": run_id, "label": "t", "params": params,
                  "result": {"x": 1}}
        with armed(FaultPlan(parse_plan("store.result.write=eio"))):
            path = store.save(run_id, record)
        assert json.loads(path.read_text())["result"] == {"x": 1}
        # No temp residue from the failed first attempt.
        assert not list(tmp_path.glob(".*.tmp"))

    def test_columnar_append_survives_transient_enospc(
        self, tmp_path, monkeypatch
    ):
        import repro.faultinject.retry as retry_mod

        monkeypatch.setattr(retry_mod.time, "sleep", lambda s: None)
        store = ColumnarStore(tmp_path)
        batch = np.zeros(4, dtype=JOBS_DTYPE)
        batch["job_id"] = np.arange(4)
        with armed(FaultPlan(parse_plan("columnar.append.write=enospc"))):
            assert store.append("jobs", batch) == 0
        got = np.asarray(ColumnarStore(tmp_path).read("jobs"))
        assert got.tobytes() == batch.tobytes()

    @pytest.mark.parametrize("base", sorted(ATOMIC_SITES))
    def test_atomic_write_retries_transient_eio(
        self, base, tmp_path, monkeypatch
    ):
        import repro.faultinject.retry as retry_mod

        monkeypatch.setattr(retry_mod.time, "sleep", lambda s: None)
        clean_root, armed_root = tmp_path / "clean", tmp_path / "armed"
        clean_root.mkdir()
        armed_root.mkdir()
        clean = ATOMIC_SITES[base](clean_root)
        plan = FaultPlan(parse_plan(f"{base}.write=eio"))
        with armed(plan):
            retried = ATOMIC_SITES[base](armed_root)
        assert plan.hits[f"{base}.write"] == 1  # the fault fired
        assert retried.read_bytes() == clean.read_bytes()
        assert not list(armed_root.rglob(TMP_GLOB))

    def test_bundle_write_propagates_eio(self, tmp_path):
        # Bundles have no retry wrapper: a bad disk surfaces to the
        # caller (the quarantine path tolerates a missing bundle).
        with armed(FaultPlan(parse_plan("bundle.write=eio"))):
            with pytest.raises(OSError):
                write_bundle({"format": "test", "x": 1}, tmp_path / "b.json")


class TestOneDurableWritePath:
    """``write_atomic`` is the only temp-file + rename protocol."""

    #: Functions allowed to call ``tempfile.mkstemp`` or ``os.replace``
    #: themselves: the protocol's own, and the two service commits that
    #: land their temp file with an exclusive ``os.link``.
    ALLOWED = {
        "faultinject/durable.py": {"write_atomic"},
        "service/submit.py": {"_bind_key", "_write_record"},
    }
    BANNED = {("tempfile", "mkstemp"), ("os", "replace")}

    def _uses(self, node, stack=()):
        """(line, enclosing function names) of each banned call."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._uses(child, stack + (child.name,))
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and (child.value.id, child.attr) in self.BANNED
            ) or (
                isinstance(child, ast.ImportFrom)
                and any(
                    (child.module, alias.name) in self.BANNED
                    for alias in child.names
                )
            ):
                yield child.lineno, stack
            yield from self._uses(child, stack)

    def test_no_hand_copied_atomic_writes(self):
        src = Path(repro.__file__).parent
        stray = []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            allowed = self.ALLOWED.get(rel, set())
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for lineno, stack in self._uses(tree):
                if not allowed & set(stack):
                    stray.append(f"{rel}:{lineno}")
        assert not stray, f"hand-copied atomic writes: {stray}"
