"""Deterministic fault injection for durable-state boundaries.

Kept deliberately light: importing this package pulls in only the
registry, retry and durable-write helpers (the modules the
instrumented write paths need on their hot path).  The heavier
tools — the :mod:`~repro.faultinject.fsck` invariant checker and the
:mod:`~repro.faultinject.chaos` crash sweep — are imported lazily by
the CLI.
"""

from repro.faultinject.registry import (
    CATALOG,
    ENV_PLAN,
    ENV_STAMP,
    EXIT_FAILPOINT_KILL,
    FailpointSpec,
    FaultPlan,
    armed,
    arm,
    disarm,
    failpoint,
    failpoint_write,
    parse_plan,
)
from repro.faultinject.durable import write_atomic
from repro.faultinject.retry import (
    TRANSIENT_ERRNOS,
    backoff_delay,
    classify_io_error,
    with_io_retries,
)

__all__ = [
    "CATALOG",
    "ENV_PLAN",
    "ENV_STAMP",
    "EXIT_FAILPOINT_KILL",
    "FailpointSpec",
    "FaultPlan",
    "TRANSIENT_ERRNOS",
    "arm",
    "armed",
    "backoff_delay",
    "classify_io_error",
    "disarm",
    "failpoint",
    "failpoint_write",
    "parse_plan",
    "with_io_retries",
    "write_atomic",
]
