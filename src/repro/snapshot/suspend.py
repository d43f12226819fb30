"""Process-wide cooperative suspension flag and signal plumbing.

One module-level counter, set from SIGTERM/SIGINT handlers (or
programmatically via :func:`request_suspend`), polled by the engine's
run loop at every event boundary.  The same handler serves both the
campaign parent *and* its pool workers: under the default ``fork``
start method the workers inherit it at pool creation, and the worker
entry re-installs it at each run start, so a SIGTERM delivered to any
process in the campaign suspends that process's simulation at its
next event.

A third signal escalates to :class:`KeyboardInterrupt` — the escape
hatch when a graceful suspension is itself stuck.
"""

from __future__ import annotations

import signal
import threading

_requests = 0

#: Signals received so far in this process; never reset, so a caller
#: that clears the flag can still tell whether a real SIGTERM/SIGINT
#: arrived in the meantime (see :func:`signals_received`).
_signals = 0


def request_suspend(signum: int | None = None, frame: object = None) -> None:
    """Record a suspend request (signal-handler compatible signature).

    The first two requests are graceful; a third raises
    :class:`KeyboardInterrupt` so a wedged shutdown can still be
    interrupted from the keyboard.
    """
    global _requests, _signals
    if signum is not None:
        _signals += 1
    _requests += 1
    if _requests > 2:
        raise KeyboardInterrupt


def suspend_requested() -> bool:
    """True once a suspend has been requested in this process."""
    return _requests > 0


def signals_received() -> int:
    """How many SIGTERM/SIGINT requests this process has received."""
    return _signals


def reset() -> None:
    """Clear the flag (a worker that suspended one run stays useful)."""
    global _requests
    _requests = 0


def install_signal_handlers() -> dict[int, object] | None:
    """Route SIGTERM/SIGINT to :func:`request_suspend`.

    Returns the previous handlers for :func:`restore_signal_handlers`,
    or ``None`` when not called from the main thread (Python only
    allows signal installation there; callers simply proceed without
    graceful-signal support in that case).
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    previous: dict[int, object] = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, request_suspend)
    return previous


def restore_signal_handlers(previous: dict[int, object] | None) -> None:
    """Undo :func:`install_signal_handlers`."""
    if not previous:
        return
    for sig, handler in previous.items():
        signal.signal(sig, handler)  # type: ignore[arg-type]
