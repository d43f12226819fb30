"""Outside-in layer tracer: wraps public entry points, keeps spans in memory.

The tracer replaces a layer's public functions with timing wrappers for
the duration of a traced run and restores the originals afterwards.
Nothing under ``src/`` knows it exists.  Each wrapper records one span:
its duration, and how much of that interval nested spans covered, so a
layer's *self time* is its span time minus its children's.  Time inside
an operation that no layer span covers is the ``unattributed`` bucket.

Spans nest per thread.  The HTTP service hands ``SubmissionRegistry.submit``
to an executor thread while the client thread blocks in its round trip,
so a span that closes with no parent on its own thread is charged as a
child of the span open on the thread that owns the tracer.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from typing import Callable

_clock = time.perf_counter_ns
_MISSING = object()


class Tracer:
    """Self-time accounting over wrapped callables.

    Spans are keyed ``"<layer>:<entry point>"``: ``self_ns[key]`` is the
    entry point's self time and ``calls[key]`` its span count;
    ``counts[name]`` holds the work counters that hooks add.
    """

    def __init__(self) -> None:
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._cross = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._in_op = False
        self._owner_stack: list[list[int]] = []

    # -- span bookkeeping ----------------------------------------------
    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._owner:
                self._owner_stack = stack
        return stack

    def op(self, key: str, fn: Callable):
        """Run one whole operation as a root span named *key*.

        Layer spans are recorded only inside an operation, so set-up
        work between operations stays out of the traced total.
        """
        self._stack()
        self._in_op = True
        try:
            return self.span(key, fn)
        finally:
            self._in_op = False

    def span(self, key: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span named *key*."""
        stack = self._stack()
        frame = [0]
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = _clock() - start
            stack.pop()
            self.self_ns[key] += duration - frame[0]
            self.calls[key] += 1
            if stack:
                stack[-1][0] += duration
            elif threading.get_ident() != self._owner:
                with self._cross:
                    if self._owner_stack:  # else the op already ended
                        self._owner_stack[-1][0] += duration

    # -- wrapping --------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        count: Callable[..., None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced version until :meth:`restore`.

        *count*, when given, is called with the tracer's ``counts`` and
        the call's arguments before the span opens, and *after* with
        ``counts``, the return value and the arguments once it closes,
        so work counters are taken where the work happens.
        """
        original = getattr(owner, attr)
        key = f"{layer}:{getattr(owner, '__name__', owner)}.{attr}"
        span = self.span
        counts = self.counts
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._in_op:
                return original(*args, **kwargs)
            if count is not None:
                count(counts, *args, **kwargs)
            result = span(key, original, *args, **kwargs)
            if after is not None:
                after(counts, result, *args, **kwargs)
            return result

        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def wrap_function(self, original: Callable, layer: str, modules) -> None:
        """Trace a module-level function under every name bound to it.

        Callers that did ``from module import name`` hold their own
        binding, so each module attribute that *is* the function object
        is replaced.
        """
        key = f"{layer}:{original.__name__}"
        span = self.span
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._in_op:
                return original(*args, **kwargs)
            return span(key, original, *args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, traced)

    def counters(self) -> "Tracer":
        """A copy of the span counts and work counters taken so far."""
        copy = Tracer()
        copy.calls = Counter(self.calls)
        copy.counts = Counter(self.counts)
        return copy

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)  # the wrapper shadowed an inherited one
            else:
                setattr(owner, attr, original)


def layer_total(counter: Counter, layer: str) -> int:
    """Sum of a ``calls`` or ``self_ns`` counter over one layer's keys."""
    prefix = f"{layer}:"
    return sum(n for key, n in counter.items() if key.startswith(prefix))
