"""Span-based tracing with thread-local stacks and explicit carriers.

``with span("train.epoch"):`` opens a span whose parent is the innermost
span already open *on this thread* (or a remote parent attached via
:func:`attach`).  Each span emits one JSONL event on exit — ``{"event":
"span", "name", "trace_id", "span_id", "parent_id", "ts", "dur_ms",
"thread", "pid", "attrs"}`` — to the configured sink (a callable, or an
append-mode JSONL file).

**Disabled cost is near zero**: :func:`span` returns one shared no-op
context manager without allocating, so instrumentation points in hot loops
pay a single flag check.  Pass ``attrs`` as a pre-built dict (not kwargs)
so the disabled call allocates nothing.

**Propagation** is explicit: :func:`carrier` captures the current position
(``trace_id``/``span_id`` plus the sink path, so child *processes* can
re-open it), and ``with attach(carrier):`` re-parents spans opened on
another thread or in a ``run_grid`` worker process onto it.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Callable, Dict, Optional

__all__ = [
    "span",
    "enable",
    "disable",
    "enabled",
    "carrier",
    "attach",
    "emit",
    "add_collector",
    "remove_collector",
]


class _State:
    __slots__ = ("enabled", "sink", "path", "_file", "lock", "collectors")

    def __init__(self) -> None:
        self.enabled = False
        self.sink: Optional[Callable[[Dict[str, Any]], None]] = None
        self.path: Optional[str] = None
        self._file = None
        self.lock = threading.Lock()
        #: in-process observers fed every event in addition to the sink
        #: (e.g. the RunRecord span roll-up).  A tuple so iteration in
        #: :func:`emit` races safely against add/remove.
        self.collectors: tuple = ()


_state = _State()
_local = threading.local()


def _stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


def enabled() -> bool:
    return _state.enabled


def enable(
    path: Optional[str] = None, sink: Optional[Callable[[Dict[str, Any]], None]] = None
) -> None:
    """Turn tracing on, emitting to ``sink`` or appending JSONL to ``path``.

    With neither, events are dropped (spans still nest and carriers still
    propagate — useful for tests that only assert structure via a sink).
    Re-enabling with the same path is idempotent (child processes attach
    to the parent's file).
    """
    with _state.lock:
        if _state.enabled and path is not None and path == _state.path:
            return
        if _state._file is not None:
            _state._file.close()
            _state._file = None
        _state.path = path
        if path is not None:
            _state._file = open(path, "a", buffering=1, encoding="utf-8")
        _state.sink = sink
        _state.enabled = True


def disable() -> None:
    with _state.lock:
        _state.enabled = False
        _state.sink = None
        _state.path = None
        if _state._file is not None:
            _state._file.close()
            _state._file = None


def add_collector(fn: Callable[[Dict[str, Any]], None]) -> None:
    """Register an in-process event observer (fed alongside the sink)."""
    with _state.lock:
        _state.collectors = _state.collectors + (fn,)


def remove_collector(fn: Callable[[Dict[str, Any]], None]) -> None:
    with _state.lock:
        _state.collectors = tuple(c for c in _state.collectors if c is not fn)


def emit(event: Dict[str, Any]) -> None:
    """Write one event dict to the active sink (no-op when disabled)."""
    if not _state.enabled:
        return
    for collector in _state.collectors:
        collector(event)
    sink = _state.sink
    if sink is not None:
        sink(event)
        return
    with _state.lock:
        if _state._file is not None:
            _state._file.write(json.dumps(event) + "\n")


class _NoopSpan:
    """The shared disabled-path span: allocation-free enter/exit."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def set(self, key, value) -> None:  # matches _Span.set
        pass


NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "trace_id", "span_id", "parent_id", "_start")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]]) -> None:
        self.name = name
        self.attrs = attrs
        self.trace_id = None
        self.span_id = _new_id()
        self.parent_id = None
        self._start = 0.0

    def set(self, key: str, value) -> None:
        """Attach one attribute after the span has opened."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def __enter__(self) -> "_Span":
        stack = _stack()
        if stack:
            parent = stack[-1]
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            remote = getattr(_local, "remote", None)
            if remote is not None:
                self.trace_id, self.parent_id = remote
            else:
                self.trace_id = _new_id()
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        event = {
            "event": "span",
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts": time.time(),
            "dur_ms": duration * 1e3,
            "thread": threading.current_thread().name,
            "pid": os.getpid(),
        }
        if self.attrs:
            event["attrs"] = self.attrs
        if exc_type is not None:
            event["error"] = exc_type.__name__
        emit(event)
        return False


def span(name: str, attrs: Optional[Dict[str, Any]] = None):
    """A context manager recording one span (the shared no-op when disabled)."""
    if not _state.enabled:
        return NOOP
    return _Span(name, attrs)


def carrier() -> Optional[Dict[str, str]]:
    """The current trace position, for handoff to another thread/process.

    ``None`` when tracing is disabled or no span is open.  Includes the
    sink ``path`` (when file-backed) so a child process can re-open the
    same JSONL file via :func:`attach`.
    """
    if not _state.enabled:
        return None
    stack = getattr(_local, "stack", None)
    if not stack:
        return None
    top = stack[-1]
    out = {"trace_id": top.trace_id, "span_id": top.span_id}
    if _state.path is not None:
        out["path"] = _state.path
    return out


@contextmanager
def attach(remote: Optional[Dict[str, str]]):
    """Adopt a carrier as this thread's span parent for the enclosed block.

    In a worker thread the next :func:`span` parents onto the carrier's
    span; in a ``run_grid`` child process the carrier's ``path`` also
    re-enables tracing onto the parent's JSONL file.
    """
    if not remote:
        yield
        return
    path = remote.get("path")
    if path and not _state.enabled:
        enable(path=path)
    previous = getattr(_local, "remote", None)
    _local.remote = (remote.get("trace_id"), remote.get("span_id"))
    try:
        yield
    finally:
        _local.remote = previous
