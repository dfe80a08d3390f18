"""Persistent run records: the durable layer over the in-process telemetry.

A :class:`RunWindow` brackets one unit of work — a ``Trainer.fit`` or a
``run_grid`` invocation — and captures what it measured into one JSON-safe
dict: wall/CPU time, a span roll-up (collected live through
:func:`repro.obs.trace.add_collector`, so no sink file is required), the
git SHA and any :func:`annotate` context (spec training/content hashes).
Producers append their own sections via :meth:`RunWindow.build` — the
run's own stats (``history``, whose ``compile`` entry holds the trainer's
compile stats; a grid's ``summary`` and ``specs``) and its ``profile`` —
so every measurement in a record describes that run, not the process.
Records persist through :func:`save_record` into the content-addressed
:class:`~repro.experiments.store.ArtifactStore` (``runs/`` section, id =
sha256 of the canonical JSON).

Activation for ``Trainer.fit`` is environment-driven — ``REPRO_RUNS=1``
writes into the default store, ``REPRO_RUNS=<dir>`` into that root — so
training code pays one ``os.environ`` lookup per fit when off.  ``run_grid``
always records (it already owns a store).

``python -m repro.obs runs list|show|diff`` renders and compares records;
:func:`diff_records` computes the per-metric and per-op-kind deltas.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import trace as _trace

__all__ = [
    "RunWindow",
    "SpanRollup",
    "annotate",
    "annotations",
    "enabled",
    "records_root",
    "git_sha",
    "sanitize",
    "save_record",
    "load_record",
    "list_records",
    "open_store",
    "flatten_metrics",
    "op_totals",
    "diff_records",
    "metric_direction",
    "regressions",
]

RECORDS_ENV = "REPRO_RUNS"
RECORD_VERSION = 1

#: metric-name fragments whose growth is a regression (for diff --warn).
LOWER_IS_BETTER = (
    "latency", "_ms", "seconds", "waste", "errors", "shed", "deadline",
    "evictions", "misses", "fallback", "eager", "loss",
)
#: metric-name fragments whose shrinkage is a regression.
HIGHER_IS_BETTER = (
    "accuracy", "per_sec", "speedup", "hits", "throughput", "compiled",
)


def enabled() -> bool:
    """Whether environment-driven recording (``REPRO_RUNS``) is on."""
    return bool(os.environ.get(RECORDS_ENV))


def records_root() -> Optional[str]:
    """The store root named by ``REPRO_RUNS`` (``None`` for 1/true/on)."""
    value = os.environ.get(RECORDS_ENV, "")
    if value.lower() in ("", "1", "true", "yes", "on"):
        return None
    return value


def git_sha(cwd: Optional[str] = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, cwd=cwd, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# --------------------------------------------------------------------------- #
# annotation context (spec hashes etc., carried thread-locally)
# --------------------------------------------------------------------------- #
_local = threading.local()


def annotations() -> Dict[str, Any]:
    """The annotation fields currently in scope on this thread."""
    return dict(getattr(_local, "annotations", None) or {})


class annotate:
    """Context manager layering fields onto the thread's annotation scope.

    ``with annotate(training_hash=spec.training_hash): trainer.fit(...)``
    makes the hash visible to any :class:`RunWindow` closed inside the
    block (the experiment runner wraps training so Trainer-level records
    carry the spec identity without the trainer knowing about specs).
    """

    def __init__(self, **fields: Any) -> None:
        self._fields = {k: v for k, v in fields.items() if v is not None}
        self._previous: Optional[Dict[str, Any]] = None

    def __enter__(self) -> "annotate":
        self._previous = getattr(_local, "annotations", None)
        merged = dict(self._previous or {})
        merged.update(self._fields)
        _local.annotations = merged
        return self

    def __exit__(self, *exc_info) -> bool:
        _local.annotations = self._previous
        return False


# --------------------------------------------------------------------------- #
# span roll-up collector
# --------------------------------------------------------------------------- #
class SpanRollup:
    """Aggregate span events by name: ``{count, total_ms, max_ms}``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_name: Dict[str, Dict[str, float]] = {}

    def __call__(self, event: Dict[str, Any]) -> None:
        if event.get("event") != "span":
            return
        duration = float(event.get("dur_ms", 0.0))
        with self._lock:
            stat = self._by_name.get(event["name"])
            if stat is None:
                stat = self._by_name[event["name"]] = {
                    "count": 0, "total_ms": 0.0, "max_ms": 0.0,
                }
            stat["count"] += 1
            stat["total_ms"] += duration
            if duration > stat["max_ms"]:
                stat["max_ms"] = duration

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {name: dict(stat) for name, stat in self._by_name.items()}


# --------------------------------------------------------------------------- #
# the run window
# --------------------------------------------------------------------------- #
# RunWindows auto-enable tracing (sinkless) when it is off so the span
# roll-up sees events; a refcount keeps nested/overlapping windows from
# disabling it under each other, and an externally enabled trace is never
# touched.
_auto_lock = threading.Lock()
_auto_enabled = 0


def _acquire_trace() -> bool:
    global _auto_enabled
    with _auto_lock:
        if _auto_enabled > 0:
            _auto_enabled += 1
            return True
        if _trace.enabled():
            return False
        _trace.enable()
        _auto_enabled = 1
        return True


def _release_trace(owned: bool) -> None:
    global _auto_enabled
    if not owned:
        return
    with _auto_lock:
        _auto_enabled -= 1
        if _auto_enabled == 0:
            _trace.disable()


class RunWindow:
    """Measurement bracket producing one RunRecord payload.

    Usable as a context manager or via explicit ``open()`` / ``close()``.
    """

    def __init__(self, kind: str, label: Optional[str] = None) -> None:
        self.kind = kind
        self.label = label or kind
        self.rollup = SpanRollup()
        self._owned_trace = False
        self._open = False
        self._wall_start = 0.0
        self._cpu_start = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.created = 0.0

    def open(self) -> "RunWindow":
        if self._open:
            return self
        self._open = True
        self.created = time.time()
        self._owned_trace = _acquire_trace()
        _trace.add_collector(self.rollup)
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        return self

    def close(self) -> None:
        if not self._open:
            return
        self._open = False
        self.wall_seconds = time.perf_counter() - self._wall_start
        self.cpu_seconds = time.process_time() - self._cpu_start
        _trace.remove_collector(self.rollup)
        _release_trace(self._owned_trace)
        self._owned_trace = False

    def __enter__(self) -> "RunWindow":
        return self.open()

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def build(self, **sections: Any) -> Dict[str, Any]:
        """The RunRecord dict: the window's measurements plus ``sections``."""
        if self._open:
            self.close()
        record: Dict[str, Any] = {
            "version": RECORD_VERSION,
            "kind": self.kind,
            "label": self.label,
            "created": self.created,
            "git_sha": git_sha(),
            "pid": os.getpid(),
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "context": annotations(),
            "spans": self.rollup.snapshot(),
        }
        for key, value in sections.items():
            if value is not None:
                record[key] = value
        return record


# --------------------------------------------------------------------------- #
# persistence (lazy ArtifactStore import: experiments imports repro.obs)
# --------------------------------------------------------------------------- #
def open_store(root: Optional[str] = None):
    """An :class:`ArtifactStore` at ``root`` / ``$REPRO_RUNS`` / the default."""
    from ..experiments.store import ArtifactStore

    return ArtifactStore(root if root is not None else records_root())


def _json_default(value: Any):
    # numpy arrays and scalars; anything else becomes a string.
    if hasattr(value, "tolist"):
        try:
            return value.tolist()
        except (TypeError, ValueError):
            pass
    item = getattr(value, "item", None)
    if callable(item):
        try:
            unwrapped = item()
            if isinstance(unwrapped, (bool, int, float, str)):
                return unwrapped
        except (TypeError, ValueError):
            pass
    if isinstance(value, (set, tuple)):
        return list(value)
    return str(value)


def sanitize(record: Dict[str, Any]) -> Dict[str, Any]:
    """A pure-JSON deep copy of ``record`` (numpy scalars coerced)."""
    return json.loads(json.dumps(record, default=_json_default))


def save_record(record: Dict[str, Any], store=None) -> str:
    """Persist one RunRecord; returns its content-addressed run id."""
    if store is None:
        store = open_store()
    return store.save_run_record(sanitize(record))


def load_record(run_ref: str, store=None) -> Optional[Dict[str, Any]]:
    """Load a record by (a prefix of) its run id."""
    if store is None:
        store = open_store()
    run_id = store.resolve_run_id(run_ref)
    if run_id is None:
        return None
    return store.load_run_record(run_id)


def list_records(store=None) -> List[Dict[str, Any]]:
    """Every stored record (oldest first), each carrying its ``run_id``."""
    if store is None:
        store = open_store()
    return store.list_run_records()


# --------------------------------------------------------------------------- #
# diffing
# --------------------------------------------------------------------------- #
#: record keys that are identity/bookkeeping, not comparable measurements.
_NON_METRIC_KEYS = frozenset(
    ("version", "kind", "label", "created", "git_sha", "pid", "run_id",
     "context", "spans", "profile")
)


def flatten_metrics(record: Dict[str, Any]) -> Dict[str, float]:
    """Numeric leaves of a record as ``dotted.path -> value``.

    Lists of numbers (per-epoch history series) contribute their final
    element under ``<path>.final`` — the value a "final metrics" diff
    wants.  Bookkeeping keys and the per-signature profile (handled by
    :func:`op_totals`) are skipped.
    """
    out: Dict[str, float] = {}

    def walk(node: Any, path: str) -> None:
        if isinstance(node, bool):
            return
        if isinstance(node, (int, float)):
            out[path] = float(node)
        elif isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else str(key))
        elif isinstance(node, list) and node:
            last = node[-1]
            if isinstance(last, (int, float)) and not isinstance(last, bool):
                out[f"{path}.final"] = float(last)

    for key, value in record.items():
        if key in _NON_METRIC_KEYS:
            continue
        walk(value, key)
    return out


def op_totals(record: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Per-op-kind ``{calls, total_ms}`` aggregated over the profile section.

    Walks any nesting: producers emit ``{signature: {"ops": ...}}`` (trainer,
    grid), and records from older versions may nest one more level
    (``{model: {signature: {"ops": ...}}}``).
    """
    totals: Dict[str, Dict[str, float]] = {}

    def visit(node: Any) -> None:
        if not isinstance(node, dict):
            return
        ops = node.get("ops")
        if isinstance(ops, dict):
            for kind, stat in ops.items():
                if not isinstance(stat, dict):
                    continue
                target = totals.setdefault(kind, {"calls": 0.0, "total_ms": 0.0})
                target["calls"] += float(stat.get("calls", 0))
                target["total_ms"] += float(stat.get("total_ms", 0.0))
            return
        for value in node.values():
            visit(value)

    visit(record.get("profile") or {})
    return totals


def metric_direction(name: str) -> Optional[str]:
    """``"lower"`` / ``"higher"`` / ``None`` from the metric's name."""
    lowered = name.lower()
    # The most specific fragment wins: scan lower-is-better first since
    # latency/error style names are the ones worth warning about.
    for fragment in LOWER_IS_BETTER:
        if fragment in lowered:
            return "lower"
    for fragment in HIGHER_IS_BETTER:
        if fragment in lowered:
            return "higher"
    return None


def diff_records(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Per-metric and per-op-kind deltas from record ``a`` to record ``b``."""
    metrics_a = flatten_metrics(a)
    metrics_b = flatten_metrics(b)
    metrics: List[Dict[str, Any]] = []
    for key in sorted(set(metrics_a) | set(metrics_b)):
        va, vb = metrics_a.get(key), metrics_b.get(key)
        entry: Dict[str, Any] = {"metric": key, "a": va, "b": vb}
        if va is not None and vb is not None:
            entry["delta"] = vb - va
            if va != 0:
                entry["pct"] = 100.0 * (vb - va) / abs(va)
        metrics.append(entry)
    ops_a = op_totals(a)
    ops_b = op_totals(b)
    ops: List[Dict[str, Any]] = []
    for kind in sorted(set(ops_a) | set(ops_b)):
        sa = ops_a.get(kind, {"calls": 0.0, "total_ms": 0.0})
        sb = ops_b.get(kind, {"calls": 0.0, "total_ms": 0.0})
        entry = {
            "op": kind,
            "calls_a": sa["calls"],
            "calls_b": sb["calls"],
            "total_ms_a": sa["total_ms"],
            "total_ms_b": sb["total_ms"],
            "delta_ms": sb["total_ms"] - sa["total_ms"],
        }
        if sa["total_ms"]:
            entry["pct"] = 100.0 * entry["delta_ms"] / sa["total_ms"]
        ops.append(entry)
    return {"metrics": metrics, "ops": ops}


def regressions(
    diff: Dict[str, Any], threshold: float = 0.2
) -> List[str]:
    """Direction-aware regression lines from a :func:`diff_records` result."""
    problems: List[str] = []
    for entry in diff["metrics"]:
        va, vb = entry.get("a"), entry.get("b")
        if va is None or vb is None or va == 0:
            continue
        direction = metric_direction(entry["metric"])
        if direction is None:
            continue
        change = (vb - va) / abs(va)
        if direction == "lower" and change > threshold:
            problems.append(
                f"{entry['metric']} rose {change * 100:.1f}% ({va:.4g} -> {vb:.4g})"
            )
        elif direction == "higher" and change < -threshold:
            problems.append(
                f"{entry['metric']} fell {-change * 100:.1f}% ({va:.4g} -> {vb:.4g})"
            )
    return problems
