"""Unified observability: metrics registry, span tracing, plan profiler.

Three cooperating pieces, all near-free when off:

* :mod:`repro.obs.registry` — the process-wide :class:`MetricsRegistry`
  every telemetry surface (signature-cache counters, attack telemetry,
  training compile stats) reports through, with JSON and
  Prometheus exposition.
* :mod:`repro.obs.trace` — span-based tracing with thread-local stacks,
  explicit carriers across threads and ``run_grid`` child processes, and a
  pluggable JSONL sink.
* :mod:`repro.obs.profiler` — the opt-in per-op plan-executor profiler
  surfaced by ``CompiledModel.profile()`` / ``CompiledTrainer.profile()``
  and ``Trainer.profile()``.

Environment activation (read once, at first import):

* ``REPRO_TRACE=<path>`` — enable tracing, appending JSONL to ``path``;
  at process exit the live plan profiles and a final metrics snapshot are
  flushed to the same file.
* ``REPRO_PROFILE=1`` — enable the plan-executor profiler.
* ``REPRO_RUNS=<store-or-1>`` — persist a RunRecord for every
  ``Trainer.fit`` (see :mod:`repro.obs.records`).

``python -m repro.obs summarize <path>`` renders the per-span and
per-op-kind tables; ``export`` converts a trace to Chrome Trace Event
format; ``runs list|show|diff`` browses the persistent run records.
"""

from __future__ import annotations

import atexit
import os

from . import profiler, trace
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    publish_dict,
)
from .trace import attach, carrier, span, traced
from . import records
from .records import RunWindow, annotate

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "percentile",
    "publish_dict",
    "trace",
    "profiler",
    "records",
    "RunWindow",
    "annotate",
    "span",
    "traced",
    "carrier",
    "attach",
    "flush",
]


def flush() -> None:
    """Flush live plan profiles and a metrics snapshot to the trace sink.

    Called automatically at process exit under ``REPRO_TRACE``, and by
    ``run_grid`` workers after each spec — multiprocessing children exit
    via ``os._exit`` and never run :mod:`atexit` handlers, so anything
    they profiled must be flushed while the work is still in hand.
    Snapshots are cumulative; the events carry ``pid`` (and a per-plan
    key) so the summarize CLI keeps only each process's last flush.
    """
    if not trace.enabled():
        return
    profiler.flush()
    trace.emit(
        {"event": "metrics", "pid": os.getpid(), "snapshot": get_registry().snapshot()}
    )


def _init_from_env() -> None:
    path = os.environ.get("REPRO_TRACE")
    if path and not trace.enabled():
        trace.enable(path=path)
    if os.environ.get("REPRO_PROFILE") and not profiler.enabled():
        profiler.enable()
    if path:
        atexit.register(flush)


_init_from_env()
