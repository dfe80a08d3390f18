"""Observability: span tracing, plan profiler, run records and their CLI.

Every counter lives once, in the stats object of the run that counted it
(``AttackTelemetry``, ``TrainingCompileStats``, ``CompiledStats``,
``SignatureCache.stats()``); this package adds what those cannot carry:

* :mod:`repro.obs.trace` — span-based tracing with thread-local stacks,
  explicit carriers across threads and ``run_grid`` child processes, and a
  pluggable JSONL sink.
* :mod:`repro.obs.profiler` — the opt-in per-op plan-executor profiler
  surfaced by ``CompiledModel.profile()`` / ``CompiledTrainer.profile()``
  and ``Trainer.profile()``.
* :mod:`repro.obs.records` — persistent RunRecords of one fit or grid.

Environment activation (read once, at first import):

* ``REPRO_TRACE=<path>`` — enable tracing, appending JSONL to ``path``;
  at process exit the plan profiles are flushed to the same file.
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
from .profiler import flush
from .trace import attach, carrier, span
from . import records
from .records import RunWindow, annotate

__all__ = [
    "trace",
    "profiler",
    "records",
    "RunWindow",
    "annotate",
    "span",
    "carrier",
    "attach",
    "flush",
]


def _init_from_env() -> None:
    path = os.environ.get("REPRO_TRACE")
    if path and not trace.enabled():
        trace.enable(path=path)
    if os.environ.get("REPRO_PROFILE") and not profiler.enabled():
        profiler.enable()
    if path:
        atexit.register(flush)


_init_from_env()
