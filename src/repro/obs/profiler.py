"""Opt-in per-op profiling for the plan executor.

When :data:`PROFILER` is enabled, every :class:`~repro.compile.executor.
Plan` replay times each bound kernel step and accumulates, per op kind,
``{calls, total seconds, output bytes}`` into a :class:`PlanProfile` keyed
by the plan's input signature.  The executor checks ``PROFILER.enabled``
**once per replay** (not per step), so the disabled path costs a single
attribute read and allocates nothing.

Aggregations (``CompiledModel.profile()``, ``CompiledTrainer.profile()``,
``Trainer.profile()``) merge the profiles of plans sharing a signature via
:func:`merge_profile`.  The profiler keeps every profile it hands out, so
:func:`flush` emits one ``{"event": "profile"}`` JSONL line per profiled
plan to the trace sink, freed plans included, and ``python -m repro.obs
summarize`` rolls them into the per-op-kind table.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from . import trace

__all__ = [
    "PROFILER",
    "PlanProfile",
    "enable",
    "disable",
    "enabled",
    "merge_profile",
    "flush",
]


class _OpStat:
    __slots__ = ("calls", "seconds", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.bytes = 0


class PlanProfile:
    """Per-op-kind accounting for one plan (single-writer, no lock).

    Holds the plan's signature and pool size (as of its first profiled
    replay) by value, so a profile outlives the plan it describes and is
    still flushed after the plan's owner has been dropped.
    """

    __slots__ = ("signature", "pool", "ops")

    def __init__(self, signature: str, allocations: int, nbytes: int) -> None:
        self.signature = signature
        self.pool = {"allocations": allocations, "bytes": nbytes}
        self.ops: Dict[str, _OpStat] = {}

    def record(self, kind: str, seconds: float, nbytes: int) -> None:
        stat = self.ops.get(kind)
        if stat is None:
            stat = self.ops[kind] = _OpStat()
        stat.calls += 1
        stat.seconds += seconds
        stat.bytes += nbytes

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            kind: {
                "calls": stat.calls,
                "total_ms": stat.seconds * 1e3,
                "bytes": stat.bytes,
            }
            for kind, stat in self.ops.items()
        }


class _Profiler:
    """Global on/off switch plus every profile handed out in this process."""

    def __init__(self) -> None:
        self.enabled = False
        self.profiles: List[PlanProfile] = []

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def profile_for(self, plan) -> PlanProfile:
        """A fresh :class:`PlanProfile` for ``plan``, kept for flushing."""
        profile = PlanProfile(plan.signature, *plan.pool.snapshot())
        self.profiles.append(profile)
        return profile


PROFILER = _Profiler()
if hasattr(os, "register_at_fork"):
    # A forked grid worker starts with no profiles: its parent flushes those.
    os.register_at_fork(after_in_child=PROFILER.profiles.clear)


def enabled() -> bool:
    return PROFILER.enabled


def enable() -> None:
    PROFILER.enable()


def disable() -> None:
    PROFILER.disable()


def merge_profile(profiles: Dict[str, dict], profile: Optional[PlanProfile]) -> None:
    """Fold one plan's :class:`PlanProfile` into a per-signature aggregation.

    ``profiles`` maps ``signature -> {"ops": {kind: {calls, total_ms,
    bytes}}, "pool": {"allocations", "bytes"}}``; plans sharing a signature
    (a training plan and its derived attack plan) sum op-wise, and pool
    sizes sum across their arenas.
    """
    if profile is None:
        return
    entry = profiles.setdefault(
        profile.signature, {"ops": {}, "pool": {"allocations": 0, "bytes": 0}}
    )
    for kind, stat in profile.as_dict().items():
        target = entry["ops"].setdefault(
            kind, {"calls": 0, "total_ms": 0.0, "bytes": 0}
        )
        target["calls"] += stat["calls"]
        target["total_ms"] += stat["total_ms"]
        target["bytes"] += stat["bytes"]
    entry["pool"]["allocations"] += profile.pool["allocations"]
    entry["pool"]["bytes"] += profile.pool["bytes"]


def flush() -> int:
    """Emit one ``profile`` trace event per kept profile that recorded an op.

    Called at process exit under ``REPRO_TRACE`` and by ``run_grid``
    workers after each spec (pool workers leave via ``os._exit`` and run
    no :mod:`atexit` handler).  Events are cumulative per profile; ``pid``
    + ``plan`` let the summarize CLI keep only the last emission for each
    when flush runs more than once in a process.  Returns the number of
    events emitted (0 when tracing is disabled — events have nowhere to go
    without a sink).
    """
    if not trace.enabled():
        return 0
    count = 0
    pid = os.getpid()
    for key, profile in enumerate(PROFILER.profiles, start=1):
        if not profile.ops:
            continue
        trace.emit(
            {
                "event": "profile",
                "signature": profile.signature,
                "ops": profile.as_dict(),
                "pool": profile.pool,
                "pid": pid,
                "plan": key,
            }
        )
        count += 1
    return count
