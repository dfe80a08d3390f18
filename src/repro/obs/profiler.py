"""Opt-in per-op profiling for the plan executor.

When :data:`PROFILER` is enabled, every :class:`~repro.compile.executor.
Plan` replay times each bound kernel step and accumulates, per op kind,
``{calls, total seconds, output bytes}`` into a :class:`PlanProfile` keyed
by the plan's input signature.  The executor checks ``PROFILER.enabled``
**once per replay** (not per step), so the disabled path costs a single
attribute read and allocates nothing.

Aggregations (``CompiledModel.profile()``, ``CompiledTrainer.profile()``,
``Trainer.profile()``) merge snapshots across plans sharing a signature via
:func:`merge_snapshot`; :func:`flush` emits one ``{"event": "profile"}``
JSONL line per live profiled plan to the trace sink, which
``python -m repro.obs summarize`` rolls into the per-op-kind table.
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, List, Optional

from . import trace

__all__ = [
    "PROFILER",
    "PlanProfile",
    "enable",
    "disable",
    "enabled",
    "merge_snapshot",
    "merge_profiles",
    "flush",
]


class _OpStat:
    __slots__ = ("calls", "seconds", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.bytes = 0


class PlanProfile:
    """Per-op-kind accounting for one plan (single-writer, no lock)."""

    __slots__ = ("signature", "ops")

    def __init__(self, signature: str) -> None:
        self.signature = signature
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
    """Global on/off switch plus a weak set of live profiled plans."""

    def __init__(self) -> None:
        self.enabled = False
        self._plans: "weakref.WeakSet" = weakref.WeakSet()
        self._keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._next_key = 0

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def profile_for(self, plan) -> PlanProfile:
        """A fresh :class:`PlanProfile` for ``plan``, tracked for flushing."""
        self._plans.add(plan)
        if plan not in self._keys:
            self._next_key += 1
            self._keys[plan] = self._next_key
        return PlanProfile(plan.signature)

    def snapshots(self) -> List[dict]:
        """Profile snapshots of every live plan that has recorded anything.

        Each snapshot carries a per-process ``plan`` key so repeated
        :func:`flush` calls (cumulative by design) can be deduplicated
        last-wins by the summarize CLI.
        """
        out = []
        for plan in list(self._plans):
            snap = plan.profile_snapshot()
            if snap is not None:
                snap["plan"] = self._keys.get(plan, 0)
                out.append(snap)
        return out


PROFILER = _Profiler()


def enabled() -> bool:
    return PROFILER.enabled


def enable() -> None:
    PROFILER.enable()


def disable() -> None:
    PROFILER.disable()


def merge_snapshot(profiles: Dict[str, dict], snap: Optional[dict]) -> None:
    """Fold one plan's profile snapshot into a per-signature aggregation.

    ``profiles`` maps ``signature -> {"ops": {kind: {calls, total_ms,
    bytes}}, "pool": {"allocations", "bytes"}}``; plans sharing a signature
    (a training plan and its derived attack plan) sum op-wise, and pool
    high-water marks sum across their arenas.
    """
    if snap is None:
        return
    entry = profiles.setdefault(
        snap["signature"], {"ops": {}, "pool": {"allocations": 0, "bytes": 0}}
    )
    for kind, stat in snap["ops"].items():
        target = entry["ops"].setdefault(
            kind, {"calls": 0, "total_ms": 0.0, "bytes": 0}
        )
        target["calls"] += stat["calls"]
        target["total_ms"] += stat["total_ms"]
        target["bytes"] += stat["bytes"]
    pool = snap.get("pool")
    if pool:
        entry["pool"]["allocations"] += pool["allocations"]
        entry["pool"]["bytes"] += pool["bytes"]


def merge_profiles(target: Dict[str, dict], other: Dict[str, dict]) -> None:
    """Fold one per-signature aggregation into another (the Trainer's views)."""
    for signature, entry in other.items():
        merge_snapshot(
            target,
            {"signature": signature, "ops": entry["ops"], "pool": entry.get("pool")},
        )


def flush() -> int:
    """Emit one ``profile`` trace event per live profiled plan.

    Events are cumulative per plan; ``pid`` + ``plan`` let the summarize
    CLI keep only the last emission for each plan when flush runs more
    than once in a process.  Returns the number of events emitted (0 when
    tracing is disabled — events have nowhere to go without a sink).
    """
    if not trace.enabled():
        return 0
    count = 0
    pid = os.getpid()
    for snap in PROFILER.snapshots():
        trace.emit(
            {
                "event": "profile",
                "signature": snap["signature"],
                "ops": snap["ops"],
                "pool": snap.get("pool"),
                "pid": pid,
                "plan": snap.get("plan"),
            }
        )
        count += 1
    return count
