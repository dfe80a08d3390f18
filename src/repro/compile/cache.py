"""Shape-keyed compile-on-second-sighting cache — the one shared policy.

Every compiled entry point dispatches on the ``(input shape, dtype)``
signature of the incoming batch and follows the same economics: a signature
seen **once** runs eagerly (a ragged final batch is cheaper eager than
captured and bound), the **second** sighting triggers the expensive build,
and deterministic build failures are memoized as ``None`` so the eager
fallback is taken without re-trying the capture.

One instance backs :class:`repro.compile.CompiledModel` (entries are eval
:class:`~repro.compile.executor.Plan` objects),
one backs :class:`repro.compile.training.CompiledTrainer` (entries are
per-signature plan contexts), and one backs
:class:`repro.compile.training.LiveEvalModel` (live-parameter eval plans).
:meth:`evict` drops a *recoverable* failure (reallocated parameter storage)
so the next sighting rebuilds against the current storage.

Long-running servers (:mod:`repro.serve`) need two extras over the batch
policy: :meth:`warm` bypasses second-sighting so every configured bucket
signature is traced before the first request arrives, and the
hit/miss/build/eviction counters surfaced by :meth:`stats` feed the server's
``stats`` endpoint.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..obs.registry import get_registry
from .graph import CompileError

__all__ = ["SignatureCache"]

Key = Tuple[Tuple[int, ...], str]

#: unique per-instance label suffix so concurrent caches never share series.
_instance_ids = itertools.count(1)


class SignatureCache:
    """Second-sighting build cache keyed by ``(shape, dtype)`` signatures.

    The hit/miss/build/eviction counters live as labeled series on the
    shared :mod:`repro.obs` registry (``compile.cache.*{cache=...}``), so one
    registry snapshot sees every cache in the process; :meth:`stats` reads
    this cache's series.
    """

    def __init__(
        self,
        build: Callable[[np.ndarray], object],
        capacity: int,
        name: str = "cache",
    ) -> None:
        self._build = build
        self.capacity = capacity
        self.entries: Dict[Key, Optional[object]] = {}
        self._misses: Dict[Key, int] = {}
        labels = {"cache": f"{name}-{next(_instance_ids)}"}
        registry = get_registry()
        self._hits = registry.counter("compile.cache.hits", labels)
        self._miss = registry.counter("compile.cache.misses", labels)
        self._builds = registry.counter("compile.cache.builds", labels)
        self._build_failures = registry.counter("compile.cache.build_failures", labels)
        self._evictions = registry.counter("compile.cache.evictions", labels)

    @staticmethod
    def key(sample: np.ndarray) -> Key:
        return (sample.shape, sample.dtype.str)

    @property
    def live_entries(self) -> int:
        """Number of cached entries holding a usable plan (failures excluded)."""
        return sum(1 for entry in self.entries.values() if entry is not None)

    def clear(self) -> None:
        self.entries.clear()
        self._misses.clear()

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for telemetry (the serve ``stats`` endpoint)."""
        return {
            "hits": self._hits.value,
            "misses": self._miss.value,
            "builds": self._builds.value,
            "build_failures": self._build_failures.value,
            "evictions": self._evictions.value,
            "live_entries": self.live_entries,
            "capacity": self.capacity,
        }

    def get(self, sample: np.ndarray):
        """The cached entry for this signature, or ``None`` (never builds)."""
        return self.entries.get(self.key(sample))

    def failed(self, sample: np.ndarray) -> bool:
        """Whether this signature's build failed (a memoized ``None`` entry).

        Distinguishes a *genuine* eager fallback from the policy's benign
        first-sighting deferral, so fallback telemetry only counts batches
        that will stay eager forever.
        """
        key = self.key(sample)
        return key in self.entries and self.entries[key] is None

    def insert(self, sample: np.ndarray, entry) -> None:
        """Pre-seed the cache (a caller-built first plan skips the policy)."""
        self.entries[self.key(sample)] = entry

    def warm(self, sample: np.ndarray) -> bool:
        """Build this signature *now*, bypassing the second-sighting policy.

        Servers call this at startup for every configured bucket size so the
        first real request replays an already-traced plan.  Returns ``True``
        when a usable entry is cached afterwards (freshly built or already
        present), ``False`` when the build failed, the failure was already
        memoized, or the cache is at capacity.
        """
        key = self.key(sample)
        if key in self.entries:
            return self.entries[key] is not None
        if self.live_entries >= self.capacity:
            return False
        entry = self._try_build(sample)
        self.entries[key] = entry
        return entry is not None

    def lookup(self, sample: np.ndarray):
        """The entry for this signature, building it on the second sighting.

        Returns ``None`` on the first sighting, when the live-entry count is
        at capacity, or when the build failed (memoized — deterministic
        failures such as an untraceable forward never retry).
        """
        key = self.key(sample)
        if key in self.entries:
            entry = self.entries[key]
            if entry is not None:
                self._hits.inc()
            else:
                self._miss.inc()
            return entry
        self._miss.inc()
        if self._misses.get(key, 0) == 0:
            self._misses[key] = 1
            return None
        if self.live_entries >= self.capacity:
            return None
        entry = self._try_build(sample)
        self.entries[key] = entry
        return entry

    def _try_build(self, sample: np.ndarray):
        try:
            entry = self._build(sample)
        except CompileError:
            entry = None  # remember the failure; fall back for this signature
            self._build_failures.inc()
        else:
            self._builds.inc()
        return entry

    def evict(self, sample: np.ndarray) -> None:
        if self.entries.pop(self.key(sample), None) is not None:
            self._evictions.inc()
