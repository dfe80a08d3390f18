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
:class:`repro.compile.training.LiveEvalModel` (eval-semantics plans).
Entries are never dropped wholesale: plans read the module's state in
place, so only :meth:`evict` removes one, for a *recoverable* failure
(reallocated parameter storage), and the next sighting rebuilds against
the current storage.
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

    def stats(self) -> Dict[str, int]:
        """This cache's hit/miss/build/eviction counters and occupancy."""
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

    def refuses(self, sample: np.ndarray) -> bool:
        """Whether :meth:`lookup` will not build this signature.

        True for a memoized build failure (a ``None`` entry) and, for a
        signature not yet built, when the cache already holds ``capacity``
        live entries.  Distinguishes a *genuine* eager fallback from the
        policy's benign first-sighting deferral (which builds on the next
        sighting), so fallback telemetry only counts batches that stay eager.
        """
        key = self.key(sample)
        if key in self.entries:
            return self.entries[key] is None
        return self.live_entries >= self.capacity

    def insert(self, sample: np.ndarray, entry) -> None:
        """Pre-seed the cache (a caller-built first plan skips the policy)."""
        self.entries[self.key(sample)] = entry

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
        try:
            entry = self._build(sample)
        except CompileError:
            entry = None  # remember the failure; fall back for this signature
            self._build_failures.inc()
        else:
            self._builds.inc()
        self.entries[key] = entry
        return entry

    def evict(self, sample: np.ndarray) -> None:
        """Drop this signature's entry; its next sighting rebuilds it."""
        key = self.key(sample)
        self._misses[key] = 1  # seen already, even when pre-seeded by insert()
        if self.entries.pop(key, None) is not None:
            self._evictions.inc()
