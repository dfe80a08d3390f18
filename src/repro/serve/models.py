"""Checkpoint resolution and compiled-model ownership for the server.

A :class:`ModelPool` entry pins one resolved model: the shared eval-mode
module plus one compiled view **per worker thread** (plans and their buffer
pools are single-threaded by design, so workers never share a plan; the
module's weights are shared and read-only while serving).  Checkpoints are
resolved through the :class:`~repro.experiments.store.ArtifactStore` by
training-hash prefix and loaded lazily, with LRU eviction past ``capacity``;
in-process modules registered via :meth:`ModelPool.register` are pinned and
served through :class:`~repro.compile.training.LiveEvalModel` so weight
updates between requests are honoured.

On a worker's first batch against an entry the pool builds the compiled
view and immediately warms every configured bucket signature
(:meth:`CompiledModel.warm` bypasses the compile-on-second-sighting
policy), so steady-state batches — all of which are padded to bucket
sizes — replay already-traced plans and allocate nothing.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..compile import CompileError, compile_model
from ..compile.training import LiveEvalModel
from ..obs.profiler import merge_profiles
from ..models.base import ImageClassifier
from ..nn import get_default_dtype
from .queueing import BucketConfig

__all__ = ["ModelPool", "ModelNotFound"]


class ModelNotFound(KeyError):
    """No registered module or stored checkpoint matches the model id."""


class _Entry:
    def __init__(self, model_id: str, module: ImageClassifier, live: bool) -> None:
        self.model_id = model_id
        self.module = module
        #: registered in-process module (live weights) vs. frozen checkpoint.
        self.live = live
        #: serializes view construction and bucket warming per worker.
        self.lock = threading.RLock()
        #: serializes whole-model eager instrumentation (robustness jobs
        #: monkeypatch ``forward_with_hidden`` on the shared module).
        self.engine_lock = threading.Lock()
        self.views: Dict[int, object] = {}
        self._warmed: set = set()
        self.last_used = 0

    def view(self, worker_id: int, sample: np.ndarray, buckets: BucketConfig):
        """This worker's compiled view, built and bucket-warmed on first use."""
        with self.lock:
            view = self.views.get(worker_id)
            if view is None:
                if self.live:
                    view = LiveEvalModel(self.module, max_plans=len(buckets.sizes) + 4)
                else:
                    view = compile_model(
                        self.module, sample, max_plans=len(buckets.sizes) + 4
                    )
                self.views[worker_id] = view
            example_shape = tuple(sample.shape[1:])
            warm_key = (worker_id, example_shape)
            if warm_key not in self._warmed:
                self._warmed.add(warm_key)
                dtype = get_default_dtype()
                view.warm(
                    np.zeros((size,) + example_shape, dtype=dtype)
                    for size in buckets.sizes
                )
            return view

    def cache_stats(self) -> Dict[str, int]:
        """Signature-cache counters summed across this entry's worker views."""
        totals: Dict[str, int] = {}
        with self.lock:
            views = list(self.views.values())
        for view in views:
            for key, value in view.cache_stats().items():
                if key == "capacity":
                    continue
                totals[key] = totals.get(key, 0) + value
        return totals

    def pool_allocations(self) -> int:
        with self.lock:
            views = list(self.views.values())
        return sum(view.pool_allocations for view in views)

    def profiles(self) -> Dict[str, dict]:
        """Per-signature executor profiles merged across this entry's views.

        Empty unless the obs profiler has been on for at least one replay
        (see :mod:`repro.obs.profiler`).
        """
        with self.lock:
            views = list(self.views.values())
        merged: Dict[str, dict] = {}
        for view in views:
            merge_profiles(merged, view.profile())
        return merged


class ModelPool:
    """Lazy, LRU-bounded cache of resolved models and their compiled views."""

    def __init__(
        self,
        store=None,
        capacity: int = 4,
        buckets: Optional[BucketConfig] = None,
    ) -> None:
        self.store = store
        self.capacity = int(capacity)
        self.buckets = buckets or BucketConfig()
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self._tick = 0
        self.evictions = 0

    # -- registration / resolution -----------------------------------------------
    def register(self, name: str, module: ImageClassifier) -> None:
        """Serve an in-process module under ``name`` (pinned, live weights)."""
        module.eval()
        with self._lock:
            self._entries[name] = _Entry(name, module, live=True)

    def get(self, model_id: str) -> _Entry:
        """The entry for a registered name or stored training-hash prefix."""
        with self._lock:
            entry = self._entries.get(model_id)
            if entry is not None:
                self._tick += 1
                entry.last_used = self._tick
                return entry
        entry = self._load(model_id)
        with self._lock:
            # Another worker may have loaded the same model concurrently;
            # keep the first published entry so plans are not duplicated.
            existing = self._entries.get(entry.model_id)
            if existing is None:
                self._entries[entry.model_id] = existing = entry
                self._evict_lru()
            self._tick += 1
            existing.last_used = self._tick
            if entry.model_id != model_id:
                # Remember the prefix alias so repeat lookups skip the store.
                self._entries.setdefault(model_id, existing)
            return existing

    def _load(self, model_id: str) -> _Entry:
        if self.store is None:
            raise ModelNotFound(f"unknown model '{model_id}' (no store configured)")
        try:
            full_hash = self.store.resolve_model_hash(model_id)
        except ValueError as error:
            raise ModelNotFound(str(error)) from error
        if full_hash is None:
            raise ModelNotFound(f"no stored checkpoint matches '{model_id}'")
        module = self.store.load_model_by_hash(full_hash)
        if module is None:
            raise ModelNotFound(f"checkpoint '{full_hash}' is missing or corrupt")
        module.eval()
        return _Entry(full_hash, module, live=False)

    def _evict_lru(self) -> None:
        """Drop least-recently-used checkpoint entries past capacity (locked).

        Registered (live) entries are pinned.  Alias keys pointing at an
        evicted entry die with it.
        """
        while True:
            loaded = {
                id(e): e for e in self._entries.values() if not e.live
            }
            if len(loaded) <= self.capacity:
                return
            victim = min(loaded.values(), key=lambda e: e.last_used)
            self.evictions += 1
            for key in [k for k, e in self._entries.items() if e is victim]:
                del self._entries[key]

    # -- telemetry ---------------------------------------------------------------
    def stats(self) -> Dict[str, Dict]:
        with self._lock:
            entries = {e.model_id: e for e in self._entries.values()}
        return {
            model_id: {
                "live": entry.live,
                "workers": len(entry.views),
                "cache": entry.cache_stats(),
                "pool_allocations": entry.pool_allocations(),
            }
            for model_id, entry in entries.items()
        }

    def pool_allocations(self) -> int:
        """Buffer allocations across every loaded entry (steady state: flat)."""
        with self._lock:
            entries = list(self._entries.values())
        return sum(entry.pool_allocations() for entry in {id(e): e for e in entries}.values())

    def profiles(self) -> Dict[str, Dict[str, dict]]:
        """``model_id -> per-signature executor profile`` for every entry.

        The ``profile`` field of the serve ``stats`` endpoint; entries
        without profiled replays report ``{}``.
        """
        with self._lock:
            entries = {e.model_id: e for e in self._entries.values()}
        return {model_id: entry.profiles() for model_id, entry in entries.items()}
