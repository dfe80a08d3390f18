"""SignatureCache counters: the second-sighting policy, failures, evictions."""

from __future__ import annotations

import numpy as np

from repro.compile import CompileError
from repro.compile.cache import SignatureCache as Cache


def make_cache(capacity=4, fail_shapes=()):
    built = []

    def build(sample):
        if sample.shape in fail_shapes:
            raise CompileError("boom")
        built.append(sample.shape)
        return ("plan", sample.shape)

    cache = Cache(build, capacity=capacity)
    return cache, built


class TestCounters:
    def test_second_sighting_policy_counts(self):
        cache, built = make_cache()
        x = np.zeros((4, 3))
        assert cache.lookup(x) is None  # first sighting: miss, no build
        assert cache.stats()["misses"] == 1 and cache.stats()["builds"] == 0
        assert cache.lookup(x) is not None  # second sighting: build
        assert cache.stats()["misses"] == 2 and cache.stats()["builds"] == 1
        assert cache.lookup(x) is not None  # now a hit
        assert cache.stats()["hits"] == 1
        assert built == [(4, 3)]

    def test_build_failure_memoized_and_counted(self):
        cache, _ = make_cache(fail_shapes={(2, 2)})
        x = np.zeros((2, 2))
        cache.lookup(x)
        assert cache.lookup(x) is None  # build fails
        stats = cache.stats()
        assert stats["build_failures"] == 1 and stats["builds"] == 0
        assert cache.lookup(x) is None  # memoized failure counts as a miss
        assert cache.stats()["misses"] == 3
        assert cache.stats()["build_failures"] == 1  # never retried

    def test_eviction_counted_for_live_entries_only(self):
        cache, _ = make_cache(fail_shapes={(2, 2)})
        good, bad = np.zeros((4, 3)), np.zeros((2, 2))
        for _ in range(2):
            cache.lookup(good)
            cache.lookup(bad)
        cache.evict(good)
        cache.evict(bad)  # memoized failure: dropped but not an "eviction"
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["live_entries"] == 0

    def test_live_entries_excludes_failures(self):
        cache, _ = make_cache(fail_shapes={(2, 2)})
        for shape in ((4, 3), (2, 2)):
            x = np.zeros(shape)
            cache.lookup(x)
            cache.lookup(x)
        assert cache.live_entries == 1
        assert cache.stats()["capacity"] == 4
