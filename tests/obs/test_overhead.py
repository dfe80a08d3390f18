"""Disabled-observability cost: zero obs allocations, negligible wall time.

The contract of :mod:`repro.obs`: with tracing and profiling off, a warm
compiled step pays one flag read per replay — no allocations attributable
to obs code, and wall time within noise of a raw (uninstrumented) step
loop.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
import pytest

import repro.obs
from repro.compile import compile_model
from repro.data import synthetic_cifar10
from repro.models import SmallCNN
from repro.obs import profiler, trace

OBS_DIR = os.path.dirname(os.path.abspath(repro.obs.__file__))


@pytest.fixture(scope="module")
def warm_compiled():
    dataset = synthetic_cifar10(n_train=40, n_test=40, image_size=16, seed=0)
    model = SmallCNN(num_classes=10, image_size=16, seed=0)
    model.eval()
    compiled = compile_model(model, dataset.x_test[:16])
    batch = np.ascontiguousarray(dataset.x_test[:16])
    compiled.predict(batch)  # warm: buffers bound, pools at steady state
    return compiled, batch


def test_disabled_step_allocates_nothing_in_obs(warm_compiled):
    compiled, batch = warm_compiled
    assert not trace.enabled() and not profiler.enabled()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(10):
            compiled.predict(batch)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    obs_filter = tracemalloc.Filter(True, os.path.join(OBS_DIR, "*"))
    growth = [
        stat
        for stat in after.filter_traces([obs_filter]).compare_to(
            before.filter_traces([obs_filter]), "filename"
        )
        if stat.size_diff > 0
    ]
    assert not growth, f"obs code allocated on the disabled path: {growth}"


def test_disabled_step_wall_time_within_two_percent(warm_compiled):
    compiled, batch = warm_compiled
    plans = [p for p in compiled._plans.values() if p is not None]
    plan = plans[0]

    def instrumented():
        plan.forward(batch)

    def raw():
        # plan.forward minus the single obs flag branch.
        np.copyto(plan._input, batch)
        for step in plan._forward_steps:
            step()

    def best_of_interleaved(fns, reps=30, rounds=10):
        # Interleave the two loops call by call inside each round, in
        # alternating order, so load on a shared box that comes and goes
        # hits both sides alike; keep each side's best round total.
        best = [float("inf")] * len(fns)
        for fn in fns:
            fn()  # warm
        for _ in range(rounds):
            totals = [0.0] * len(fns)
            for rep in range(reps):
                order = range(len(fns)) if rep % 2 == 0 else reversed(range(len(fns)))
                for index in order:
                    start = time.perf_counter()
                    fns[index]()
                    totals[index] += time.perf_counter() - start
            best = [min(b, total) for b, total in zip(best, totals)]
        return best

    raw_seconds, instrumented_seconds = best_of_interleaved((raw, instrumented))
    # <=2% relative delta, with a small absolute epsilon so scheduler jitter
    # on a sub-millisecond step cannot flake the assertion.
    assert instrumented_seconds <= raw_seconds * 1.02 + 2e-3, (
        f"disabled-obs forward {instrumented_seconds:.6f}s vs raw "
        f"{raw_seconds:.6f}s exceeds the 2% budget"
    )
