"""The median-bandwidth heuristic and the compiled ``rbf_scale`` kernel.

One row-block median (:func:`repro.ib.hsic.median_bandwidth_rows`) serves
eager training (fresh scratch) and the compiled ``rbf_scale`` plan node
(pooled scratch).  It must match the textbook ``(n, n, d)`` difference-cube
median **bitwise**, and ``sigma=None`` plans must re-derive it per replay
while allocating nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile.executor import Plan
from repro.compile.graph import Graph, Node
from repro.ib.hsic import gaussian_kernel, median_bandwidth, median_bandwidth_rows, rbf_scale
from repro.nn import Tensor


def median_bandwidth_cube(flat: np.ndarray) -> float:
    """The oracle: the median over an ``(n, n, d)`` difference cube."""
    diffs = flat[:, None, :] - flat[None, :, :]
    sq = (diffs ** 2).sum(axis=-1)
    upper = sq[np.triu_indices(len(flat), k=1)]
    if upper.size == 0:
        return 1.0
    median = float(np.median(upper))
    return float(np.sqrt(max(median, 1e-12) / 2.0))


def _shared(flat: np.ndarray) -> float:
    n, dim = flat.shape
    diffs = np.empty((max(n - 1, 0), dim), flat.dtype)
    upper = np.empty((n * (n - 1) // 2,), flat.dtype)
    return median_bandwidth_rows(flat, diffs, upper)


def _traced_plan(fn, shape, dtype=np.float64):
    """Plan of ``fn(x)`` traced over a ``shape`` input leaf (forward only)."""
    graph = Graph([Node(0, "input", (), {}, shape, np.dtype(dtype))], input_id=0, output_id=0)
    graph.output_id = graph.append_traced(fn, {"x": 0})
    return Plan(graph.rebuild(), grad="input")


class TestBitwiseEquality:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33])
    @pytest.mark.parametrize("dim", [1, 5, 48])
    def test_matches_eager_median_bitwise(self, n, dim):
        rng = np.random.default_rng(n * 100 + dim)
        x = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0)
        assert median_bandwidth(x) == median_bandwidth_cube(x)  # exact, not approx

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_wide_batch_matches_cube_bitwise(self, dtype):
        # The paper-shaped case (n=32, d=4096) in both tiers' dtypes.
        rng = np.random.default_rng(11)
        x = (rng.standard_normal((32, 4096)) * 3.0).astype(dtype)
        assert _shared(x) == median_bandwidth_cube(x)

    def test_single_row_default(self):
        x = np.zeros((1, 3))
        assert median_bandwidth(x) == median_bandwidth_cube(x) == 1.0

    def test_duplicate_rows(self):
        # All-equal rows: median distance 0 -> the 1e-12 floor applies.
        x = np.ones((6, 4))
        assert median_bandwidth(x) == median_bandwidth_cube(x) == np.sqrt(1e-12 / 2.0)


class TestNoReplayAllocations:
    def test_replays_are_allocation_free(self):
        # sigma=None: the compiled rbf_scale re-derives the eager scale from
        # every replay's batch, bitwise, in pooled scratch.
        rng = np.random.default_rng(0)
        plan = _traced_plan(lambda x: rbf_scale(x), (12, 9))
        baseline = plan.pool.allocations
        for _ in range(5):
            x = rng.standard_normal((12, 9))
            plan.forward(x)
            assert np.array_equal(plan.values[plan.graph.output_id], rbf_scale(Tensor(x)).data)
        assert plan.pool.allocations == baseline

    def test_traced_gaussian_kernel_is_pooled(self):
        rng = np.random.default_rng(1)
        plan = _traced_plan(lambda x: gaussian_kernel(x), (8, 6))
        baseline = plan.pool.allocations
        for _ in range(4):
            plan.forward(rng.standard_normal((8, 6)))
        assert plan.pool.allocations == baseline

    def test_fixed_sigma_skips_median_scratch(self):
        fixed = _traced_plan(lambda x: rbf_scale(x, 1.0), (8, 6))
        median = _traced_plan(lambda x: rbf_scale(x), (8, 6))
        assert median.pool.allocations > fixed.pool.allocations  # median scratch is extra
        # A fixed bandwidth is filled at bind time: no replay step at all.
        assert [kind for kind, _ in fixed._forward_meta] == []
        fixed.forward(np.zeros((8, 6)))
        assert fixed.values[fixed.graph.output_id] == rbf_scale(Tensor(np.zeros((8, 6))), 1.0).data


class TestTracedParity:
    def test_sigma_none_gram_matches_eager_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 7))
        plan = _traced_plan(lambda x: gaussian_kernel(x), x.shape)
        plan.forward(x)
        np.testing.assert_array_equal(plan.values[plan.graph.output_id], gaussian_kernel(x).data)

    def test_scale_keeps_the_input_dtype(self):
        from repro.nn import set_default_dtype

        previous = set_default_dtype(np.float32)
        try:
            x = Tensor(np.random.default_rng(4).standard_normal((6, 5)))
            assert rbf_scale(x).dtype == np.float32
            assert gaussian_kernel(x).dtype == np.float32
            plan = _traced_plan(lambda x: gaussian_kernel(x), x.shape, np.float32)
            plan.forward(x.data)
            out = plan.values[plan.graph.output_id]
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, gaussian_kernel(x).data)
        finally:
            set_default_dtype(previous)
