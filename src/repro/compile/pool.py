"""Buffer arena for compiled plans.

Every ndarray a :class:`~repro.compile.executor.Plan` writes into — op
outputs, gradient accumulators, masks, its own step-local scratch region —
is allocated exactly once, at bind time, through a :class:`BufferPool`
(a step-local region shared by several plans is allocated by their owner).  Replays
then reuse the same arrays via ``out=``-style NumPy kernels, so steady-state
attack iterations perform **zero** pool allocations; the pool's counters make
that property observable (and testable) instead of folklore.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["BufferPool"]


class BufferPool:
    """Arena of persistently owned ndarray buffers with allocation accounting."""

    def __init__(self) -> None:
        self._buffers: List[np.ndarray] = []
        self.allocations = 0
        self.bytes_allocated = 0

    def empty(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Allocate (and own) an uninitialized buffer."""
        buffer = np.empty(shape, dtype=dtype)
        self._buffers.append(buffer)
        self.allocations += 1
        self.bytes_allocated += buffer.nbytes
        return buffer

    def snapshot(self) -> Tuple[int, int]:
        """``(allocations, bytes_allocated)`` — compare before/after replays."""
        return self.allocations, self.bytes_allocated

    def __len__(self) -> int:
        return len(self._buffers)

    def __repr__(self) -> str:
        mib = self.bytes_allocated / (1024 * 1024)
        return f"BufferPool({self.allocations} buffers, {mib:.2f} MiB)"
