"""Obs tests mutate process-global switches; always restore them."""

from __future__ import annotations

import pytest

from repro.obs import profiler, trace


@pytest.fixture(autouse=True)
def _clean_obs_state():
    trace.disable()
    profiler.disable()
    profiler.PROFILER.profiles.clear()
    yield
    trace.disable()
    profiler.disable()
    profiler.PROFILER.profiles.clear()
