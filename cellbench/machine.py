"""Machine context for every benchmark result: cores, BLAS, NumPy, matmul peak.

The matmul calibration probe times square GEMMs in float64 and float32 and
reports the median GFLOP/s; the traced run divides the conv kernels'
achieved GFLOP/s by it to get a fraction of this machine's peak.
"""

from __future__ import annotations

import ctypes
import os
import resource
import statistics
import time

import numpy as np

_THREAD_PREFIXES = ("openblas_", "scipy_openblas_")


def blas_vendor() -> str:
    """Name and version of the BLAS NumPy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _openblas_function(suffix: str, restype, argtypes):
    """A function of the OpenBLAS NumPy actually mapped (from ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _THREAD_PREFIXES:
            function = getattr(library, prefix + suffix, None)
            if function is None:
                function = getattr(library, prefix + suffix + "64_", None)
            if function is not None:
                function.restype = restype
                function.argtypes = argtypes
                return function
    return None


def blas_threads() -> int:
    """Threads the loaded OpenBLAS uses in this process (-1 when unknown).

    Asks the library directly, so a value inherited by a forked worker is
    what that worker really runs with.
    """
    getter = _openblas_function("get_num_threads", ctypes.c_int, [])
    return int(getter()) if getter is not None else -1


def set_blas_threads(count: int) -> bool:
    """Limit this process's OpenBLAS threads; ``False`` when not OpenBLAS."""
    setter = _openblas_function("set_num_threads", None, [ctypes.c_int])
    if setter is None:
        return False
    setter(count)
    return True


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_context() -> dict:
    """What one process ran with: its pid, BLAS threads and peak RSS."""
    return {"pid": os.getpid(), "blas_threads": blas_threads(), "peak_rss_mb": peak_rss_mb()}


def matmul_gflops(dtype, size: int = 384, repeats: int = 9) -> float:
    """Median GFLOP/s of a ``size``-square matmul in ``dtype``."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size)).astype(dtype)
    b = rng.standard_normal((size, size)).astype(dtype)
    out = np.empty((size, size), dtype=dtype)
    np.matmul(a, b, out=out)  # first call spins up the BLAS thread pool
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b, out=out)
        rates.append(2.0 * size**3 / (time.perf_counter() - start) / 1e9)
    return statistics.median(rates)


def context() -> dict:
    """The machine block printed with every result."""
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas_vendor(),
        "blas_threads": blas_threads(),
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "matmul_gflops_f64": matmul_gflops(np.float64),
        "matmul_gflops_f32": matmul_gflops(np.float32),
    }
