"""Per-point microbenchmarks on the real traffic (stdlib and numpy only).

The Mittag-Leffler argument array is the one the first transform-sized
`mittag_leffler` call receives inside a cold ``build_y_profile(FracParams(
0.5, 0.5, 3))``; it is replayed split by |x| range at b = a and b = 1.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from tracer import ML_RANGES

REPS = 3
MAX_POINTS = 20000  # per |x| range: a strided subsample keeps the range's spread


class _Captured(Exception):
    pass


def capture_transform_args(cache_dir: str) -> np.ndarray:
    """Arguments of the first transform-sized Mittag-Leffler call of a cold
    G build; the build is abandoned once they are recorded."""
    from fracasym import kernels
    from fracasym.params import FracParams

    original = kernels.mittag_leffler
    captured = []

    def capture(a, b, x):
        arr = np.asarray(x, dtype=float)
        if arr.size >= 1000:  # skip the 4-point decay probe
            captured.append(arr.ravel().copy())
            raise _Captured
        return original(a, b, x)

    kernels.mittag_leffler = capture
    try:
        kernels.build_y_profile(FracParams(0.5, 0.5, 3), cache_dir=cache_dir)
    except _Captured:
        pass
    finally:
        kernels.mittag_leffler = original
    if not captured:
        raise RuntimeError("no transform-sized mittag_leffler call in a cold G build")
    return captured[0]


def _median_seconds(fn, reps=REPS):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def ml_metrics(x: np.ndarray, a: float = 0.5) -> dict:
    from fracasym.special import mittag_leffler

    out = {}
    ax = np.abs(x)
    for label, lo, hi in ML_RANGES:
        sel = x[(ax >= lo) & (ax < hi)]
        sub = sel[:: max(1, sel.size // MAX_POINTS)]
        for tag, b in (("b_a", a), ("b_1", 1.0)):
            secs = _median_seconds(lambda: mittag_leffler(a, b, sub))
            out[f"special.ml.ns_per_point.{label}.{tag}"] = secs / sub.size * 1e9
    tracemalloc.start()
    try:
        mittag_leffler(a, a, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["special.ml.peak_alloc_mb"] = peak / 2**20
    return out


def hankel_metrics() -> dict:
    """One inverse transform of the closed-form Gaussian symbol exp(-r^2) on
    the default grid, per symbol point."""
    from fracasym.radialtransform import RadialGrid, radial_fourier_inverse

    grid = RadialGrid()
    points = []

    def gaussian(r):
        points.append(np.size(r))
        return np.exp(-np.asarray(r, dtype=float) ** 2)

    secs = _median_seconds(lambda: radial_fourier_inverse(gaussian, 3, grid))
    return {"radialtransform.hankel.ns_per_point": secs / max(points) * 1e9}
