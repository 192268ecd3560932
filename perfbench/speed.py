"""Machine-speed calibration for a shared, noisy CPU.

The benchmark's host shares its cores with other tenants. Their load changes
the speed of the same code by up to 1.8x, in phases lasting seconds to tens
of seconds, and it slows CPU time as much as wall time. Each measured
interval is therefore bracketed by a fixed calibration kernel that uses no
afdmsim code, and reported in *reference seconds*: its wall time divided by
the kernel's slowdown, the kernel's measured time over its reference time.
The reference times are the kernels' times on an uncontended core of the
2-vCPU host the baseline was taken on, so reference seconds read as wall
seconds there.

The kernel has three parts -- interpreter code, small array operations and
BLAS -- and every workload is calibrated with all three, so the divisor does
not depend on the code under test. The correction assumes that contention
slows the measured code as much as the kernel's blend of the three. Where a
workload's own blend differs (``ber-link`` is mostly BLAS, the others mostly
interpreter and array work), or a change to the program shifts it, the
correction fits less well; the raw wall-clock rate is therefore reported
next to the calibrated one.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_FLOATS = _RNG.standard_normal(1500).tolist()
_GRID = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))
_PHASE = np.arange(4096, dtype=np.int64)
_MAT = _RNG.standard_normal((256, 256)) + 1j * _RNG.standard_normal((256, 256))


def _interpreter() -> None:
    """Float formatting and an integer loop, as in CSV output and trial loops."""
    for _ in range(3):
        ",".join(repr(x) for x in _FLOATS)
        acc = 0
        for i in range(30000):
            acc += i * i


def _array() -> None:
    """Small FFTs, phasors, rolls and contractions, as in per-trial sensing."""
    for _ in range(30):
        spec = np.fft.fft(_GRID, axis=0)
        np.fft.ifft(spec * np.conj(_GRID), axis=1)
        np.exp(2j * np.pi * (np.mod(_PHASE * _PHASE, 8192) / 8192.0))
        np.roll(_GRID, (3, 5), axis=(0, 1))
        np.einsum("ln,ln,n->l", _GRID, _GRID, _GRID[0])


def _blas() -> None:
    """Complex matrix products and a solve on the BLAS threads, as in LMMSE."""
    for _ in range(4):
        _MAT @ _MAT
        np.linalg.solve(_MAT, _MAT[:, :16])


#: Seconds the whole kernel takes on an uncontended core of the baseline host
#: (interpreter 0.014, array 0.011, BLAS 0.020).
REFERENCE_S = 0.045


def calibrate() -> float:
    """Slowdown now: measured time of the kernel over its reference time."""
    t0 = time.perf_counter()
    _interpreter()
    _array()
    _blas()
    return (time.perf_counter() - t0) / REFERENCE_S


def reference_seconds(wall_s: list[float], slowdown: list[tuple[float, float]]) -> float:
    """Total of the ``wall_s`` intervals in reference seconds.

    ``slowdown[i]`` holds the calibrations taken right before and right after
    interval ``i``; the total wall time is divided by their mean (a ratio of
    sums, which weighs each interval by its length).
    """
    mean = sum(before + after for before, after in slowdown) / (2 * len(slowdown))
    return sum(wall_s) / mean
