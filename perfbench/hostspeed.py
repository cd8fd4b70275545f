"""Host-speed calibration, so that timings survive a shared machine's drift.

On a shared host the speed of one core drifts: the same bosonet circuit took
anywhere from 1.0 s to 2.1 s within three minutes on a 2-vCPU machine, and a
fixed Python loop ran 1.1 to 1.6 times its fastest time from one second to
the next. Ten runs then spread by more than any useful regression bound.

``calibrate()`` times a fixed kernel of the two kinds of work bosonet does:
Python dict and tuple bookkeeping, and 48x48 dense complex linear algebra.
The benchmark runs it between measured units and divides each unit's time by
the kernel time around it, scaled by ``NOMINAL_S``. The result is the unit's
time at the speed where the kernel takes ``NOMINAL_S`` seconds. Work inside
bosonet does not change the kernel, so a change to the program moves the
normalised times as it moves the raw ones. The kernel runs with the BLAS
thread count numpy's OpenBLAS had when this module was imported, before the
program was, so a program that changes that count does not change the kernel.
"""

from __future__ import annotations

import ctypes
import gc
import statistics
import time

import numpy as np

# Kernel time that normalised seconds are expressed at: close to the kernel's
# typical time on the 2-vCPU host the benchmark was defined on, so that
# normalised seconds read close to wall seconds there.
NOMINAL_S = 0.015
PASSES = 3

# Large enough that OpenBLAS uses its threads, as bosonet's big blocks do, so
# that the kernel also sees how soon the host schedules a second BLAS thread.
_N = 48
_MATRIX = (np.cos(np.arange(_N * _N)).reshape(_N, _N)
           + 1j * np.sin(np.arange(_N * _N) * 0.7).reshape(_N, _N))


def _openblas_functions():
    """(get, set) thread-count functions of numpy's OpenBLAS, or (None, None).

    This process's memory map names the library numpy loaded; the functions
    are that library's own.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "numpy" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None, None


_GET_THREADS, _SET_THREADS = _openblas_functions()


def blas_threads() -> int | None:
    """Current thread count of numpy's OpenBLAS (None if it cannot be read)."""
    return _GET_THREADS() if _GET_THREADS is not None else None


# The kernel's BLAS thread count: the default, read before the program loads.
KERNEL_THREADS = blas_threads()


def _kernel() -> float:
    total = 0.0
    for _ in range(10):
        table = {}
        for i in range(3_000):
            table[(i, i + 1)] = i * 0.5
        for key, value in table.items():
            total += value * key[0]
    for _ in range(20):
        total += float(np.linalg.svd(_MATRIX)[1][0])
        total += float((_MATRIX @ _MATRIX)[0, 0].real)
    return total


def calibrate(min_seconds: float = 0.0) -> float:
    """Mean time of the fixed kernel over at least ``PASSES`` runs and ``min_seconds``."""
    times: list[float] = []
    program_threads = blas_threads()
    pin = program_threads != KERNEL_THREADS  # both None when OpenBLAS was not found
    if pin:
        _SET_THREADS(KERNEL_THREADS)
    # The kernel frees all it allocates, so pausing the collector leaves the
    # program's own collections where they were; without the pause, garbage
    # the program left behind would be collected inside the kernel and be
    # timed as host slowness.
    gc.disable()
    try:
        while len(times) < PASSES or sum(times) < min_seconds:
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
        if pin:
            _SET_THREADS(program_threads)
    return statistics.fmean(times)
