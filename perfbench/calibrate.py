"""Host-speed calibration: fixed work of the benchmark's own, timed while a
long-lived workload is paused.

The reference machine is a shared 2-vCPU virtual machine whose speed drifts
by up to 2x and stays in one state for seconds to minutes, so the medians of
whole runs of the same code can spread by 0.1-0.35 (quartile distance over
median).  A run cannot average that away.  So after each round the
``batch_small`` and ``verify_n7`` worker stops, run.py times one pass of the
kernel below, and the worker goes on (``worker.pause``).  Each request time
of the run is then multiplied by

    REFERENCE_S / median(passes of the run)

and reads as seconds on a host that runs one pass in ``REFERENCE_S``.  The
pass runs in run.py, which runs nothing of the program, and makes no large
array after the first pass, so a change to the program cannot change the
pass; a program that gets slower reads slower by the same share.

``cli_n20`` and ``setup_s`` are not scaled: a pass run between two CLI
children overlaps the exit of the first, and moved by 0.2 (quartile
distance over median) where the children moved by 0.07.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

N = 127  # the dense operator at n=7 is 127x127

# About the median time of one pass on the reference machine.
REFERENCE_S = 0.008


@functools.cache
def _arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The DFT matrix, which is unitary, so every pivot is safe, and two work
    arrays.  Made once: a pass that allocated its arrays would time the
    allocator, whose speed depends on what the process did before (the
    same pass took 12 ms in one process and 39 ms in another)."""
    j = np.arange(N)
    dft = np.exp(-2j * np.pi * np.outer(j, j) / N)
    return dft, np.empty_like(dft), np.empty_like(dft)


def timed() -> float:
    """Wall time of one pass: Gauss-Jordan elimination with partial pivoting
    of a 127x127 complex matrix, one Python step per pivot, as in ``rref``."""
    dft, r, outer = _arrays()
    start = time.perf_counter()
    r[...] = dft
    for row in range(N):
        pick = row + int(np.argmax(np.abs(r[row:, row])))
        r[[row, pick]] = r[[pick, row]]
        r[row] /= r[row, row]
        np.multiply.outer(r[:, row], r[row], out=outer)
        outer[row] = 0
        r -= outer
    return time.perf_counter() - start


def scale(passes: list[float]) -> float:
    """Factor from this run's seconds to reference seconds."""
    return REFERENCE_S / statistics.median(passes)
