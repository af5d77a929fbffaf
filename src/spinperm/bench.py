"""Benchmark harness: wall times of the sweep and Ryser's formula in complex128.

Both methods run on the same complex Gaussian matrix in complex128, timed
interleaved (sweep, Ryser, sweep, Ryser, ...).  Ryser is the Gray-code walk
of ``oracles`` called on the matrix's own entries, so no precision switch
reaches the timing.  Ryser's walk in long double runs once per n, untimed,
as the reference for each row's relative error.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np

from .errors import SizeGuardError
from .matrix import random_matrix
from .operator import SpinOperator, evaluate
from .oracles import ryser_walk

BENCH_MAX_N = 26


def bench_suite(n_min: int, n_max: int, repeats: int = 3, seed: int = 0) -> dict:
    """The environment and one row per (n, method), ready for ``json.dumps``.

    A row holds the median and interquartile range of ``repeats`` wall
    times in seconds and the relative error against long-double Ryser.
    The sweep's row also holds its counted operations, ``evaluate``'s
    tally; Ryser's ``ops`` is None, since nothing counts them.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if n_max > BENCH_MAX_N:
        raise SizeGuardError(f"bench limited to n <= {BENCH_MAX_N}")
    rows = []
    for n in range(n_min, n_max + 1):
        matrix = random_matrix(n, seed, "complex_gaussian")
        op = SpinOperator(matrix, "breve", "bosonic")
        reference = ryser_walk(matrix.entries.astype(np.clongdouble))
        _, count = evaluate(op)  # untimed: builds the layout's tables once
        runs = {"sweep": lambda: evaluate(op)[0], "ryser": lambda: ryser_walk(matrix.entries)}
        times = {method: [] for method in runs}
        values = {}
        for _ in range(repeats):
            for method, run in runs.items():
                start = time.perf_counter()
                values[method] = run()
                times[method].append(time.perf_counter() - start)
        for method, ops in (("sweep", count.total), ("ryser", None)):
            q1, median, q3 = np.percentile(times[method], [25, 50, 75])
            rows.append({"n": n, "method": method, "dtype": str(matrix.entries.dtype),
                         "ops": ops, "median_s": float(median), "iqr_s": float(q3 - q1),
                         "rel_err": float(abs(reference - values[method]) / abs(reference))})
    return {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "kind": "complex_gaussian",
        "seed": seed,
        "repeats": repeats,
        "rows": rows,
    }
