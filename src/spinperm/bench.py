"""Benchmark harness: counted operations and wall times for both methods."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import ConsistencyError, SizeGuardError
from .matrix import random_matrix
from .operator import OpCount, SpinOperator, evaluate, spin_op_count
from .oracles import permanent_ryser

BENCH_MAX_N = 26


def ryser_op_count(n: int) -> OpCount:
    """Counted cost of Ryser under subset-extension accounting.

    Every multi-column subset derives its row sums from a parent subset by
    adding one column (n additions); singleton subsets are column copies;
    each subset product takes n-1 multiplications and each accumulation one
    addition after the first.  The total is n*2**(n+1) - (n+1)**2.
    """
    mults = (n - 1) * ((1 << n) - 1)
    adds = n * ((1 << n) - 1 - n) + ((1 << n) - 2)
    return OpCount(mults, adds)


@dataclass
class BenchRow:
    n: int
    method: str
    ops: int
    median_ns: int


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = ["n,method,ops,median_ns"]
    for row in rows:
        lines.append(f"{row.n},{row.method},{row.ops},{row.median_ns}")
    return "\n".join(lines) + "\n"


def _median_ns(fn, repeats: int) -> int:
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    times.sort()
    return times[len(times) // 2]


def bench_suite(n_min: int, n_max: int, repeats: int = 3, seed: int = 0) -> list[BenchRow]:
    """Per-n operation counts and median wall times for both methods.

    The spin count is read from an actual sweep and must equal n*2**n; the
    Ryser count is the closed form.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if n_max > BENCH_MAX_N:
        raise SizeGuardError(f"bench limited to n <= {BENCH_MAX_N}")
    rows = []
    for n in range(n_min, n_max + 1):
        matrix = random_matrix(n, seed, "complex_gaussian")
        op = SpinOperator(matrix, "breve", "bosonic")
        _, count = evaluate(op)
        if count.total != spin_op_count(n).total:
            raise ConsistencyError(
                f"spin sweep counted {count.total} ops at n={n}, expected {n * 2 ** n}"
            )
        spin_ns = _median_ns(lambda: evaluate(op), repeats)
        rows.append(BenchRow(n, "spin", count.total, spin_ns))
        ryser_ns = _median_ns(lambda: permanent_ryser(matrix), repeats)
        expected = n * (1 << (n + 1)) - (n + 1) ** 2
        counted = ryser_op_count(n).total
        if counted != expected:
            raise ConsistencyError(f"Ryser counter {counted} at n={n}, expected {expected}")
        rows.append(BenchRow(n, "ryser", counted, ryser_ns))
    return rows
