"""Desk-scale self-verification: the acceptance checks capped at n <= 6."""

from __future__ import annotations

import math

from .bench import ryser_op_count
from .errors import SpinpermError
from .graph import count_paths, graph_from_operator, graph_from_reduction, path_sum
from .matrix import random_matrix
from .operator import SpinOperator, evaluate, spin_op_count
from .oracles import determinant_gauss, permanent_naive, permanent_ryser
from .reduction import fermionic_matches_gaussian, reduce_fully
from .spectral import generalized_kernel_ranks, verify_spectrum

# Round-1 fill-in of the n=4 bosonic reduction, (reweighted, unchanged, new)
# over 24 nonzero entries.  The derivation is in the docstring of
# tests/test_acceptance.py::test_criterion_7b_bosonic_reduction_n4_fill_stats.
N4_BOSONIC_FILL_STATS = (6, 10, 8)
N4_BOSONIC_FILL_ENTRIES = 24


def _rel(a, b) -> float:
    a, b = complex(a), complex(b)
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _check_oracle_triangle(statistics: str) -> str | None:
    for n in range(2, 7):
        for seed in range(3):
            m = random_matrix(n, seed, "complex_gaussian")
            spin, _ = evaluate(SpinOperator(m, "breve", statistics))
            if statistics == "bosonic":
                ry = permanent_ryser(m)
                nv = permanent_naive(m)
                if _rel(spin, ry) > 1e-11 or _rel(spin, nv) > 1e-11:
                    return f"mismatch at n={n} seed={seed}"
            else:
                det = determinant_gauss(m)
                if _rel(spin, det) > 1e-11:
                    return f"mismatch at n={n} seed={seed}"
    if statistics == "bosonic":
        for n in range(2, 6):
            m = random_matrix(n, n, "zero_one", backend="exact")
            spin, _ = evaluate(SpinOperator(m, "breve", "bosonic"))
            if not (spin == permanent_ryser(m) == permanent_naive(m)):
                return f"exact mismatch at n={n}"
    return None


def _check_op_counts() -> str | None:
    for n in range(1, 7):
        m = random_matrix(n, 0, "complex_gaussian")
        _, count = evaluate(SpinOperator(m, "breve", "bosonic"))
        if count.total != n * 2**n or count.total != spin_op_count(n).total:
            return f"spin count {count.total} != {n * 2 ** n} at n={n}"
        if ryser_op_count(n).total != n * 2 ** (n + 1) - (n + 1) ** 2:
            return f"ryser count off at n={n}"
    return None


def _check_spectrum() -> str | None:
    for n in (3, 4):
        for seed in range(2):
            m = random_matrix(n, seed, "complex_gaussian")
            for stats in ("bosonic", "fermionic"):
                rep = verify_spectrum(SpinOperator(m, "breve", stats), tol=1e-8)
                if rep.rank != n or rep.nullity != 2**n - 1 - n:
                    return f"rank/nullity off at n={n} {stats}"
    return None


def _check_kernel_ranks() -> str | None:
    m3 = random_matrix(3, 1, "complex_gaussian")
    m4 = random_matrix(4, 1, "complex_gaussian")
    if generalized_kernel_ranks(SpinOperator(m3, "breve", "bosonic")) != [2, 2]:
        return "bosonic n=3 ranks"
    if generalized_kernel_ranks(SpinOperator(m3, "breve", "fermionic")) != [3, 1]:
        return "fermionic n=3 ranks"
    if generalized_kernel_ranks(SpinOperator(m4, "breve", "bosonic"))[0] != 5:
        return "bosonic n=4 r1"
    for n in (3, 4, 5):
        m = random_matrix(n, 2, "complex_gaussian")
        for stats in ("bosonic", "fermionic"):
            ranks = generalized_kernel_ranks(SpinOperator(m, "breve", stats))
            if n + sum(ranks) != 2**n - 1:
                return f"rank-nullity sum at n={n} {stats}"
    return None


def _check_fermionic_reduction() -> str | None:
    rep = fermionic_matches_gaussian(random_matrix(3, 5, "complex_gaussian"))
    if not rep.ok:
        return "n=3 entry comparison"
    for n in range(3, 7):
        m = random_matrix(n, n, "complex_gaussian")
        trace = reduce_fully(SpinOperator(m, "breve", "fermionic"))
        if _rel(trace.final_product, determinant_gauss(m)) > 1e-9:
            return f"final product at n={n}"
    return None


def _check_bosonic_reduction() -> str | None:
    m = random_matrix(3, 5, "complex_gaussian")
    w = m.entries
    trace = reduce_fully(SpinOperator(m, "breve", "bosonic"))
    if _rel(trace.final_product, permanent_ryser(m)) > 1e-9:
        return "n=3 final product"
    texts = [s.text for s in trace.rounds[0].basis]
    x = trace.rounds[0].operator[texts.index("110"), texts.index("001")]
    x_expected = (w[1, 0] * w[2, 1] + w[1, 1] * w[2, 0]) / w[2, 2]
    if _rel(x, x_expected) > 1e-10:
        return "n=3 fill weight"
    m4 = random_matrix(4, 9, "complex_gaussian")
    trace4 = reduce_fully(SpinOperator(m4, "breve", "bosonic"))
    stats = trace4.rounds[0].fill_stats
    if stats != N4_BOSONIC_FILL_STATS or sum(stats) != N4_BOSONIC_FILL_ENTRIES:
        return f"n=4 round-1 fill stats {stats} (total {sum(stats)})"
    return None


def _check_graph_oracle() -> str | None:
    for n in range(2, 6):
        m = random_matrix(n, 3, "complex_gaussian")
        for stats in ("bosonic", "fermionic"):
            op = SpinOperator(m, "breve", stats)
            g = graph_from_operator(op)
            value, _ = evaluate(op)
            if _rel(path_sum(g), value) > 1e-11:
                return f"path sum at n={n} {stats}"
            if count_paths(g) != math.factorial(n):
                return f"path count at n={n}"
        trace = reduce_fully(SpinOperator(m, "breve", "bosonic"))
        if count_paths(graph_from_reduction(trace, n - 1)) != 1:
            return f"reduced path count at n={n}"
    return None


CHECKS = [
    ("oracle triangle (permanent)", lambda: _check_oracle_triangle("bosonic")),
    ("oracle triangle (determinant)", lambda: _check_oracle_triangle("fermionic")),
    ("operation counts", _check_op_counts),
    ("spectral claims", _check_spectrum),
    ("generalized kernel ranks", _check_kernel_ranks),
    ("reduction matches elimination", _check_fermionic_reduction),
    ("bosonic reduction", _check_bosonic_reduction),
    ("graph oracle", _check_graph_oracle),
]


def run_selftest(emit=print) -> bool:
    """Run every check, emit one pass/fail line each, return overall status."""
    all_ok = True
    for name, check in CHECKS:
        try:
            failure = check()
        except SpinpermError as exc:
            failure = f"{type(exc).__name__}: {exc}"
        if failure is None:
            emit(f"PASS {name}")
        else:
            emit(f"FAIL {name}: {failure}")
            all_ok = False
    return all_ok
