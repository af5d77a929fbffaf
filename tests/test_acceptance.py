"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Run as ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from conftest import rel_err
from spinperm import (
    SpinOperator,
    determinant_gauss,
    evaluate,
    permanent_naive,
    permanent_ryser,
    random_matrix,
)
from spinperm import rref
from spinperm.bench import ryser_op_count
from spinperm.graph import count_paths, graph_from_operator, graph_from_reduction, path_sum
from spinperm.operator import dense_operator
from spinperm.reduction import fermionic_matches_gaussian, reduce_fully
from spinperm.selftest import N4_BOSONIC_FILL_ENTRIES, N4_BOSONIC_FILL_STATS
from spinperm.spectral import (
    build_eigenvector,
    generalized_kernel_ranks,
    principal_root,
    verify_spectrum,
)


class _Criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {status} criterion {self.number} "
              f"({self.description}) [{elapsed:.2f}s]")
        return False


def test_criterion_1_oracle_triangle_permanent():
    with _Criterion(1, "permanent oracle triangle"):
        start = time.perf_counter()
        for n in range(2, 9):
            for seed in range(20):
                m = random_matrix(n, seed, "complex_gaussian")
                spin, _ = evaluate(SpinOperator(m, "breve", "bosonic"))
                ry = permanent_ryser(m)
                nv = permanent_naive(m)
                assert rel_err(spin, ry) <= 1e-11
                assert rel_err(spin, nv) <= 1e-11
        for n in range(2, 9):
            for seed in range(20):
                m = random_matrix(n, seed, "zero_one", backend="exact")
                spin, _ = evaluate(SpinOperator(m, "breve", "bosonic"))
                assert spin == permanent_ryser(m) == permanent_naive(m)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_oracle_triangle_determinant():
    with _Criterion(2, "determinant oracle triangle"):
        start = time.perf_counter()
        for n in range(2, 9):
            for seed in range(20):
                m = random_matrix(n, seed, "complex_gaussian")
                spin, _ = evaluate(SpinOperator(m, "breve", "fermionic"))
                assert rel_err(spin, determinant_gauss(m)) <= 1e-11
        assert time.perf_counter() - start < 10.0


def test_criterion_3_operation_counts():
    with _Criterion(3, "operation counts n=1..20"):
        for n in range(1, 21):
            m = random_matrix(n, 0, "complex_gaussian")
            _, count = evaluate(SpinOperator(m, "breve", "bosonic"))
            assert count.total == n * 2**n
            assert ryser_op_count(n).total == n * 2 ** (n + 1) - (n + 1) ** 2


def test_criterion_4_spectral_claims():
    with _Criterion(4, "spectral claims n=3,4,5"):
        start = time.perf_counter()
        for n in (3, 4, 5):
            for seed in range(5):
                m = random_matrix(n, seed, "complex_gaussian")
                op = SpinOperator(m, "breve", "bosonic")
                P, _ = evaluate(op)
                dense = dense_operator(op)
                root = principal_root(complex(P), n)
                for k in range(n):
                    phi = build_eigenvector(op, k, P)
                    lam = np.exp(-2j * np.pi * k / n) * root
                    resid = np.linalg.norm(dense @ phi - lam * phi)
                    assert resid <= 1e-8 * np.linalg.norm(phi)
                    assert rel_err(lam**n, P) <= 1e-8
                report = verify_spectrum(op, tol=1e-8)
                assert report.rank == n
                assert report.nullity == 2**n - 1 - n
                # n-th power block structure: rank-1 blocks of trace P
                from spinperm.spectral import block_decompose

                blocks = block_decompose(op, tol=1e-8)
                for block in blocks:
                    assert rref.matrix_rank(block) == 1
                    assert rel_err(np.trace(block), P) <= 1e-8
        assert time.perf_counter() - start < 30.0


def test_criterion_5_generalized_kernel_ranks():
    with _Criterion(5, "generalized kernel ranks"):
        for seed in range(3):
            m3 = random_matrix(3, seed, "complex_gaussian")
            m4 = random_matrix(4, seed, "complex_gaussian")
            assert generalized_kernel_ranks(
                SpinOperator(m3, "breve", "bosonic")) == [2, 2]
            assert generalized_kernel_ranks(
                SpinOperator(m3, "breve", "fermionic")) == [3, 1]
            assert generalized_kernel_ranks(
                SpinOperator(m4, "breve", "bosonic"))[0] == 5
        for n in (3, 4, 5):
            for stats in ("bosonic", "fermionic"):
                m = random_matrix(n, 7, "complex_gaussian")
                ranks = generalized_kernel_ranks(SpinOperator(m, "breve", stats))
                assert n + sum(ranks) == 2**n - 1


def test_criterion_6_reduction_matches_elimination():
    with _Criterion(6, "reduction = Gaussian elimination"):
        start = time.perf_counter()
        for seed in range(5):
            report = fermionic_matches_gaussian(
                random_matrix(3, seed, "complex_gaussian"), entry_tol=1e-10
            )
            assert report.ok
            assert all(c["rel_err"] <= 1e-10 for c in report.comparisons)
        for n in range(3, 9):
            m = random_matrix(n, n, "complex_gaussian")
            trace = reduce_fully(SpinOperator(m, "breve", "fermionic"))
            assert rel_err(trace.final_product, determinant_gauss(m)) <= 1e-9
        assert time.perf_counter() - start < 30.0


def test_criterion_7a_bosonic_reduction_n3():
    with _Criterion("7a", "bosonic reduction n=3 fill weight and product"):
        for seed in range(5):
            m = random_matrix(3, seed, "complex_gaussian")
            w = m.entries
            trace = reduce_fully(SpinOperator(m, "breve", "bosonic"))
            assert rel_err(trace.final_product, permanent_ryser(m)) <= 1e-9
            texts = [s.text for s in trace.rounds[0].basis]
            x = trace.rounds[0].operator[texts.index("110"), texts.index("001")]
            x_expected = (w[1, 0] * w[2, 1] + w[1, 1] * w[2, 0]) / w[2, 2]
            assert rel_err(x, x_expected) <= 1e-10


def _n4_bosonic_kernel(w):
    """Closed-form round-1 kernel of the n=4 bosonic breve operator.

    Listed in leading-coordinate order; ``e_i ⊗ e_j`` is the state with
    sites i and j occupied.
    """
    def e(label):
        v = np.zeros(15, dtype=np.complex128)
        v[int(label, 2)] = 1.0
        return v

    a, b = w[2, 0] / w[2, 2], w[2, 1] / w[2, 3]
    c, d = w[2, 0] / w[2, 1], w[2, 2] / w[2, 3]
    # (e_2 - a e_0) ⊗ (e_3 - b e_1) and (e_1 - c e_0) ⊗ (e_3 - d e_2)
    v0011 = e("0011") - b * e("0110") - a * e("1001") + a * b * e("1100")
    v0101 = e("0101") - d * e("0110") - c * e("1001") + c * d * e("1010")
    # level 3 closes onto the empty state: e_l - w[3, s_l] / w[3, 3] e_1110
    closing = [
        e(label) - w[3, site] / w[3, 3] * e("1110")
        for label, site in (("0111", 0), ("1011", 1), ("1101", 2))
    ]
    return [v0011, v0101, *closing]


def _edges(state):
    """Nonzero operator entries keyed by (source, target) label."""
    op = state.operator
    labels = [s.text for s in state.basis]
    eps = 1e-9 * float(np.max(np.abs(op)))
    return {
        (labels[s], labels[t]): complex(op[t, s])
        for t, s in zip(*np.nonzero(np.abs(op) > eps))
    }


N4_REWEIGHTED_EDGES = {
    ("0010", "0110"), ("0100", "0110"), ("0001", "1001"),
    ("0110", "1110"), ("1010", "1110"), ("1100", "1110"),
}
N4_NEW_EDGES = {
    ("0001", "0110"), ("0001", "1010"), ("0001", "1100"),
    ("0010", "1001"), ("0010", "1100"),
    ("0100", "1001"), ("0100", "1010"),
    ("1001", "1110"),
}


def test_criterion_7b_bosonic_reduction_n4_fill_stats():
    """Round-1 fill-in at n=4, bosonic: 24 entries, (6, 10, 8).

    With ``w[h, s]`` the weight for raising site s from level h, the kernel
    in leading-coordinate canonical form is, for generic M,

    - v_0011 = (e_2 - w20/w22 e_0) ⊗ (e_3 - w21/w23 e_1)
    - v_0101 = (e_1 - w20/w21 e_0) ⊗ (e_3 - w22/w23 e_2)
    - v_l = e_l - (w[3, s_l]/w33) e_1110 for l in {0111, 1011, 1101},
      s_l the empty site of l

    so the removed lead states are {0011, 0101, 0111, 1011, 1101}.  From
    these supports, all 16 old edges among the ten kept states survive in
    B @ A: 6 are reweighted (those into 0110, 1110 and 0001 -> 1001) and 10
    are unchanged.  Exactly 8 edges are new: 0001 -> {0110, 1010, 1100},
    0010 -> {1001, 1100}, 0100 -> {1001, 1010} and 1001 -> 1110.  That is
    24 entries classified (6, 10, 8).

    Every one of the 48 lead sets that admit a kernel basis gives 24
    entries: (6, 10, 8) x12, (5, 10, 9) x24, (4, 10, 10) x12, so no removal
    reaches 23.  The figures (5, 9, 9) with 23 entries sometimes quoted for
    this round count *distinct weights* per class for a (5, 10, 9) lead set,
    where two unchanged edges (0010 -> 1010, 0100 -> 1100) both carry
    w[1, 0].
    """
    with _Criterion("7b", "bosonic reduction n=4 fill statistics"):
        for seed in range(10):
            m = random_matrix(4, seed, "complex_gaussian")
            trace = reduce_fully(SpinOperator(m, "breve", "bosonic"))
            round1 = trace.rounds[0]
            assert [s.text for s in round1.removed] == [
                "0011", "0101", "0111", "1011", "1101"]
            expected = _n4_bosonic_kernel(m.entries)
            assert len(round1.kernel_vectors) == len(expected)
            for v, x in zip(round1.kernel_vectors, expected):
                assert np.max(np.abs(v - x)) <= 1e-12 * np.max(np.abs(x))

            stats = round1.fill_stats
            assert stats == N4_BOSONIC_FILL_STATS, f"fill stats {stats}"
            assert sum(stats) == N4_BOSONIC_FILL_ENTRIES

            old, new = _edges(trace.initial), _edges(round1)
            kept = {s.text for s in round1.basis}
            old_kept = {e for e in old if e[0] in kept and e[1] in kept}
            assert len(old_kept) == 16
            assert old_kept <= set(new)
            assert set(new) - old_kept == N4_NEW_EDGES
            reweighted = {e for e in old_kept if rel_err(new[e], old[e]) > 1e-12}
            assert reweighted == N4_REWEIGHTED_EDGES


def test_criterion_8_graph_oracle():
    with _Criterion(8, "graph path-sum oracle"):
        for n in range(2, 7):
            for stats in ("bosonic", "fermionic"):
                m = random_matrix(n, n, "complex_gaussian")
                op = SpinOperator(m, "breve", stats)
                g = graph_from_operator(op)
                value, _ = evaluate(op)
                assert rel_err(path_sum(g), value) <= 1e-11
                assert count_paths(g) == math.factorial(n)
            trace = reduce_fully(SpinOperator(m, "breve", "bosonic"))
            assert count_paths(graph_from_reduction(trace, n - 1)) == 1


def test_criterion_9_scale_demonstration():
    with _Criterion(9, "n=24 scale demonstration"):
        import resource

        from click.testing import CliRunner

        from spinperm.cli import main

        start = time.perf_counter()
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["perm", "--gen", "n=24,seed=0", "--format", "json"],
            catch_exceptions=False,
        )
        perm_elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        import json

        doc = json.loads(result.output)
        value = complex(doc["permanent"].replace("i", "j"))
        assert doc["total_ops"] == 24 * 2**24
        ry = permanent_ryser(random_matrix(24, 0, "complex_gaussian"))
        assert rel_err(value, ry) <= 1e-9  # the hard check
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  [criterion 9: perm wall {perm_elapsed:.1f}s, "
              f"peak rss {peak_mb:.0f} MB]")
        assert perm_elapsed < 120.0
        assert peak_mb < 1024.0
