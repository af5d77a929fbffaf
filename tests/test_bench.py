import pytest

from spinperm import SizeGuardError
from spinperm.bench import BenchRow, bench_suite, rows_to_csv, ryser_op_count
from spinperm.operator import spin_op_count


@pytest.mark.parametrize("n", range(1, 21))
def test_op_count_closed_forms(n):
    assert spin_op_count(n).total == n * 2**n
    assert ryser_op_count(n).total == n * 2 ** (n + 1) - (n + 1) ** 2


def test_ryser_count_examples():
    assert ryser_op_count(3).total == 32
    assert ryser_op_count(1).total == 0


def test_bench_n10_spin_ops():
    rows = bench_suite(10, 10, repeats=1)
    assert [r.ops for r in rows if r.method == "spin"] == [10240]


def test_bench_suite_rows():
    rows = bench_suite(2, 5, repeats=3)
    assert len(rows) == 8
    spin = {r.n: r.ops for r in rows if r.method == "spin"}
    assert spin == {2: 8, 3: 24, 4: 64, 5: 160}
    ryser = {r.n: r.ops for r in rows if r.method == "ryser"}
    assert ryser[5] == 5 * 2**6 - 36
    assert all(r.median_ns >= 0 for r in rows)


def test_bench_suite_deterministic_ops():
    a = bench_suite(3, 3, repeats=1)
    b = bench_suite(3, 3, repeats=1)
    assert [(r.n, r.method, r.ops) for r in a] == [(r.n, r.method, r.ops) for r in b]


def test_bench_csv_header():
    csv = rows_to_csv([BenchRow(3, "spin", 24, 1000)])
    assert csv.splitlines()[0] == "n,method,ops,median_ns"
    assert csv.splitlines()[1] == "3,spin,24,1000"


def test_bench_guard():
    with pytest.raises(SizeGuardError):
        bench_suite(2, 27)
    with pytest.raises(ValueError):
        bench_suite(5, 2)
