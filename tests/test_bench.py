import pytest

from spinperm import SizeGuardError
from spinperm.bench import bench_suite
from spinperm.operator import spin_op_count


@pytest.mark.parametrize("n", range(1, 21))
def test_op_count_closed_forms(n):
    assert spin_op_count(n).total == n * 2**n


def test_bench_n10_spin_ops():
    rows = bench_suite(10, 10, repeats=1)["rows"]
    assert [r["ops"] for r in rows if r["method"] == "sweep"] == [10240]


def test_bench_suite_rows():
    report = bench_suite(1, 10, repeats=3)
    assert report["repeats"] == 3
    assert set(report["environment"]) >= {"numpy", "longdouble_mantissa_bits", "cpu_count",
                                          "OPENBLAS_NUM_THREADS"}
    rows = report["rows"]
    # one row per (n, method), both methods in complex128
    assert [(r["n"], r["method"]) for r in rows] == [
        (n, m) for n in range(1, 11) for m in ("sweep", "ryser")]
    assert all(r["dtype"] == "complex128" for r in rows)
    sweep = [r for r in rows if r["method"] == "sweep"]
    assert all(r["ops"] == r["n"] * 2 ** r["n"] for r in sweep)
    assert all(r["rel_err"] <= 1e-12 for r in sweep)
    assert all(r["ops"] is None for r in rows if r["method"] == "ryser")
    assert all(r["median_s"] > 0 and r["iqr_s"] >= 0 for r in rows)


def test_bench_suite_deterministic_ops():
    a = bench_suite(3, 3, repeats=1)["rows"]
    b = bench_suite(3, 3, repeats=1)["rows"]
    key = ("n", "method", "ops", "rel_err")
    assert [[r[k] for k in key] for r in a] == [[r[k] for k in key] for r in b]


def test_bench_guard():
    with pytest.raises(SizeGuardError):
        bench_suite(2, 27)
    with pytest.raises(ValueError):
        bench_suite(5, 2)
