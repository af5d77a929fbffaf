import math

import numpy as np
import pytest

from conftest import rel_err
from spinperm import (
    SizeGuardError,
    SquareMatrix,
    ZeroPivotError,
    determinant_gauss,
    lower_triangular_reduce,
    permanent_naive,
    permanent_ryser,
    random_matrix,
)
from spinperm.oracles import log_rounding_scale


def test_naive_identity():
    assert permanent_naive(SquareMatrix.from_array(np.eye(3))) == 1


def test_naive_all_ones():
    assert permanent_naive(SquareMatrix.from_array(np.ones((3, 3)))) == 6


def test_naive_2x2():
    assert permanent_naive(SquareMatrix.from_array([[1, 2], [3, 4]])) == 10


def test_naive_size_guard():
    with pytest.raises(SizeGuardError):
        permanent_naive(random_matrix(11, 0, "zero_one"))


def test_ryser_all_ones_4x4():
    assert rel_err(permanent_ryser(SquareMatrix.from_array(np.ones((4, 4)))), 24) < 1e-13


def test_ryser_identity5():
    assert rel_err(permanent_ryser(SquareMatrix.from_array(np.eye(5))), 1) < 1e-13


def test_ryser_matches_naive_seeded():
    m = random_matrix(6, 42, "complex_gaussian")
    assert rel_err(permanent_ryser(m), permanent_naive(m)) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_agreement_grid(n, seed):
    m = random_matrix(n, seed, "complex_gaussian")
    assert rel_err(permanent_ryser(m), permanent_naive(m)) < 1e-12


def test_exact_oracles_identical():
    for n in range(2, 7):
        m = random_matrix(n, n + 1, "zero_one", backend="exact")
        assert permanent_ryser(m) == permanent_naive(m)


def test_cross_backend_integer():
    for n in range(2, 8):
        exact = random_matrix(n, n, "zero_one", backend="exact")
        floats = exact.to_float()
        assert rel_err(permanent_ryser(exact), permanent_ryser(floats)) < 1e-12
        assert rel_err(determinant_gauss(exact), determinant_gauss(floats)) < 1e-12


def test_det_2x2():
    assert rel_err(determinant_gauss(SquareMatrix.from_array([[1, 2], [3, 4]])), -2) < 1e-14


def test_det_singular_is_exact_zero():
    assert determinant_gauss(SquareMatrix.from_array(np.ones((2, 2)))) == 0


def test_det_is_a_python_complex(m3):
    assert type(determinant_gauss(m3)) is complex


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("axis", [0, 1])
def test_det_is_exactly_zero_with_a_zero_line(n, axis):
    a = random_matrix(n, n, "complex_gaussian").to_array()
    a.swapaxes(0, axis)[n // 2] = 0
    assert determinant_gauss(SquareMatrix.from_array(a)) == 0


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("seed", range(5))
def test_det_is_within_its_rounding_scale_of_the_exact_determinant(n, seed):
    m = random_matrix(n, seed, "zero_one")
    exact = complex(determinant_gauss(random_matrix(n, seed, "zero_one", backend="exact")))
    assert abs(determinant_gauss(m) - exact) <= math.exp(log_rounding_scale(m))


def test_det_matches_cofactor_expansion_n3(m3):
    # six-term expansion of the 3x3 determinant, computed independently
    w = m3.entries
    expected = (
        w[0, 0] * (w[1, 1] * w[2, 2] - w[1, 2] * w[2, 1])
        - w[0, 1] * (w[1, 0] * w[2, 2] - w[1, 2] * w[2, 0])
        + w[0, 2] * (w[1, 0] * w[2, 1] - w[1, 1] * w[2, 0])
    )
    assert rel_err(determinant_gauss(m3), expected) < 1e-12


def test_row_swap_flips_det_sign(m3):
    swapped = m3.entries.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert rel_err(determinant_gauss(SquareMatrix.from_array(swapped)),
                   -determinant_gauss(m3)) < 1e-12


def test_row_permutation_leaves_permanent(m3):
    swapped = m3.entries.copy()
    swapped[[0, 2]] = swapped[[2, 0]]
    assert rel_err(permanent_ryser(SquareMatrix.from_array(swapped)),
                   permanent_ryser(m3)) < 1e-12


def test_transpose_laws(m3):
    t = m3.transpose()
    assert rel_err(permanent_ryser(t), permanent_ryser(m3)) < 1e-12
    assert rel_err(determinant_gauss(t), determinant_gauss(m3)) < 1e-12


def test_lower_triangular_round_formulas(m3):
    w, e1, e2 = lower_triangular_reduce(m3)
    assert np.array_equal(w, m3.entries)
    assert rel_err(e1[0, 0], w[0, 0] - w[0, 2] * w[1, 0] / w[1, 2]) < 1e-12
    assert rel_err(e1[0, 1], w[0, 1] - w[0, 2] * w[1, 1] / w[1, 2]) < 1e-12
    assert rel_err(e1[1, 0], w[1, 0] - w[1, 2] * w[2, 0] / w[2, 2]) < 1e-12
    assert rel_err(e1[1, 1], w[1, 1] - w[1, 2] * w[2, 1] / w[2, 2]) < 1e-12
    assert rel_err(e2[0, 0], e1[0, 0] - e1[0, 1] * e1[1, 0] / e1[1, 1]) < 1e-12


def test_lower_triangular_diag_product(m3):
    reduced = lower_triangular_reduce(m3)[-1]
    diag = np.prod(np.diag(reduced))
    assert rel_err(diag, determinant_gauss(m3)) < 1e-10
    upper = np.triu(reduced, k=1)
    assert np.max(np.abs(upper)) < 1e-10 * np.max(np.abs(reduced))


def test_lower_triangular_identity_unchanged(identity3):
    rounds = lower_triangular_reduce(identity3)
    assert len(rounds) == 3
    assert all(np.array_equal(e, np.eye(3)) for e in rounds)


def test_lower_triangular_zero_pivot():
    arr = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 0.0], [7.0, 8.0, 9.0]])
    with pytest.raises(ZeroPivotError) as exc:
        lower_triangular_reduce(SquareMatrix.from_array(arr))
    assert exc.value.entry == (1, 2)


def test_lower_triangular_larger_n():
    for n in (4, 5, 6):
        m = random_matrix(n, n, "complex_gaussian")
        reduced = lower_triangular_reduce(m)[-1]
        diag = np.prod(np.diag(reduced))
        assert rel_err(diag, determinant_gauss(m)) < 1e-10


def test_ryser_op_count_matches_counting_reference():
    """A physically counted enumeration takes Ryser's cited operation count.

    Reference algorithm: depth-first subset extension where each subset's
    row sums come from its parent by adding one column and singletons are
    plain column copies.
    """
    for n in range(1, 11):
        a = np.arange(1, n * n + 1, dtype=np.complex128).reshape(n, n)
        counted = {"mult": 0, "add": 0}
        total = [0j]
        first = [True]

        def visit(rows, size):
            prod = rows[0]
            for x in rows[1:]:
                prod *= x
                counted["mult"] += 1
            term = prod if (n - size) % 2 == 0 else -prod
            if first[0]:
                total[0] = term
                first[0] = False
            else:
                total[0] += term
                counted["add"] += 1

        def extend(rows, size, next_col):
            for j in range(next_col, n):
                if rows is None:
                    new_rows = list(a[:, j])
                else:
                    new_rows = [r + c for r, c in zip(rows, a[:, j])]
                    counted["add"] += n
                visit(new_rows, size + 1)
                extend(new_rows, size + 1, j + 1)

        extend(None, 0, 0)
        # Ryser's count as cited: n*2**(n+1) - (n+1)**2 in total
        assert counted["mult"] == (n - 1) * (2**n - 1)
        assert counted["add"] == n * (2**n - 1 - n) + 2**n - 2
        assert counted["mult"] + counted["add"] == n * 2 ** (n + 1) - (n + 1) ** 2
        assert rel_err(total[0], permanent_ryser(SquareMatrix.from_array(a))) < 1e-10


def test_rounding_scale_is_finite_where_its_product_overflows():
    # ∏‖aᵢ‖₂ = 5e300 · 1e300 · 1e-300 overflows a double; its log does not
    eps = np.finfo(np.float64).eps
    m = SquareMatrix.from_array([[3e300, 4e300, 0], [0, 1e300, 0], [0, 0, 1e-300]])
    expected = math.log(3 * eps) + math.log(5e300) + math.log(1e300) + math.log(1e-300)
    assert math.isclose(log_rounding_scale(m), expected, rel_tol=1e-12)
    assert log_rounding_scale(SquareMatrix.from_array([[1, 2], [0, 0]])) == -math.inf
