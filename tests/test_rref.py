import numpy as np
import pytest

from spinperm import SpinOperator, random_matrix, rref
from spinperm.operator import dense_operator


def test_rref_identity():
    r, pivots = rref.rref(np.eye(3))
    assert np.allclose(r, np.eye(3))
    assert pivots == [0, 1, 2]


def test_support_drops_entries_at_or_below_the_zero_threshold():
    a = np.array([[2, 2e-9], [3e-9, 0]], dtype=np.complex128)
    rows, cols = rref.support(a)
    assert (rows.tolist(), cols.tolist()) == ([0, 1], [0, 0])


def test_rank_and_nullity():
    a = np.array([[1, 2, 3], [2, 4, 6], [1, 1, 1]], dtype=np.complex128)
    assert rref.matrix_rank(a) == 2
    assert rref.nullity(a) == 1


def test_nullspace_vectors_annihilated():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    ns = rref.nullspace(a)
    assert len(ns) == 2
    for v in ns:
        assert np.linalg.norm(a @ v) < 1e-10 * np.linalg.norm(v)


def assert_leading_canonical(a, basis):
    """Leads ascend; each vector is 1 at its lead and 0 at the others'; A v = 0."""
    leads = [rref.leading_index(v) for v in basis]
    assert None not in leads and leads == sorted(set(leads))
    for v, lead in zip(basis, leads):
        assert v[lead] == 1
        assert all(v[other] == 0 for other in leads if other != lead)
        assert np.linalg.norm(a @ v) <= 1e-10 * np.linalg.norm(v)
    assert len(basis) == rref.nullity(a)


def test_kernel_leading_basis_by_hand():
    # kernel spanned by (0, 1, 2, 3) and (0, 2, 4, 7)
    a = np.array([[1, 0, 0, 0], [0, 2, -1, 0]], dtype=np.complex128)
    basis = rref.kernel_leading_basis(a)
    assert_leading_canonical(a, basis)
    assert [v.tolist() for v in basis] == [[0, 1, 2, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
@pytest.mark.parametrize("n", range(2, 7))
def test_kernel_leading_basis_canonical_and_basis_independent(n, statistics, seed):
    a = dense_operator(SpinOperator(random_matrix(n, seed), "breve", statistics))
    basis = rref.kernel_leading_basis(a)
    assert_leading_canonical(a, basis)
    # G @ A has the same kernel and different rows: the same canonical basis
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    again = rref.kernel_leading_basis(g @ a)
    assert_leading_canonical(g @ a, again)
    assert len(again) == len(basis)
    for u, v in zip(basis, again):
        assert np.allclose(u, v, rtol=0, atol=1e-12)


def test_kernel_leading_basis_full_rank():
    assert rref.kernel_leading_basis(np.eye(4)) == []


def test_complex_rank_threshold():
    a = np.array([[1, 1j], [1j, -1]], dtype=np.complex128)  # rank 1
    assert rref.matrix_rank(a) == 1
