import cmath

import numpy as np
import pytest

from conftest import rel_err
from spinperm import (
    SpinOperator,
    SquareMatrix,
    ZeroPermanentError,
    evaluate,
    random_matrix,
)
from spinperm import bits, rref, spectral
from spinperm.operator import dense_operator
from spinperm.spectral import (
    SPECTRAL_MAX_N,
    block_decompose,
    build_eigenvector,
    generalized_kernel_ranks,
    hermitian_parts,
    principal_root,
    verify_spectrum,
)


def test_eigenvector_k0_identity():
    m = SquareMatrix.from_array(np.eye(3))
    op = SpinOperator(m, "breve", "bosonic")
    phi = build_eigenvector(op, 1, 1.0)
    dense = dense_operator(op)
    lam = cmath.exp(-2j * cmath.pi / 3)
    assert np.linalg.norm(dense @ phi - lam * phi) < 1e-12 * np.linalg.norm(phi)


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_eigenvector_residuals_n4(statistics):
    m = random_matrix(4, 8, "complex_gaussian")
    op = SpinOperator(m, "breve", statistics)
    P, _ = evaluate(op)
    dense = dense_operator(op)
    root = principal_root(complex(P), 4)
    for k in range(4):
        phi = build_eigenvector(op, k, P)
        lam = cmath.exp(-2j * cmath.pi * k / 4) * root
        assert np.linalg.norm(dense @ phi - lam * phi) <= 1e-8 * np.linalg.norm(phi)


def test_eigenvector_zero_permanent_rejected(m3):
    op = SpinOperator(m3, "breve", "bosonic")
    with pytest.raises(ZeroPermanentError):
        build_eigenvector(op, 0, 0.0)


def test_eigenvectors_linearly_independent(m3):
    op = SpinOperator(m3, "breve", "bosonic")
    P, _ = evaluate(op)
    vs = np.array([build_eigenvector(op, k, P) for k in range(3)])
    gram = vs.conj() @ vs.T
    assert abs(np.linalg.det(gram)) > 1e-8


def test_verify_spectrum_identity():
    op = SpinOperator(SquareMatrix.from_array(np.eye(3)), "breve", "bosonic")
    report = verify_spectrum(op)
    assert report.rank == 3 and report.nullity == 4
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    eigs = sorted((lam for _, lam, _ in report.eigenpairs), key=key)
    expected = sorted((cmath.exp(-2j * cmath.pi * k / 3) for k in range(3)), key=key)
    for got, want in zip(eigs, expected):
        assert abs(got - want) < 1e-10


def test_verify_spectrum_tilde_roots():
    m = random_matrix(3, 4, "complex_gaussian")
    op = SpinOperator(m, "tilde", "bosonic")
    P, _ = evaluate(op)
    report = verify_spectrum(op)
    assert len(report.eigenpairs) == 4
    for _, lam, _ in report.eigenpairs:
        assert rel_err(lam**4, P) < 1e-9


def test_verify_spectrum_fermionic_roots(m3):
    op = SpinOperator(m3, "breve", "fermionic")
    D, _ = evaluate(op)
    report = verify_spectrum(op)
    for _, lam, _ in report.eigenpairs:
        assert rel_err(lam**3, D) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_rank_nullity_stable(n, statistics):
    m = random_matrix(n, n + 30, "complex_gaussian")
    report = verify_spectrum(SpinOperator(m, "breve", statistics))
    assert report.rank == n
    assert report.nullity == 2**n - 1 - n
    assert n + sum(report.generalized_kernel_ranks) == 2**n - 1


def test_report_serializes(m3):
    report = verify_spectrum(SpinOperator(m3, "breve", "bosonic"))
    doc = report.to_json_dict()
    assert doc["rank"] == 3
    assert len(doc["eigenpairs"]) == 3
    assert isinstance(doc["permanent"], str)


def test_block_decompose_properties(m3):
    op = SpinOperator(m3, "breve", "bosonic")
    P, _ = evaluate(op)
    blocks = block_decompose(op)
    assert [b.shape[0] for b in blocks] == [1, 3, 3]
    assert rel_err(blocks[0][0, 0], P) < 1e-10
    for block in blocks:
        assert rref.matrix_rank(block) == 1
        assert rel_err(np.trace(block), P) < 1e-9


@pytest.mark.parametrize("n", [4, 5])
def test_block_dimensions_binomial(n):
    import math

    m = random_matrix(n, 3, "complex_gaussian")
    blocks = block_decompose(SpinOperator(m, "breve", "bosonic"))
    assert [b.shape[0] for b in blocks] == [math.comb(n, h) for h in range(n)]


def test_hermitian_parts_eigenvalue(m3):
    op = SpinOperator(m3, "breve", "bosonic")
    P, _ = evaluate(op)
    m_r, m_i = hermitian_parts(op)
    e0 = np.zeros(7, dtype=np.complex128)
    e0[0] = 1.0
    assert np.linalg.norm(m_r @ e0 - complex(P).real * e0) < 1e-10 * max(abs(P), 1)
    assert np.linalg.norm(m_i @ e0 - complex(P).imag * e0) < 1e-10 * max(abs(P), 1)
    assert np.max(np.abs(m_r - m_r.conj().T)) < 1e-12 * max(np.max(np.abs(m_r)), 1)


def test_hermitian_parts_real_matrix():
    m = random_matrix(3, 6, "real_uniform")
    op = SpinOperator(m, "breve", "bosonic")
    _, m_i = hermitian_parts(op)
    e0 = np.zeros(7, dtype=np.complex128)
    e0[0] = 1.0
    assert np.linalg.norm(m_i @ e0) < 1e-10


def test_hermitian_parts_tilde(m3):
    op = SpinOperator(m3, "tilde", "bosonic")
    P, _ = evaluate(op)
    m_r, _ = hermitian_parts(op)
    e0 = np.zeros(8, dtype=np.complex128)
    e0[0] = 1.0
    assert np.linalg.norm(m_r @ e0 - complex(P).real * e0) < 1e-9 * max(abs(P), 1)


def test_generalized_kernel_ranks_examples():
    m3 = random_matrix(3, 12, "complex_gaussian")
    m4 = random_matrix(4, 12, "complex_gaussian")
    assert generalized_kernel_ranks(SpinOperator(m3, "breve", "bosonic")) == [2, 2]
    assert generalized_kernel_ranks(SpinOperator(m3, "breve", "fermionic")) == [3, 1]
    ranks4 = generalized_kernel_ranks(SpinOperator(m4, "breve", "bosonic"))
    assert ranks4[0] == 5
    assert 4 + sum(ranks4) == 15


def test_generalized_kernel_ranks_zero_permanent():
    m = SquareMatrix.from_array(np.zeros((3, 3)))
    with pytest.raises(ZeroPermanentError):
        generalized_kernel_ranks(SpinOperator(m, "breve", "bosonic"))


def test_spectral_size_guard():
    m = random_matrix(SPECTRAL_MAX_N + 1, 0, "zero_one")
    from spinperm import SizeGuardError

    with pytest.raises(SizeGuardError):
        verify_spectrum(SpinOperator(m, "breve", "bosonic"))


def test_verify_spectrum_zero_permanent():
    m = SquareMatrix.from_array(np.zeros((3, 3)))
    with pytest.raises(ZeroPermanentError):
        verify_spectrum(SpinOperator(m, "breve", "bosonic"))


def test_verify_spectrum_impossible_tolerance(m3):
    from spinperm import SpectralMismatchError

    with pytest.raises(SpectralMismatchError) as exc:
        verify_spectrum(SpinOperator(m3, "breve", "bosonic"), tol=1e-300)
    assert exc.value.k is not None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("variant", ["breve", "tilde"])
def test_verify_spectrum_walks_one_power_chain(monkeypatch, n, variant):
    # n-1 kernel nullities and one stable rank, all off one chain of powers
    # of the one dense operator
    calls = {"rref": 0, "dense_operator": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(rref, "rref", counting("rref", rref.rref))
    monkeypatch.setattr(spectral, "dense_operator", counting("dense_operator", dense_operator))
    report = verify_spectrum(SpinOperator(random_matrix(n, n, "complex_gaussian"), variant,
                                          "bosonic"))
    assert report.rank == n + (variant == "tilde")
    assert calls == {"rref": n, "dense_operator": 1}


def test_block_decompose_and_hermitian_parts_read_the_chain(monkeypatch, m3):
    def no_matrix_power(*args):
        raise AssertionError("np.linalg.matrix_power called")

    monkeypatch.setattr(np.linalg, "matrix_power", no_matrix_power)
    op = SpinOperator(random_matrix(5, 2, "complex_gaussian"), "breve", "fermionic")
    assert len(block_decompose(op)) == 5
    hermitian_parts(op)
    hermitian_parts(SpinOperator(m3, "tilde", "bosonic"))


@pytest.mark.parametrize("n", [1, 3, 6])
def test_block_decompose_matches_binary_powering(n):
    op = SpinOperator(random_matrix(n, 4, "complex_gaussian"), "breve", "bosonic")
    power = np.linalg.matrix_power(dense_operator(op), n)
    scale = np.max(np.abs(power))
    for h, block in enumerate(block_decompose(op)):
        idx = bits.level_codes(n, h)
        assert np.max(np.abs(block - power[np.ix_(idx, idx)])) <= 1e-12 * scale
