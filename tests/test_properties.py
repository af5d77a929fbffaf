"""Property-based checks of the algebraic invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_err
from spinperm import (
    ExactComplex,
    SpinOperator,
    SquareMatrix,
    dense_operator,
    determinant_gauss,
    evaluate,
    format_complex,
    orbit,
    parse_complex_literal,
    permanent_naive,
    permanent_ryser,
    random_matrix,
)
from spinperm import bits
from spinperm.operator import embed_level_vector

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(re=finite, im=finite)
def test_complex_literal_roundtrip(re, im):
    z = complex(re, im)
    assert parse_complex_literal(format_complex(z)) == z


@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_oracle_agreement_any_seed(n, seed):
    m = random_matrix(n, seed, "complex_gaussian")
    assert rel_err(permanent_ryser(m), permanent_naive(m)) < 1e-12


@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_sweep_oracles_any_seed(n, seed):
    m = random_matrix(n, seed, "complex_gaussian")
    bos, count = evaluate(SpinOperator(m, "breve", "bosonic"))
    assert rel_err(bos, permanent_ryser(m)) < 1e-11
    ferm, _ = evaluate(SpinOperator(m, "breve", "fermionic"))
    assert rel_err(ferm, determinant_gauss(m)) < 1e-11
    assert count.total == n * 2**n


@given(data=st.data(), n=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_jw_sign_matches_dense_ratio(data, n):
    from spinperm.operator import dense_operator

    seed = data.draw(st.integers(0, 1000))
    m = random_matrix(n, seed, "complex_gaussian")
    bos = dense_operator(SpinOperator(m, "breve", "bosonic"))
    ferm = dense_operator(SpinOperator(m, "breve", "fermionic"))
    src = data.draw(st.integers(0, 2**n - 2))
    site = data.draw(st.integers(0, n - 1))
    bit = 1 << (n - 1 - site)
    if src & bit:
        return
    tgt = 0 if src.bit_count() == n - 1 else src | bit
    if bos[tgt, src] != 0:
        sign = -1 if bits.parity_below(src, bit) else 1
        assert ferm[tgt, src] == sign * bos[tgt, src]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_det_sign_and_permanent_symmetry(seed):
    m = random_matrix(4, seed, "complex_gaussian")
    arr = m.entries.copy()
    arr[[1, 3]] = arr[[3, 1]]
    swapped = SquareMatrix.from_array(arr)
    assert rel_err(determinant_gauss(swapped), -determinant_gauss(m)) < 1e-11
    assert rel_err(permanent_ryser(swapped), permanent_ryser(m)) < 1e-11


@pytest.mark.parametrize("split", [False, True], ids=["one_block", "split"])
@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
@pytest.mark.parametrize("n", range(1, 13))
def test_power_of_two_row_scaling_is_exact(monkeypatch, n, statistics, split):
    # scaling row h by 2**e_h scales every level-h weight, and so every
    # product and sum of the sweep, exactly: perm(DA) = prod(d) perm(A) and
    # det(DA) = prod(d) det(A) bit for bit (ROADMAP item 5)
    if split:
        monkeypatch.setattr(bits, "BLOCK_CUTOVER_N", 0)
    rng = np.random.default_rng([n, split])
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e = rng.integers(-20, 21, n)
    value, count = evaluate(SpinOperator(SquareMatrix.from_array(a), "breve", statistics))
    scaled, scaled_count = evaluate(
        SpinOperator(SquareMatrix.from_array(a * np.ldexp(1.0, e)[:, None]), "breve", statistics))
    total = int(e.sum())
    expected = complex(math.ldexp(value.real, total), math.ldexp(value.imag, total))
    as_bits = np.array([scaled, expected]).view(np.uint64).reshape(2, 2)
    assert as_bits[0].tolist() == as_bits[1].tolist()
    assert scaled_count == count


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
@pytest.mark.parametrize("n", range(1, 7))
def test_rational_row_scaling_on_the_exact_backend(n, statistics):
    rng = np.random.default_rng(n)
    a = [[ExactComplex.of(int(x), int(y)) for x, y in zip(*rng.integers(-3, 4, (2, n)))]
         for _ in range(n)]
    d = [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-9, 10, n), rng.integers(1, 10, n))]
    scaled = [[ExactComplex.of(dh) * x for x in row] for dh, row in zip(d, a)]
    value, _ = evaluate(SpinOperator(SquareMatrix.from_exact_rows(a), "breve", statistics))
    result, _ = evaluate(SpinOperator(SquareMatrix.from_exact_rows(scaled), "breve", statistics))
    assert result == ExactComplex.of(math.prod(d)) * value


@given(n=st.integers(1, 6), data=st.data(), variant=st.sampled_from(["breve", "tilde"]),
       statistics=st.sampled_from(["bosonic", "fermionic"]))
@settings(max_examples=40, deadline=None)
def test_orbit_is_the_dense_powers_on_the_empty_state(n, data, variant, statistics):
    # small Gaussian integers, zeros included: every amplitude is an integer
    # far below 2**53, so the sweep and the dense powers agree exactly
    parts = data.draw(st.lists(st.integers(-2, 2), min_size=2 * n * n, max_size=2 * n * n))
    a = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(n, n)
    op = SpinOperator(SquareMatrix.from_array(a), variant, statistics)
    dense = dense_operator(op)
    power_on_e0 = np.zeros(op.dimension, dtype=np.complex128)
    power_on_e0[0] = 1.0
    levels = list(orbit(op))
    assert len(levels) == op.period
    for p, v in enumerate(levels):
        assert v.level == p
        assert np.array_equal(embed_level_vector(v, op.dimension), power_on_e0)
        power_on_e0 = dense @ power_on_e0
