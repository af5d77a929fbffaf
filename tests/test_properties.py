"""Property-based checks of the algebraic invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rel_err
from spinperm import (
    BasisState,
    SpinOperator,
    SquareMatrix,
    determinant_gauss,
    evaluate,
    format_complex,
    jw_sign,
    parse_complex_literal,
    permanent_naive,
    permanent_ryser,
    random_matrix,
)
from spinperm import bits

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


@given(n=st.integers(1, 10), code=st.integers(0, 2**10 - 1))
@settings(max_examples=100)
def test_basis_state_roundtrip(n, code):
    code &= (1 << n) - 1
    s = BasisState(code, n)
    assert BasisState.from_text(s.text) == s
    assert [ch == "1" for ch in s.text] == [bool(code >> (n - 1 - site) & 1)
                                           for site in range(n)]
    assert s.level == bin(code).count("1")


@given(n=st.integers(1, 9), h=st.integers(0, 9))
@settings(max_examples=50)
def test_combinadic_rank_bijection(n, h):
    h = min(h, n)
    codes = bits.level_codes(n, h).tolist()
    assert sorted(codes) == codes
    assert [bits.rank_in_level(c, n) for c in codes] == list(range(len(codes)))


@given(data=st.data(), n=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_jw_sign_matches_dense_ratio(data, n):
    from spinperm.operator import dense_operator

    seed = data.draw(st.integers(0, 1000))
    m = random_matrix(n, seed, "complex_gaussian")
    bos = dense_operator(SpinOperator(m, "breve", "bosonic"))
    ferm = dense_operator(SpinOperator(m, "breve", "fermionic"))
    code = data.draw(st.integers(0, 2**n - 2))
    state = BasisState(code, n)
    if state.level >= n:
        return
    site = data.draw(st.integers(0, n - 1))
    bit = 1 << (n - 1 - site)
    if state.code & bit:
        return
    tgt = 0 if state.level == n - 1 else state.code | bit
    src = state.code
    if bos[tgt, src] != 0:
        assert ferm[tgt, src] == jw_sign(state, site) * bos[tgt, src]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_det_sign_and_permanent_symmetry(seed):
    m = random_matrix(4, seed, "complex_gaussian")
    arr = m.entries.copy()
    arr[[1, 3]] = arr[[3, 1]]
    swapped = SquareMatrix.from_array(arr)
    assert rel_err(determinant_gauss(swapped), -determinant_gauss(m)) < 1e-11
    assert rel_err(permanent_ryser(swapped), permanent_ryser(m)) < 1e-11
