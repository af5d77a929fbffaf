from fractions import Fraction

import numpy as np
import pytest

from conftest import rel_err
from spinperm import (
    ExactComplex,
    LevelMismatchError,
    LevelVector,
    OpCount,
    SizeGuardError,
    SpinOperator,
    SquareMatrix,
    apply_closing,
    apply_level,
    dense_operator,
    determinant_gauss,
    evaluate,
    graph_from_operator,
    orbit,
    permanent_naive,
    permanent_ryser,
    random_matrix,
    spin_op_count,
)
from spinperm import _kernels, bits, operator
from spinperm.operator import embed_level_vector


def idx_of(text):
    return int(text, 2)


def label(code, n=3):
    return format(code, f"0{n}b")


def test_basis_state_rendering():
    # a state is its code: its label is the code in n binary digits, site 0
    # leftmost, and its level the number of ones
    g = graph_from_operator(SpinOperator(random_matrix(4, 0), "breve", "bosonic"))
    for node in g.nodes:
        if node.id != g.sink_id:
            assert node.label == label(int(node.id[1:]), 4)
            assert node.level == node.label.count("1")
    assert g.node_by_id(f"v{0b1010}").label == "1010"


def test_jw_sign_examples():
    # the sign of creating at site s is odd with the occupied sites right of
    # s, the set code bits below bit n-1-s
    # |010>, create at site 0: one particle to the right -> odd
    assert bits.parity_below(idx_of("010"), 1 << 2) == 1
    # |100>, create at site 1: nothing to the right -> even
    assert bits.parity_below(idx_of("100"), 1 << 1) == 0
    # empty string: always even
    assert bits.parity_below(idx_of("000"), 1 << 0) == 0


def test_apply_level_from_vacuum(m3):
    op = SpinOperator(m3, "breve", "bosonic")
    out = apply_level(op, LevelVector.vacuum(3))
    # level-1 amplitudes land on (100, 010, 001) in label order
    codes = bits.level_codes(3, 1).tolist()
    by_text = {label(c): out.amplitudes[i]
               for i, c in enumerate(codes)}
    w = m3.entries
    assert rel_err(by_text["100"], w[0, 0]) < 1e-14
    assert rel_err(by_text["010"], w[0, 1]) < 1e-14
    assert rel_err(by_text["001"], w[0, 2]) < 1e-14


def test_apply_level_fermionic_signs(m3):
    op = SpinOperator(m3, "breve", "fermionic")
    amps = np.zeros(3, dtype=np.complex128)
    codes = bits.level_codes(3, 1).tolist()
    texts = [label(c) for c in codes]
    amps[texts.index("010")] = 1.0
    out = apply_level(op, LevelVector(3, 1, amps))
    codes2 = bits.level_codes(3, 2).tolist()
    texts2 = [label(c) for c in codes2]
    w = m3.entries
    assert rel_err(out.amplitudes[texts2.index("110")], -w[1, 0]) < 1e-14
    assert rel_err(out.amplitudes[texts2.index("011")], w[1, 2]) < 1e-14
    assert abs(out.amplitudes[texts2.index("101")]) == 0


def test_apply_level_identity_weights(identity3):
    op = SpinOperator(identity3, "breve", "bosonic")
    amps = np.zeros(3, dtype=np.complex128)
    codes = bits.level_codes(3, 1).tolist()
    texts = [label(c) for c in codes]
    amps[texts.index("100")] = 1.0
    out = apply_level(op, LevelVector(3, 1, amps))
    texts2 = [label(c) for c in bits.level_codes(3, 2).tolist()]
    expected = np.zeros(3, dtype=np.complex128)
    expected[texts2.index("110")] = 1.0
    assert np.allclose(out.amplitudes, expected)


def test_apply_level_counts_edges(m3):
    op = SpinOperator(m3, "breve", "bosonic")
    count = OpCount()
    v = apply_level(op, LevelVector.vacuum(3), count)
    assert (count.multiplications, count.additions) == (3, 3)
    apply_level(op, v, count)
    assert (count.multiplications, count.additions) == (9, 9)


def test_apply_level_level_guard(m3):
    op = SpinOperator(m3, "breve", "bosonic")
    top = LevelVector(3, 2, np.ones(3, dtype=np.complex128))
    with pytest.raises(LevelMismatchError):
        apply_level(op, top)  # level n-1 must go through the closing step
    assert apply_level(SpinOperator(m3, "tilde", "bosonic"), top).level == 3


def test_apply_closing_examples(m3):
    w = m3.entries
    amps = np.zeros(3, dtype=np.complex128)
    texts = [label(c) for c in bits.level_codes(3, 2).tolist()]
    a, b, c = 1.7 - 0.3j, 0.2 + 1.1j, -0.8 + 0.5j
    amps[texts.index("110")] = a
    amps[texts.index("101")] = b
    amps[texts.index("011")] = c
    v = LevelVector(3, 2, amps)
    bos = apply_closing(SpinOperator(m3, "breve", "bosonic"), v)
    ferm = apply_closing(SpinOperator(m3, "breve", "fermionic"), v)
    assert rel_err(bos, a * w[2, 2] + b * w[2, 1] + c * w[2, 0]) < 1e-13
    assert rel_err(ferm, a * w[2, 2] - b * w[2, 1] + c * w[2, 0]) < 1e-13
    zero = LevelVector(3, 2, np.zeros(3, dtype=np.complex128))
    assert apply_closing(SpinOperator(m3, "breve", "bosonic"), zero) == 0


def test_apply_closing_level_guard(m3):
    op = SpinOperator(m3, "breve", "bosonic")
    with pytest.raises(LevelMismatchError):
        apply_closing(op, LevelVector.vacuum(3))
    with pytest.raises(LevelMismatchError):
        apply_closing(SpinOperator(m3, "tilde", "bosonic"),
                      LevelVector(3, 2, np.ones(3, dtype=np.complex128)))


def test_evaluate_all_ones_with_count():
    m = SquareMatrix.from_array(np.ones((4, 4)))
    value, count = evaluate(SpinOperator(m, "breve", "bosonic"))
    assert rel_err(value, 24) < 1e-13
    assert count.total == 4 * 2**4 == 64


def test_evaluate_fermionic_2x2():
    m = SquareMatrix.from_array([[1, 2], [3, 4]])
    value, _ = evaluate(SpinOperator(m, "breve", "fermionic"))
    assert rel_err(value, -2) < 1e-13


def test_evaluate_matches_ryser_n7():
    m = random_matrix(7, 11, "complex_gaussian")
    value, _ = evaluate(SpinOperator(m, "breve", "bosonic"))
    assert rel_err(value, permanent_ryser(m)) < 1e-11


@pytest.mark.parametrize("n", range(1, 9))
def test_op_count_identity(n):
    m = random_matrix(n, 1, "complex_gaussian")
    _, count = evaluate(SpinOperator(m, "breve", "bosonic"))
    per_level = sum(bits.binom(n, h) * (n - h) for h in range(n))
    assert count.multiplications == count.additions == per_level
    assert count.total == n * 2**n
    assert spin_op_count(n).total == count.total


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_variant_consistency(statistics):
    m = random_matrix(5, 9, "complex_gaussian")
    breve, _ = evaluate(SpinOperator(m, "breve", statistics))
    tilde, _ = evaluate(SpinOperator(m, "tilde", statistics))
    assert rel_err(breve, tilde) < 1e-12


def test_column_permutation_covariance():
    m = random_matrix(4, 13, "complex_gaussian")
    perm = [2, 0, 3, 1]  # signature: 3 transpositions -> odd
    permuted = SquareMatrix.from_array(m.entries[:, perm])
    pb, _ = evaluate(SpinOperator(permuted, "breve", "bosonic"))
    ob, _ = evaluate(SpinOperator(m, "breve", "bosonic"))
    assert rel_err(pb, ob) < 1e-12
    pf, _ = evaluate(SpinOperator(permuted, "breve", "fermionic"))
    of, _ = evaluate(SpinOperator(m, "breve", "fermionic"))
    assert rel_err(pf, -of) < 1e-12


def test_dense_operator_n2_placement():
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    m = SquareMatrix.from_array([[a, b], [c, d]])
    dense = dense_operator(SpinOperator(m, "breve", "bosonic"))
    # basis order (00, 01, 10); raising site 0 of 00 gives "10"
    assert dense.shape == (3, 3)
    assert dense[idx_of("10"), idx_of("00")] == a
    assert dense[idx_of("01"), idx_of("00")] == b
    assert dense[idx_of("00"), idx_of("01")] == c  # closing: raise site 0 of "01"
    assert dense[idx_of("00"), idx_of("10")] == d
    value, _ = evaluate(SpinOperator(m, "breve", "bosonic"))
    assert rel_err(value, a * d + b * c) < 1e-14


def test_dense_operator_n3_edge_set(m3):
    dense = dense_operator(SpinOperator(m3, "breve", "bosonic"))
    assert dense.shape == (7, 7)
    assert np.count_nonzero(dense) == 12
    w = m3.entries
    assert dense[idx_of("110"), idx_of("100")] == w[1, 1]
    assert dense[idx_of("101"), idx_of("100")] == w[1, 2]
    assert dense[idx_of("000"), idx_of("011")] == w[2, 0]


def test_dense_operator_fermionic_signs(m3):
    bos = dense_operator(SpinOperator(m3, "breve", "bosonic"))
    ferm = dense_operator(SpinOperator(m3, "breve", "fermionic"))
    assert np.array_equal(bos != 0, ferm != 0)
    w = m3.entries
    assert ferm[idx_of("110"), idx_of("010")] == -w[1, 0]
    assert ferm[idx_of("011"), idx_of("001")] == -w[1, 1]
    assert ferm[idx_of("101"), idx_of("001")] == -w[1, 0]
    assert ferm[idx_of("000"), idx_of("101")] == -w[2, 1]
    # every entry is the bosonic one times the creation parity
    for t in range(7):
        for s in range(7):
            if bos[t, s] != 0:
                assert ferm[t, s] == bos[t, s] or ferm[t, s] == -bos[t, s]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_dense_sparsity_count(n):
    m = random_matrix(n, 5, "complex_gaussian")
    dense = dense_operator(SpinOperator(m, "breve", "bosonic"))
    assert np.count_nonzero(dense) == n * 2 ** (n - 1)


def test_dense_tilde_closure(m3):
    dense = dense_operator(SpinOperator(m3, "tilde", "bosonic"))
    assert dense.shape == (8, 8)
    assert dense[idx_of("000"), idx_of("111")] == 1.0


def test_dense_size_guard():
    m = random_matrix(13, 0, "zero_one")
    with pytest.raises(SizeGuardError):
        dense_operator(SpinOperator(m, "breve", "bosonic"))


@pytest.mark.parametrize("variant", ["breve", "tilde"])
@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_power_matches_dense(variant, statistics):
    n = 5
    m = random_matrix(n, 17, "complex_gaussian")
    op = SpinOperator(m, variant, statistics)
    dense = dense_operator(op)
    e0 = np.zeros(op.dimension, dtype=np.complex128)
    e0[0] = 1.0
    levels = list(orbit(op))
    assert [lv.level for lv in levels] == list(range(op.period))
    for p, lv in enumerate(levels):
        expected = np.linalg.matrix_power(dense, p) @ e0
        got = embed_level_vector(lv, op.dimension)
        assert np.max(np.abs(got - expected)) <= 1e-11 * max(
            np.max(np.abs(expected)), 1.0
        )
    if variant == "breve":
        expected = np.linalg.matrix_power(dense, n) @ e0
        assert rel_err(apply_closing(op, levels[-1]), expected[0]) < 1e-11


def test_power_endpoints(m3):
    op = SpinOperator(m3, "breve", "bosonic")
    assert op.period == 3 and SpinOperator(m3, "tilde", "bosonic").period == 4
    p0 = next(orbit(op))
    assert p0.level == 0 and p0.amplitudes[0] == 1
    *_, last = orbit(op)
    assert last.level == 2
    assert rel_err(apply_closing(op, last), permanent_naive(m3)) < 1e-12
    ferm = SpinOperator(m3, "breve", "fermionic")
    *_, last = orbit(ferm)
    assert rel_err(apply_closing(ferm, last), determinant_gauss(m3)) < 1e-12


def test_evaluate_exact_backend():
    m = random_matrix(5, 3, "zero_one", backend="exact")
    bos, count = evaluate(SpinOperator(m, "breve", "bosonic"))
    assert bos == permanent_naive(m)
    assert count.total == 5 * 2**5
    ferm, _ = evaluate(SpinOperator(m, "breve", "fermionic"))
    assert ferm == determinant_gauss(m)


def _gaussian_rationals(rng, n):
    # small Gaussian rationals, about a third of them zero
    def entry():
        re, im = (Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))) for _ in "ri")
        return ExactComplex(re, im) if rng.random() > 1 / 3 else ExactComplex.of(0)
    return SquareMatrix.from_exact_rows([[entry() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("variant", ["breve", "tilde"])
def test_exact_evaluate_on_the_split_layout_matches_oracles(monkeypatch, n, variant):
    # the exact backend runs the block-layout pull raise; with the cutover
    # at 0 every level of n >= 2 is split into top and low blocks
    monkeypatch.setattr(bits, "BLOCK_CUTOVER_N", 0)
    m = _gaussian_rationals(np.random.default_rng([n, variant == "tilde"]), n)
    bos, _ = evaluate(SpinOperator(m, variant, "bosonic"))
    assert isinstance(bos, ExactComplex) and bos == permanent_ryser(m)
    if n <= 6:
        assert bos == permanent_naive(m)
    ferm, _ = evaluate(SpinOperator(m, variant, "fermionic"))
    assert isinstance(ferm, ExactComplex) and ferm == determinant_gauss(m)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("variant", ["breve", "tilde"])
@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_exact_level_vectors_match_float(monkeypatch, n, variant, statistics):
    # 0/1 entries keep every float amplitude an exactly representable integer;
    # both layouts: one block, then every level split (cutover 0)
    exact = SpinOperator(random_matrix(n, n, "zero_one", backend="exact"), variant, statistics)
    flt = SpinOperator(random_matrix(n, n, "zero_one"), variant, statistics)
    for cutover in (bits.BLOCK_CUTOVER_N, 0):
        monkeypatch.setattr(bits, "BLOCK_CUTOVER_N", cutover)
        for ve, vf in zip(orbit(exact), orbit(flt), strict=True):
            assert ve.is_exact and ve.level == vf.level
            assert [complex(a) for a in ve.amplitudes] == list(vf.amplitudes)
            assert np.array_equal(ve.codes, vf.codes)
        if variant == "breve":
            assert complex(apply_closing(exact, ve)) == apply_closing(flt, vf)


def test_level_vector_length_checked():
    with pytest.raises(ValueError):
        LevelVector(3, 1, np.ones(2, dtype=np.complex128))
    with pytest.raises(ValueError):
        LevelVector(3, 1, np.ones(3, dtype=np.complex128), bits.level_codes(3, 0))


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("variant", ["breve", "tilde"])
@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_evaluate_builds_each_level_once(monkeypatch, backend, variant, statistics):
    built = []
    level_codes = bits.level_codes

    def counting(n, h):
        built.append(h)
        return level_codes(n, h)

    monkeypatch.setattr(bits, "level_codes", counting)
    n = 6
    op = SpinOperator(random_matrix(n, n, "zero_one", backend=backend), variant, statistics)
    evaluate(op)
    assert len(built) <= op.period
    assert sorted(built) == sorted(set(built))


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("variant", ["breve", "tilde"])
@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_evaluate_calls_each_kernel_boundary_once_per_step(
    monkeypatch, backend, variant, statistics
):
    # every step passes both boundaries, in level order, as a caller that
    # wraps the module attributes (a tracer) sees them: the operator's step
    # with its level, then the kernel's with the level of its source codes
    calls = []
    for module, name in [(operator, "apply_level"), (operator, "apply_closing"),
                         (_kernels, "apply_level"), (_kernels, "apply_closing")]:
        def counting(*args, _name=f"{module.__name__.split('.')[-1]}.{name}",
                     _fn=getattr(module, name), _operator=module is operator):
            h = args[1].level if _operator else int(args[0][0]).bit_count()
            calls.append((_name, h))
            return _fn(*args)

        monkeypatch.setattr(module, name, counting)
    # one-block sizes from the smallest to n=12, and a split layout past the
    # cutover; the exact backend's Fraction sweep stops at n=9
    sizes = (1, 5, 9, 12, bits.BLOCK_CUTOVER_N + 2) if backend == "float" else (1, 5, 9)
    for n in sizes:
        calls.clear()
        op = SpinOperator(random_matrix(n, 3, "zero_one", backend=backend), variant, statistics)
        evaluate(op)
        expected = []
        for h in range(op.period - 1):
            expected += [("operator.apply_level", h), ("_kernels.apply_level", h)]
        if variant == "breve":
            expected += [("operator.apply_closing", n - 1), ("_kernels.apply_closing", n - 1)]
        assert calls == expected, n


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_level_vector_without_codes_applies_the_same(backend, statistics):
    n = 5
    op = SpinOperator(random_matrix(n, 7, "zero_one", backend=backend), "breve", statistics)
    levels = list(orbit(op))
    for p in (0, 2, n - 1):
        swept = levels[p]
        by_hand = LevelVector(n, p, list(swept.amplitudes) if swept.is_exact
                              else swept.amplitudes.copy())
        assert by_hand.codes is None
        if p < n - 1:
            a, b = apply_level(op, swept), apply_level(op, by_hand)
            assert list(a.amplitudes) == list(b.amplitudes)
            assert np.array_equal(a.codes, b.codes)
        else:
            assert apply_closing(op, swept) == apply_closing(op, by_hand)
        assert np.array_equal(by_hand.codes, bits.level_codes(n, p))
        assert np.array_equal(swept.codes, by_hand.codes)


def test_swept_codes_are_read_only():
    v = list(orbit(SpinOperator(random_matrix(6, 2), "breve", "bosonic")))[3]
    with pytest.raises(ValueError):
        v.codes[0] = 0


def test_code_and_table_caches_stay_within_15_bits():
    for n in range(4, 21):
        for statistics in ("bosonic", "fermionic"):
            evaluate(SpinOperator(random_matrix(n, n), "breve", statistics))
    assert max(nbits for nbits, _ in bits._SHARED) <= 15
    assert max(nbits for nbits, _ in _kernels._TABLES) <= 15
