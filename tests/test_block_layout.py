"""The sweep's block layout (``bits.block_codes``, ``_kernels``), on both backends."""

import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import rel_err
from spinperm import (
    SizeGuardError,
    SpinOperator,
    determinant_gauss,
    evaluate,
    permanent_ryser,
    random_matrix,
)
from spinperm import _kernels, bits, operator
from spinperm.cli import main

CUT = bits.BLOCK_CUTOVER_N


@pytest.mark.parametrize("n", range(21))
def test_block_codes_permute_level_codes(n):
    b = bits.low_bits(n)
    low = (1 << b) - 1
    for h in range(-1, n + 2):
        codes, ascending = bits.block_codes(n, h), bits.level_codes(n, h)
        assert codes.dtype == np.int32
        assert np.array_equal(np.sort(codes), ascending)
        if n <= CUT:
            assert np.array_equal(codes, ascending)
        end = 0
        for j, start, rows, cols in bits.level_blocks(n, h):
            assert start == end  # the blocks tile the level in storage order
            block = codes[start:start + rows * cols].reshape(rows, cols)
            end = start + rows * cols
            # row r holds top code r, column c holds low code c
            assert np.array_equal(block[:, 0] >> b, bits.level_codes(n - b, j))
            assert np.array_equal(block[0] & low, bits.level_codes(b, h - j))
            assert np.array_equal(block, (block[:, :1] & ~low) | (block[:1] & low))
        assert end == len(codes)


@pytest.mark.parametrize("nbits", range(1, 13))
def test_pull_tables_list_the_raise_edges(nbits):
    # term i of a destination raises its i-th lowest set bit, so exactly i
    # set bits lie below it and its Jordan-Wigner parity, the premise of the
    # pull's sign fold, is i & 1
    for k in range(nbits):
        src, dst = bits.level_codes(nbits, k), bits.level_codes(nbits, k + 1)
        sbit, pos, bit = _kernels._table(nbits, k)
        assert sbit.shape == pos.shape == bit.shape == (k + 1, len(dst))
        assert np.array_equal(bit, sbit % nbits)  # what a bosonic pull reads
        parity = sbit // nbits
        assert np.all(np.diff(bit, axis=0) > 0)  # raised bits ascend within a destination
        term = np.broadcast_to(np.arange(k + 1)[:, None], bit.shape)
        assert np.array_equal(parity, term & 1)
        pulled = sorted(zip(np.tile(np.arange(len(dst)), k + 1).tolist(), bit.ravel().tolist(),
                            pos.ravel().tolist(), parity.ravel().astype(bool).tolist()))
        bit, at, raised, odd = bits.raise_edges(src, nbits)
        edges = sorted(zip(np.searchsorted(dst, raised).tolist(), bit.tolist(), at.tolist(),
                           odd.tolist()))
        assert pulled == edges  # every edge exactly once, with raise_edges' odd mask


@pytest.mark.parametrize("nbits", range(1, 11))
def test_pull_table_parity_is_parity_below(nbits):
    # the scalar definition, entry by entry, independent of raise_edges
    for k in range(nbits):
        src = bits.level_codes(nbits, k).tolist()
        sbit, pos, _ = _kernels._table(nbits, k)
        for entry, at in zip(sbit.ravel().tolist(), pos.ravel().tolist()):
            assert entry // nbits == bits.parity_below(src[at], 1 << entry % nbits)


def _scalar_step(src, dst, amps, wbits, fermionic):
    """The raising rule edge by edge in ascending code order, mapped back."""
    n = wbits.shape[0]
    order = np.argsort(src)
    asc_src, asc_amps, asc_dst = src[order], amps[order], np.sort(dst)
    out = np.zeros(len(dst), dtype=np.complex128)
    bit, pos, raised, odd = bits.raise_edges(asc_src, n)
    vals = wbits[bit] * asc_amps[pos]
    if fermionic:
        vals = np.where(odd, -vals, vals)
    np.add.at(out, np.searchsorted(asc_dst, raised), vals)  # edge by edge, in bit order
    return out[np.searchsorted(asc_dst, dst)]


def _small_ints(rng, size):
    # sums of products of small integers are exact in double precision
    return (rng.integers(-9, 10, size) + 1j * rng.integers(-9, 10, size)).astype(np.complex128)


# n <= 8 with the cutover forced to 0 covers split layouts with b != t cheaply
@pytest.mark.parametrize("n,cutover", [(n, 0) for n in range(1, 9)]
                         + [(n, CUT) for n in range(CUT + 1, 19)])
@pytest.mark.parametrize("fermionic", [False, True])
def test_float_step_matches_scalar_rule(monkeypatch, n, cutover, fermionic):
    monkeypatch.setattr(bits, "BLOCK_CUTOVER_N", cutover)
    rng = np.random.default_rng(n)
    for h in range(n):
        src, dst = bits.block_codes(n, h), bits.block_codes(n, h + 1)
        amps, wbits = _small_ints(rng, len(src)), _small_ints(rng, n)
        expected = _scalar_step(src, dst, amps, wbits, fermionic)
        if h < n - 1:
            got = _kernels.apply_level(src, dst, amps, wbits, fermionic)
            assert np.array_equal(got, expected)
        else:
            assert _kernels.apply_closing(src, amps, wbits, fermionic) == expected[0]


@pytest.mark.parametrize("n", range(CUT - 2, 19))
@pytest.mark.parametrize("variant", ["breve", "tilde"])
def test_evaluate_matches_oracles_across_cutover(n, variant):
    m = random_matrix(n, 40 + n, "complex_gaussian")
    perm, _ = evaluate(SpinOperator(m, variant, "bosonic"))
    det, _ = evaluate(SpinOperator(m, variant, "fermionic"))
    assert rel_err(perm, permanent_ryser(m)) < 1e-10
    assert rel_err(det, determinant_gauss(m)) < 1e-10


@pytest.mark.parametrize("n", [3, 7])
@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_evaluate_on_split_layout_matches_oracles(monkeypatch, n, statistics):
    monkeypatch.setattr(bits, "BLOCK_CUTOVER_N", 0)
    m = random_matrix(n, n, "complex_gaussian")
    oracle = permanent_ryser if statistics == "bosonic" else determinant_gauss
    for variant in ("breve", "tilde"):
        value, _ = evaluate(SpinOperator(m, variant, statistics))
        assert rel_err(value, oracle(m)) < 1e-12


@pytest.mark.parametrize("n", range(16, 23))
def test_pull_chunks_gather_a_fixed_tile(n):
    for h in range(n):
        for _, dst, shape, into, transposed, _, chunks in _kernels._plan(n, h):
            if shape is None:  # flat: one amplitude per term and destination
                width, dests = 1, dst.stop - dst.start
            else:
                width, dests = (shape[0], into[1]) if transposed else (shape[1], into[0])
            terms = np.zeros(dests, dtype=int)
            fresh = np.zeros(dests, dtype=int)
            for lo, hi, (bit, sbit), pos, first in chunks:
                assert bit.shape == sbit.shape
                assert bit.shape[:2] == pos.shape == (pos.shape[0], hi - lo)
                assert bit.ndim == (2 if shape is None else 3)
                assert pos.size * width <= _kernels._PULL_ELEMENTS
                terms[lo:hi] += pos.shape[0]
                fresh[lo:hi] += first
            # the tiles cover every destination alike, a fresh pull's once
            assert terms.min() == terms.max() > 0
            assert fresh.min() == fresh.max() <= 1


@pytest.mark.parametrize("n", [18, 20])
def test_sweep_peak_is_two_levels_and_a_fixed_scratch(n):
    # live at once: amplitudes (16 bytes a state) and int32 codes (4) of two
    # levels, one chunk's gather and its sum, and one numpy ufunc buffer
    op = SpinOperator(random_matrix(n, 1), "breve", "bosonic")
    evaluate(op)  # tables, plans and shared codes are built once per process
    tracemalloc.start()
    try:
        evaluate(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    levels = max(20 * (bits.binom(n, h) + bits.binom(n, h + 1)) for h in range(n))
    assert peak <= levels + 2 * 16 * _kernels._PULL_ELEMENTS + 16 * np.getbufsize()


def test_kernel_boundary_sees_every_level_and_edge(monkeypatch):
    # the contract a caller that wraps the two boundaries relies on
    n = CUT + 2
    seen = []
    level, closing = _kernels.apply_level, _kernels.apply_closing

    def wrapped_level(src, dst, amps, wbits, fermionic):
        seen.append((src, dst))
        return level(src, dst, amps, wbits, fermionic)

    def wrapped_closing(src, amps, wbits, fermionic):
        seen.append((src, None))
        return closing(src, amps, wbits, fermionic)

    monkeypatch.setattr(_kernels, "apply_level", wrapped_level)
    monkeypatch.setattr(_kernels, "apply_closing", wrapped_closing)
    for statistics in ("bosonic", "fermionic"):
        seen.clear()
        evaluate(SpinOperator(random_matrix(n, 1), "breve", statistics))
        edges = 0
        for src, dst in seen:
            h = int(src[0]).bit_count()
            assert src.dtype == np.int32 and len(src) == bits.binom(n, h)
            assert np.all(np.bitwise_count(src) == h)
            if dst is None:
                assert h == n - 1
                edges += len(src)
            else:
                assert dst.dtype == np.int32 and len(dst) == bits.binom(n, h + 1)
                assert np.all(np.bitwise_count(dst) == h + 1)
                edges += len(src) * (n - h)
        assert [int(src[0]).bit_count() for src, _ in seen] == list(range(n))
        assert edges == n * 2 ** (n - 1)


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep started")


def test_size_guard_precedes_allocation(monkeypatch):
    monkeypatch.setattr(bits, "level_codes", _no_sweep)
    monkeypatch.setattr(bits, "block_codes", _no_sweep)
    monkeypatch.setattr(_kernels, "apply_level", _no_sweep)
    for backend in ("float", "exact"):
        op = SpinOperator(random_matrix(40, 1, "zero_one", backend=backend), "breve", "bosonic")
        with pytest.raises(SizeGuardError):
            evaluate(op)
        with pytest.raises(SizeGuardError):
            next(operator.orbit(op))


def test_size_guard_limit():
    # 40 bytes per middle-level state: n=28 fits the limit, n=29 does not
    operator._check_sweep_size(28)
    with pytest.raises(SizeGuardError):
        operator._check_sweep_size(29)


def test_size_guard_counts_the_itemsizes_a_sweep_holds():
    # two live levels of the arrays a raise really returns, and a check
    # that itself allocates none of them
    op = SpinOperator(random_matrix(4, 1), "breve", "bosonic")
    v = operator.apply_level(op, operator.LevelVector.vacuum(4))
    assert operator._STATE_BYTES == 2 * (v.amplitudes.itemsize + v.codes.itemsize) == 40
    tracemalloc.start()
    try:
        operator._check_sweep_size(28)
        with pytest.raises(SizeGuardError):
            operator._check_sweep_size(29)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("command", ["perm", "det"])
def test_cli_size_guard_exits_1(command):
    result = CliRunner().invoke(main, [command, "--gen", "n=40", "--format", "json"])
    assert result.exit_code == 1
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "SizeGuardError"


@pytest.mark.parametrize("n", [1054, 5000])
def test_size_guard_beyond_float_range(n):
    # from n = 1054 on the middle level's size in GiB is beyond a double
    with pytest.raises(SizeGuardError, match=f"n={n} needs about .* GiB"):
        operator._check_sweep_size(n)


@pytest.mark.parametrize("command", ["perm", "det"])
def test_cli_size_guard_beyond_float_range_exits_1(command):
    result = CliRunner().invoke(main, [command, "--gen", "n=1054"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"] == "SizeGuardError"
