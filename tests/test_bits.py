import numpy as np
import pytest

from spinperm import RangeError, SpinOperator, bits, graph_from_operator, random_matrix
from spinperm.operator import edges


def _operator(n):
    return SpinOperator(random_matrix(n, 0), "breve", "bosonic")


def test_mask_text_roundtrip():
    # site 0 is the leftmost character: sites {0, 2} of n=4 render "1010",
    # and site s occupies code bit n-1-s
    code = 0b1010  # bits 3 and 1
    op = _operator(4)
    assert graph_from_operator(op).node_by_id(f"v{code}").label == "1010"
    src, dst, _, site, *_ = edges(op)
    # into 1010: site 0 raised from 0010, site 2 from 1000
    assert sorted(zip(site[dst == code].tolist(), src[dst == code].tolist())) == [
        (0, 0b0010), (2, 0b1000)]


def test_code_is_label_as_binary():
    # "001" (site 2 occupied) reads as the number 1
    assert graph_from_operator(_operator(3)).node_by_id("v1").label == "001"


@pytest.mark.parametrize("n,h", [(4, 0), (4, 2), (4, 4), (6, 3), (1, 1)])
def test_level_codes_sorted_and_complete(n, h):
    codes = bits.level_codes(n, h)
    assert len(codes) == bits.binom(n, h)
    assert np.all(np.diff(codes) > 0)
    assert all(int(c).bit_count() == h for c in codes)


@pytest.mark.parametrize("n", range(15))
def test_level_codes_match_brute_force(n):
    by_weight = {h: [] for h in range(-1, n + 2)}
    for c in range(1 << n):
        by_weight[c.bit_count()].append(c)
    for h, expected in by_weight.items():
        codes = bits.level_codes(n, h)
        assert codes.dtype == np.int32
        assert codes.tolist() == expected


def test_block_codes_hold_31_bits_and_refuse_more():
    # int32 codes: a 31-bit level is exact, a wider one raises, never wraps
    full = (1 << 31) - 1
    assert sorted(bits.block_codes(31, 1).tolist()) == [1 << p for p in range(31)]
    below_full = sorted(full ^ (1 << p) for p in range(31))
    assert sorted(bits.block_codes(31, 30).tolist()) == below_full
    for n in (32, 40):
        with pytest.raises(RangeError, match=f"at most 31 bits, not n={n}"):
            bits.block_codes(n, 1)


@pytest.mark.parametrize("n", [16, 20, 31, 40])
def test_level_codes_refuse_more_than_15_bits(n):
    # the popcount filter enumerates all 2**n codes, so it stops at 15 bits
    assert bits.level_codes(15, 1).tolist() == [1 << p for p in range(15)]
    for codes in (bits.level_codes, bits.shared_level_codes):
        with pytest.raises(RangeError, match=f"at most 15 bits, not n={n}"):
            codes(n, 1)
    assert (n, 1) not in bits._SHARED


def test_parity_below():
    assert bits.parity_below(0b0110, 0b1000) == 0
    assert bits.parity_below(0b0110, 0b0001) == 0
    assert bits.parity_below(0b0010, 0b1000) == 1


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("fermionic", [False, True])
def test_raise_edges_matches_scalar_rule(n, fermionic):
    for codes in [bits.level_codes(n, h) for h in range(n + 1)] + [np.arange(1 << n)]:
        bit, pos, raised, odd = bits.raise_edges(codes, n)
        # by raised bit, then by position
        expected = [(p, i) for p in range(n)
                    for i, c in enumerate(codes.tolist()) if not c >> p & 1]
        assert list(zip(bit.tolist(), pos.tolist())) == expected
        assert raised.dtype == codes.dtype
        assert raised.tolist() == [int(codes[i]) | 1 << p for p, i in expected]
        parity = [bits.parity_below(int(codes[i]), 1 << p) for p, i in expected]
        assert odd.tolist() == [q == 1 for q in parity]
        # the sign a reader puts on each edge: Jordan-Wigner for fermions only
        sign = np.where(odd & fermionic, -1, 1)
        assert sign.tolist() == [(-1) ** q if fermionic else 1 for q in parity]


def test_shared_level_codes_are_built_once_and_read_only():
    codes = bits.shared_level_codes(9, 4)
    assert bits.shared_level_codes(9, 4) is codes
    assert np.array_equal(codes, bits.level_codes(9, 4))
    with pytest.raises(ValueError):
        codes[0] = 0
