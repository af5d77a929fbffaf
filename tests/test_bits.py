import numpy as np
import pytest

from spinperm import BasisState, bits


def test_mask_text_roundtrip():
    # site 0 is the leftmost character: sites {0, 2} of n=4 render "1010",
    # and site s occupies code bit n-1-s
    code = 0b1010  # bits 3 and 1
    assert BasisState(code, 4).text == "1010"
    assert BasisState.from_text("1010").code == code
    for bad in ("1020", "+101", "1_01", ""):
        with pytest.raises(ValueError):
            BasisState.from_text(bad)


def test_code_is_label_as_binary():
    # "001" (site 2 occupied) reads as the number 1
    assert BasisState.from_text("001").code == 1
    assert BasisState(1, 3).text == "001"


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
        assert codes.dtype == np.int64
        assert codes.tolist() == expected


def test_parity_below():
    assert bits.parity_below(0b0110, 0b1000) == 0
    assert bits.parity_below(0b0110, 0b0001) == 0
    assert bits.parity_below(0b0010, 0b1000) == 1


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("fermionic", [False, True])
def test_raise_edges_matches_scalar_rule(n, fermionic):
    for codes in [bits.level_codes(n, h) for h in range(n + 1)] + [np.arange(1 << n)]:
        seen = []
        for p, pos, raised, odd in bits.raise_edges(codes, n, fermionic):
            bit = 1 << p
            expected = [i for i, c in enumerate(codes.tolist()) if not c & bit]
            assert pos.tolist() == expected
            assert raised.tolist() == [int(codes[i]) | bit for i in expected]
            if fermionic:
                assert odd.tolist() == [
                    bits.parity_below(int(codes[i]), bit) == 1 for i in expected
                ]
            else:
                assert odd is None
            seen.append(p)
        assert seen == list(range(n))
