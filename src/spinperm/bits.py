"""Occupancy bitstring helpers: codes, Hamming levels and the raising rule.

An occupation string is held as one integer, its ``code``: the rendered
label (site 0 leftmost) read as a binary number, i.e. site ``s`` occupies
bit ``n-1-s``.  Text labels are made only at the edges (``BasisState.text``).
All basis enumerations in this package are sorted by ascending ``code``,
which makes dense matrices line up with labels sorted as binary numbers
(``000 < 001 < 010 < ...``).

``level_codes`` enumerates one Hamming level with Pascal's rule, one bit at
a time (Knuth, TAOCP 4A §7.2.1.3): O(n·h) numpy calls per level, no
recursion.  ``raise_edges`` is the one definition of the operator's raising
rule.
"""

from __future__ import annotations

import math

import numpy as np

_LEVEL_DTYPE = np.int64


def binom(n: int, k: int) -> int:
    """C(n, k), zero outside the valid range."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def level_codes(n: int, h: int) -> np.ndarray:
    """All weight-h codes on n bits, ascending.

    Pascal's rule, one bit at a time: the weight-k codes on the low m bits
    are the weight-k codes on m-1 bits, then the weight-(k-1) codes with bit
    m-1 set.  Every code of the first part is below every code of the
    second, so the concatenation stays sorted.  Only the weights that can
    still reach h with the n-m bits left are kept.
    """
    if h < 0 or h > n:
        return np.empty(0, dtype=_LEVEL_DTYPE)
    empty = np.empty(0, dtype=_LEVEL_DTYPE)
    by_weight = {0: np.zeros(1, dtype=_LEVEL_DTYPE)}  # weight -> codes on m bits
    for m in range(1, n + 1):
        bit = 1 << (m - 1)
        by_weight = {
            k: np.concatenate([by_weight.get(k, empty), by_weight[k - 1] | bit])
            if k else by_weight[0]
            for k in range(max(0, h - (n - m)), min(m, h) + 1)
        }
    return by_weight[h]


def parity_below(code: int, bit: int) -> int:
    """Parity of set bits strictly below the given single-bit value."""
    return (code & (bit - 1)).bit_count() & 1


def raise_edges(codes: np.ndarray, n: int, fermionic: bool):
    """Every edge out of ``codes`` (ascending), grouped by raised code bit.

    Yields ``(p, pos, raised, odd)`` for p = 0..n-1: the positions in
    ``codes`` of the codes with bit p empty, their raised codes
    ``code | 1 << p`` (ascending), and the Jordan-Wigner odd mask
    ``parity_below(code, 1 << p) == 1`` (``None`` when bosonic).  Bit p holds
    site n-1-p, so the edge weight from level h is ``w[h, n-1-p]``.
    """
    odd_all = np.zeros(codes.shape[0], dtype=bool)
    for p in range(n):
        bit = 1 << p
        empty = (codes & bit) == 0
        pos = empty.nonzero()[0]
        yield p, pos, codes[pos] | bit, odd_all[pos] if fermionic else None
        if fermionic:
            np.equal(odd_all, empty, out=odd_all)  # odd ^= (bit p is set)
