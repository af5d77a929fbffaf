"""Occupancy bitstring helpers: codes, Hamming levels and the raising rule.

An occupation string is held as one integer, its ``code``: the rendered
label (site 0 leftmost) read as a binary number, i.e. site ``s`` occupies
bit ``n-1-s``; its label is ``format(code, f"0{n}b")``.  Basis enumerations
are sorted by ascending ``code``, which makes dense matrices line up with
labels sorted as binary numbers (``000 < 001 < 010 < ...``).  The sweep, on
both backends, holds a level in *block order* (``block_codes``), which is
ascending order for n <= ``BLOCK_CUTOVER_N``.

``level_codes`` enumerates one Hamming level on at most 15 bits as the
popcount filter of all 2**n codes.  ``shared_level_codes`` keeps each such
level once per process, read-only; the block layout and ``_kernels``' pull
tables read their codes from it, so a sweep costs no enumeration after the
first.  ``raise_edges`` is the one definition of the operator's raising
rule, one flat edge table that every reader indexes: an edge raises an
empty bit p of its source, and its Jordan-Wigner sign is odd when an odd
number of set bits lie below p (``parity_below``, for one code).

Block layout: the n code bits split into b = ``low_bits(n)`` low bits and
t = n - b top bits.  Level h is one block per top weight j, of shape
(C(t, j), C(b, h-j)): rows are the weight-j top codes and columns the
weight-(h-j) low codes, both ascending, each block stored row-major and the
blocks in ascending j.  Ascending code order sorts by the top bits first,
so one block (b = n) is ascending order.  Raising a bit then maps whole
columns (low bit) or whole rows (top bit), by tables over b or t bits:
each destination column or row pulls from its predecessors (``_kernels``).

Codes are int32 (``_LEVEL_DTYPE``), so a code holds at most 31 bits:
``block_codes`` raises ``RangeError`` above that rather than wrap, and
``level_codes`` above 15 bits.  The sweep's size guard stops at n <= 28, so
every level it holds fits, at 4 bytes a state beside its amplitude's 16,
and every block layout's halves have at most 14 bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import RangeError

_LEVEL_DTYPE = np.int32
_CODE_BITS = np.iinfo(_LEVEL_DTYPE).bits - 1  # codes are non-negative

# Largest n swept as one block (b = n); above it b = n // 2.  Warm, one
# block sweeps faster up to n = 15 on a 2-core x86-64 host (perm + det: 3.3
# against 6.0 ms at n = 14, 6.7 against 7.9 ms at n = 15, 22 against 12 ms
# at n = 16).  Cold, the split layout is faster from n = 14 (9 against 17 ms
# at 14, 14 against 26 ms at 15), because one block's raise tables hold all
# n·2**(n-1) edges of the n-bit operator: about 15 ms to build and +5.5 MB
# peak RSS at n = 15.  One block pays off once a process sweeps n = 15
# about ten times.
BLOCK_CUTOVER_N = 15


def binom(n: int, k: int) -> int:
    """C(n, k), zero outside the valid range."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# Widest level ``level_codes`` enumerates: 2**15 candidate codes (128 KB),
# and at most 2**16 codes (256 KB) shared in all.  One block (b = n) and each
# half of a split layout under the size guard must fit within it.
_SHARED_MAX_BITS = 15
assert BLOCK_CUTOVER_N <= _SHARED_MAX_BITS
_SHARED: dict[tuple[int, int], np.ndarray] = {}


def level_codes(n: int, h: int) -> np.ndarray:
    """All weight-h codes on n <= 15 bits, ascending: the popcount filter of
    0..2**n-1."""
    if n > _SHARED_MAX_BITS:
        raise RangeError(f"level codes are enumerated on at most {_SHARED_MAX_BITS} bits, "
                         f"not n={n}")
    codes = np.arange(1 << n, dtype=_LEVEL_DTYPE)
    return codes[np.bitwise_count(codes) == h]


def shared_level_codes(n: int, h: int) -> np.ndarray:
    """``level_codes(n, h)``, built once per process and read-only.

    The block layout and ``_kernels``' raise tables share these arrays, so a
    level is enumerated once however many sweeps read it.
    """
    codes = _SHARED.get((n, h))
    if codes is None:
        codes = _SHARED[(n, h)] = level_codes(n, h)
        codes.flags.writeable = False
    return codes


def low_bits(n: int) -> int:
    """Low code bits b of the block layout: all of them up to the cutover."""
    return n if n <= BLOCK_CUTOVER_N else n // 2


def level_blocks(n: int, h: int) -> tuple[tuple[int, int, int, int], ...]:
    """``(j, start, rows, cols)`` of each block of level h, in storage order:
    block j holds the level's codes ``start`` to ``start + rows * cols``."""
    return _level_blocks(n, h, low_bits(n))


# keyed by (n, h, b): a few hundred small tuples for the n <= 28 the size
# guard lets a sweep reach
@functools.cache
def _level_blocks(n: int, h: int, b: int) -> tuple[tuple[int, int, int, int], ...]:
    out, start = [], 0
    for j in range(max(0, h - b), min(n - b, h) + 1):
        rows, cols = binom(n - b, j), binom(b, h - j)
        out.append((j, start, rows, cols))
        start += rows * cols
    return tuple(out)


def block_codes(n: int, h: int) -> np.ndarray:
    """All weight-h codes on n bits in block order (see the module docstring)."""
    if n <= BLOCK_CUTOVER_N:  # one block (b = n): ascending order
        return shared_level_codes(n, h)
    if n > _CODE_BITS:
        raise RangeError(f"level codes hold at most {_CODE_BITS} bits, not n={n}")
    b = low_bits(n)
    out = np.empty(binom(n, h), dtype=_LEVEL_DTYPE)
    for j, start, rows, cols in level_blocks(n, h):  # each block written in place
        # only n = 31, past the size guard, has 16 top bits: sort their own layout
        top = (shared_level_codes(n - b, j) if n - b <= _SHARED_MAX_BITS
               else np.sort(block_codes(n - b, j)))
        np.bitwise_or((top << b)[:, None], shared_level_codes(b, h - j),
                      out=out[start:start + rows * cols].reshape(rows, cols))
    return out


def parity_below(code: int, bit: int) -> int:
    """Parity of set bits strictly below the given single-bit value."""
    return (code & (bit - 1)).bit_count() & 1


def raise_edges(codes: np.ndarray, n: int):
    """Every edge out of ``codes`` on n bits, as flat arrays ``(bit, pos, raised, odd)``.

    Ordered by raised bit p, then by ascending position: edge e raises bit
    p = ``bit[e]`` of ``codes[pos[e]]`` into ``raised[e]`` (``codes``'
    dtype), and ``odd[e]`` is its Jordan-Wigner mask ``parity_below(code,
    1 << p) == 1``.  Bit p holds site n-1-p, so the weight from level h is
    ``w[h, n-1-p]``, negated where ``odd`` for fermions.
    """
    values = 1 << np.arange(n, dtype=codes.dtype)
    occupied = (codes & values[:, None]) != 0  # (bit, position)
    bit, pos = np.nonzero(~occupied)
    # where bit p is empty, the running parity through p is the parity below p
    odd = np.logical_xor.accumulate(occupied, axis=0)[bit, pos]
    return bit, pos, codes[pos] | values[bit], odd
