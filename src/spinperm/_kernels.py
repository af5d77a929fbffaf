"""The sweep's numeric kernel: one level raise in numpy, on the block layout.

Kernels work in "code" space: bit ``p`` of a basis code is the occupation
of site ``n-1-p``.  ``wbits[p]`` must hold the weight for raising the site
stored in bit ``p``.  Amplitudes are in block order (``bits.block_codes``):
level h is one block per top weight j, of shape (C(t, j), C(b, h-j)), with
b = ``bits.low_bits(n)`` low bits and t = n - b top bits.

Raising low bit p maps columns within block j; raising top bit q maps rows
of block j into block j+1.  Both use one table per (bits, weight), built
once from ``bits.level_codes`` and ``bits.raise_edges`` on b or t bits, so
the raising rule keeps its one definition and no raise searches for its
targets.  A top bit lies above all h-j low bits, so its Jordan-Wigner sign
is the table's sign times (-1)**(h-j).  The closing step is the raise into
level n, whose only block is 1x1 and whose only code is ``2**n - 1``.

``apply_level`` and ``apply_closing`` are the two boundaries the sweep
calls through this module's attributes, so a caller can wrap them to time
and count each step.  They take the level's codes in block order; the
kernel reads only n (from ``wbits``) and h (from ``src[0]``) from them,
and, for a one-block level, seeds that level's table with them.
"""

from __future__ import annotations

import numpy as np

from . import bits

# perfbench's environment block reads these two names.
HAVE_NUMBA = False

# (bits, weight) -> [(p, pos, dst, odd)]: raising bit p moves position pos
# of the ascending weight-k codes to position dst of the weight-(k+1) ones.
# An entry depends only on its key, so every caller may share it; bits never
# exceed max(BLOCK_CUTOVER_N, (n+1)//2) <= 15 under the size guard, which
# bounds the cache at about 8 MB (17 bytes per edge).
_TABLES: dict[tuple[int, int], list] = {}


def kernel_name() -> str:
    return "numpy"


def _table(nbits: int, k: int, src=None, dst=None) -> list:
    """Raise table from weight k to k+1 on ``nbits`` bits, built once.

    ``src`` and ``dst`` are the two ascending code lists when the caller
    already holds them; otherwise they come from ``bits.level_codes``.
    """
    table = _TABLES.get((nbits, k))
    if table is None:
        if src is None:
            src, dst = bits.level_codes(nbits, k), bits.level_codes(nbits, k + 1)
        index = np.empty(1 << nbits, dtype=np.int64)
        index[dst] = np.arange(dst.shape[0])
        table = _TABLES[(nbits, k)] = [
            (p, pos, index[raised], odd)
            for p, pos, raised, odd in bits.raise_edges(src, nbits, True)
        ]
    return table


def _blocks(flat, n: int, h: int) -> dict:
    """Top weight j -> the 2-D view of block j of a flat level-h array."""
    out, start = {}, 0
    for j, rows, cols in bits.level_blocks(n, h):
        out[j] = flat[start:start + rows * cols].reshape(rows, cols)
        start += rows * cols
    return out


def _raise(src, dst, amps, wbits, fermionic):
    n, h = wbits.shape[0], int(src[0]).bit_count()
    b = bits.low_bits(n)
    seed = (src, dst) if b == n else ()  # one block: the level's own codes
    out = np.zeros(dst.shape[0], dtype=np.complex128)
    into = _blocks(out, n, h + 1)
    for j, a in _blocks(amps, n, h).items():
        k = h - j
        if k < b:  # raise a low bit: column map within block j
            o = into[j]
            for p, pos, to, odd in _table(b, k, *seed):
                vals = wbits[p] * a[:, pos]
                if fermionic:
                    np.negative(vals, out=vals, where=odd)
                o[:, to] += vals  # targets are distinct for a fixed raised bit
        if j < n - b:  # raise a top bit: row map from block j into block j+1
            o = into[j + 1]
            for q, pos, to, odd in _table(n - b, j):
                vals = wbits[b + q] * a[pos]
                if fermionic:
                    np.negative(vals, out=vals, where=(~odd if k & 1 else odd)[:, None])
                o[to] += vals
    return out


def apply_level(src, dst, amps, wbits, fermionic: bool):
    """Raise amplitudes ``amps`` on codes ``src`` onto the codes ``dst``."""
    return _raise(src, dst, amps, wbits, fermionic)


def apply_closing(src, amps, wbits, fermionic: bool, full: int) -> complex:
    """Raise level n-1 into its single successor ``full`` and return that amplitude."""
    return complex(_raise(src, np.array([full], dtype=np.int64), amps, wbits, fermionic)[0])
