"""The sweep's numeric kernel: one level raise in numpy, on the block layout.

Kernels work in "code" space: bit ``p`` of a basis code is the occupation
of site ``n-1-p``.  ``wbits[p]`` must hold the weight for raising the site
stored in bit ``p``.  Amplitudes are in block order (``bits.block_codes``):
level h is one block per top weight j, of shape (C(t, j), C(b, h-j)), with
b = ``bits.low_bits(n)`` low bits and t = n - b top bits.

Raising low bit p maps columns within block j; raising top bit q maps rows
of block j into block j+1.  Either raise is a pull: each destination (a
column or row code of weight k+1) sums its k+1 predecessors, and term i
clears the destination's i-th lowest set bit.  The tables ``(bit, pos)``
for those terms are built once per (bits, weight) from
``bits.raise_edges`` on b or t bits, so the raising rule keeps its one
definition and no raise searches for or scatters into its targets.

Jordan-Wigner sign: exactly i occupied bits lie below the bit that term i
raises, within the b or t bits of its table.  A low bit has no top bit
below it, so term i's sign is (-1)**i; a top bit lies above all k = h-j
low bits of its block, so its sign is (-1)**(k+i).  The sign depends on
the term only, so it is folded into the weight vector (``-wbits`` for odd
terms) and the determinant costs what the permanent costs.  The closing
step is the raise into level n, whose only block is 1x1 and whose only
code is ``2**n - 1``.

``apply_level`` and ``apply_closing`` are the two boundaries the sweep
calls through this module's attributes, so a caller can wrap them to time
and count each step.  They take the level's codes in block order; the
kernel reads only n (from ``wbits``) and h (from ``src[0]``) from them.
"""

from __future__ import annotations

import numpy as np

from . import bits

# perfbench's environment block reads these two names.
HAVE_NUMBA = False

# (bits, weight k) -> (sbit, pos), each of shape (k+1, C(bits, k+1)): term i
# of the weight-(k+1) code at column d raises its i-th lowest set bit
# sbit[i, d] % bits from the weight-k code at position pos[i, d] (both
# ascending); sbit[i, d] // bits is i's parity, so ``sbit`` indexes the
# weights followed by their negations (``_signed``).  An entry depends only
# on its key, so every caller may share it; bits never exceed
# max(BLOCK_CUTOVER_N, (n+1)//2) <= 15 under the size guard, which bounds the
# cache at about 8 MB (16 bytes per edge).
_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

# Terms of one pull gathered at once: as many as fit this many amplitudes
# (256 KB), and at least one, so a large block keeps one block-sized
# temporary while a small level costs a few numpy calls.  Of the sizes tried
# from 2**11 to 2**20, 2**14 swept n = 12..18 fastest on a 2-core x86-64 host.
_PULL_ELEMENTS = 1 << 14


def kernel_name() -> str:
    return "numpy"


def _table(nbits: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pull table from weight k to k+1 on ``nbits`` bits, built once.

    The edges of ``bits.raise_edges`` out of the weight-k codes, sorted by
    destination code and then by raised bit: every weight-(k+1) code is
    the destination of exactly k+1 edges, so the sorted edges reshape into
    k+1 terms per destination, ascending in both.
    """
    table = _TABLES.get((nbits, k))
    if table is None:
        edges = list(bits.raise_edges(bits.shared_level_codes(nbits, k), nbits, False))
        raised = np.concatenate([raised for _, _, raised, _ in edges])
        order = np.argsort(raised, kind="stable")  # p ascends within a destination
        bit = np.repeat(np.arange(nbits), [len(pos) for _, pos, _, _ in edges])
        pos = np.concatenate([pos for _, pos, _, _ in edges])
        bit, pos = (a[order].reshape(-1, k + 1) for a in (bit, pos))  # (destination, term)
        bit += nbits * (np.arange(k + 1) & 1)
        table = _TABLES[(nbits, k)] = (np.ascontiguousarray(bit.T), np.ascontiguousarray(pos.T))
    return table


def _signed(w, fermionic: bool, odd: bool):
    """The weights of even terms, then those of odd terms: what ``sbit`` indexes.

    Fermionic term i is signed (-1)**(i + odd), where ``odd`` is the parity
    of the occupied bits below the table's own (a top bit's k low bits).
    """
    if not fermionic:
        return np.concatenate([w, w])
    return np.concatenate([-w, w] if odd else [w, -w])


def _pull(x, o, table, w) -> None:
    """``o[d] += sum_i w[sbit[i, d]] * x[pos[i, d]]``, gathering along axis 0.

    Terms go in chunks of up to ``_PULL_ELEMENTS`` gathered amplitudes, each
    chunk summed in term order, so the one temporary stays small.
    """
    sbit, pos = table
    step = max(1, _PULL_ELEMENTS // (pos.shape[1] * x.shape[1]))
    for i in range(0, len(pos), step):
        t = x[pos[i:i + step]]
        t *= w[sbit[i:i + step]][..., None]
        o += t[0] if len(t) == 1 else t.sum(axis=0)


def _blocks(flat, n: int, h: int) -> dict:
    """Top weight j -> the 2-D view of block j of a flat level-h array."""
    out, start = {}, 0
    for j, rows, cols in bits.level_blocks(n, h):
        out[j] = flat[start:start + rows * cols].reshape(rows, cols)
        start += rows * cols
    return out


def _raise(src, amps, wbits, fermionic, size: int):
    n, h = wbits.shape[0], int(src[0]).bit_count()
    b = bits.low_bits(n)
    low = _signed(wbits[:b], fermionic, False)
    out = np.zeros(size, dtype=np.complex128)
    into = _blocks(out, n, h + 1)
    for j, a in _blocks(amps, n, h).items():
        k = h - j
        if k < b:  # raise a low bit: column map within block j
            _pull(a.T, into[j].T, _table(b, k), low)
        if j < n - b:  # raise a top bit: row map from block j into block j+1
            _pull(a, into[j + 1], _table(n - b, j), _signed(wbits[b:], fermionic, k & 1))
    return out


def apply_level(src, dst, amps, wbits, fermionic: bool):
    """Raise amplitudes ``amps`` on codes ``src`` onto the codes ``dst``."""
    return _raise(src, amps, wbits, fermionic, dst.shape[0])


def apply_closing(src, amps, wbits, fermionic: bool, full: int) -> complex:
    """Raise level n-1 into its single successor ``full`` and return that amplitude."""
    return complex(_raise(src, amps, wbits, fermionic, 1)[0])
