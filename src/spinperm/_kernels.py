"""The sweep's numeric kernel: one level raise in numpy, on the block layout.

Amplitudes are complex128 (float backend) or objects holding ExactComplex
(exact backend); both run the same plan, with the same numpy calls, and
only the dtype differs.

Kernels work in "code" space: bit ``p`` of a basis code is the occupation
of site ``n-1-p``.  ``wbits[p]`` must hold the weight for raising the site
stored in bit ``p``.  Amplitudes are in block order (``bits.block_codes``):
level h is one block per top weight j, of shape (C(t, j), C(b, h-j)), with
b = ``bits.low_bits(n)`` low bits and t = n - b top bits.

Raising low bit p maps columns within block j; raising top bit q maps rows
of block j into block j+1.  Either raise is a pull: each destination (a
column or row code of weight k+1) sums its k+1 predecessors, and term i
clears the destination's i-th lowest set bit.  The tables ``(sbit, pos)``
for those terms are built once per (bits, weight) by sorting the edge
table of ``bits.raise_edges`` on b or t bits, so the raising rule keeps its
one definition and no raise searches for or scatters into its targets.  The
pulls of each level, with their block offsets, chunks and weight vectors,
are planned once per layout (``_plan``), so a step does no layout
arithmetic; a one-block level is a plan with one pull.

Tiles: no chunk of a pull gathers more than ``_PULL_ELEMENTS`` amplitudes.
A chunk takes whole terms for all destinations while one term's gather
fits, and otherwise one term for a tile of destinations.  So the raise's
scratch is fixed whatever the block size, and every destination still
sums its terms in term order from the dtype's zero (``_ZERO``).

Jordan-Wigner sign: a table carries each term's odd mask from
``bits.raise_edges`` on its own b or t bits, folded into ``sbit``, so a
pull gathers its weights from its bits' ``[w, -w]`` (``_weights``) and the
determinant costs what the permanent costs.  A top bit also lies above all
k = h-j low bits of its block, which its table does not see; when their
parity is odd the pull reads the top bits' ``[-w, w]`` instead.  The
closing step is the raise into level n, whose only block is 1x1 and whose
only code is ``2**n - 1``.

``apply_level`` and ``apply_closing`` are the two boundaries the sweep
calls through this module's attributes, so a caller can wrap them to time
and count each step.  They take the level's codes in block order; the
kernel reads only n (from ``wbits``) and h (from ``src[0]``) from them.
"""

from __future__ import annotations

import numpy as np

from . import bits
from .exact import EXACT_ZERO

# perfbench's environment block reads these two names.
HAVE_NUMBA = False

# (bits, weight k) -> (sbit, pos), each of shape (k+1, C(bits, k+1)): term i
# of the weight-(k+1) code at column d raises its i-th lowest set bit
# sbit[i, d] % bits from the weight-k code at position pos[i, d] (both
# ascending); sbit[i, d] // bits is that edge's odd mask, so ``sbit`` indexes
# the table's weights followed by their negations (``_weights``).  An
# entry depends only on its key, so every caller may share it; bits never
# exceed max(BLOCK_CUTOVER_N, (n+1)//2) <= 15 under the size guard, which
# bounds the cache at about 8 MB (16 bytes per edge).
_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

# Amplitudes one chunk of a pull gathers at most (256 KB): as many whole
# terms as fit, or one term over a tile of destinations once a term alone
# does not (n >= 19), so a large block needs no block-sized temporary while a
# small level costs a few numpy calls.  A tile holds at least one
# destination, whose gather is at most C(14, 7) amplitudes under the size
# guard.  Of the sizes tried from 2**11 to 2**20, 2**14 swept n = 12..18
# fastest on a 2-core x86-64 host.
_PULL_ELEMENTS = 1 << 14

# (n, h, b) -> ``_plan(n, h)``: views into ``_TABLES`` and a few offsets,
# at most two entries per block, for the n <= 28 the size guard lets a sweep
# reach.  Keyed by b as well, as ``bits._level_blocks`` is.
_PLANS: dict[tuple[int, int, int], tuple] = {}


# Where a fresh pull's sum starts, by amplitude dtype: 0.0 as ``sum`` starts
# a float sum, and the exact zero, which an ExactComplex can be added to.
_ZERO = {np.dtype(np.complex128): 0.0, np.dtype(object): EXACT_ZERO}


def kernel_name() -> str:
    return "numpy"


def _table(nbits: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pull table from weight k to k+1 on ``nbits`` bits, built once.

    The edge table of ``bits.raise_edges`` out of the weight-k codes,
    sorted by destination code and then by raised bit: every weight-(k+1)
    code is the destination of exactly k+1 edges, so the sorted edges
    reshape into k+1 terms per destination, ascending in both.
    """
    table = _TABLES.get((nbits, k))
    if table is None:
        bit, pos, raised, odd = bits.raise_edges(bits.shared_level_codes(nbits, k), nbits)
        order = np.argsort(raised, kind="stable")  # p ascends within a destination
        # (destination, term)
        sbit, pos = (a[order].reshape(-1, k + 1) for a in (bit + nbits * odd, pos))
        table = _TABLES[(nbits, k)] = (np.ascontiguousarray(sbit.T), np.ascontiguousarray(pos.T))
    return table


def _plan(n: int, h: int) -> tuple:
    """The pulls of one raise from level h, built once per layout.

    One entry per pull, in block order: ``(src, dst, transposed, weights,
    chunks)``.  ``src`` and ``dst`` are ``(start, stop, shape)`` of a block
    of level h and of level h+1; ``transposed`` marks a low-bit pull, which
    maps columns.  ``weights`` names the vector of ``_raise`` the pull
    reads: 0 for the low bits, 1 or 2 for the top bits under an even or odd
    count of occupied low bits.  ``chunks`` are ``(lo, hi, index, pos,
    fresh)``: the terms of destinations lo..hi-1, at most ``_PULL_ELEMENTS``
    gathered amplitudes, where ``index`` is the table's ``sbit``; ``fresh``
    marks the first chunk into those destinations of their block.  A
    one-block level (b = n) is a plan with one entry.
    """
    b = bits.low_bits(n)
    plan = _PLANS.get((n, h, b))
    if plan is None:
        t = n - b
        into = _offsets(n, h + 1)
        plan = []
        for i, (j, (start, rows, cols)) in enumerate(_offsets(n, h).items()):
            src, k = (start, start + rows * cols, (rows, cols)), h - j
            # block j of level h+1 first receives the top pull from block
            # j-1, so only the first block's low pull is fresh
            if k < b:  # raise a low bit: column map within block j
                plan.append(_pull_plan(src, into[j], True, i == 0, rows, b, k, 0))
            if j < t:  # raise a top bit: row map from block j into block j+1
                plan.append(_pull_plan(src, into[j + 1], False, True, cols, t, j, 1 + (k & 1)))
        plan = _PLANS[(n, h, b)] = tuple(plan)
    return plan


def _pull_plan(src, dst, transposed, fresh, width, nbits, k, weights):
    """One pull of ``_plan``, into the ``(start, rows, cols)`` block ``dst``
    of level h+1; each destination gathers ``width`` amplitudes per term."""
    start, rows, cols = dst
    index, pos = _table(nbits, k)
    index = index[..., None]
    terms, dests = pos.shape
    step = max(1, _PULL_ELEMENTS // (dests * width))  # terms per chunk
    tile = min(dests, _PULL_ELEMENTS // (step * width))  # destinations per chunk
    chunks = tuple((d, min(d + tile, dests), index[i:i + step, d:d + tile],
                    pos[i:i + step, d:d + tile], fresh and i == 0)
                   for d in range(0, dests, tile) for i in range(0, terms, step))
    return src, (start, start + rows * cols, (rows, cols)), transposed, weights, chunks


def _offsets(n: int, h: int) -> dict[int, tuple[int, int, int]]:
    """Top weight j -> (start, rows, cols) of block j of level h."""
    out, start = {}, 0
    for j, rows, cols in bits.level_blocks(n, h):
        out[j] = (start, rows, cols)
        start += rows * cols
    return out


def _weights(w, fermionic: bool):
    """What a table's ``sbit`` reads: its bits' weights ``w``, then their
    negations (fermionic) or ``w`` again (bosonic), so index p + len(w) is
    bit p's odd-term weight."""
    return np.concatenate((w, -w if fermionic else w))


def _pull(x, o, index, pos, w, take: bool, fresh: bool) -> None:
    """``o[d] += sum_i w[index[i, d]] * x[pos[i, d]]``, gathering along axis 0.

    The chunk's terms are summed in term order from ``_ZERO``, as ``sum``
    does.  A fresh ``o`` is not read: the sum is written into it.
    """
    t = x.take(pos, axis=0) if take else x[pos]
    t *= w.take(index)
    if fresh:
        np.add.reduce(t, axis=0, out=o, initial=_ZERO[o.dtype])
    else:
        o += t[0] if len(t) == 1 else t.sum(axis=0)


def _raise(src, amps, wbits, fermionic, size: int):
    n, h = wbits.shape[0], int(src[0]).bit_count()
    b = bits.low_bits(n)
    weights = [_weights(wbits[:b], fermionic)]
    if b < n:  # a split level's top bits, under an even and an odd low-bit count
        top = _weights(wbits[b:], fermionic)
        weights += [top, -top if fermionic else top]
    out = np.empty(size, dtype=amps.dtype)  # every destination has a fresh chunk
    for (s0, s1, shape), (d0, d1, into), transposed, w, chunks in _plan(n, h):
        a, o = amps[s0:s1].reshape(shape), out[d0:d1].reshape(into)
        # a contiguous source view (a one-row block's columns are) lets
        # ``ndarray.take`` gather from it without copying it whole
        take = not transposed or shape[0] == 1
        if transposed:
            a, o = a.T, o.T
        for lo, hi, index, pos, fresh in chunks:
            _pull(a, o[lo:hi], index, pos, weights[w], take, fresh)
    return out


def apply_level(src, dst, amps, wbits, fermionic: bool):
    """Raise amplitudes ``amps`` on codes ``src`` onto the codes ``dst``."""
    return _raise(src, amps, wbits, fermionic, dst.shape[0])


def apply_closing(src, amps, wbits, fermionic: bool):
    """Raise level n-1 into its single successor ``2**n - 1`` and return that
    amplitude, a Python complex or an ExactComplex."""
    return _raise(src, amps, wbits, fermionic, 1).item(0)
