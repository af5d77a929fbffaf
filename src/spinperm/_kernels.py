"""The sweep's numeric kernel: one level raise in numpy, on the block layout.

Amplitudes are complex128 (float backend) or Python objects (exact
backend); both run the same plan, with the same numpy calls, and only the
dtype differs: the kernel adds and multiplies amplitudes and weights and
never makes a scalar of its own.

Kernels work in "code" space: bit ``p`` of a basis code is the occupation
of site ``n-1-p``.  ``wbits[p]`` must hold the weight for raising the site
stored in bit ``p``.  Amplitudes are in block order (``bits.block_codes``):
level h is one block per top weight j, of shape (C(t, j), C(b, h-j)), with
b = ``bits.low_bits(n)`` low bits and t = n - b top bits.

Raising low bit p maps columns within block j; raising top bit q maps rows
of block j into block j+1.  Either raise is a pull: each destination (a
column or row code of weight k+1) sums its k+1 predecessors, and term i
clears the destination's i-th lowest set bit.  The tables ``(sbit, pos,
bit)`` for those terms are built once per (bits, weight) by sorting the edge
table of ``bits.raise_edges`` on b or t bits, so the raising rule keeps its
one definition and no raise searches for or scatters into its targets.  The
pulls of each level, with their source and destination views, chunks and
weight vectors, are planned once per layout (``_plan``), so a step does no
layout arithmetic.  A pull from a one-row block (low bits) or a one-column
block (top bits) gathers from a flat slice with 2-D tables, so a one-block
level is one pull of flat views: gather, weight gather, multiply, reduce.

Tiles: no chunk of a pull gathers more than ``_PULL_ELEMENTS`` amplitudes.
A chunk takes whole terms for all destinations while one term's gather
fits, and otherwise one term for a tile of destinations.  So the raise's
scratch is fixed whatever the block size, and every destination still
sums its terms in term order, starting from its first term.

Jordan-Wigner sign: a table carries each term's odd mask from
``bits.raise_edges`` on its own b or t bits, folded into ``sbit``, so a
fermionic pull gathers its weights from its bits' ``[w, -w]``
(``_weights``) and the determinant costs one concatenation per step more
than the permanent, which gathers from ``w`` itself by the table's plain
``bit``.  A top bit also lies above all k = h-j low bits of its block,
which its table does not see; when their parity is odd the pull reads the
top bits' ``[-w, w]`` instead.  The closing step is the raise into level
n, whose only block is 1x1 and whose only code is ``2**n - 1``.

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

# (bits, weight k) -> (sbit, pos, bit), each of shape (k+1, C(bits, k+1)):
# term i of the weight-(k+1) code at column d raises its i-th lowest set bit
# bit[i, d] = sbit[i, d] % bits from the weight-k code at position pos[i, d]
# (both ascending); sbit[i, d] // bits is that edge's odd mask, so ``sbit``
# indexes the table's weights followed by their negations (``_weights``).
# An entry depends only on its key, so every caller may share it; bits
# never exceed max(BLOCK_CUTOVER_N, (n+1)//2) <= 15 under the size guard,
# which bounds the cache at about 12 MB (24 bytes per edge).
_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

# Amplitudes one chunk of a pull gathers at most (256 KB): as many whole
# terms as fit, or one term over a tile of destinations once a term alone
# does not (n >= 19), so a large block needs no block-sized temporary while a
# small level costs a few numpy calls.  A tile holds at least one
# destination, whose gather is at most C(14, 7) amplitudes under the size
# guard.  Of the sizes tried from 2**11 to 2**20, 2**14 swept n = 12..18
# fastest on a 2-core x86-64 host.
_PULL_ELEMENTS = 1 << 14

# (n, h, b) -> ``_plan(n, h)``: views into ``_TABLES``, slices and
# shapes, at most two entries per block, for the n <= 28 the size guard
# lets a sweep reach.  Keyed by b as well, as ``bits._level_blocks`` is.
_PLANS: dict[tuple[int, int, int], tuple] = {}


def kernel_name() -> str:
    return "numpy"


def _table(nbits: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
        table = _TABLES[(nbits, k)] = tuple(np.ascontiguousarray(a[order].reshape(-1, k + 1).T)
                                            for a in (bit + nbits * odd, pos, bit))
    return table


def _plan(n: int, h: int) -> tuple:
    """The pulls of one raise from level h, built once per layout.

    One entry per pull, in block order: ``(src, dst, shape, into,
    transposed, weights, chunks)``.  ``src`` and ``dst`` slice a block out
    of level h and level h+1.  A pull whose destinations each gather one
    amplitude per term leaves both flat (``shape`` None); otherwise they
    are reshaped to ``shape`` and ``into``, and ``transposed`` marks a
    low-bit pull, which maps columns.  ``weights`` names the vector of
    ``_raise`` the pull reads: 0 for the low bits, 1 or 2 for the top bits
    under an even or odd count of occupied low bits.  ``chunks`` are ``(lo,
    hi, index, pos, fresh)``: the terms of destinations lo..hi-1, at most
    ``_PULL_ELEMENTS`` gathered amplitudes, where ``index`` is the pair of
    the table's ``bit`` and ``sbit`` (each with a trailing axis unless
    flat), which a bosonic and a fermionic pull read, and ``fresh`` marks
    the first chunk into those destinations of their block.  A one-block
    level (b = n) is a plan with one flat entry.
    """
    b = bits.low_bits(n)
    plan = _PLANS.get((n, h, b))
    if plan is None:
        t = n - b
        into = {j: block for j, *block in bits.level_blocks(n, h + 1)}
        plan = []
        for i, (j, *src) in enumerate(bits.level_blocks(n, h)):
            k = h - j
            # block j of level h+1 first receives the top pull from block
            # j-1, so only the first block's low pull is fresh
            if k < b:  # raise a low bit: column map within block j
                plan.append(_pull_plan(src, into[j], True, i == 0, b, k, 0))
            if j < t:  # raise a top bit: row map from block j into block j+1
                plan.append(_pull_plan(src, into[j + 1], False, True, t, j, 1 + (k & 1)))
        plan = _PLANS[(n, h, b)] = tuple(plan)
    return plan


def _pull_plan(src, dst, transposed, fresh, nbits, k, weights):
    """One pull of ``_plan`` from the ``(start, rows, cols)`` block ``src``
    into the block ``dst`` of level h+1; each destination gathers ``width``
    amplitudes per term."""
    (s0, rows, cols), (d0, drows, dcols) = src, dst
    width = rows if transposed else cols
    sbit, pos, bit = _table(nbits, k)
    shape = into = None
    if width > 1:
        shape, into, sbit, bit = (rows, cols), (drows, dcols), sbit[..., None], bit[..., None]
    terms, dests = pos.shape
    step = max(1, _PULL_ELEMENTS // (dests * width))  # terms per chunk
    tile = min(dests, _PULL_ELEMENTS // (step * width))  # destinations per chunk
    chunks = []
    for d in range(0, dests, tile):
        for i in range(0, terms, step):
            cut = np.s_[i:i + step, d:d + tile]
            chunks.append((d, min(d + tile, dests), (bit[cut], sbit[cut]), pos[cut],
                           fresh and i == 0))
    return (slice(s0, s0 + rows * cols), slice(d0, d0 + drows * dcols), shape, into,
            transposed and width > 1, weights, tuple(chunks))


def _weights(w, fermionic: bool):
    """What a pull's index reads: its bits' weights ``w`` (bosonic, by
    ``bit``), or ``w`` and then their negations (fermionic, by ``sbit``), so
    index p + len(w) is bit p's odd-term weight."""
    return np.concatenate((w, -w)) if fermionic else w


def _raise(src, amps, wbits, fermionic, size: int):
    n, h = len(wbits), src.item(0).bit_count()
    b = bits.low_bits(n)
    plan = _PLANS.get((n, h, b)) or _plan(n, h)
    if b == n:  # one block: the pulls read all n bits
        weights = (_weights(wbits, fermionic),)
    else:  # the low bits, then the top bits under an even and an odd low-bit count
        top = _weights(wbits[b:], fermionic)
        weights = (_weights(wbits[:b], fermionic), top, -top if fermionic else top)
    out = np.empty(size, dtype=amps.dtype)  # every destination has a fresh chunk
    for s, d, shape, into, transposed, at, chunks in plan:
        a, o, w = amps[s], out[d], weights[at]
        if shape is not None:
            a, o = a.reshape(shape), o.reshape(into)
            if transposed:
                a, o = a.T, o.T
        # o[d] += sum_i w[index[i, d]] * a[pos[i, d]], gathering along axis 0
        # and summing in term order; a transposed view's rows are not
        # contiguous, so ``take`` would copy it whole
        for lo, hi, index, pos, fresh in chunks:
            t = a[pos] if transposed else a.take(pos, axis=0)
            t *= w.take(index[fermionic])
            if fresh:
                np.add.reduce(t, axis=0, out=o[lo:hi])
            else:
                o[lo:hi] += t[0] if len(t) == 1 else t.sum(axis=0)
    return out


def apply_level(src, dst, amps, wbits, fermionic: bool):
    """Raise amplitudes ``amps`` on codes ``src`` onto the codes ``dst``."""
    return _raise(src, amps, wbits, fermionic, dst.shape[0])


def apply_closing(src, amps, wbits, fermionic: bool):
    """Raise level n-1 into its single successor ``2**n - 1`` and return that
    amplitude, a Python complex or an ExactComplex."""
    return _raise(src, amps, wbits, fermionic, 1).item(0)
