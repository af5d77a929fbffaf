"""Hot numeric kernels: numba-jitted primaries with pure-numpy fallbacks.

The active kernel is chosen by the ``SPINPERM_KERNEL`` environment variable:
``auto`` (default; numba when importable), ``numba``, or ``numpy``.  Both
paths produce identical results up to floating-point associativity and are
cross-checked in the test suite and the benchmark table.

All kernels work in "code" space: bit ``p`` of a basis code is the
occupation of site ``n-1-p``, so ascending codes match ascending text
labels.  ``wbits[p]`` must hold the weight for raising the site stored in
bit ``p``.  The raising rule itself lives in ``bits.raise_edges``, which the
numpy kernel consumes; ``_apply_level_nb`` is its compiled mirror.  The
closing step is the raise into level n, whose only code is ``2**n - 1``.
"""

from __future__ import annotations

import os

import numpy as np

from . import bits

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via SPINPERM_KERNEL=numpy
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]
        return wrap


KERNEL_ENV = "SPINPERM_KERNEL"


def kernel_name() -> str:
    """Resolve the active kernel from the environment."""
    choice = os.environ.get(KERNEL_ENV, "auto").strip().lower()
    if choice in ("", "auto"):
        return "numba" if HAVE_NUMBA else "numpy"
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("SPINPERM_KERNEL=numba but numba is not importable")
        return "numba"
    raise ValueError(f"unknown {KERNEL_ENV} value {choice!r}")


def available_kernels() -> tuple[str, ...]:
    return ("numba", "numpy") if HAVE_NUMBA else ("numpy",)


# ---------------------------------------------------------------------------
# numba kernels
# ---------------------------------------------------------------------------


@njit(cache=True)
def _popcount(x):
    count = 0
    while x:
        x &= x - 1
        count += 1
    return count


@njit(cache=True)
def _fill_level_codes(h, out):
    if h == 0:
        out[0] = 0
        return
    c = (np.int64(1) << h) - 1
    for i in range(out.shape[0]):
        out[i] = c
        u = c & -c
        v = c + u
        c = v + (((v ^ c) // u) >> 2)


@njit(cache=True)
def _apply_level_nb(src, dst, amps, wbits, fermionic):
    out = np.zeros(dst.shape[0], dtype=np.complex128)
    nbits = wbits.shape[0]
    for p in range(nbits):
        bit = np.int64(1) << p
        w = wbits[p]
        j = 0
        for i in range(src.shape[0]):
            c = src[i]
            if c & bit:
                continue
            t = c | bit
            while dst[j] < t:
                j += 1
            a = w * amps[i]
            if fermionic and _popcount(c & (bit - 1)) & 1:
                a = -a
            out[j] += a
    return out


@njit(cache=True)
def _ryser_nb(a):
    n = a.shape[0]
    rows = np.zeros(n, dtype=np.complex128)
    nsub = (np.int64(1) << n) - 1
    chunk = np.int64(4096)
    nchunks = (nsub + chunk - 1) // chunk
    partials = np.zeros(nchunks, dtype=np.complex128)
    t = np.int64(1)
    for ci in range(nchunks):
        # rebuild the row sums exactly at chunk starts to cap drift
        g0 = (t - 1) ^ ((t - 1) >> 1)
        for i in range(n):
            s = 0.0 + 0.0j
            for j in range(n):
                if g0 >> j & 1:
                    s += a[i, j]
            rows[i] = s
        acc = 0.0 + 0.0j
        end = min((ci + 1) * chunk, nsub)
        while t <= end:
            low = t & -t
            j = 0
            while (np.int64(1) << j) != low:
                j += 1
            g = t ^ (t >> 1)
            if g & low:
                for i in range(n):
                    rows[i] += a[i, j]
            else:
                for i in range(n):
                    rows[i] -= a[i, j]
            prod = 1.0 + 0.0j
            for i in range(n):
                prod *= rows[i]
            if (n - _popcount(g)) & 1:
                acc -= prod
            else:
                acc += prod
            t += 1
        partials[ci] = acc
    return partials


# ---------------------------------------------------------------------------
# numpy fallbacks
# ---------------------------------------------------------------------------


def _bit_positions(values: np.ndarray) -> np.ndarray:
    # values are single-bit integers; frexp is exact on powers of two
    return np.frexp(values.astype(np.float64))[1].astype(np.int64) - 1


def _apply_level_np(src, dst, amps, wbits, fermionic):
    out = np.zeros(dst.shape[0], dtype=np.complex128)
    for p, pos, raised, odd in bits.raise_edges(src, wbits.shape[0], fermionic):
        vals = wbits[p] * amps[pos]
        if fermionic:
            vals = np.where(odd, -vals, vals)
        # targets are distinct for a fixed raised bit
        out[np.searchsorted(dst, raised)] += vals
    return out


def _ryser_np(a, dtype=np.complex128):
    n = a.shape[0]
    nsub = (1 << n) - 1
    a = a.astype(dtype)
    chunk = 1 << 14
    total = dtype(0)
    for start in range(1, nsub + 1, chunk):
        idx = np.arange(start, min(start + chunk, nsub + 1), dtype=np.int64)
        low = idx & -idx
        pos = _bit_positions(low)
        gray = idx ^ (idx >> 1)
        flip = np.where((gray & low) != 0, 1.0, -1.0)
        deltas = a[:, pos].T * flip[:, None]
        # row sums rebuilt exactly at chunk starts to cap drift
        g0 = (start - 1) ^ ((start - 1) >> 1)
        cols = [j for j in range(n) if g0 >> j & 1]
        rows = a[:, cols].sum(axis=1) if cols else np.zeros(n, dtype=dtype)
        sums = rows[None, :] + np.cumsum(deltas, axis=0)
        prods = np.prod(sums, axis=1)
        size = np.bitwise_count(gray.astype(np.uint64)).astype(np.int64)
        signs = np.where(((n - size) & 1) == 1, -1.0, 1.0).astype(dtype)
        total = total + np.sum(signs * prods)
    return complex(total)


# Above this size the double-precision Gray walk loses enough bits to matter
# (generic complex matrices land near 1e-9 relative at n=24); the chunked
# walk is rerun in extended precision instead.
RYSER_EXTENDED_MIN_N = 20


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------


def level_codes(n: int, h: int, kernel: str | None = None) -> np.ndarray:
    if (kernel or kernel_name()) == "numba":
        out = np.empty(bits.binom(n, h), dtype=np.int64)
        _fill_level_codes(h, out)
        return out
    return bits.level_codes(n, h)


def apply_level(src, dst, amps, wbits, fermionic: bool, kernel: str | None = None):
    fn = _apply_level_nb if (kernel or kernel_name()) == "numba" else _apply_level_np
    return fn(src, dst, amps, wbits, fermionic)


def apply_closing(src, amps, wbits, fermionic: bool, full: int, kernel: str | None = None):
    fn = _apply_level_nb if (kernel or kernel_name()) == "numba" else _apply_level_np
    return complex(fn(src, np.array([full], dtype=np.int64), amps, wbits, fermionic)[0])


def ryser_sum(a: np.ndarray, kernel: str | None = None) -> complex:
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[0] >= RYSER_EXTENDED_MIN_N:
        return _ryser_np(a, dtype=np.clongdouble)
    if (kernel or kernel_name()) == "numba":
        return complex(np.sum(_ryser_nb(np.ascontiguousarray(a))))
    return _ryser_np(a)
