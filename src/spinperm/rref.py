"""Complex Gauss-Jordan elimination: RREF, rank, and null-space bases."""

from __future__ import annotations

import numpy as np

RANK_REL_TOL = 1e-9


def zero_threshold(a: np.ndarray) -> float:
    """Magnitude at or below which an entry of ``a`` counts as zero.

    ``RANK_REL_TOL`` times the largest magnitude in ``a``, or
    ``RANK_REL_TOL`` itself when ``a`` is empty or all zero.
    """
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    return RANK_REL_TOL * scale if scale > 0 else RANK_REL_TOL


def rref(a: np.ndarray):
    """Reduced row echelon form with partial pivoting by magnitude.

    Returns ``(reduced, pivot_columns)``.  Entries at or below
    ``zero_threshold`` are treated as zero.
    """
    r = np.array(a, dtype=np.complex128)
    if r.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    eps = zero_threshold(r)
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pick = row + int(np.argmax(np.abs(r[row:, col])))
        if abs(r[pick, col]) <= eps:
            continue
        if pick != row:
            r[[row, pick]] = r[[pick, row]]
        r[row] /= r[row, col]
        mask = np.arange(nrows) != row
        r[mask] -= np.outer(r[mask, col], r[row])
        pivots.append(col)
        row += 1
    return r, pivots


def matrix_rank(a: np.ndarray) -> int:
    return len(rref(a)[1])


def nullity(a: np.ndarray) -> int:
    return a.shape[1] - matrix_rank(a)


def nullspace(a: np.ndarray) -> list[np.ndarray]:
    """A kernel basis, one vector per free column, in ascending column order.

    The vector of free column f is exactly 1 at f and exactly 0 at every
    other free column; at pivot columns right of f it holds only rounding
    residue below the zero threshold.
    """
    r, pivots = rref(a)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    vectors = []
    for f in free:
        v = np.zeros(ncols, dtype=np.complex128)
        v[f] = 1.0
        for row, p in enumerate(pivots):
            v[p] = -r[row, f]
        vectors.append(v)
    return vectors


def kernel_leading_basis(a: np.ndarray) -> list[np.ndarray]:
    """Kernel basis in the leading-coordinate canonical form, by one elimination.

    Each vector is exactly 1 at its lead, its first coordinate above the
    zero threshold, and exactly 0 at the leads of the others; the vectors
    come in ascending lead order.  That form depends only on the kernel.
    Eliminating the columns right to left gives it directly: the free
    column of each ``nullspace`` vector of the column-reversed matrix is
    its last coordinate above the threshold, which is the first once the
    vector is read back in the original order.  So there is no second pass
    that re-reduces a trailing-form basis to this form, vector by vector.
    """
    return [v[::-1] for v in reversed(nullspace(a[:, ::-1]))]


def leading_index(v: np.ndarray) -> int | None:
    """Index of the first entry of ``v`` above ``zero_threshold(v)``."""
    nz = np.flatnonzero(np.abs(v) > zero_threshold(v))
    return int(nz[0]) if nz.size else None
