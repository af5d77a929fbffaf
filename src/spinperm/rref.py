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


def support(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Indices of the entries of ``a`` above ``zero_threshold(a)``, as ``np.nonzero``."""
    return np.nonzero(np.abs(a) > zero_threshold(a))


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


def nullspace(a: np.ndarray) -> np.ndarray:
    """A kernel basis, one row per free column, in ascending column order.

    The row of free column f is exactly 1 at f and exactly 0 at every other
    free column; at pivot columns right of f it holds only rounding residue
    below the zero threshold.  A full-rank ``a`` gives shape (0, ncols).
    """
    r, pivots = rref(a)
    free = np.delete(np.arange(a.shape[1]), pivots)
    basis = np.eye(a.shape[1], dtype=np.complex128)[free]
    basis[:, pivots] = -r[:len(pivots), free].T
    return basis


def kernel_leading_basis(a: np.ndarray) -> np.ndarray:
    """Kernel basis in the leading-coordinate canonical form, by one elimination.

    Each row is exactly 1 at its lead, its first coordinate above the zero
    threshold, and exactly 0 at the leads of the others; the rows come in
    ascending lead order.  That form depends only on the kernel.
    Eliminating the columns right to left gives it directly: the free
    column of each ``nullspace`` row of the column-reversed matrix is its
    last coordinate above the threshold, which is the first once the row
    is read back in the original order.
    """
    return nullspace(a[:, ::-1])[::-1, ::-1]


def leading_index(v: np.ndarray) -> int | None | np.ndarray:
    """Index of the first entry of ``v`` above ``zero_threshold(v)``, or None.

    Given rows, each row's index by its own threshold, and -1 for a row
    without one.  (An all-zero row has no entry above any threshold, so
    ``RANK_REL_TOL`` times its largest magnitude serves for it too.)
    """
    mag = np.abs(v)
    above = mag > RANK_REL_TOL * mag.max(axis=-1, keepdims=True)
    lead = np.where(above.any(axis=-1), above.argmax(axis=-1), -1)
    return lead if v.ndim > 1 else (int(lead) if lead >= 0 else None)
