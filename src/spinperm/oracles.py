"""Independent reference computations: naive permanent, Ryser, determinant.

Ryser's formula and the naive permutation sum are each one walk that serves
both backends: complex numbers for floats, ExactComplex for the exact
backend.  Neither shares code with the level sweep.  The float determinant
is LAPACK's LU with partial pivoting through ``numpy.linalg``; the exact one
is Fraction elimination that pivots on the first nonzero entry.
``lower_triangular_reduce`` returns the matrices E_0..E_{n-1} of fixed-order
elimination, which the fermionic reduction rounds are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeGuardError, ZeroPivotError
from .exact import EXACT_ONE, EXACT_ZERO, ExactComplex
from .matrix import SquareMatrix

NAIVE_MAX_N = 10
RYSER_MAX_N = 30

# Above this size the double-precision Gray walk loses enough bits to matter
# (generic complex matrices land near 1e-9 relative at n=24); the chunked
# walk is run in extended precision instead.
RYSER_EXTENDED_MIN_N = 20


def permanent_naive(matrix: SquareMatrix):
    """Sum of all n! permutation products; the ground-truth oracle.

    One walk over a column mask serves both backends.  Zero products are cut
    and multiplications by one are skipped, which keeps the big-rational
    arithmetic bounded on sparse integer inputs without changing the sum.
    """
    n = matrix.n
    if n > NAIVE_MAX_N:
        raise SizeGuardError(f"naive permanent limited to n <= {NAIVE_MAX_N}")
    zero, one = (EXACT_ZERO, EXACT_ONE) if matrix.backend == "exact" else (0j, 1 + 0j)
    rows = matrix.entries.tolist()
    skip = [[v == zero for v in row] for row in rows]
    unit = [[v == one for v in row] for row in rows]
    total = zero

    def descend(i: int, used: int, term) -> None:
        nonlocal total
        if i == n:
            total = total + term
            return
        for j in range(n):
            if used >> j & 1 or skip[i][j]:
                continue
            descend(i + 1, used | (1 << j),
                    term if unit[i][j] else term * rows[i][j])

    descend(0, 0, one)
    return total


def ryser_walk(a: np.ndarray):
    """Ryser's sum by a Gray-code walk (Nijenhuis and Wilf, 1978) in ``a``'s
    dtype: complex128, clongdouble or object (ExactComplex)."""
    n = a.shape[0]
    nsub = (1 << n) - 1
    zero = EXACT_ZERO if a.dtype == object else a.dtype.type(0)
    chunk = 1 << 14
    total = zero
    for start in range(1, nsub + 1, chunk):
        idx = np.arange(start, min(start + chunk, nsub + 1), dtype=np.int64)
        low = idx & -idx
        gray = idx ^ (idx >> 1)
        # the column that step t flips is low's bit position, popcount(low - 1)
        deltas = a[:, np.bitwise_count(low - 1)].T
        np.negative(deltas, out=deltas, where=((gray & low) == 0)[:, None])
        # row sums rebuilt exactly at chunk starts to cap drift
        g0 = (start - 1) ^ ((start - 1) >> 1)
        cols = [j for j in range(n) if g0 >> j & 1]
        rows = a[:, cols].sum(axis=1) if cols else np.full(n, zero, dtype=a.dtype)
        prods = np.prod(rows[None, :] + np.cumsum(deltas, axis=0), axis=1)
        np.negative(prods, out=prods, where=((n - np.bitwise_count(gray)) & 1) == 1)
        total = total + np.sum(prods)
    return total


def permanent_ryser(matrix: SquareMatrix):
    """Inclusion-exclusion over column subsets with Gray-code row-sum updates."""
    n = matrix.n
    if n > RYSER_MAX_N:
        raise SizeGuardError(f"Ryser permanent limited to n <= {RYSER_MAX_N}")
    if matrix.backend == "exact":
        return ryser_walk(matrix.entries)
    dtype = np.clongdouble if n >= RYSER_EXTENDED_MIN_N else np.complex128
    return complex(ryser_walk(matrix.entries.astype(dtype)))


def determinant_gauss(matrix: SquareMatrix):
    """LU with partial pivoting; exact rational elimination on the exact backend.

    The float determinant is one LAPACK ``xGETRF`` through ``numpy.linalg``,
    returned as a Python complex.  A pivot column with no nonzero candidate,
    as a zero row or column leaves, gives an exactly zero pivot, and the
    result is exactly 0.
    """
    if matrix.backend == "exact":
        return _determinant_exact(matrix)
    return complex(np.linalg.det(matrix.entries))


def log_rounding_scale(matrix: SquareMatrix) -> float:
    """log(n·ε·∏ᵢ‖aᵢ‖₂), the scale of float elimination's rounding residue.

    ∏ᵢ‖aᵢ‖₂ bounds |det A| (Hadamard), and ε is float64 machine epsilon.
    Each row's norm is taken on the row divided by its largest modulus and
    the logs are summed, so no square or product overflows; a zero row
    gives -inf.
    """
    a = np.abs(matrix.to_array())
    peak = a.max(axis=1)
    if not peak.all():
        return -math.inf
    norms = np.linalg.norm(a / peak[:, None], axis=1)
    return math.log(matrix.n * np.finfo(np.float64).eps) + float(
        np.log(peak).sum() + np.log(norms).sum())


def _determinant_exact(matrix: SquareMatrix) -> ExactComplex:
    n = matrix.n
    a = [list(row) for row in matrix.entries]
    sign = 1
    det = EXACT_ONE
    for k in range(n):
        pivot_row = None
        for r in range(k, n):
            if not a[r][k].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            return EXACT_ZERO
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        det = det * pivot
        for r in range(k + 1, n):
            if a[r][k].is_zero():
                continue
            factor = a[r][k] / pivot
            for c in range(k, n):
                a[r][c] = a[r][c] - factor * a[k][c]
    if sign < 0:
        det = -det
    return det


def lower_triangular_reduce(matrix: SquareMatrix) -> list[np.ndarray]:
    """Fixed-order sweep to lower-triangular form, one trailing column per round.

    Round k clears column n-k above the diagonal by subtracting a multiple of
    the row directly below, all updates taken simultaneously from the
    previous round's matrix.  There is no pivoting freedom: a vanishing
    divisor raises ZeroPivotError naming the entry.  Returns the complex128
    matrices E_0..E_{n-1}, E_0 the input and E_k the matrix after round k.
    """
    n = matrix.n
    a = matrix.to_array().tolist()
    rounds = [np.array(a)]
    for k in range(1, n):
        col = n - k
        prev = [row[:] for row in a]
        for i in range(col):
            numerator = prev[i][col]
            if numerator == 0:
                continue
            pivot = prev[i + 1][col]
            if pivot == 0:
                raise ZeroPivotError(
                    f"round {k} needs a nonzero w[{i + 1},{col}]",
                    entry=(i + 1, col),
                )
            factor = numerator / pivot
            for c in range(col + 1):
                a[i][c] = prev[i][c] - factor * prev[i + 1][c]
        rounds.append(np.array(a))
    return rounds
