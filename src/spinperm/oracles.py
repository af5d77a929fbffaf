"""Independent reference computations: naive permanent, Ryser, elimination."""

from __future__ import annotations

import math
from itertools import permutations

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
    """Sum of all n! permutation products; the ground-truth oracle."""
    n = matrix.n
    if n > NAIVE_MAX_N:
        raise SizeGuardError(f"naive permanent limited to n <= {NAIVE_MAX_N}")
    if matrix.backend == "exact":
        return _naive_exact(matrix)
    a = matrix.entries
    total = 0j
    for perm in permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


def _naive_exact(matrix: SquareMatrix) -> ExactComplex:
    """Permutation sum over a column mask, pruning zero and unit factors.

    Zero products are cut analytically and multiplications by exact one are
    skipped, which keeps the big-rational arithmetic bounded on sparse
    integer inputs without changing the permutation sum.
    """
    n = matrix.n
    rows = matrix.entries
    zero = [[rows[i][j].is_zero() for j in range(n)] for i in range(n)]
    one = [[rows[i][j] == EXACT_ONE for j in range(n)] for i in range(n)]
    total = EXACT_ZERO

    def descend(i: int, used: int, term: ExactComplex) -> None:
        nonlocal total
        if i == n:
            total = total + term
            return
        for j in range(n):
            if used >> j & 1 or zero[i][j]:
                continue
            descend(i + 1, used | (1 << j),
                    term if one[i][j] else term * rows[i][j])

    descend(0, 0, EXACT_ONE)
    return total


def _ryser_exact(matrix: SquareMatrix) -> ExactComplex:
    n = matrix.n
    rows = [EXACT_ZERO] * n
    total = EXACT_ZERO
    for t in range(1, 1 << n):
        low = t & -t
        j = low.bit_length() - 1
        gray = t ^ (t >> 1)
        col = [matrix.entries[i][j] for i in range(n)]
        if gray & low:
            rows = [rows[i] + col[i] for i in range(n)]
        else:
            rows = [rows[i] - col[i] for i in range(n)]
        prod = EXACT_ONE
        for i in range(n):
            prod = prod * rows[i]
            if prod.is_zero():
                break
        if (n - gray.bit_count()) & 1:
            total = total - prod
        else:
            total = total + prod
    return total


def _bit_positions(values: np.ndarray) -> np.ndarray:
    # values are single-bit integers; frexp is exact on powers of two
    return np.frexp(values.astype(np.float64))[1].astype(np.int64) - 1


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


def permanent_ryser(matrix: SquareMatrix):
    """Inclusion-exclusion over column subsets with Gray-code row-sum updates."""
    n = matrix.n
    if n > RYSER_MAX_N:
        raise SizeGuardError(f"Ryser permanent limited to n <= {RYSER_MAX_N}")
    if matrix.backend == "exact":
        return _ryser_exact(matrix)
    dtype = np.clongdouble if n >= RYSER_EXTENDED_MIN_N else np.complex128
    return _ryser_np(np.asarray(matrix.entries, dtype=np.complex128), dtype)


def determinant_gauss(matrix: SquareMatrix):
    """Elimination with partial pivoting and sign-tracked row swaps.

    A pivot column with no usable swap candidate means the matrix is
    singular and the result is exactly zero.
    """
    if matrix.backend == "exact":
        return _determinant_exact(matrix)
    n = matrix.n
    a = matrix.to_array()
    sign = 1.0
    for k in range(n):
        pivot_row = k + int(np.abs(a[k:, k]).argmax())
        if a[pivot_row, k] == 0:
            return 0j
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            sign = -sign
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= factors[:, None] * a[k, k:]  # np.outer's products, without its wrapper
    return complex(sign * np.prod(np.diag(a)))


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


def lower_triangular_reduce(matrix: SquareMatrix):
    """Fixed-order sweep to lower-triangular form, one trailing column per round.

    Round k clears column n-k above the diagonal by subtracting a multiple of
    the row directly below, all updates taken simultaneously from the
    previous round's matrix.  There is no pivoting freedom: a vanishing
    divisor raises ZeroPivotError naming the entry.  Takes a float matrix;
    returns the final matrix and each round's reweighted entries.
    """
    n = matrix.n
    a = [[complex(v) for v in row] for row in matrix.entries]
    rounds = []
    for k in range(1, n):
        col = n - k
        changed = {}
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
            for c in range(col + 1):
                if a[i][c] != prev[i][c]:
                    changed[(i, c)] = a[i][c]
        rounds.append(changed)
    return SquareMatrix.from_array(np.array(a, dtype=np.complex128)), rounds
