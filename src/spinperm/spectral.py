"""Desk-scale verification of the operator's spectral structure.

All nonzero eigenvalues of the closed-variant operator are the n-th roots of
the permanent (or determinant); its n-th power is block diagonal over
Hamming levels with rank-1 blocks.  These claims are checked through
residuals, RREF ranks, and the closed-form eigenvector construction rather
than a general-purpose eigensolver.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from . import bits, rref
from .errors import (
    BlockStructureError,
    ConsistencyError,
    SizeGuardError,
    SpectralMismatchError,
    ZeroPermanentError,
)
from .matrix import format_complex
from .operator import (
    LevelVector,
    SpinOperator,
    apply_level,
    dense_operator,
    embed_level_vector,
    evaluate,
)

SPECTRAL_MAX_N = 10
DEFAULT_RESIDUAL_TOL = 1e-8


def _guard(op: SpinOperator) -> None:
    if op.n > SPECTRAL_MAX_N:
        raise SizeGuardError(f"spectral checks limited to n <= {SPECTRAL_MAX_N}")


def _cycle_period(op: SpinOperator) -> int:
    return op.n if op.variant == "breve" else op.n + 1


def principal_root(value: complex, degree: int) -> complex:
    """Principal branch of value**(1/degree)."""
    return cmath.exp(cmath.log(value) / degree)


def build_eigenvector(op: SpinOperator, k: int, P: complex) -> np.ndarray:
    """Fourier combination of operator powers on the empty state.

    Eigenvector for the eigenvalue ``exp(-2i pi k / period) * P**(1/period)``
    where the period is n for the closed variant and n+1 for the cyclic one.
    """
    period = _cycle_period(op)
    if not 0 <= k < period:
        raise ValueError(f"k must be in [0, {period})")
    P = complex(P)
    if P == 0:
        raise ZeroPermanentError("eigenvector construction assumes a nonzero value")
    root = principal_root(P, period)
    dim = op.dimension
    acc = np.zeros(dim, dtype=np.complex128)
    v = LevelVector.vacuum(op.n)
    scale = 1.0 + 0.0j
    for j in range(period):
        phase = cmath.exp(2j * cmath.pi * j * k / period)
        acc += (phase / scale) * embed_level_vector(v, dim)
        if j < period - 1:
            v = apply_level(op, v)
            scale *= root
    return cmath.exp(-2j * cmath.pi * k / period) * acc


@dataclass
class SpectrumReport:
    """Verified spectral summary of one operator instance."""

    dimension: int
    variant: str
    statistics: str
    permanent: complex
    principal_root: complex
    eigenpairs: list = field(default_factory=list)  # (k, eigenvalue, residual)
    rank: int = 0
    nullity: int = 0
    generalized_kernel_ranks: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "variant": self.variant,
            "statistics": self.statistics,
            "permanent": format_complex(self.permanent),
            "principal_root": format_complex(self.principal_root),
            "eigenpairs": [
                {
                    "k": k,
                    "eigenvalue": format_complex(lam),
                    "residual": res,
                }
                for k, lam, res in self.eigenpairs
            ],
            "rank": self.rank,
            "nullity": self.nullity,
            "generalized_kernel_ranks": list(self.generalized_kernel_ranks),
        }


def _kernel_ranks(dense: np.ndarray, n: int) -> list[int]:
    """``nullity(D**m) - nullity(D**(m-1))`` for m = 1..max(n-1, 1)."""
    ranks = []
    power = np.eye(dense.shape[0], dtype=np.complex128)
    prev = 0
    for _ in range(max(n - 1, 1)):
        power = power @ dense
        nul = rref.nullity(power)
        ranks.append(nul - prev)
        prev = nul
    return ranks


def generalized_kernel_ranks(op: SpinOperator) -> list[int]:
    """Counts of generalized zero eigenvectors by rank, r_1 .. r_{n-1}.

    ``r_m = nullity(D**m) - nullity(D**(m-1))``; the rank-nullity identity
    ``n + sum(r) == dimension`` holds whenever the permanent is nonzero.
    """
    _guard(op)
    P, _ = evaluate(op)
    if complex(P) == 0:
        raise ZeroPermanentError("generalized kernel ranks assume a nonzero value")
    return _kernel_ranks(dense_operator(op), op.n)


def verify_spectrum(op: SpinOperator, tol: float = DEFAULT_RESIDUAL_TOL) -> SpectrumReport:
    """Check eigenvalues, residuals, and kernel bookkeeping of the operator.

    Raises SpectralMismatchError on any residual above ``tol`` (relative)
    or on a failed rank identity.
    """
    _guard(op)
    period = _cycle_period(op)
    P, _ = evaluate(op)
    P = complex(P)
    if P == 0:
        raise ZeroPermanentError("spectral claims assume a nonzero permanent")
    dense = dense_operator(op)
    dim = op.dimension
    root = principal_root(P, period)
    report = SpectrumReport(
        dimension=dim,
        variant=op.variant,
        statistics=op.statistics,
        permanent=P,
        principal_root=root,
    )
    for k in range(period):
        lam = cmath.exp(-2j * cmath.pi * k / period) * root
        phi = build_eigenvector(op, k, P)
        norm = float(np.linalg.norm(phi))
        residual = float(np.linalg.norm(dense @ phi - lam * phi)) / norm
        report.eigenpairs.append((k, lam, residual))
        if residual > tol:
            raise SpectralMismatchError(
                f"eigenvector k={k} residual {residual:.3e} exceeds {tol:.3e}", k=k
            )
        if abs(lam**period - P) > tol * max(abs(P), 1.0) * period:
            raise SpectralMismatchError(
                f"eigenvalue k={k} is not a {period}-th root of the evaluated value",
                k=k,
            )
    stable = np.linalg.matrix_power(dense, period)
    report.rank = rref.matrix_rank(stable)
    report.nullity = dim - report.rank
    report.generalized_kernel_ranks = _kernel_ranks(dense, op.n)
    if report.rank + report.nullity != dim:
        raise SpectralMismatchError("rank + nullity does not match the dimension")
    if report.rank != period:
        raise SpectralMismatchError(
            f"stable rank {report.rank} differs from the cycle length {period}"
        )
    if period + sum(report.generalized_kernel_ranks) != dim:
        raise SpectralMismatchError(
            "generalized kernel ranks do not satisfy rank-nullity"
        )
    return report


def block_decompose(op: SpinOperator, tol: float = DEFAULT_RESIDUAL_TOL) -> list[np.ndarray]:
    """Blocks of the n-th power of the closed-variant operator by level.

    Verifies that the power is block diagonal over Hamming levels and that
    each block is the rank-1 outer product of the forward and backward
    power vectors.
    """
    _guard(op)
    if op.variant != "breve":
        raise ValueError("block decomposition is defined for the breve variant")
    n = op.n
    dense = dense_operator(op)
    power = np.linalg.matrix_power(dense, n)
    scale = float(np.max(np.abs(power))) or 1.0
    level_idx = [bits.level_codes(n, h) for h in range(n)]
    blocks = []
    mask = np.zeros_like(power, dtype=bool)
    for idx in level_idx:
        mask[np.ix_(idx, idx)] = True
    leak = float(np.max(np.abs(power[~mask]))) if (~mask).any() else 0.0
    if leak > tol * scale:
        raise BlockStructureError(
            f"cross-level amplitude {leak:.3e} exceeds {tol * scale:.3e}"
        )
    # forward vectors: powers of the operator on the empty state
    forward = [np.zeros(0)] * n
    v = LevelVector.vacuum(n)
    for m in range(n):
        forward[m] = embed_level_vector(v, op.dimension)[level_idx[m]]
        if m < n - 1:
            v = apply_level(op, v)
    for m, idx in enumerate(level_idx):
        block = power[np.ix_(idx, idx)]
        backward = np.linalg.matrix_power(dense, n - m)[0, idx]
        outer = np.outer(forward[m], backward)
        if float(np.max(np.abs(block - outer))) > tol * scale:
            raise BlockStructureError(f"level {m} block is not the expected outer product")
        blocks.append(block)
    return blocks


def hermitian_parts(op: SpinOperator, tol: float = 1e-12):
    """Hermitian and anti-Hermitian parts of the cycle power.

    Returns ``(M_R, M_I)`` whose actions on the empty state give the real
    and imaginary parts of the permanent/determinant:
    ``M_R = (K + K^dag)/2`` and ``M_I = (K - K^dag)/(2i)`` with K the
    period-th power of the operator.
    """
    _guard(op)
    period = _cycle_period(op)
    dense = dense_operator(op)
    power = np.linalg.matrix_power(dense, period)
    m_r = (power + power.conj().T) / 2
    m_i = (power - power.conj().T) / 2j
    scale = max(float(np.max(np.abs(power))), 1.0)
    for name, h in (("M_R", m_r), ("M_I", m_i)):
        if float(np.max(np.abs(h - h.conj().T))) > tol * scale:
            raise ConsistencyError(f"{name} failed the hermiticity check")
    return m_r, m_i
