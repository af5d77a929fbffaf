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
from itertools import islice

import numpy as np

from . import rref
from .errors import (
    BlockStructureError,
    ConsistencyError,
    SizeGuardError,
    SpectralMismatchError,
    ZeroPermanentError,
)
from .matrix import format_complex
from .operator import SpinOperator, dense_operator, embed_level_vector, evaluate, orbit

SPECTRAL_MAX_N = 10
DEFAULT_RESIDUAL_TOL = 1e-8
HERMITIAN_TOL = 1e-12


def _guard(op: SpinOperator) -> None:
    if op.n > SPECTRAL_MAX_N:
        raise SizeGuardError(f"spectral checks limited to n <= {SPECTRAL_MAX_N}")


def _powers(dense: np.ndarray):
    """The power chain D, D**2, D**3, ... at one matrix product per link."""
    power = dense
    while True:
        yield power
        power = power @ dense


def principal_root(value: complex, degree: int) -> complex:
    """Principal branch of value**(1/degree)."""
    return cmath.exp(cmath.log(value) / degree)


def build_eigenvector(op: SpinOperator, k: int, P: complex) -> np.ndarray:
    """Fourier combination of operator powers on the empty state.

    Eigenvector for the eigenvalue ``exp(-2i pi k / period) * P**(1/period)``
    where the period is n for the closed variant and n+1 for the cyclic one.
    """
    period = op.period
    if not 0 <= k < period:
        raise ValueError(f"k must be in [0, {period})")
    P = complex(P)
    if P == 0:
        raise ZeroPermanentError("eigenvector construction assumes a nonzero value")
    root = principal_root(P, period)
    dim = op.dimension
    acc = np.zeros(dim, dtype=np.complex128)
    scale = 1.0 + 0.0j
    for j, v in enumerate(orbit(op)):
        phase = cmath.exp(2j * cmath.pi * j * k / period)
        acc += (phase / scale) * embed_level_vector(v, dim)
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


def _prepare(op: SpinOperator) -> tuple[complex, np.ndarray]:
    """The evaluated value, which must be nonzero, and the dense operator."""
    _guard(op)
    P = complex(evaluate(op)[0])
    if P == 0:
        raise ZeroPermanentError("spectral claims assume a nonzero permanent")
    return P, dense_operator(op)


def _walk_chain(dense: np.ndarray, n: int, links: int) -> tuple[list[int], np.ndarray]:
    """Walk the power chain once, to ``D**links``.

    Returns the generalized kernel ranks ``nullity(D**m) - nullity(D**(m-1))``
    for m = 1..max(n-1, 1), and the last link.
    """
    nullities = [0]
    for m, power in enumerate(islice(_powers(dense), links), 1):
        if m <= max(n - 1, 1):
            nullities.append(rref.nullity(power))
    return [b - a for a, b in zip(nullities, nullities[1:])], power


def generalized_kernel_ranks(op: SpinOperator) -> list[int]:
    """Counts of generalized zero eigenvectors by rank, r_1 .. r_{n-1}.

    ``r_m = nullity(D**m) - nullity(D**(m-1))``; the rank-nullity identity
    ``n + sum(r) == dimension`` holds whenever the permanent is nonzero.
    """
    _, dense = _prepare(op)
    return _walk_chain(dense, op.n, max(op.n - 1, 1))[0]


def verify_spectrum(op: SpinOperator, tol: float = DEFAULT_RESIDUAL_TOL) -> SpectrumReport:
    """Check eigenvalues, residuals, and kernel bookkeeping of the operator.

    Raises SpectralMismatchError on any residual above ``tol`` (relative)
    or on a failed rank identity.
    """
    P, dense = _prepare(op)
    period = op.period
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
    # period >= max(n-1, 1), so the stable power is the walk's last link
    report.generalized_kernel_ranks, stable = _walk_chain(dense, op.n, period)
    report.rank = rref.matrix_rank(stable)
    report.nullity = dim - report.rank
    if report.rank != period:
        raise SpectralMismatchError(
            f"stable rank {report.rank} differs from the cycle length {period}"
        )
    if period + sum(report.generalized_kernel_ranks) != dim:
        raise SpectralMismatchError("generalized kernel ranks do not satisfy rank-nullity")
    return report


def block_decompose(op: SpinOperator) -> list[np.ndarray]:
    """Blocks of the n-th power of the closed-variant operator by level.

    Verifies that the power is block diagonal over Hamming levels and that
    each block is the rank-1 outer product of the forward and backward
    power vectors: the orbit of the empty state and row 0 of ``D**(n-m)``.
    """
    _guard(op)
    if op.variant != "breve":
        raise ValueError("block decomposition is defined for the breve variant")
    tol = DEFAULT_RESIDUAL_TOL
    dense = dense_operator(op)
    rows = []  # row 0 of D**j for j = 1..n, copied off the chain
    for power in islice(_powers(dense), op.n):
        rows.append(power[0].copy())
    scale = float(np.max(np.abs(power))) or 1.0
    levels = np.bitwise_count(np.arange(op.dimension))
    leak = float(np.max(np.abs(power[levels[:, None] != levels]), initial=0.0))
    if leak > tol * scale:
        raise BlockStructureError(
            f"cross-level amplitude {leak:.3e} exceeds {tol * scale:.3e}"
        )
    blocks = []
    for v, row in zip(orbit(op), reversed(rows)):
        idx = np.flatnonzero(levels == v.level)
        block = power[np.ix_(idx, idx)]
        outer = np.outer(embed_level_vector(v, op.dimension)[idx], row[idx])
        if float(np.max(np.abs(block - outer))) > tol * scale:
            raise BlockStructureError(f"level {v.level} block is not the expected outer product")
        blocks.append(block)
    return blocks


def hermitian_parts(op: SpinOperator):
    """Hermitian and anti-Hermitian parts of the cycle power.

    Returns ``(M_R, M_I)`` whose actions on the empty state give the real
    and imaginary parts of the permanent/determinant:
    ``M_R = (K + K^dag)/2`` and ``M_I = (K - K^dag)/(2i)`` with K the
    period-th power of the operator.
    """
    _guard(op)
    power = next(islice(_powers(dense_operator(op)), op.period - 1, None))
    m_r = (power + power.conj().T) / 2
    m_i = (power - power.conj().T) / 2j
    scale = max(float(np.max(np.abs(power))), 1.0)
    for name, h in (("M_R", m_r), ("M_I", m_i)):
        if float(np.max(np.abs(h - h.conj().T))) > HERMITIAN_TOL * scale:
            raise ConsistencyError(f"{name} failed the hermiticity check")
    return m_r, m_i
