"""Implicit sparse application of the branching operator over Hamming levels.

The operator raises one site per step with weight ``w[h, j]`` (``h`` the
source Hamming level, ``j`` the raised site), optionally signed by the
occupied-sites-to-the-right parity for fermionic statistics.  Sweeping it n
times against the all-empty state yields the permanent (bosonic) or the
determinant (fermionic) at a counted cost of exactly ``n * 2**n`` fused
multiply-adds.

Every edge here comes from the edge table of ``bits.raise_edges``, which the
sweep's pull tables (``_kernels``) sort; ``edges`` gives it its weights
over the whole operator, for ``dense_operator`` and the graph.  The
float and exact backends run the same sweep; only the dtype of the
amplitudes differs.  The closing step is the raise into level n, whose
single code is ``2**n - 1``; its one amplitude is the value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

import numpy as np

from . import _kernels, bits
from .errors import LevelMismatchError, NonFiniteError, SizeGuardError
from .exact import EXACT_ONE
from .matrix import SquareMatrix

VARIANTS = ("tilde", "breve")
STATISTICS = ("bosonic", "fermionic")

DENSE_MAX_N = 12
SWEEP_MAX_BYTES = 2 << 30  # see _check_sweep_size


@dataclass
class OpCount:
    """Fused multiply-add tally: one multiplication and one addition per edge."""

    multiplications: int = 0
    additions: int = 0

    @property
    def total(self) -> int:
        return self.multiplications + self.additions


def spin_op_count(n: int) -> OpCount:
    """Counted cost of the full closed-variant sweep: n * 2**n in total."""
    edges = n * (1 << (n - 1))
    return OpCount(edges, edges)


@dataclass(frozen=True)
class SpinOperator:
    """Branching operator over a weight matrix.

    ``variant`` "tilde" keeps the all-occupied state and returns through a
    unit-weight back edge; "breve" closes directly from level n-1 to the
    empty state and drops the all-occupied state from the space.
    """

    matrix: SquareMatrix
    variant: str = "breve"
    statistics: str = "bosonic"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.statistics not in STATISTICS:
            raise ValueError(f"statistics must be one of {STATISTICS}")
        # what every sweep step reads, once per operator (the fields are
        # frozen): n, the level bound of ``apply_level``, the statistics, and
        # the weights ``_kernels`` reads, row h holding w[h, n-1-p] for the
        # site in code bit p (the matrix with its columns reversed, copied
        # so that each row is contiguous for the kernel's gathers)
        object.__setattr__(self, "_step", (self.matrix.n, self.period - 1, self.fermionic,
                                           np.ascontiguousarray(self.matrix.entries[:, ::-1])))

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def dimension(self) -> int:
        return (1 << self.n) - (1 if self.variant == "breve" else 0)

    @property
    def period(self) -> int:
        """Length of the cycle through the empty state: n for breve, n+1 for tilde."""
        return self.n if self.variant == "breve" else self.n + 1

    @property
    def fermionic(self) -> bool:
        return self.statistics == "fermionic"


@dataclass
class LevelVector:
    """Amplitudes over all weight-``level`` states, in the order of ``codes``.

    ``amplitudes`` is a numpy array in block order (``bits.block_codes``),
    which is ascending code order for n <= ``bits.BLOCK_CUTOVER_N``:
    complex128 on the float backend, objects holding ExactComplex on the
    exact one.  ``codes`` holds those states' int32 codes, so a float state
    costs 16 bytes of amplitude and 4 of code; a sweep hands each step's
    destination codes to the vector it returns, so every level is
    enumerated once.  Left out, they are built (``bits.block_codes``) when
    the vector is.  Vectors up to the cutover share their read-only codes
    with every other sweep (``bits.shared_level_codes``).
    """

    n: int
    level: int
    amplitudes: np.ndarray
    codes: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes)
        if self.codes is None:
            self.codes = bits.block_codes(self.n, self.level)
        expected = bits.binom(self.n, self.level)
        for name, values in (("amplitudes", self.amplitudes), ("codes", self.codes)):
            if len(values) != expected:
                raise ValueError(f"level {self.level} of n={self.n} needs {expected} {name}, "
                                 f"got {len(values)}")

    @classmethod
    def vacuum(cls, n: int, backend: str = "float") -> "LevelVector":
        if backend == "exact":
            return cls(n, 0, [EXACT_ONE])
        return cls(n, 0, np.ones(1, dtype=np.complex128))

    @property
    def is_exact(self) -> bool:
        return self.amplitudes.dtype == object


# bytes a middle-level state costs while two levels are live at once: an
# amplitude (complex128) and a code (bits._LEVEL_DTYPE) in each, 2 * (16 + 4)
_STATE_BYTES = 2 * (np.dtype(np.complex128).itemsize + np.dtype(bits._LEVEL_DTYPE).itemsize)


def _log10_sweep_gib(n: int) -> Decimal:
    """log10 of the GiB a sweep's two middle levels hold, C(n, n//2) states
    of ``_STATE_BYTES`` each, at any n >= 1.

    C(n, n//2) comes from the central binomial's asymptotic series,
    C(2k, k) = 4**k / sqrt(pi k) * exp(-1/(8k) + 1/(192k**3) - 1/(640k**5))
    and C(2k+1, k) = C(2k, k) * (2k+1)/(k+1), with the big term 2k ln 2 in
    40-digit Decimal.  Its error is 2.5e-4 at n = 2, 5e-12 at n = 29, where
    refusals start, and falls as k**-7.  A difference of ``math.lgamma``
    terms near n ln 2 keeps only a double's 16 digits, too few for the
    exponent at n = 10**18.
    """
    k = n // 2
    with localcontext(prec=40):
        log10_bytes = Decimal(_STATE_BYTES / 2**30).log10()
        if k == 0:  # n = 1: one middle state
            return log10_bytes
        series = -1 / (8 * k) + 1 / (192 * k**3) - 1 / (640 * k**5)
        odd = math.log((2 * k + 1) / (k + 1)) if n % 2 else 0.0
        return log10_bytes + (2 * k * Decimal(2).ln() + Decimal(series + odd)
                              - Decimal(math.log(math.pi * k)) / 2) / Decimal(10).ln()


@functools.cache  # keyed by the n <= 28 that pass; a refusal is not cached
def _check_sweep_size(n: int) -> None:
    # the two middle levels, in log space: the exact C(n, n/2) takes seconds
    # from n = 10**6 on, and Decimal prints the figure, which overflows a
    # double from n = 1054.  The limit lets n <= 28 through, so every code
    # fits bits' 31 bits.
    log10_gib = _log10_sweep_gib(n)
    if log10_gib <= Decimal(SWEEP_MAX_BYTES / 2**30).log10():
        return
    e = math.floor(log10_gib)
    gib = Decimal(f"{10 ** float(log10_gib - e):.6f}E{e}")
    raise SizeGuardError(
        f"a sweep at n={n} needs about {gib:.2g} GiB for its "
        f"middle levels; the limit is {SWEEP_MAX_BYTES >> 30} GiB"
    )


def apply_level(op: SpinOperator, v: LevelVector) -> LevelVector:
    """One raising sweep: level h -> h+1, one fused multiply-add per edge."""
    n, top, fermionic, wbits = op._step
    h = v.level
    if not 0 <= h < top:
        raise LevelMismatchError(
            f"apply_level expects level in [0, {top}) for variant {op.variant}, got {h}"
        )
    dst = bits.block_codes(n, h + 1)
    out = _kernels.apply_level(v.codes, dst, v.amplitudes, wbits[h], fermionic)
    return LevelVector(n, h + 1, out, dst)


def apply_closing(op: SpinOperator, v: LevelVector):
    """Closed-variant final step: level n-1 -> amplitude on the empty state.

    This is the raise into level n, whose single state is all-occupied;
    the closed variant identifies that state with the empty one.
    """
    if op.variant != "breve":
        raise LevelMismatchError("apply_closing is only defined for the breve variant")
    n, _, fermionic, wbits = op._step
    if v.level != n - 1:
        raise LevelMismatchError(f"apply_closing expects level {n - 1}, got {v.level}")
    return _kernels.apply_closing(v.codes, v.amplitudes, wbits[n - 1], fermionic)


def orbit(op: SpinOperator):
    """Yield the powers of the operator on the empty state, p = 0..period-1.

    Each is the level-p vector with its codes; at most two levels are live
    at once.  The size guard runs before the first level is built.  A level
    h vector is the source of ``len(amplitudes) * (n - h)`` edges, which is
    what ``evaluate`` counts.
    """
    _check_sweep_size(op.n)
    v = LevelVector.vacuum(op.n, op.matrix.backend)
    for _ in range(op.period - 1):
        yield v
        v = apply_level(op, v)
    yield v


def evaluate(op: SpinOperator):
    """Full sweep from the empty state back to itself.

    Returns ``(value, OpCount)``: the permanent for bosonic statistics or the
    determinant for fermionic.  The closed variant takes n steps and exactly
    ``n * 2**n`` counted operations; the cyclic variant takes n+1 steps, the
    extra one being the unit-weight return edge.
    """
    tally = 0  # the edges out of each level, the closing's included
    for v in orbit(op):
        tally += len(v.amplitudes) * (op.n - v.level)
    if op.variant == "breve":
        return apply_closing(op, v), OpCount(tally, tally)
    tally += 1  # the unit-weight return edge
    return v.amplitudes.item(0), OpCount(tally, tally)


def finite_value(op: SpinOperator, value) -> complex:
    """``evaluate``'s ``value`` for ``op`` as a complex; ``NonFiniteError``
    where it has no finite double-precision value for a dense check to use."""
    try:
        value = complex(value)
    except OverflowError:  # an exact value beyond the float range
        value = complex(math.inf)
    if not np.isfinite(value):
        name = "determinant" if op.fermionic else "permanent"
        raise NonFiniteError(f"{name} is not finite in double precision")
    return value


def edges(op: SpinOperator):
    """Every edge of the operator over its ``op.dimension`` states, as flat
    arrays ``(src, dst, level, site, odd, weight)``.

    Edge e raises ``site[e]`` of the state with code ``src[e]``, of Hamming
    level ``level[e]``, into code ``dst[e]``; breve closings, whose raise
    fills every site, land on the empty state, code 0.  ``odd[e]`` marks a
    fermionic edge whose Jordan-Wigner sign is odd.  Its weight is the
    complex product ``-1`` or ``1`` times ``w[level, site]``, which can
    differ from ``-w`` or ``w`` in the sign of a zero part.  The edges are
    in ``bits.raise_edges`` order; tilde's unit return edge is not one of
    them.
    """
    n = op.n
    bit, src, dst, odd = bits.raise_edges(np.arange(op.dimension), n)
    level, site, odd = np.bitwise_count(src), n - 1 - bit, odd & op.fermionic
    weight = np.where(odd, -1, 1) * op.matrix.to_array()[level, site]
    if op.variant == "breve":
        dst[dst == (1 << n) - 1] = 0
    return src, dst, level, site, odd, weight


def dense_operator(op: SpinOperator) -> np.ndarray:
    """Materialize every edge of the operator as a dense array.

    The basis index of a state equals its code (label read as binary), so
    the empty state comes first and rows/columns follow label order.  The
    closed variant omits the all-occupied state entirely; the cyclic variant
    keeps it and carries the unit return entry to the empty state.
    """
    if op.n > DENSE_MAX_N:
        raise SizeGuardError(f"dense operator limited to n <= {DENSE_MAX_N}")
    dense = np.zeros((op.dimension, op.dimension), dtype=np.complex128)
    src, dst, *_, weight = edges(op)
    dense[dst, src] = weight
    if op.variant == "tilde":
        dense[0, -1] = 1.0  # the full state, the last, returns to the empty one
    return dense


def embed_level_vector(v: LevelVector, dimension: int) -> np.ndarray:
    """Place a level vector into the dense basis (index = code)."""
    out = np.zeros(dimension, dtype=np.complex128)
    out[v.codes] = v.amplitudes
    return out
