"""Implicit sparse application of the branching operator over Hamming levels.

The operator raises one site per step with weight ``w[h, j]`` (``h`` the
source Hamming level, ``j`` the raised site), optionally signed by the
occupied-sites-to-the-right parity for fermionic statistics.  Sweeping it n
times against the all-empty state yields the permanent (bosonic) or the
determinant (fermionic) at a counted cost of exactly ``n * 2**n`` fused
multiply-adds.

Every edge here comes from ``bits.raise_edges``: the sweep's pull tables
(``_kernels``), ``dense_operator`` and ``jw_sign``.  The float and exact
backends run the same sweep; only the dtype of the amplitudes differs.  The
closing step is the raise into level n, whose single code is ``2**n - 1``;
its one amplitude is the value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

import numpy as np

from . import _kernels, bits
from .errors import (
    LevelMismatchError,
    OccupiedSiteError,
    RangeError,
    SizeGuardError,
)
from .exact import EXACT_ONE
from .matrix import SquareMatrix

VARIANTS = ("tilde", "breve")
STATISTICS = ("bosonic", "fermionic")

DENSE_MAX_N = 12
SWEEP_MAX_BYTES = 2 << 30  # see _check_sweep_size


@dataclass(frozen=True)
class BasisState:
    """Occupation string stored as its ``code``: the label read as a binary number."""

    code: int
    n: int

    def __post_init__(self):
        if not 0 <= self.code < (1 << self.n):
            raise ValueError(f"code {self.code} out of range for n={self.n}")

    @property
    def level(self) -> int:
        return self.code.bit_count()

    @property
    def text(self) -> str:
        """Rendered label, site 0 leftmost."""
        return format(self.code, f"0{self.n}b")

    @classmethod
    def from_text(cls, text: str) -> "BasisState":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"invalid occupation string {text!r}")
        return cls(int(text, 2), len(text))


def jw_sign(state: BasisState, site: int) -> int:
    """Jordan-Wigner phase for creating a particle at ``site``.

    Counts occupied sites with index greater than ``site`` (to the right in
    the rendered label); odd count flips the sign.
    """
    edges = bits.raise_edges(np.array([state.code]), state.n, True)
    for p, pos, _, odd in edges:
        if p == state.n - 1 - site:
            if not pos.size:
                raise OccupiedSiteError(f"site {site} of {state.text} already occupied")
            return -1 if odd[0] else 1
    raise RangeError(f"site {site} out of range for n={state.n}")


@dataclass
class OpCount:
    """Fused multiply-add tally: one multiplication and one addition per edge."""

    multiplications: int = 0
    additions: int = 0

    @property
    def total(self) -> int:
        return self.multiplications + self.additions

    def tally_edges(self, edges: int) -> None:
        self.multiplications += edges
        self.additions += edges

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            self.multiplications + other.multiplications,
            self.additions + other.additions,
        )


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
    exact one.  ``codes`` holds those states' codes once they are built; a
    sweep hands each step's destination codes to the vector it returns, so
    every level is enumerated once.  Left ``None``, they are built on first
    use.  Vectors up to the cutover share their read-only codes with every
    other sweep (``bits.shared_level_codes``).
    """

    n: int
    level: int
    amplitudes: np.ndarray = field(default=None)
    codes: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        expected = bits.binom(self.n, self.level)
        if self.amplitudes is None:
            raise ValueError("amplitudes required")
        self.amplitudes = np.asarray(self.amplitudes)
        if len(self.amplitudes) != expected:
            raise ValueError(
                f"level {self.level} of n={self.n} needs {expected} amplitudes, "
                f"got {len(self.amplitudes)}"
            )
        if self.codes is not None and len(self.codes) != expected:
            raise ValueError(
                f"level {self.level} of n={self.n} needs {expected} codes, "
                f"got {len(self.codes)}"
            )

    @classmethod
    def vacuum(cls, n: int, backend: str = "float") -> "LevelVector":
        if backend == "exact":
            return cls(n, 0, [EXACT_ONE])
        return cls(n, 0, np.ones(1, dtype=np.complex128))

    @property
    def is_exact(self) -> bool:
        return self.amplitudes.dtype == object


def _level_codes(v: LevelVector) -> np.ndarray:
    if v.codes is None:
        v.codes = bits.block_codes(v.n, v.level)
    return v.codes


def _check_sweep_size(n: int) -> None:
    # two amplitude arrays (complex128) and two code arrays (int64) of the
    # middle level are live at once, plus the raise's fixed scratch: one
    # chunk's gather and its sum, each at most _PULL_ELEMENTS complex128
    need = 48 * bits.binom(n, n // 2) + 2 * 16 * _kernels._PULL_ELEMENTS
    if need > SWEEP_MAX_BYTES:
        # Decimal, not float: from n = 1054 on, need / 2**30 overflows a double
        raise SizeGuardError(
            f"a sweep at n={n} needs about {Decimal(need) / 2**30:.2g} GiB for its "
            f"middle levels; the limit is {SWEEP_MAX_BYTES >> 30} GiB"
        )


def _wbits_row(op: SpinOperator, h: int) -> np.ndarray:
    # weight for raising the site stored in code bit p is w[h, n-1-p]: a
    # reversed view of the matrix row
    return op.matrix.entries[h, ::-1]


def _check_level_for_apply(op: SpinOperator, v: LevelVector) -> None:
    top = op.period - 1
    if not 0 <= v.level < top:
        raise LevelMismatchError(
            f"apply_level expects level in [0, {top}) for variant "
            f"{op.variant}, got {v.level}"
        )


def apply_level(op: SpinOperator, v: LevelVector, count: OpCount | None = None) -> LevelVector:
    """One raising sweep: level h -> h+1, one fused multiply-add per edge."""
    _check_level_for_apply(op, v)
    n, h = op.n, v.level
    src = _level_codes(v)
    if count is not None:
        count.tally_edges(len(src) * (n - h))
    dst = bits.block_codes(n, h + 1)
    out = _kernels.apply_level(src, dst, v.amplitudes, _wbits_row(op, h), op.fermionic)
    return LevelVector(n, h + 1, out, dst)


def apply_closing(op: SpinOperator, v: LevelVector, count: OpCount | None = None):
    """Closed-variant final step: level n-1 -> amplitude on the empty state.

    This is the raise into level n, whose single state is all-occupied;
    the closed variant identifies that state with the empty one.
    """
    if op.variant != "breve":
        raise LevelMismatchError("apply_closing is only defined for the breve variant")
    n = op.n
    if v.level != n - 1:
        raise LevelMismatchError(f"apply_closing expects level {n - 1}, got {v.level}")
    if count is not None:
        count.tally_edges(n)
    return _kernels.apply_closing(_level_codes(v), v.amplitudes, _wbits_row(op, n - 1),
                                  op.fermionic)


def orbit(op: SpinOperator, count: OpCount | None = None):
    """Yield the powers of the operator on the empty state, p = 0..period-1.

    Each is the level-p vector; at most two levels are live at once.  The
    size guard runs before the first level is built.
    """
    _check_sweep_size(op.n)
    v = LevelVector.vacuum(op.n, op.matrix.backend)
    for _ in range(op.period - 1):
        yield v
        v = apply_level(op, v, count)
    yield v


def evaluate(op: SpinOperator):
    """Full sweep from the empty state back to itself.

    Returns ``(value, OpCount)``: the permanent for bosonic statistics or the
    determinant for fermionic.  The closed variant takes n steps and exactly
    ``n * 2**n`` counted operations; the cyclic variant takes n+1 steps, the
    extra one being the unit-weight return edge.
    """
    count = OpCount()
    for v in orbit(op, count):
        pass
    if op.variant == "breve":
        return apply_closing(op, v, count), count
    count.tally_edges(1)  # the unit-weight return edge
    return v.amplitudes.item(0), count


def dense_operator(op: SpinOperator) -> np.ndarray:
    """Materialize every edge of the operator as a dense array.

    The basis index of a state equals its code (label read as binary), so
    the empty state comes first and rows/columns follow label order.  The
    closed variant omits the all-occupied state entirely; the cyclic variant
    keeps it and carries the unit return entry to the empty state.
    """
    n = op.n
    if n > DENSE_MAX_N:
        raise SizeGuardError(f"dense operator limited to n <= {DENSE_MAX_N}")
    dim = op.dimension
    full = (1 << n) - 1
    dense = np.zeros((dim, dim), dtype=np.complex128)
    w = op.matrix.to_array()
    codes = np.arange(dim, dtype=np.int64)  # so a position is its own code
    levels = np.bitwise_count(codes)
    for p, src, raised, odd in bits.raise_edges(codes, n, op.fermionic):
        weights = w[levels[src], n - 1 - p]
        if op.fermionic:
            weights = np.where(odd, -weights, weights)
        if op.variant == "breve":
            raised[raised == full] = 0
        dense[raised, src] = weights
    if op.variant == "tilde":
        dense[0, full] = 1.0
    return dense


def embed_level_vector(v: LevelVector, dimension: int) -> np.ndarray:
    """Place a level vector into the dense basis (index = code)."""
    out = np.zeros(dimension, dtype=np.complex128)
    out[_level_codes(v)] = v.amplitudes
    return out
