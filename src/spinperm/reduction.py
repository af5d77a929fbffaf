"""Iterative removal of generalized zero eigenspaces via B/A factorization.

Each round finds the kernel of the current operator in leading-coordinate
canonical form, removes the basis states at the leading coordinates, and
replaces the operator by ``B @ A`` where ``A . B`` reconstructs it.  After
n-1 rounds the (2**n - 1)-dimensional operator collapses to a full-rank
n-state cycle whose entry product is the permanent or determinant.

A fermionic round is the spin operator of one round of fixed-order Gaussian
elimination (``oracles.lower_triangular_reduce``), so on a generic input
``reduce_fully`` builds it from the eliminated matrix instead
(``elimination_round``); ``reduce_by_kernels`` always finds the kernels and
is the check of that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rref
from .errors import ConsistencyError, SizeGuardError, ZeroPermanentError, ZeroPivotError
from .matrix import SquareMatrix, format_complex
from .operator import SpinOperator, dense_operator, edges, evaluate, finite_value
from .oracles import determinant_gauss, lower_triangular_reduce

REDUCE_MAX_N = 10
FACTOR_REL_TOL = 1e-10
UNCHANGED_REL_TOL = 1e-12
GAUSSIAN_ENTRY_TOL = 1e-10
GAUSSIAN_PRODUCT_TOL = 1e-9
# how far above rref's zero threshold every entry of an elimination round must
# lie for ``reduce_fully`` to build the fermionic rounds from the elimination
ELIMINATION_MARGIN = 1e3


def kernel_basis(operator: np.ndarray) -> np.ndarray:
    """Null-space basis, one row per vector, each led by a 1 at its first
    nonzero coordinate.

    Rows are mutually reduced at the leads and come in ascending
    leading-coordinate order; a full-rank d x d operator yields shape (0, d).
    """
    operator = np.asarray(operator, dtype=np.complex128)
    if operator.ndim != 2 or operator.shape[0] != operator.shape[1]:
        raise ValueError("kernel_basis expects a square operator")
    return rref.kernel_leading_basis(operator)


@dataclass
class ReductionState:
    """Output of one reduction round (round 0 is the unreduced operator):
    ``basis`` holds the codes of the operator's states, in index order, and
    ``removed`` the codes the round deleted, in ascending order.  A round
    built from the elimination has no ``kernel_vectors``."""

    round: int
    operator: np.ndarray
    basis: np.ndarray
    kernel_vectors: np.ndarray | None = None
    removed: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    fill_stats: tuple[int, int, int] = (0, 0, 0)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every operator entry above the zero threshold (``rref.support``) as
        flat arrays ``(src, dst, weight)`` of state codes and weights, in
        ``np.nonzero`` order."""
        targets, sources = rref.support(self.operator)
        return self.basis[sources], self.basis[targets], self.operator[targets, sources]


@dataclass
class ReductionTrace:
    """Full record of the n-1 rounds for one operator."""

    source_operator: SpinOperator
    initial: ReductionState
    rounds: list[ReductionState]

    @property
    def final(self) -> ReductionState:
        """The last round, the n-state cycle (the initial state when n = 1)."""
        return self.rounds[-1] if self.rounds else self.initial

    @property
    def final_product(self) -> complex:
        """Product of the final cycle's entries: the permanent or determinant."""
        return complex(np.prod(self.final.edges()[2]))

    def to_json_dict(self) -> dict:
        n = self.source_operator.n
        rounds = []
        for st in self.rounds:
            reweighted, unchanged, new = st.fill_stats
            rounds.append(
                {
                    "round": st.round,
                    "removed": [format(c, f"0{n}b") for c in st.removed.tolist()],
                    "dimension": len(st.basis),
                    "fill_stats": {
                        "reweighted": reweighted,
                        "unchanged": unchanged,
                        "new": new,
                    },
                }
            )
        cycle = [{"source": format(s, f"0{n}b"), "target": format(t, f"0{n}b"),
                  "weight": format_complex(w)}
                 for s, t, w in zip(*(a.tolist() for a in self.final.edges()))]
        return {
            "n": n,
            "variant": self.source_operator.variant,
            "statistics": self.source_operator.statistics,
            "rounds": rounds,
            "final_cycle": sorted(cycle, key=lambda e: e["source"]),
            "final_product": format_complex(self.final_product),
        }


def initial_state(op: SpinOperator) -> ReductionState:
    if op.n > REDUCE_MAX_N:
        raise SizeGuardError(f"row reduction limited to n <= {REDUCE_MAX_N}")
    return ReductionState(round=0, operator=dense_operator(op), basis=np.arange(op.dimension))


def _fill_stats(old: np.ndarray, new: np.ndarray, keep: np.ndarray) -> tuple[int, int, int]:
    """Classify the nonzeros of the reduced operator against the old one."""
    nz = rref.support(new)
    new_val, old_val = new[nz], old[np.ix_(keep, keep)][nz]
    fresh = np.abs(old_val) <= rref.zero_threshold(old)
    unchanged = ~fresh & (np.abs(new_val - old_val)
                          <= UNCHANGED_REL_TOL * np.maximum(np.abs(new_val), np.abs(old_val)))
    return int(np.sum(~fresh & ~unchanged)), int(np.sum(unchanged)), int(np.sum(fresh))


def factor_round(state: ReductionState) -> ReductionState:
    """One B/A factorization round; a full-rank input passes through unchanged.
    B and A are checked here, not kept."""
    op, d, rnd = state.operator, state.operator.shape[0], state.round + 1
    vectors = kernel_basis(op)
    if not len(vectors):
        return ReductionState(round=rnd, operator=op.copy(), basis=state.basis.copy(),
                              kernel_vectors=vectors)
    leads = rref.leading_index(vectors)
    mag = np.abs(vectors)
    floor = rref.RANK_REL_TOL * np.maximum(mag.max(axis=1), 1.0)
    if np.any((leads < 0) | (mag[np.arange(len(leads)), leads] < floor)):
        raise ZeroPivotError(f"round {rnd}: kernel vector without a usable leading coordinate")
    if len(set(leads.tolist())) != len(leads):
        raise ZeroPivotError(f"round {rnd}: degenerate kernel leads {sorted(leads.tolist())}")
    keep = np.delete(np.arange(d), leads)
    b = np.eye(d, dtype=np.complex128)
    b[:, leads] -= vectors.T
    b, a = b[keep], op[:, keep]
    scale = max(float(np.max(np.abs(op))), 1.0)
    if float(np.max(np.abs(a @ b - op))) > FACTOR_REL_TOL * scale * d:
        raise ConsistencyError(f"round {rnd}: A @ B does not reconstruct the operator")
    if np.any(np.linalg.norm(vectors @ b.T, axis=1)
              > FACTOR_REL_TOL * np.linalg.norm(vectors, axis=1) * d):
        raise ZeroPivotError(f"round {rnd}: B fails to annihilate a kernel vector")
    new_op = b @ a
    return ReductionState(
        round=rnd, operator=new_op, basis=state.basis[keep], kernel_vectors=vectors,
        removed=state.basis[leads], fill_stats=_fill_stats(op, new_op, keep))


def _validate_final(n: int, final: ReductionState) -> None:
    d = final.operator.shape[0]
    if final.operator.shape != (n, n):
        raise ConsistencyError(f"reduction ended at dimension {d}, expected {n}")
    src, dst, _ = final.edges()
    if len(src) != n:
        raise ConsistencyError(f"final operator has {len(src)} nonzero entries, expected {n}")
    if len(set(src.tolist())) != n or len(set(dst.tolist())) != n:
        raise ConsistencyError("final operator entries do not form a single cycle")
    if np.any(np.bitwise_count(dst) != (np.bitwise_count(src) + 1) % n):
        raise ConsistencyError("final cycle does not step one level at a time")


def _eliminated(matrix: SquareMatrix) -> list[np.ndarray] | None:
    """E_0..E_{n-1} of fixed-order elimination when the input is generic
    enough for them to be the fermionic reduction rounds, else None.

    Generic: the elimination divides by no zero, and in each round r every
    entry the round's operator carries (E_r's leading m x m block, m = n-r,
    and the tail weights E_r[m+j, m+j]) is finite and above
    ``ELIMINATION_MARGIN`` times the zero threshold ``rref`` would apply to
    that operator.  A sufficient condition found by measurement, not proof:
    on every such input tried, the kernel rounds had the leads and the
    removed states the elimination predicts.
    """
    try:
        rounds = lower_triangular_reduce(matrix)
    except ZeroPivotError:
        return None
    for r, e in enumerate(rounds):
        m = matrix.n - r
        carried = np.concatenate([e[:m, :m].ravel(), np.diagonal(e)[m:]])
        if not np.isfinite(carried).all():
            return None
        mag = np.abs(carried)
        if mag.min() <= ELIMINATION_MARGIN * rref.zero_threshold(mag):
            return None
    return rounds


def elimination_round(state: ReductionState, eliminated: np.ndarray) -> ReductionState:
    """Fermionic round r = ``state.round + 1`` from E_r, the matrix after r
    rounds of fixed-order elimination, not from a kernel.

    With m = n-r, the round's states are the codes with their low r bits
    clear and the tail states 1^(m+j)0^(r-j), j = 1..r-1.  Its edges are the
    tilde fermionic operator of E_r's leading m x m block, codes shifted left
    by r bits, whose unit return edge gives way to the tail edges
    1^(m+j)0^(r-j) -> 1^(m+j+1)0^(r-j-1) of weights E_r[m+j, m+j], the last
    closing onto the empty state.  ``removed`` comes in ascending code order,
    and there are no kernel vectors.
    """
    n, r = len(eliminated), state.round + 1
    m = n - r
    block = SpinOperator(SquareMatrix.from_array(eliminated[:m, :m]), "tilde", "fermionic")
    src, dst, *_, weight = edges(block)
    k = np.arange(m, n + 1)
    tail = ((1 << k) - 1) << (n - k)  # 1^k 0^(n-k); 1^n is the empty state
    tail[-1] = 0
    src, dst = np.concatenate([src << r, tail[:-1]]), np.concatenate([dst << r, tail[1:]])
    basis = np.concatenate([np.arange(1 << m) << r, tail[1:-1]])  # ascending
    operator = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    operator[np.searchsorted(basis, dst), np.searchsorted(basis, src)] = np.concatenate(
        [weight, np.diagonal(eliminated)[m:]])
    keep = np.searchsorted(state.basis, basis)
    return ReductionState(
        round=r, operator=operator, basis=basis, removed=np.delete(state.basis, keep),
        fill_stats=_fill_stats(state.operator, operator, keep))


def _unreduced(op: SpinOperator) -> ReductionTrace:
    """A trace with no rounds yet, past the variant, size and value checks.

    The cycle's entry product is the value, so a zero value has no cycle to
    reach: it raises ``ZeroPermanentError`` before the first round, and a
    value that is not finite ``NonFiniteError``.
    """
    if op.variant != "breve":
        raise ValueError("row reduction is defined for the breve variant")
    state = initial_state(op)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as not finite
        value = finite_value(op, evaluate(op)[0])
    if value == 0:
        name = "permanent" if op.statistics == "bosonic" else "determinant"
        raise ZeroPermanentError(f"row reduction assumes a nonzero {name}")
    return ReductionTrace(source_operator=op, initial=state, rounds=[])


def reduce_by_kernels(op: SpinOperator) -> ReductionTrace:
    """Run n-1 factorization rounds (``factor_round``) down to the n-state cycle."""
    trace = _unreduced(op)
    for _ in range(op.n - 1):
        trace.rounds.append(factor_round(trace.final))
    _validate_final(op.n, trace.final)
    return trace


def reduce_fully(op: SpinOperator) -> ReductionTrace:
    """Run n-1 rounds down to the n-state cycle.

    A fermionic input that ``_eliminated`` finds generic gets its rounds
    from the elimination (``elimination_round``); every other input, and
    every bosonic one, gets ``reduce_by_kernels``' rounds.
    """
    trace = _unreduced(op)
    eliminated = _eliminated(op.matrix) if op.fermionic else None
    for r in range(1, op.n):
        trace.rounds.append(factor_round(trace.final) if eliminated is None
                            else elimination_round(trace.final, eliminated[r]))
    _validate_final(op.n, trace.final)
    return trace


@dataclass
class GaussianComparison:
    """Per-entry agreement between kernel reduction and fixed-order elimination."""

    ok: bool
    n: int
    comparisons: list[dict] = field(default_factory=list)
    final_product: complex = 0j
    determinant: complex = 0j
    final_rel_err: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def elimination_entries(matrix: SquareMatrix):
    """The leading m x m block (m = n-r) after each round r of fixed-order elimination.

    Yields ``(r, h, s, name, value, changed)`` for r = 1..n-1 and h, s < m in
    row-major order: ``name`` is ``w`` with r primes and ``_{h,s}``, ``value``
    the entry of E_r, the matrix after round r of
    ``oracles.lower_triangular_reduce``, and ``changed`` whether it differs
    from E_{r-1}'s.  Raises ZeroPivotError where the elimination divides by
    zero.
    """
    rounds = lower_triangular_reduce(matrix.to_float())
    for r in range(1, matrix.n):
        e, prev = rounds[r], rounds[r - 1]
        for h, s in np.ndindex(matrix.n - r, matrix.n - r):
            name = "w" + "'" * r + f"_{{{h},{s}}}"
            yield r, h, s, name, complex(e[h, s]), bool(e[h, s] != prev[h, s])


def fermionic_matches_gaussian(matrix: SquareMatrix) -> GaussianComparison:
    """Check that fermionic kernel reduction reproduces Gaussian elimination.

    Round r's operator should be the fermionic operator of the eliminated
    matrix's leading m x m block (m = n-r), codes shifted left by r bits.  So
    each entry ``w^(r)_{h,s}`` of ``elimination_entries`` is compared with
    every edge of round r that raises site s from level h of that m-site
    operator (``edges`` of its tilde fermionic operator), its Jordan-Wigner
    sign undone; an edge whose state the kernel removed reads 0, and the
    comparison keeps the edge of largest error.  The final product is
    compared with the determinant.
    """
    op = SpinOperator(matrix.to_float(), "breve", "fermionic")
    trace = reduce_by_kernels(op)
    det = complex(determinant_gauss(matrix.to_float()))
    final_err = abs(trace.final_product - det) / max(abs(det), 1.0)
    report = GaussianComparison(
        ok=bool(final_err <= GAUSSIAN_PRODUCT_TOL),
        n=matrix.n,
        final_product=trace.final_product,
        determinant=det,
        final_rel_err=float(final_err),
    )
    rounds = []  # per round: site, source level and signed operator entry of each edge
    for r, state in enumerate(trace.rounds, start=1):
        m = matrix.n - r
        block = SpinOperator(SquareMatrix.from_array(np.zeros((m, m))), "tilde", "fermionic")
        src, dst, level, site, odd, _ = edges(block)  # the weights are E_r's, not read here
        index = np.full(1 << matrix.n, -1)
        index[state.basis] = np.arange(len(state.basis))
        t, u = index[dst << r], index[src << r]
        value = np.where((t < 0) | (u < 0), 0, state.operator[t, u])
        rounds.append((site, level, np.where(odd, -value, value)))
    for r, h, s, name, eliminated, _ in elimination_entries(matrix):
        site, level, value = rounds[r - 1]
        values = value[(site == s) & (level == h)].tolist()
        rels = [abs(v - eliminated) / max(abs(v), abs(eliminated), 1e-300) for v in values]
        worst = int(np.argmax(rels))  # a nan counts as the largest
        entry_ok = bool(rels[worst] <= GAUSSIAN_ENTRY_TOL)
        report.comparisons.append({"name": name, "reduction": values[worst],
                                   "elimination": eliminated, "rel_err": float(rels[worst]),
                                   "ok": entry_ok})
        report.ok = bool(report.ok and entry_ok)
    return report
