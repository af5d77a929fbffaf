"""Iterative removal of generalized zero eigenspaces via B/A factorization.

Each round finds the kernel of the current operator in leading-coordinate
canonical form, removes the basis states at the leading coordinates, and
replaces the operator by ``B @ A`` where ``A . B`` reconstructs it.  After
n-1 rounds the (2**n - 1)-dimensional operator collapses to a full-rank
n-state cycle whose entry product is the permanent or determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bits, rref
from .errors import ConsistencyError, SizeGuardError, ZeroPermanentError, ZeroPivotError
from .matrix import SquareMatrix, format_complex
from .operator import SpinOperator, dense_operator, evaluate
from .oracles import determinant_gauss, lower_triangular_reduce

REDUCE_MAX_N = 10
FACTOR_REL_TOL = 1e-10
UNCHANGED_REL_TOL = 1e-12
GAUSSIAN_ENTRY_TOL = 1e-10
GAUSSIAN_PRODUCT_TOL = 1e-9


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
    """Output of one factorization round (round 0 is the unreduced operator):
    ``basis`` holds the codes of the operator's states, in index order, and
    ``removed`` the codes the round deleted, in kernel-vector order."""

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


def reduce_fully(op: SpinOperator) -> ReductionTrace:
    """Run n-1 factorization rounds down to the n-state cycle.

    The cycle's entry product is the value, so a zero value has no cycle to
    reach: it raises ``ZeroPermanentError`` before the first round.
    """
    if op.variant != "breve":
        raise ValueError("row reduction is defined for the breve variant")
    state = initial_state(op)
    if complex(evaluate(op)[0]) == 0:
        name = "permanent" if op.statistics == "bosonic" else "determinant"
        raise ZeroPermanentError(f"row reduction assumes a nonzero {name}")
    trace = ReductionTrace(source_operator=op, initial=state, rounds=[])
    for _ in range(op.n - 1):
        state = factor_round(state)
        trace.rounds.append(state)
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
    operator, its Jordan-Wigner sign undone; an edge whose state the kernel
    removed reads 0, and the comparison keeps the edge of largest error.  The
    final product is compared with the determinant.
    """
    op = SpinOperator(matrix.to_float(), "breve", "fermionic")
    trace = reduce_fully(op)
    det = complex(determinant_gauss(matrix.to_float()))
    final_err = abs(trace.final_product - det) / max(abs(det), 1.0)
    report = GaussianComparison(
        ok=bool(final_err <= GAUSSIAN_PRODUCT_TOL),
        n=matrix.n,
        final_product=trace.final_product,
        determinant=det,
        final_rel_err=float(final_err),
    )
    edges = []  # per round: site, source level and signed operator entry of each edge
    for r, state in enumerate(trace.rounds, start=1):
        m = matrix.n - r
        bit, pos, raised, odd = bits.raise_edges(np.arange((1 << m) - 1), m)
        index = np.full(1 << matrix.n, -1)
        index[state.basis] = np.arange(len(state.basis))
        t, u = index[raised << r], index[pos << r]
        value = np.where((t < 0) | (u < 0), 0, state.operator[t, u])
        edges.append((m - 1 - bit, np.bitwise_count(pos), np.where(odd, -value, value)))
    for r, h, s, name, eliminated, _ in elimination_entries(matrix):
        site, level, value = edges[r - 1]
        values = value[(site == s) & (level == h)].tolist()
        rels = [abs(v - eliminated) / max(abs(v), abs(eliminated), 1e-300) for v in values]
        worst = int(np.argmax(rels))  # a nan counts as the largest
        entry_ok = bool(rels[worst] <= GAUSSIAN_ENTRY_TOL)
        report.comparisons.append({"name": name, "reduction": values[worst],
                                   "elimination": eliminated, "rel_err": float(rels[worst]),
                                   "ok": entry_ok})
        report.ok = bool(report.ok and entry_ok)
    return report
