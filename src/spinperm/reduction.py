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

from . import rref
from .errors import ConsistencyError, DimensionError, SizeGuardError, ZeroPivotError
from .matrix import SquareMatrix, format_complex
from .operator import BasisState, SpinOperator, dense_operator
from .oracles import determinant_gauss, lower_triangular_reduce

REDUCE_MAX_N = 10
FACTOR_REL_TOL = 1e-10
UNCHANGED_REL_TOL = 1e-12
GAUSSIAN_ENTRY_TOL = 1e-10
GAUSSIAN_PRODUCT_TOL = 1e-9


def kernel_basis(operator: np.ndarray) -> list[np.ndarray]:
    """Null-space basis, each vector led by a 1 at its first nonzero coordinate.

    Vectors are mutually reduced at the leads and returned in ascending
    leading-coordinate order; a full-rank operator yields an empty list.
    """
    operator = np.asarray(operator, dtype=np.complex128)
    if operator.ndim != 2 or operator.shape[0] != operator.shape[1]:
        raise ValueError("kernel_basis expects a square operator")
    return rref.kernel_leading_basis(operator)


@dataclass
class ReductionState:
    """Output of one factorization round (round 0 is the unreduced operator)."""

    round: int
    operator: np.ndarray
    basis: list[BasisState]
    kernel_vectors: list[np.ndarray] = field(default_factory=list)
    B: np.ndarray | None = None
    A: np.ndarray | None = None
    removed: list[BasisState] = field(default_factory=list)
    fill_stats: tuple[int, int, int] = (0, 0, 0)


@dataclass
class ReductionTrace:
    """Full record of the n-1 rounds for one operator."""

    source_operator: SpinOperator
    initial: ReductionState
    rounds: list[ReductionState]
    final_operator: np.ndarray
    final_product: complex

    def state(self, round: int) -> ReductionState:
        if round == 0:
            return self.initial
        return self.rounds[round - 1]

    def to_json_dict(self) -> dict:
        rounds = []
        for st in self.rounds:
            reweighted, unchanged, new = st.fill_stats
            rounds.append(
                {
                    "round": st.round,
                    "removed": [s.text for s in st.removed],
                    "dimension": st.operator.shape[0],
                    "fill_stats": {
                        "reweighted": reweighted,
                        "unchanged": unchanged,
                        "new": new,
                    },
                }
            )
        cycle = []
        basis = self.rounds[-1].basis if self.rounds else self.initial.basis
        for t, s in zip(*rref.support(self.final_operator)):
            cycle.append(
                {
                    "source": basis[s].text,
                    "target": basis[t].text,
                    "weight": format_complex(self.final_operator[t, s]),
                }
            )
        return {
            "n": self.source_operator.n,
            "variant": self.source_operator.variant,
            "statistics": self.source_operator.statistics,
            "rounds": rounds,
            "final_cycle": sorted(cycle, key=lambda e: e["source"]),
            "final_product": format_complex(self.final_product),
        }


def initial_state(op: SpinOperator) -> ReductionState:
    n = op.n
    if n > REDUCE_MAX_N:
        raise SizeGuardError(f"row reduction limited to n <= {REDUCE_MAX_N}")
    basis = [BasisState(code, n) for code in range(op.dimension)]
    return ReductionState(round=0, operator=dense_operator(op), basis=basis)


def _fill_stats(old: np.ndarray, new: np.ndarray, keep: list[int]) -> tuple[int, int, int]:
    """Classify the nonzeros of the reduced operator against the old one."""
    old_kept = old[np.ix_(keep, keep)]
    eps_old = rref.zero_threshold(old)
    reweighted = unchanged = fresh = 0
    for t, s in zip(*rref.support(new)):
        new_val = new[t, s]
        old_val = old_kept[t, s]
        if abs(old_val) <= eps_old:
            fresh += 1
        elif abs(new_val - old_val) <= UNCHANGED_REL_TOL * max(abs(new_val), abs(old_val)):
            unchanged += 1
        else:
            reweighted += 1
    return reweighted, unchanged, fresh


def factor_round(state: ReductionState) -> ReductionState:
    """One B/A factorization round; a full-rank input passes through unchanged."""
    op = state.operator
    d = op.shape[0]
    vectors = kernel_basis(op)
    if not vectors:
        return ReductionState(
            round=state.round + 1, operator=op.copy(), basis=list(state.basis)
        )
    leads = []
    for v in vectors:
        lead = rref.leading_index(v)
        floor = rref.RANK_REL_TOL * max(float(np.max(np.abs(v))), 1.0)
        if lead is None or abs(v[lead]) < floor:
            raise ZeroPivotError(
                f"round {state.round + 1}: kernel vector without a usable "
                f"leading coordinate"
            )
        leads.append(lead)
    if len(set(leads)) != len(leads):
        raise ZeroPivotError(
            f"round {state.round + 1}: degenerate kernel leads {sorted(leads)}"
        )
    keep = [i for i in range(d) if i not in set(leads)]
    b_full = np.eye(d, dtype=np.complex128)
    for v, lead in zip(vectors, leads):
        b_full[:, lead] -= v
    b = b_full[keep, :]
    a = op[:, keep]
    scale = max(float(np.max(np.abs(op))), 1.0)
    if float(np.max(np.abs(a @ b - op))) > FACTOR_REL_TOL * scale * d:
        raise ConsistencyError(
            f"round {state.round + 1}: A @ B does not reconstruct the operator"
        )
    for v in vectors:
        if float(np.linalg.norm(b @ v)) > FACTOR_REL_TOL * float(np.linalg.norm(v)) * d:
            raise ZeroPivotError(
                f"round {state.round + 1}: B fails to annihilate a kernel vector"
            )
    new_op = b @ a
    return ReductionState(
        round=state.round + 1,
        operator=new_op,
        basis=[state.basis[i] for i in keep],
        kernel_vectors=vectors,
        B=b,
        A=a,
        removed=[state.basis[i] for i in leads],
        fill_stats=_fill_stats(op, new_op, keep),
    )


def _validate_final(op: SpinOperator, final: np.ndarray, basis: list[BasisState]):
    n = op.n
    if final.shape != (n, n):
        raise ConsistencyError(
            f"reduction ended at dimension {final.shape[0]}, expected {n}"
        )
    targets, sources = rref.support(final)
    if len(sources) != n:
        raise ConsistencyError(
            f"final operator has {len(sources)} nonzero entries, expected {n}"
        )
    if len(set(sources.tolist())) != n or len(set(targets.tolist())) != n:
        raise ConsistencyError("final operator entries do not form a single cycle")
    for t, s in zip(targets, sources):
        lt, ls = basis[t].level, basis[s].level
        if lt != (ls + 1) % n:
            raise ConsistencyError("final cycle does not step one level at a time")


def reduce_fully(op: SpinOperator, perturb: bool = False) -> ReductionTrace:
    """Run n-1 factorization rounds down to the n-state cycle.

    ``perturb`` adds a 1e-30-scaled random offset (seed 0) to every matrix
    entry before reducing; this unsticks structurally zero pivots for
    exploratory runs at the cost of meaningless reduced weights.
    """
    if op.variant != "breve":
        raise ValueError("row reduction is defined for the breve variant")
    if perturb:
        arr = op.matrix.to_array()
        scale = max(float(np.max(np.abs(arr))), 1.0)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(arr.shape) + 1j * rng.standard_normal(arr.shape)
        op = SpinOperator(
            SquareMatrix.from_array(arr + 1e-30 * scale * noise),
            op.variant,
            op.statistics,
        )
    state = initial_state(op)
    initial = state
    rounds = []
    for _ in range(op.n - 1):
        state = factor_round(state)
        rounds.append(state)
    _validate_final(op, state.operator, state.basis)
    final_product = complex(np.prod(state.operator[rref.support(state.operator)]))
    return ReductionTrace(
        source_operator=op,
        initial=initial,
        rounds=rounds,
        final_operator=state.operator,
        final_product=final_product,
    )


def eigenvector_pushforward(
    trace: ReductionTrace, phi: np.ndarray, round: int
) -> np.ndarray:
    """Project an eigenvector through one round: ``B_round @ phi``."""
    if not 1 <= round <= len(trace.rounds):
        raise DimensionError(f"round must be in [1, {len(trace.rounds)}]")
    b = trace.rounds[round - 1].B
    if b is None:
        return np.array(phi, dtype=np.complex128)
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (b.shape[1],):
        raise DimensionError(
            f"round {round} expects a vector of dimension {b.shape[1]}, "
            f"got {phi.shape}"
        )
    return b @ phi


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


def _entry(state: ReductionState, target: str, source: str) -> complex:
    """Operator entry by state labels; a removed state contributes zero."""
    lookup = {s.text: i for i, s in enumerate(state.basis)}
    if target not in lookup or source not in lookup:
        return 0j
    return complex(state.operator[lookup[target], lookup[source]])


# the named entries of n=3 fixed-order elimination: (round, row, column) -> name
ELIMINATION_NAMES_N3 = {(0, 0, 0): "w'_{0,0}", (0, 0, 1): "w'_{0,1}", (0, 1, 0): "w'_{1,0}",
                        (0, 1, 1): "w'_{1,1}", (1, 0, 0): "w''_{0,0}"}


def elimination_weights_n3(matrix: SquareMatrix) -> dict[str, complex]:
    """The named entries that the rounds of n=3 elimination reweight.

    An entry a round leaves untouched is absent.  Raises ZeroPivotError
    where the elimination divides by zero.
    """
    _, rounds = lower_triangular_reduce(matrix.to_float())
    return {name: rounds[k][(r, c)] for (k, r, c), name in ELIMINATION_NAMES_N3.items()
            if (r, c) in rounds[k]}


def fermionic_matches_gaussian(matrix: SquareMatrix) -> GaussianComparison:
    """Check that fermionic kernel reduction reproduces Gaussian elimination.

    At n=3 the five reweighted entries of the reduction rounds are compared
    against the fixed-order elimination weights; for other n only the final
    products are compared.
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
    if matrix.n != 3:
        return report
    w = matrix.to_array()
    changed = elimination_weights_n3(matrix)
    # entries an elimination round leaves untouched keep their prior value
    w00p = changed.get("w'_{0,0}", w[0, 0])
    round1, round2 = trace.rounds[0], trace.rounds[1]
    checks = [
        ("w'_{0,0}", _entry(round1, "100", "000"), w00p),
        ("w'_{0,1}", _entry(round1, "010", "000"), changed.get("w'_{0,1}", w[0, 1])),
        ("w'_{1,0}", -_entry(round1, "110", "010"), changed.get("w'_{1,0}", w[1, 0])),
        ("w'_{1,1}", _entry(round1, "110", "100"), changed.get("w'_{1,1}", w[1, 1])),
        ("w''_{0,0}", _entry(round2, "100", "000"), changed.get("w''_{0,0}", w00p)),
    ]
    for name, reduced, eliminated in checks:
        rel = abs(reduced - eliminated) / max(abs(reduced), abs(eliminated), 1e-300)
        entry_ok = bool(rel <= GAUSSIAN_ENTRY_TOL)
        report.comparisons.append(
            {
                "name": name,
                "reduction": complex(reduced),
                "elimination": complex(eliminated),
                "rel_err": float(rel),
                "ok": entry_ok,
            }
        )
        report.ok = bool(report.ok and entry_ok)
    return report
