import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import rel_err
from spinperm import (
    SpinOperator,
    SquareMatrix,
    determinant_gauss,
    evaluate,
    lower_triangular_reduce,
    permanent_ryser,
    random_matrix,
)
from spinperm import (
    ConsistencyError,
    ZeroPermanentError,
    ZeroPivotError,
    reduction,
    rref,
)
from spinperm.operator import dense_operator
from spinperm.reduction import (
    ReductionState,
    factor_round,
    fermionic_matches_gaussian,
    initial_state,
    kernel_basis,
    reduce_fully,
)
from spinperm.selftest import (
    N4_BOSONIC_FILL_ENTRIES,
    N4_BOSONIC_FILL_STATS,
    removed_by,
    removed_per_level,
)
from spinperm.spectral import build_eigenvector, generalized_kernel_ranks, principal_root


def texts_of(codes, n):
    """Labels of state codes on n sites."""
    return [format(c, f"0{n}b") for c in np.asarray(codes).tolist()]


def idx(text):
    return int(text, 2)


def factor_ba(state, prev):
    """B and A of a round, rebuilt as ``factor_round`` builds them from the
    round's input operator ``prev``: B is the identity less each kernel
    vector at its lead, without the lead rows, and A the kept columns of
    ``prev``."""
    d = len(prev)
    leads = rref.leading_index(state.kernel_vectors)
    b = np.eye(d, dtype=np.complex128)
    b[:, leads] -= state.kernel_vectors.T
    keep = np.delete(np.arange(d), leads)
    return b[keep], prev[:, keep]


def test_kernel_basis_fermionic_n3(m3):
    w = m3.entries
    op = SpinOperator(m3, "breve", "fermionic")
    vs = kernel_basis(dense_operator(op))
    assert len(vs) == 3
    leads = [rref.leading_index(v) for v in vs]
    assert texts_of(leads, 3) == ["001", "011", "101"]
    # first vector: |001> + (w11/w12)|010> + (w10/w12)|100>
    v1 = vs[0]
    assert rel_err(v1[idx("010")], w[1, 1] / w[1, 2]) < 1e-10
    assert rel_err(v1[idx("100")], w[1, 0] / w[1, 2]) < 1e-10
    assert rel_err(vs[1][idx("110")], -w[2, 0] / w[2, 2]) < 1e-10
    assert rel_err(vs[2][idx("110")], w[2, 1] / w[2, 2]) < 1e-10


def test_kernel_basis_bosonic_n3(m3):
    w = m3.entries
    op = SpinOperator(m3, "breve", "bosonic")
    vs = kernel_basis(dense_operator(op))
    assert texts_of([rref.leading_index(v) for v in vs], 3) == ["011", "101"]
    assert rel_err(vs[0][idx("110")], -w[2, 0] / w[2, 2]) < 1e-10
    assert rel_err(vs[1][idx("110")], -w[2, 1] / w[2, 2]) < 1e-10


def test_kernel_basis_uniform_weight_ratios():
    # equal weights make both correction ratios w20/w22 = w21/w22 = 1
    m = SquareMatrix.from_array(np.ones((3, 3)))
    vs = kernel_basis(dense_operator(SpinOperator(m, "breve", "bosonic")))
    assert rel_err(vs[0][idx("110")], -1) < 1e-12
    assert rel_err(vs[1][idx("110")], -1) < 1e-12


def test_kernel_basis_full_rank_empty():
    assert kernel_basis(np.eye(5, dtype=np.complex128)).shape == (0, 5)


def test_factor_round_fermionic_n3(m3):
    w = m3.entries
    op = SpinOperator(m3, "breve", "fermionic")
    state = factor_round(initial_state(op))
    assert texts_of(state.removed, 3) == ["001", "011", "101"]
    assert texts_of(state.basis, 3) == ["000", "010", "100", "110"]
    t = {s: i for i, s in enumerate(texts_of(state.basis, 3))}
    opm = state.operator
    w00p = w[0, 0] - w[0, 2] * w[1, 0] / w[1, 2]
    w01p = w[0, 1] - w[0, 2] * w[1, 1] / w[1, 2]
    w10p = w[1, 0] - w[1, 2] * w[2, 0] / w[2, 2]
    w11p = w[1, 1] - w[1, 2] * w[2, 1] / w[2, 2]
    assert rel_err(opm[t["100"], t["000"]], w00p) < 1e-10
    assert rel_err(opm[t["010"], t["000"]], w01p) < 1e-10
    assert rel_err(opm[t["110"], t["010"]], -w10p) < 1e-10
    assert rel_err(opm[t["110"], t["100"]], w11p) < 1e-10
    assert rel_err(opm[t["000"], t["110"]], w[2, 2]) < 1e-12
    # A.B reconstructs, B annihilates the kernel
    prev = dense_operator(op)
    b, a = factor_ba(state, prev)
    assert np.max(np.abs(a @ b - prev)) < 1e-10 * np.max(np.abs(prev))
    for v in state.kernel_vectors:
        assert np.linalg.norm(b @ v) < 1e-10 * np.linalg.norm(v)


def test_factor_round_bosonic_n3_x_weight(m3):
    w = m3.entries
    op = SpinOperator(m3, "breve", "bosonic")
    state = factor_round(initial_state(op))
    assert texts_of(state.removed, 3) == ["011", "101"]
    t = {s: i for i, s in enumerate(texts_of(state.basis, 3))}
    x = (w[1, 0] * w[2, 1] + w[1, 1] * w[2, 0]) / w[2, 2]
    assert rel_err(state.operator[t["110"], t["001"]], x) < 1e-10
    w10p = w[1, 0] + w[1, 2] * w[2, 0] / w[2, 2]
    w11p = w[1, 1] + w[1, 2] * w[2, 1] / w[2, 2]
    assert rel_err(state.operator[t["110"], t["010"]], w10p) < 1e-10
    assert rel_err(state.operator[t["110"], t["100"]], w11p) < 1e-10
    assert state.fill_stats == (2, 4, 1)


def test_factor_round_bosonic_n4():
    m = random_matrix(4, 9, "complex_gaussian")
    state = factor_round(initial_state(SpinOperator(m, "breve", "bosonic")))
    assert texts_of(state.removed, 4) == ["0011", "0101", "0111", "1011", "1101"]
    # the closed-form kernel forces these figures; see their definition
    assert state.fill_stats == N4_BOSONIC_FILL_STATS
    assert sum(state.fill_stats) == N4_BOSONIC_FILL_ENTRIES


def test_reduce_fully_fermionic(m3):
    trace = reduce_fully(SpinOperator(m3, "breve", "fermionic"))
    assert texts_of(trace.rounds[0].removed, 3) == ["001", "011", "101"]
    assert texts_of(trace.rounds[1].removed, 3) == ["010"]
    assert rel_err(trace.final_product, determinant_gauss(m3)) < 1e-9
    w = m3.entries
    w00p = w[0, 0] - w[0, 2] * w[1, 0] / w[1, 2]
    w01p = w[0, 1] - w[0, 2] * w[1, 1] / w[1, 2]
    w10p = w[1, 0] - w[1, 2] * w[2, 0] / w[2, 2]
    w11p = w[1, 1] - w[1, 2] * w[2, 1] / w[2, 2]
    w00pp = w00p - w01p * w10p / w11p
    assert rel_err(trace.final_product, w00pp * w11p * w[2, 2]) < 1e-9


def test_reduce_fully_bosonic_closed_form(m3):
    trace = reduce_fully(SpinOperator(m3, "breve", "bosonic"))
    w = m3.entries
    w10p = w[1, 0] + w[1, 2] * w[2, 0] / w[2, 2]
    w11p = w[1, 1] + w[1, 2] * w[2, 1] / w[2, 2]
    x = (w[1, 0] * w[2, 1] + w[1, 1] * w[2, 0]) / w[2, 2]
    w00p = w[0, 0] + (w[0, 1] * w10p + w[0, 2] * x) / w11p
    assert rel_err(trace.final_product, w00p * w11p * w[2, 2]) < 1e-10
    assert rel_err(trace.final_product, permanent_ryser(m3)) < 1e-9


def test_reduce_fully_identity_bosonic(identity3):
    trace = reduce_fully(SpinOperator(identity3, "breve", "bosonic"))
    assert rel_err(trace.final_product, 1) < 1e-12


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_reduce_fully_matches_oracles(n):
    m = random_matrix(n, n, "complex_gaussian")
    ferm = reduce_fully(SpinOperator(m, "breve", "fermionic"))
    assert rel_err(ferm.final_product, determinant_gauss(m)) < 1e-9
    bos = reduce_fully(SpinOperator(m, "breve", "bosonic"))
    assert rel_err(bos.final_product, permanent_ryser(m)) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_fermionic_no_fill_in(n):
    m = random_matrix(n, n + 7, "complex_gaussian")
    trace = reduce_fully(SpinOperator(m, "breve", "fermionic"))
    assert all(state.fill_stats[2] == 0 for state in trace.rounds)


def test_nullity_drains_to_zero(m3):
    trace = reduce_fully(SpinOperator(m3, "breve", "bosonic"))
    assert rref.nullity(trace.final.operator) == 0
    removed = sum(len(st.removed) for st in trace.rounds)
    assert removed == 2**3 - 1 - 3


def _algebraic_nullity(a):
    # zero eigenvalues with multiplicity: kernel of a high enough power
    power = np.linalg.matrix_power(a, a.shape[0])
    return a.shape[0] - rref.matrix_rank(power)


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_each_round_removes_its_kernel_count(statistics):
    # every round sheds exactly r_k zero eigenvalues
    m = random_matrix(4, 3, "complex_gaussian")
    trace = reduce_fully(SpinOperator(m, "breve", statistics))
    prev = trace.initial.operator
    for state in trace.rounds:
        assert _algebraic_nullity(state.operator) == (
            _algebraic_nullity(prev) - len(state.removed)
        )
        # the states removed are the geometric kernel of the round's input
        assert len(state.removed) == rref.nullity(prev)
        prev = state.operator
    assert rref.nullity(trace.final.operator) == 0


def test_factorization_reconstructs_every_round():
    m = random_matrix(5, 4, "complex_gaussian")
    trace = reduce_fully(SpinOperator(m, "breve", "bosonic"))
    prev = trace.initial.operator
    for state in trace.rounds:
        b, a = factor_ba(state, prev)
        assert np.max(np.abs(a @ b - prev)) < 1e-9 * np.max(np.abs(prev))
        prev = state.operator


def test_spectrum_preserved_by_pushforward():
    m = random_matrix(4, 6, "complex_gaussian")
    op = SpinOperator(m, "breve", "bosonic")
    P, _ = evaluate(op)
    trace = reduce_fully(op)
    root = principal_root(complex(P), 4)
    import cmath

    for k in range(4):
        lam = cmath.exp(-2j * cmath.pi * k / 4) * root
        phi, prev = build_eigenvector(op, k, P), trace.initial.operator
        for state in trace.rounds:
            phi, prev = factor_ba(state, prev)[0] @ phi, state.operator
            resid = np.linalg.norm(state.operator @ phi - lam * phi)
            assert resid <= 1e-8 * np.linalg.norm(phi)


def test_fermionic_matches_gaussian_n3():
    rep = fermionic_matches_gaussian(random_matrix(3, 5, "complex_gaussian"))
    assert rep.ok and bool(rep)
    assert len(rep.comparisons) == 5
    assert all(c["ok"] for c in rep.comparisons)
    assert {c["name"] for c in rep.comparisons} == {
        "w'_{0,0}", "w'_{0,1}", "w'_{1,0}", "w'_{1,1}", "w''_{0,0}"
    }


def test_fermionic_matches_gaussian_identity(identity3):
    rep = fermionic_matches_gaussian(identity3)
    assert rep.ok
    for c in rep.comparisons:
        if c["name"] in ("w'_{0,0}", "w'_{1,1}", "w''_{0,0}"):
            assert rel_err(c["reduction"], 1) < 1e-12


def test_fermionic_matches_gaussian_zero_pivot():
    from spinperm import ZeroPivotError

    arr = random_matrix(3, 2, "complex_gaussian").entries.copy()
    arr[1, 2] = 0.0
    with pytest.raises(ZeroPivotError):
        fermionic_matches_gaussian(SquareMatrix.from_array(arr))


def test_fermionic_matches_gaussian_general_n():
    # the leading 4x4, 3x3, 2x2 and 1x1 blocks after rounds 1..4
    rep = fermionic_matches_gaussian(random_matrix(5, 8, "complex_gaussian"))
    assert rep.ok
    assert len(rep.comparisons) == 16 + 9 + 4 + 1
    assert all(c["ok"] for c in rep.comparisons)
    assert rep.comparisons[16]["name"] == "w''_{0,0}"
    assert rep.comparisons[-1]["name"] == "w''''_{0,0}"
    assert rep.final_rel_err < 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_fermionic_matches_gaussian_at_every_n(n):
    # every entry of the leading (n-r)x(n-r) block after each round r
    for kind, seed in itertools.product(["complex_gaussian", "real_uniform"], range(3)):
        rep = fermionic_matches_gaussian(random_matrix(n, seed, kind))
        assert rep.ok
        assert len(rep.comparisons) == (n - 1) * n * (2 * n - 1) // 6


N3_ENTRY_NAMES = ["w'_{0,0}", "w'_{0,1}", "w'_{1,0}", "w'_{1,1}", "w''_{0,0}"]


def test_fermionic_matches_gaussian_on_every_3x3_zero_one_input():
    # the verdicts of the n=3 check, degenerate inputs included: where the
    # kernel picks other leads than elimination, an entry reads 0 and fails
    outcomes = []
    for code in range(512):
        entries = np.array([code >> k & 1 for k in range(9)], dtype=float).reshape(3, 3)
        try:
            rep = fermionic_matches_gaussian(SquareMatrix.from_array(entries))
        except (ZeroPivotError, ZeroPermanentError) as exc:
            outcomes.append(type(exc).__name__)
            continue
        assert [c["name"] for c in rep.comparisons] == N3_ENTRY_NAMES
        outcomes.append("ok" if rep.ok else "not ok")
    assert {k: outcomes.count(k) for k in set(outcomes)} == {
        "ok": 38, "not ok": 12, "ZeroPivotError": 124, "ZeroPermanentError": 338}


def test_fermionic_matches_gaussian_sees_a_corrupted_round(monkeypatch):
    # scale the edge 00000 -> 10000 of round 2 (w''_{0,0}), not the final product
    matrix = random_matrix(5, 8, "complex_gaussian")
    trace = reduce_fully(SpinOperator(matrix, "breve", "fermionic"))
    codes = trace.rounds[1].basis.tolist()
    trace.rounds[1].operator[codes.index(0b10000), codes.index(0)] *= 1 + 1e-6
    monkeypatch.setattr(reduction, "reduce_fully", lambda op: trace)
    rep = fermionic_matches_gaussian(matrix)
    assert not rep.ok
    assert [c["name"] for c in rep.comparisons if not c["ok"]] == ["w''_{0,0}"]
    assert rep.final_rel_err < 1e-9


def test_fermionic_matches_gaussian_zero_pivot_n4():
    # the kernel reduction runs, but elimination round 1 divides by w[1,3] = 0
    arr = random_matrix(4, 0, "complex_gaussian").entries.copy()
    arr[1, 3] = 0.0
    matrix = SquareMatrix.from_array(arr)
    reduce_fully(SpinOperator(matrix, "breve", "fermionic"))
    with pytest.raises(ZeroPivotError):
        fermionic_matches_gaussian(matrix)


def elimination_round(matrix, r):
    """Basis codes and edges that round r of the fermionic reduction should
    have if it is the spin operator of r rounds of fixed-order elimination.

    With E_r the eliminated matrix and m = n-r: the codes with their low r
    bits clear carry the tilde operator of E_r's leading m×m block, shifted
    left by r bits, whose unit return edge gives way to a tail
    1^(m+j)0^(r-j) -> 1^(m+j+1)0^(r-j-1) of weights E_r[m+j, m+j] that
    closes onto the empty state.
    """
    n, m = matrix.n, matrix.n - r
    e = lower_triangular_reduce(matrix)[r]
    ones = [((1 << k) - 1) << (n - k) for k in range(n)] + [0]  # 1^k 0^(n-k); 1^n closes
    codes = [code << r for code in range(1 << m)] + ones[m + 1:n]
    block = dense_operator(SpinOperator(SquareMatrix.from_array(e[:m, :m]), "tilde",
                                        "fermionic"))
    block[0, -1] = 0
    edges = {(codes[t], codes[s]): block[t, s] for t, s in zip(*np.nonzero(block))}
    edges.update({(ones[m + j + 1], ones[m + j]): e[m + j, m + j] for j in range(r)})
    return sorted(codes), edges


@pytest.mark.parametrize("kind", ["complex_gaussian", "real_uniform"])
@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("seed", [0, 1])
def test_fermionic_rounds_are_the_elimination_rounds(kind, n, seed):
    # generic inputs only: on degenerate ones the kernel may pick other leads
    matrix = random_matrix(n, seed, kind)
    trace = reduce_fully(SpinOperator(matrix, "breve", "fermionic"))
    for r, state in enumerate(trace.rounds, start=1):
        codes, edges = elimination_round(matrix, r)
        assert state.basis.tolist() == codes
        index = {code: i for i, code in enumerate(codes)}
        expected = np.zeros_like(state.operator)
        for (target, source), weight in edges.items():
            expected[index[target], index[source]] = weight
        scale = np.max(np.abs(state.operator))
        assert np.max(np.abs(state.operator - expected)) <= 1e-9 * scale


def test_trace_json(m3):
    trace = reduce_fully(SpinOperator(m3, "breve", "fermionic"))
    doc = trace.to_json_dict()
    assert doc["rounds"][0]["removed"] == ["001", "011", "101"]
    assert doc["rounds"][1]["removed"] == ["010"]
    assert len(doc["final_cycle"]) == 3
    assert set(doc["rounds"][0]["fill_stats"]) == {"reweighted", "unchanged", "new"}


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_one_elimination_per_kernel_basis(monkeypatch, statistics):
    # the counts perfbench's rref.rref_calls row reads for reduce and graph
    calls = []

    def counting(a, _fn=rref.rref):
        calls.append(a.shape)
        return _fn(a)

    monkeypatch.setattr(rref, "rref", counting)
    n = 5
    op = SpinOperator(random_matrix(n, 3), "breve", statistics)
    kernel_basis(dense_operator(op))
    assert len(calls) == 1
    calls.clear()
    reduce_fully(op)
    assert len(calls) == n - 1


# the 3x3 zero operator and the shift e0 -> e1 -> e2, whose kernel is e2
ZERO3 = np.zeros((3, 3))
SHIFT3 = np.eye(3, k=-1)


def _three_state_round(operator, round=0):
    return ReductionState(round=round, operator=operator.astype(np.complex128),
                          basis=np.arange(3))


@pytest.mark.parametrize("operator, rows, error, message", [
    (ZERO3, [[0, 0, 0]], ZeroPivotError,
     "round 1: kernel vector without a usable leading coordinate"),
    # above the row's own zero threshold, below the absolute floor
    (ZERO3, [[1, 0, 0], [0, 1e-12, 0]], ZeroPivotError,
     "round 1: kernel vector without a usable leading coordinate"),
    (ZERO3, [[1, 0, 0], [1, 1, 0]], ZeroPivotError, "round 1: degenerate kernel leads [0, 0]"),
    # zero lead columns, so A @ B reconstructs and only the annihilation check fires
    (ZERO3, [[1, 1, 2], [0, 1, 3]], ZeroPivotError,
     "round 1: B fails to annihilate a kernel vector"),
    (SHIFT3, [[1, 0, 0]], ConsistencyError, "round 1: A @ B does not reconstruct the operator"),
], ids=["zero-row", "tiny-lead", "repeated-lead", "not-annihilated", "not-in-kernel"])
def test_factor_round_refuses_a_bad_kernel_basis(monkeypatch, operator, rows, error, message):
    basis = np.array(rows, dtype=np.complex128)
    monkeypatch.setattr(reduction, "kernel_basis", lambda op: basis)
    with pytest.raises(error) as info:
        factor_round(_three_state_round(operator))
    assert str(info.value) == message


def _extra_entry(op):
    op = op.copy()
    op[0, 0] = np.max(np.abs(op))
    return op


def _shared_source(op):
    # move the first entry into the second's column: n entries, two in one column
    op = op.copy()
    (t0, _), (s0, s1) = (a[:2] for a in rref.support(op))
    op[t0, s1], op[t0, s0] = op[t0, s0], 0
    return op


@pytest.mark.parametrize("corrupt, message", [
    # the last round left out: round n-2's states
    (lambda before, after: dataclasses.replace(before, round=after.round),
     "reduction ended at dimension 7, expected 4"),
    (lambda before, after: dataclasses.replace(after, operator=_extra_entry(after.operator)),
     "final operator has 5 nonzero entries, expected 4"),
    (lambda before, after: dataclasses.replace(after, operator=_shared_source(after.operator)),
     "final operator entries do not form a single cycle"),
    # every edge reversed: a cycle that steps one level down
    (lambda before, after: dataclasses.replace(after, operator=after.operator.T.copy()),
     "final cycle does not step one level at a time"),
], ids=["dimension", "entry-count", "single-cycle", "level-steps"])
def test_reduce_fully_refuses_a_bad_final_cycle(monkeypatch, corrupt, message):
    n, original = 4, reduction.factor_round

    def last_round_corrupted(state):
        out = original(state)
        return corrupt(state, out) if out.round == n - 1 else out

    monkeypatch.setattr(reduction, "factor_round", last_round_corrupted)
    with pytest.raises(ConsistencyError) as info:
        reduce_fully(SpinOperator(random_matrix(n, 1), "breve", "bosonic"))
    assert str(info.value) == message


def test_factor_round_passes_a_full_rank_operator_through():
    state = _three_state_round(np.diag([1.0, 2.0, 3.0]), round=2)
    out = factor_round(state)
    assert out.round == 3
    assert np.array_equal(out.operator, state.operator) and out.operator is not state.operator
    assert np.array_equal(out.basis, state.basis) and out.basis is not state.basis
    assert len(out.kernel_vectors) == 0
    assert len(out.removed) == 0 and out.fill_stats == (0, 0, 0)


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_round_matches_the_per_vector_loop(statistics):
    # the per-vector loop each round's array form replaces, as the reference
    state = initial_state(SpinOperator(random_matrix(5, 2), "breve", statistics))
    for _ in range(4):
        old, state = state, factor_round(state)
        op, d = old.operator, old.operator.shape[0]
        leads = [rref.leading_index(v) for v in state.kernel_vectors]
        assert state.removed.tolist() == [old.basis[lead] for lead in leads]
        keep = [i for i in range(d) if i not in leads]
        assert state.basis.tolist() == [old.basis[i] for i in keep]
        b = np.eye(d, dtype=np.complex128)
        for v, lead in zip(state.kernel_vectors, leads):
            b[:, lead] -= v
        rebuilt_b, rebuilt_a = factor_ba(state, op)
        assert np.array_equal(rebuilt_b, b[keep, :]) and np.array_equal(rebuilt_a, op[:, keep])
        assert np.array_equal(state.operator, b[keep, :] @ op[:, keep])
        stats = [0, 0, 0]
        old_kept = op[np.ix_(keep, keep)]
        for t, s in zip(*rref.support(state.operator)):
            new_val, old_val = state.operator[t, s], old_kept[t, s]
            if abs(old_val) <= rref.zero_threshold(op):
                stats[2] += 1
            elif (abs(new_val - old_val)
                  <= reduction.UNCHANGED_REL_TOL * max(abs(new_val), abs(old_val))):
                stats[1] += 1
            else:
                stats[0] += 1
        assert state.fill_stats == tuple(stats)
    assert sum(state.fill_stats) == 5  # the final cycle


def _permanent_and_determinant(rows):
    """Brute force over permutations, in integers."""
    perm = det = 0
    for sigma in itertools.permutations(range(len(rows))):
        term = math.prod(rows[i][sigma[i]] for i in range(len(rows)))
        inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
        perm += term
        det += -term if inversions & 1 else term
    return perm, det


def test_zero_value_stops_before_the_first_round():
    # all 512 3x3 0/1 inputs: a zero value raises, and every other reduces
    zeros = {"bosonic": 0, "fermionic": 0}
    for bits9 in range(512):
        rows = [[(bits9 >> (3 * r + c)) & 1 for c in range(3)] for r in range(3)]
        values = dict(zip(("bosonic", "fermionic"), _permanent_and_determinant(rows)))
        for statistics, value in values.items():
            op = SpinOperator(SquareMatrix.from_array(rows), "breve", statistics)
            if value:
                assert reduce_fully(op).final_product == pytest.approx(value, rel=1e-9)
                continue
            zeros[statistics] += 1
            name = "permanent" if statistics == "bosonic" else "determinant"
            with pytest.raises(ZeroPermanentError,
                               match=f"row reduction assumes a nonzero {name}"):
                reduce_fully(op)
    assert zeros == {"bosonic": 265, "fermionic": 338}


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
@pytest.mark.parametrize("kind", ["complex_gaussian", "real_uniform"])
@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("seed", range(3))
def test_kernel_dimensions_have_a_closed_form(statistics, kind, n, seed):
    # generic inputs only: the bosonic counts fail on most 0/1 ones
    trace = reduce_fully(SpinOperator(random_matrix(n, seed, kind), "breve", statistics))
    assert removed_by(trace) == removed_per_level(n, statistics)


def test_fermionic_kernel_dimensions_on_every_nonsingular_3x3_zero_one_input():
    # the fermionic counts need only a nonzero determinant
    nonsingular = 0
    for bits9 in range(512):
        rows = [[(bits9 >> (3 * r + c)) & 1 for c in range(3)] for r in range(3)]
        if _permanent_and_determinant(rows)[1]:
            op = SpinOperator(SquareMatrix.from_array(rows), "breve", "fermionic")
            assert removed_by(reduce_fully(op)) == removed_per_level(3, "fermionic")
            nonsingular += 1
    assert nonsingular == 174


@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
@pytest.mark.parametrize("n", range(2, 8))
def test_generalized_kernel_ranks_are_the_round_totals(statistics, n):
    op = SpinOperator(random_matrix(n, 0, "complex_gaussian"), "breve", statistics)
    counts = removed_per_level(n, statistics)
    totals = [sum(c for (r, _), c in counts.items() if r == m) for m in range(1, n)]
    assert generalized_kernel_ranks(op) == totals
