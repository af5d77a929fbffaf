import math

import numpy as np
import pytest

from conftest import rel_err
from spinperm import (
    RangeError,
    SizeGuardError,
    SpinOperator,
    SquareMatrix,
    determinant_gauss,
    evaluate,
    random_matrix,
)
from spinperm.graph import (
    _symbolic_candidates,
    count_paths,
    export_dot,
    graph_from_operator,
    graph_from_reduction,
    parse_dot,
    path_sum,
)
from spinperm.reduction import reduce_fully


def test_graph_n3_shape(m3):
    g = graph_from_operator(SpinOperator(m3, "breve", "bosonic"))
    assert len(g.nodes) == 8  # 7 states + duplicated sink
    assert len(g.edges) == 12
    assert g.node_by_id(g.source_id).label == "000"
    assert g.node_by_id(g.sink_id).label == "000"


def test_graph_n1():
    m = random_matrix(1, 0, "complex_gaussian")
    g = graph_from_operator(SpinOperator(m, "breve", "bosonic"))
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    assert g.edges[0].display == "w_{0,0}"


def test_graph_fermionic_negative_labels(m3):
    g = graph_from_operator(SpinOperator(m3, "breve", "fermionic"))
    negatives = sorted(e.display for e in g.edges if e.display.startswith("-"))
    assert negatives == ["-w_{1,0}", "-w_{1,0}", "-w_{1,1}", "-w_{2,1}"]


@pytest.mark.parametrize("rows", [
    [[1, 1, 1], [1, 1, 1], [1, 1, 0]],  # w[2,2] = 0
    [[1, 1, 1], [1, 1, 1], [1, -1, 1]],  # w'_{1,1} = w[1,1] + w[1,2] w[2,1] / w[2,2] = 0
], ids=["w22", "w11_reduced"])
def test_bosonic_candidates_need_nonzero_pivots(rows):
    op = SpinOperator(SquareMatrix.from_array(np.array(rows)), "breve", "bosonic")
    assert _symbolic_candidates(op) == []


def test_fermionic_candidates_without_a_second_round_entry():
    # w'_{0,1} = 0, so elimination round 2 leaves w'_{0,0} as it is and
    # w''_{0,0} has no entry of its own
    op = SpinOperator(SquareMatrix.from_array(np.array([[2, 1, 1], [1, 1, 1], [1, 2, 3]])),
                      "breve", "fermionic")
    names = [name for name, _ in _symbolic_candidates(op)]
    assert names == ["w'_{0,0}", "w'_{0,1}", "w'_{1,0}", "w'_{1,1}"]
    g = graph_from_reduction(reduce_fully(op), 2)
    assert count_paths(g) == 1


def test_fermionic_candidates_on_a_zero_pivot_keep_numeric_labels():
    # elimination round 1 divides by w[1,2] = 0 where kernel reduction does not
    op = SpinOperator(random_matrix(3, 1, "zero_one"), "breve", "fermionic")
    assert op.matrix.to_array()[1, 2] == 0 and op.matrix.to_array()[0, 2] != 0
    assert _symbolic_candidates(op) == []
    trace = reduce_fully(op)
    for r in (1, 2):
        assert count_paths(graph_from_reduction(trace, r)) == 1


def test_graph_levels_step_by_one(m3):
    g = graph_from_operator(SpinOperator(m3, "breve", "fermionic"))
    level = {nd.id: nd.level for nd in g.nodes}
    for e in g.edges:
        assert level[e.target] == level[e.source] + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("statistics", ["bosonic", "fermionic"])
def test_path_sum_matches_evaluate(n, statistics):
    m = random_matrix(n, n + 1, "complex_gaussian")
    op = SpinOperator(m, "breve", statistics)
    g = graph_from_operator(op)
    value, _ = evaluate(op)
    assert rel_err(path_sum(g), value) < 1e-11
    assert count_paths(g) == math.factorial(n)


def test_path_sum_fermionic_sign_pattern(m3):
    # odd permutations carry negative products
    w = m3.entries
    expected = (
        w[0, 0] * w[1, 1] * w[2, 2]
        - w[0, 0] * w[1, 2] * w[2, 1]
        - w[0, 1] * w[1, 0] * w[2, 2]
        + w[0, 1] * w[1, 2] * w[2, 0]
        + w[0, 2] * w[1, 0] * w[2, 1]
        - w[0, 2] * w[1, 1] * w[2, 0]
    )
    g = graph_from_operator(SpinOperator(m3, "breve", "fermionic"))
    assert rel_err(path_sum(g), expected) < 1e-12


def test_path_sum_guard():
    m = random_matrix(8, 0, "zero_one")
    g = graph_from_operator(SpinOperator(m, "breve", "bosonic"))
    with pytest.raises(SizeGuardError):
        path_sum(g)


def test_edge_count_formula():
    for n in (2, 3, 5):
        m = random_matrix(n, 2, "complex_gaussian")
        g = graph_from_operator(SpinOperator(m, "breve", "bosonic"))
        assert len(g.edges) == n * 2 ** (n - 1)


def test_tilde_graph_has_return_edge(m3):
    g = graph_from_operator(SpinOperator(m3, "tilde", "bosonic"))
    assert len(g.nodes) == 9  # 8 states + sink
    back = [e for e in g.edges if e.target == g.sink_id]
    assert len(back) == 1 and back[0].weight == 1.0
    value, _ = evaluate(SpinOperator(m3, "tilde", "bosonic"))
    assert rel_err(path_sum(g), value) < 1e-11


def test_graph_from_reduction_rounds(m3):
    op = SpinOperator(m3, "breve", "fermionic")
    trace = reduce_fully(op)
    g0 = graph_from_reduction(trace, 0)
    assert len(g0.edges) == 12
    g2 = graph_from_reduction(trace, 2)
    assert count_paths(g2) == 1
    labels = [e.display for e in g2.edges]
    assert labels == ["w''_{0,0}", "w'_{1,1}", "w_{2,2}"]
    assert rel_err(path_sum(g2), determinant_gauss(m3)) < 1e-10
    with pytest.raises(RangeError):
        graph_from_reduction(trace, 3)


def test_graph_from_reduction_bosonic_x(m3):
    trace = reduce_fully(SpinOperator(m3, "breve", "bosonic"))
    g1 = graph_from_reduction(trace, 1)
    level2 = [nd for nd in g1.nodes if nd.level == 2]
    assert [nd.label for nd in level2] == ["110"]
    x_edges = [e for e in g1.edges if e.display == "x"]
    assert len(x_edges) == 1
    assert g1.node_by_id(x_edges[0].source).label == "001"


def test_reduced_path_count_one():
    for n in (3, 4, 5):
        m = random_matrix(n, 1, "complex_gaussian")
        trace = reduce_fully(SpinOperator(m, "breve", "bosonic"))
        g = graph_from_reduction(trace, n - 1)
        assert count_paths(g) == 1


def test_dot_roundtrip(m3):
    g = graph_from_operator(SpinOperator(m3, "breve", "fermionic"))
    nodes, edges = parse_dot(export_dot(g))
    assert sorted(nodes) == sorted((nd.id, nd.label) for nd in g.nodes)
    assert sorted(edges) == sorted((e.source, e.target, e.display) for e in g.edges)


def test_dot_structure(m3):
    g = graph_from_operator(SpinOperator(m3, "breve", "bosonic"))
    dot = export_dot(g)
    assert dot.startswith("digraph abp {")
    assert dot.count("rank=same") == 4  # levels 0..2 plus the sink
    assert dot.count("->") == 12


def test_dot_options(m3):
    g = graph_from_operator(SpinOperator(m3, "breve", "fermionic"))
    signed = export_dot(g, show_signs=True)
    assert signed.count('label="-') == 4
    unsigned = export_dot(g, show_signs=False)
    assert unsigned.count('label="-') == 0
    numeric = export_dot(g, numeric_weights=True)
    assert "w_{" not in numeric


def test_dot_determinism(m3):
    g = graph_from_operator(SpinOperator(m3, "breve", "bosonic"))
    assert export_dot(g) == export_dot(graph_from_operator(SpinOperator(m3, "breve", "bosonic")))


def test_graph_json(m3):
    g = graph_from_operator(SpinOperator(m3, "breve", "bosonic"))
    doc = g.to_json_dict()
    assert doc["n"] == 3
    assert len(doc["nodes"]) == 8
    assert len(doc["edges"]) == 12
    assert doc["source"] == "v0" and doc["sink"] == "sink"


def test_graph_size_guard():
    m = random_matrix(13, 0, "zero_one")
    with pytest.raises(SizeGuardError):
        graph_from_operator(SpinOperator(m, "breve", "bosonic"))
