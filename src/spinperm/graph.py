"""Explicit branching-program graph: construction, path sums, DOT export.

The operator's cycle is modeled as a layered DAG with the empty state
duplicated into a source and a sink, so every source-to-sink path is one
permutation term and path enumeration terminates.  A graph's edges are
``operator.edges`` for the operator itself and ``ReductionState.edges``
for a reduction round; one builder (``_graph``) makes either's nodes from
its state codes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import RangeError, SizeGuardError, ZeroPivotError
from .matrix import format_complex
from .operator import SpinOperator, edges
from .reduction import UNCHANGED_REL_TOL, ReductionTrace, elimination_entries

GRAPH_MAX_N = 12
PATHSUM_MAX_N = 7
_LABEL_MATCH_RTOL = 1e-9

SINK_ID = "sink"


@dataclass(frozen=True)
class AbpNode:
    id: str
    label: str
    level: int


@dataclass(frozen=True)
class AbpEdge:
    source: str
    target: str
    weight: complex
    display: str


@dataclass
class AbpGraph:
    n: int
    nodes: list[AbpNode] = field(default_factory=list)
    edges: list[AbpEdge] = field(default_factory=list)
    source_id: str = "v0"
    sink_id: str = SINK_ID

    def node_by_id(self, node_id: str) -> AbpNode:
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise KeyError(node_id)

    def outgoing(self) -> dict[str, list[AbpEdge]]:
        adj: dict[str, list[AbpEdge]] = {node.id: [] for node in self.nodes}
        for edge in self.edges:
            adj[edge.source].append(edge)
        return adj

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "source": self.source_id,
            "sink": self.sink_id,
            "nodes": [
                {"id": nd.id, "label": nd.label, "level": nd.level}
                for nd in self.nodes
            ],
            "edges": [
                {
                    "source": e.source,
                    "target": e.target,
                    "weight": format_complex(e.weight),
                    "display": e.display,
                }
                for e in self.edges
            ],
        }


def _node_id(code: int) -> str:
    return f"v{code}"


def _target_id(code: int) -> str:
    """An edge into the empty state, code 0, closes the cycle at the sink."""
    return _node_id(code) if code else SINK_ID


def _graph(op: SpinOperator, codes, edge_list: list[AbpEdge]) -> AbpGraph:
    """The graph on the states ``codes`` plus the sink, nodes and edges in
    level order; refuses an edge that does not step one level down."""
    n = op.n
    nodes = [AbpNode(SINK_ID, "0" * n, op.period)] + [
        AbpNode(_node_id(c), format(c, f"0{n}b"), c.bit_count()) for c in codes]
    nodes.sort(key=lambda nd: (nd.level, nd.id))
    level_of = {nd.id: nd.level for nd in nodes}
    edge_list.sort(key=lambda e: (level_of[e.source], e.source, e.target))
    for e in edge_list:
        if level_of[e.target] != level_of[e.source] + 1:
            raise ValueError("edge does not step one level down")
    return AbpGraph(n=n, nodes=nodes, edges=edge_list, source_id=_node_id(0))


def _operator_edges(op: SpinOperator) -> list[AbpEdge]:
    """Every edge of the operator (``operator.edges``), plus tilde's weight-1
    return from the full state to the sink."""
    src, dst, level, site, odd, weight = edges(op)
    out = [AbpEdge(_node_id(s), _target_id(t), wt, f"{'-' if o else ''}w_{{{h},{p}}}")
           for s, t, h, p, o, wt in zip(src.tolist(), dst.tolist(), level.tolist(),
                                        site.tolist(), odd.tolist(), weight.tolist())]
    if op.variant == "tilde":
        out.append(AbpEdge(_node_id((1 << op.n) - 1), SINK_ID, 1.0 + 0.0j, "1"))
    return out


def graph_from_operator(op: SpinOperator) -> AbpGraph:
    """One node per basis state plus the duplicated empty-state sink."""
    if op.n > GRAPH_MAX_N:
        raise SizeGuardError(f"graph construction limited to n <= {GRAPH_MAX_N}")
    return _graph(op, range(op.dimension), _operator_edges(op))


def count_paths(graph: AbpGraph) -> int:
    """Source-to-sink path count by topological accumulation."""
    counts = {graph.source_id: 1}
    for node in graph.nodes:  # already in level order
        counts.setdefault(node.id, 0)
    for edge in graph.edges:  # level order implies topological order
        counts[edge.target] = counts.get(edge.target, 0) + counts.get(edge.source, 0)
    return counts.get(graph.sink_id, 0)


def path_sum(graph: AbpGraph) -> complex:
    """Sum of edge-weight products over every source-to-sink path.

    Honest enumeration of all paths (n! of them on the unreduced graph),
    kept independent of the level-sweep evaluation it cross-checks.
    """
    if graph.n > PATHSUM_MAX_N:
        raise SizeGuardError(f"path enumeration limited to n <= {PATHSUM_MAX_N}")
    adj = graph.outgoing()
    total = 0.0 + 0.0j

    def walk(node_id: str, product: complex) -> None:
        nonlocal total
        if node_id == graph.sink_id:
            total += product
            return
        for edge in adj[node_id]:
            walk(edge.target, product * edge.weight)

    walk(graph.source_id, 1.0 + 0.0j)
    return total


def _symbolic_candidates(op: SpinOperator) -> list[tuple[str, complex]]:
    """Named reduced weights at n=3.

    Fermionic names are the elimination entries each round reweights;
    bosonic ones are closed forms.  Beyond n=3 the graph keeps numeric
    labels.
    """
    if op.n != 3:
        return []
    if op.fermionic:
        # a zero pivot in the elimination keeps numeric labels
        try:
            return [(name, value) for *_, name, value, changed
                    in elimination_entries(op.matrix) if changed]
        except ZeroPivotError:
            return []
    # the closed forms divide by w[2,2] and w'_{1,1}; without them the graph
    # keeps numeric labels
    w = op.matrix.to_array()
    if w[2, 2] == 0:
        return []
    w10p = w[1, 0] + w[1, 2] * w[2, 0] / w[2, 2]
    w11p = w[1, 1] + w[1, 2] * w[2, 1] / w[2, 2]
    if w11p == 0:
        return []
    x = (w[1, 0] * w[2, 1] + w[1, 1] * w[2, 0]) / w[2, 2]
    w00p = w[0, 0] + (w[0, 1] * w10p + w[0, 2] * x) / w11p
    return [("w'_{1,0}", complex(w10p)), ("w'_{1,1}", complex(w11p)),
            ("x", complex(x)), ("w'_{0,0}", complex(w00p))]


def _reduced_display(value: complex, original: AbpEdge | None,
                     candidates: list[tuple[str, complex]]) -> str:
    if original is not None and abs(value - original.weight) <= UNCHANGED_REL_TOL * max(
        abs(value), abs(original.weight)
    ):
        return original.display
    for name, cand in candidates:
        if cand != 0 and abs(value - cand) <= _LABEL_MATCH_RTOL * abs(cand):
            return name
        if cand != 0 and abs(value + cand) <= _LABEL_MATCH_RTOL * abs(cand):
            return f"-{name}"
    return format_complex(value)


def graph_from_reduction(trace: ReductionTrace, round: int) -> AbpGraph:
    """Graph of the operator after the given reduction round (0 = original)."""
    if not 0 <= round <= len(trace.rounds):
        raise RangeError(f"round must be in [0, {len(trace.rounds)}]")
    op = trace.source_operator
    if round == 0:
        return graph_from_operator(op)
    state = trace.rounds[round - 1]
    orig_edges = {(e.source, e.target): e for e in _operator_edges(op)}
    candidates = _symbolic_candidates(op)
    out = []
    for src, dst, value in zip(*(a.tolist() for a in state.edges())):
        ids = _node_id(src), _target_id(dst)
        out.append(AbpEdge(*ids, value, _reduced_display(value, orig_edges.get(ids), candidates)))
    return _graph(op, state.basis.tolist(), out)


def export_dot(graph: AbpGraph, show_signs: bool = True, numeric_weights: bool = False) -> str:
    """Graphviz DOT text, nodes ranked by level, deterministic ordering."""
    lines = ["digraph abp {", "  rankdir=TB;"]
    for node in graph.nodes:
        lines.append(f'  "{node.id}" [label="{node.label}"];')
    levels: dict[int, list[str]] = {}
    for node in graph.nodes:
        levels.setdefault(node.level, []).append(node.id)
    for level in sorted(levels):
        ids = "; ".join(f'"{i}"' for i in levels[level])
        lines.append(f"  {{ rank=same; {ids}; }}")
    for edge in graph.edges:
        label = format_complex(edge.weight) if numeric_weights else edge.display
        if not show_signs and label.startswith("-"):
            label = label[1:]
        lines.append(f'  "{edge.source}" -> "{edge.target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_NODE_RE = re.compile(r'^\s*"([^"]+)" \[label="([^"]*)"\];')
_DOT_EDGE_RE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)" \[label="([^"]*)"\];')


def parse_dot(text: str):
    """Recover the node and edge multisets from our own DOT output."""
    nodes = []
    edges = []
    for line in text.splitlines():
        m = _DOT_EDGE_RE.match(line)
        if m:
            edges.append((m.group(1), m.group(2), m.group(3)))
            continue
        m = _DOT_NODE_RE.match(line)
        if m:
            nodes.append((m.group(1), m.group(2)))
    return nodes, edges
