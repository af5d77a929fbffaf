"""Explicit branching-program graph: construction, path sums, DOT export.

The operator's cycle is modeled as a layered DAG with the empty state
duplicated into a source and a sink, so every source-to-sink path is one
permutation term and path enumeration terminates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import bits, rref
from .errors import RangeError, SizeGuardError, ZeroPivotError
from .matrix import format_complex
from .operator import SpinOperator
from .reduction import UNCHANGED_REL_TOL, ReductionTrace, elimination_weights_n3

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


def _weight_label(h: int, site: int, sign: int) -> str:
    base = f"w_{{{h},{site}}}"
    return f"-{base}" if sign < 0 else base


def _sort_and_check(nodes, edges) -> None:
    nodes.sort(key=lambda nd: (nd.level, nd.id))
    level_of = {nd.id: nd.level for nd in nodes}
    edges.sort(key=lambda e: (level_of[e.source], e.source, e.target))
    for e in edges:
        if level_of[e.target] != level_of[e.source] + 1:
            raise ValueError("edge does not step one level down")


def graph_from_operator(op: SpinOperator) -> AbpGraph:
    """One node per basis state plus the duplicated empty-state sink."""
    n = op.n
    if n > GRAPH_MAX_N:
        raise SizeGuardError(f"graph construction limited to n <= {GRAPH_MAX_N}")
    nodes = [AbpNode(SINK_ID, "0" * n, op.period)]
    edges = []
    w = op.matrix.to_array()
    for h in range(op.period):
        codes = bits.level_codes(n, h)
        ids = [_node_id(c) for c in codes.tolist()]
        nodes.extend(AbpNode(i, format(c, f"0{n}b"), h) for i, c in zip(ids, codes.tolist()))
        if h == n:
            edges.append(AbpEdge(ids[0], SINK_ID, 1.0 + 0.0j, "1"))
            continue
        for p, pos, raised, odd in bits.raise_edges(codes, n, op.fermionic):
            site = n - 1 - p
            negate = odd.tolist() if op.fermionic else [False] * len(pos)
            for i, target_code, neg in zip(pos.tolist(), raised.tolist(), negate):
                sign = -1 if neg else 1
                target = SINK_ID if h == n - 1 and op.variant == "breve" else _node_id(target_code)
                edges.append(AbpEdge(ids[i], target, complex(sign * w[h, site]),
                                     _weight_label(h, site, sign)))
    _sort_and_check(nodes, edges)
    return AbpGraph(n=n, nodes=nodes, edges=edges, source_id=_node_id(0))


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
    """Closed-form reduced weights that have stable names at n=3.

    Beyond n=3 the reduced entries are ad hoc and fall back to numeric
    labels.
    """
    if op.n != 3:
        return []
    w = op.matrix.to_array()
    out = []
    if op.fermionic:
        # a zero pivot in the elimination keeps numeric labels
        try:
            changed = elimination_weights_n3(op.matrix)
        except ZeroPivotError:
            return []
        out.extend((name, complex(value)) for name, value in changed.items())
    else:
        # the closed forms divide by w[2,2] and w'_{1,1}; without them the
        # graph keeps numeric labels
        if w[2, 2] == 0:
            return []
        w10p = w[1, 0] + w[1, 2] * w[2, 0] / w[2, 2]
        w11p = w[1, 1] + w[1, 2] * w[2, 1] / w[2, 2]
        if w11p == 0:
            return []
        x = (w[1, 0] * w[2, 1] + w[1, 1] * w[2, 0]) / w[2, 2]
        w00p = w[0, 0] + (w[0, 1] * w10p + w[0, 2] * x) / w11p
        out.extend(
            [
                ("w'_{1,0}", complex(w10p)),
                ("w'_{1,1}", complex(w11p)),
                ("x", complex(x)),
                ("w'_{0,0}", complex(w00p)),
            ]
        )
    return out


def _reduced_display(value: complex, original: complex | None, original_label: str | None,
                     candidates: list[tuple[str, complex]]) -> str:
    if original is not None and abs(value - original) <= UNCHANGED_REL_TOL * max(
        abs(value), abs(original)
    ):
        return original_label
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
    n = op.n
    state = trace.rounds[round - 1]
    basis = state.basis
    original = graph_from_operator(op)
    orig_edges = {(e.source, e.target): e for e in original.edges}
    candidates = _symbolic_candidates(op)
    zero_label = "0" * n
    nodes = [AbpNode(SINK_ID, zero_label, n)]
    for s in basis:
        nodes.append(AbpNode(_node_id(s.code), s.text, s.level))
    edges = []
    for t, s in zip(*rref.support(state.operator)):
        src, dst = basis[s], basis[t]
        src_id = _node_id(src.code)
        dst_id = SINK_ID if dst.level == 0 and src.level == n - 1 else _node_id(dst.code)
        value = complex(state.operator[t, s])
        orig = orig_edges.get((src_id, dst_id))
        display = _reduced_display(
            value,
            orig.weight if orig else None,
            orig.display if orig else None,
            candidates,
        )
        edges.append(AbpEdge(src_id, dst_id, value, display))
    _sort_and_check(nodes, edges)
    return AbpGraph(n=n, nodes=nodes, edges=edges, source_id=_node_id(0))


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
