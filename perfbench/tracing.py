"""Spans around the program's layers, recorded from outside the program.

``install`` replaces module attributes that the program's callers look up at
call time (``spinperm.cli.evaluate``, ``spinperm._kernels.apply_level``,
``spinperm.rref.rref``, ...) with wrappers that record a span per call:
name, start, end, parent span and request id, plus counts taken from the
arguments and results seen at that boundary.  Nothing inside the program
changes.  Spans stay in memory; ``summarize`` turns them into the per-layer
metrics once the run is over.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from importlib import import_module

# Field positions of a span record.
NAME, START, END, PARENT, REQUEST, ATTRS = range(6)

LEVEL_ROWS = 20  # level.<h>.* rows for h = 0..19, the n=20 bosonic sweep


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def span(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Call ``fn`` inside a span; ``attrs(args, result)`` adds counts."""
        kwargs = kwargs or {}
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
        if attrs:
            record[ATTRS] = attrs(args, result)
        return result


def _kernel_level(args, out):
    src, dst, amps, wbits = args[:4]
    n, h = len(wbits), int(src[0]).bit_count()
    return {"h": h, "n": n, "states_in": len(src), "states_out": len(dst),
            "edges": len(src) * (n - h),
            "bytes": src.nbytes + dst.nbytes + amps.nbytes + wbits.nbytes + out.nbytes}


def _kernel_closing(args, out):
    src, amps, wbits = args[:3]
    return {"h": len(wbits) - 1, "n": len(wbits), "states_in": len(src), "states_out": 1,
            "edges": len(src), "bytes": src.nbytes + amps.nbytes + wbits.nbytes}


def _sweep_step(args, out):
    op, v = args[:2]
    return {"h": v.level, "n": op.n}


def _operator(args, out):
    op = args[0]
    return {"n": op.n, "statistics": op.statistics, "backend": op.matrix.backend}


def _cells(args, out):
    rows, cols = args[0].shape
    return {"cells": rows * cols}


# (module, attribute, span name, counts taken at the boundary)
WRAPS = [
    *[(m, "parse_matrix", "matrix.parse", None) for m in ("spinperm", "spinperm.cli")],
    *[(m, "format_complex", "matrix.format", None)
      for m in ("spinperm", "spinperm.cli", "spinperm.spectral", "spinperm.reduction",
                "spinperm.graph")],
    *[(m, "evaluate", "operator.evaluate", _operator)
      for m in ("spinperm", "spinperm.cli", "spinperm.spectral")],
    ("spinperm.operator", "apply_level", "operator.apply_level", _sweep_step),
    ("spinperm.operator", "apply_closing", "operator.apply_closing", _sweep_step),
    *[(m, "dense_operator", "operator.dense_operator", _operator)
      for m in ("spinperm.spectral", "spinperm.reduction")],
    ("spinperm.bits", "level_codes", "bits.level_codes", None),
    ("spinperm._kernels", "apply_level", "_kernels.apply_level", _kernel_level),
    ("spinperm._kernels", "apply_closing", "_kernels.apply_closing", _kernel_closing),
    *[(m, "determinant_gauss", "oracles.determinant_gauss", None)
      for m in ("spinperm", "spinperm.cli")],
    ("spinperm.rref", "rref", "rref.rref", _cells),
    ("spinperm.cli", "verify_spectrum", "spectral.verify_spectrum", None),
    ("spinperm.spectral", "build_eigenvector", "spectral.build_eigenvector", None),
    ("spinperm.cli", "reduce_fully", "reduction.reduce_fully", None),
    ("spinperm.reduction", "factor_round", "reduction.factor_round", None),
    ("spinperm.reduction", "kernel_basis", "reduction.kernel_basis", None),
    ("spinperm.cli", "graph_from_reduction", "graph.graph_from_reduction", None),
    ("spinperm.cli", "export_dot", "graph.export_dot", None),
]


def _wrap(tracer: Tracer, module, attr: str, name: str, attrs):
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        # while the span runs the attribute is the original again, so the
        # recursion inside bits.level_codes costs nothing extra and each
        # layer counts only its outer calls
        setattr(module, attr, original)
        try:
            return tracer.span(name, original, args, kwargs, attrs)
        finally:
            setattr(module, attr, wrapper)

    setattr(module, attr, wrapper)
    return module, attr, original


def install(tracer: Tracer):
    """Wrap every boundary in ``WRAPS``; returns a function that undoes it."""
    undo = [_wrap(tracer, import_module(module), attr, name, attrs)
            for module, attr, name, attrs in WRAPS]

    def uninstall():
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    return uninstall


def merge(groups: list[list[list]]) -> list[list]:
    """Concatenate span lists recorded in separate processes."""
    out: list[list] = []
    for spans in groups:
        offset = len(out)
        for s in spans:
            out.append([s[NAME], s[START], s[END],
                        s[PARENT] + offset if s[PARENT] >= 0 else -1, s[REQUEST], s[ATTRS]])
    return out


def sweeps(spans: list[list]) -> list[dict]:
    """Float sweeps with the edges their kernel calls actually processed."""
    children = _children(spans)
    out = []
    for i, s in enumerate(spans):
        attrs = s[ATTRS] or {}
        if s[NAME] != "operator.evaluate" or attrs.get("backend") != "float":
            continue
        edges = sum((spans[k][ATTRS] or {}).get("edges", 0)
                    for k in _descendants(children, i) if spans[k][NAME].startswith("_kernels."))
        out.append({"request": s[REQUEST], "n": attrs["n"],
                    "statistics": attrs["statistics"], "edges": edges})
    return out


def _children(spans):
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[PARENT]].append(i)
    return children


def _descendants(children, i):
    stack = list(children.get(i, ()))
    while stack:
        k = stack.pop()
        yield k
        stack.extend(children.get(k, ()))


def level_rows(spans: list[list]) -> list[dict]:
    """Per-level rows of the bosonic float sweeps at the largest n traced,
    averaged over those sweeps."""
    children = _children(spans)
    evals = [i for i, s in enumerate(spans)
             if s[NAME] == "operator.evaluate" and s[ATTRS]
             and s[ATTRS]["backend"] == "float" and s[ATTRS]["statistics"] == "bosonic"]
    if not evals:
        return []
    n = max(spans[i][ATTRS]["n"] for i in evals)
    evals = [i for i in evals if spans[i][ATTRS]["n"] == n]
    rows = {h: {"h": h, "states_in": 0, "states_out": 0, "edges": 0, "bytes": 0,
                "codes_s": 0.0, "kernel_s": 0.0} for h in range(n)}
    for i in evals:
        for step in children.get(i, ()):
            if not spans[step][ATTRS]:  # the step raised
                continue
            row = rows[spans[step][ATTRS]["h"]]
            for k in children.get(step, ()):
                child = spans[k]
                took = child[END] - child[START]
                if child[NAME] == "bits.level_codes":
                    row["codes_s"] += took
                elif child[NAME].startswith("_kernels.") and child[ATTRS]:
                    row["kernel_s"] += took
                    for key in ("states_in", "states_out", "edges", "bytes"):
                        row[key] = child[ATTRS][key]
    for row in rows.values():
        row["codes_s"] /= len(evals)
        row["kernel_s"] /= len(evals)
    return [rows[h] for h in range(n)]


def summarize(spans: list[list], requests: int) -> dict[str, float]:
    """Per-layer metrics, per traced request where the value is a total."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    sums = defaultdict(float)
    peak_level = 0
    for s in spans:
        took = s[END] - s[START]
        name, attrs = s[NAME], s[ATTRS] or {}
        if name == "operator.evaluate":
            name = f"operator.evaluate_{attrs.get('backend', 'raised')}"
        total[name] += took
        calls[name] += 1
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += took
        for key in ("edges", "bytes", "cells"):
            sums[key] += attrs.get(key, 0)
        if name.startswith("_kernels."):
            peak_level = max(peak_level, attrs.get("bytes", 0))
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        if s[NAME] in ("cli", "request"):
            self_time[s[NAME]] += s[END] - s[START] - child_time[i]
    kernel_s = total["_kernels.apply_level"] + total["_kernels.apply_closing"]
    per = 1.0 / max(requests, 1)
    out = {
        "cli.self_s": self_time["cli"] * per,
        "request.self_s": self_time["request"] * per,
        "matrix.parse_s": total["matrix.parse"] * per,
        "matrix.format_s": total["matrix.format"] * per,
        "operator.evaluate_float_s": total["operator.evaluate_float"] * per,
        "operator.evaluate_exact_s": total["operator.evaluate_exact"] * per,
        "operator.dense_operator_s": total["operator.dense_operator"] * per,
        "operator.dense_operator_calls": calls["operator.dense_operator"] * per,
        "operator.peak_level_bytes": peak_level,
        "bits.level_codes_s": total["bits.level_codes"] * per,
        "bits.level_codes_calls": calls["bits.level_codes"] * per,
        "_kernels.apply_level_s": total["_kernels.apply_level"] * per,
        "_kernels.apply_level_calls": calls["_kernels.apply_level"] * per,
        "_kernels.apply_closing_s": total["_kernels.apply_closing"] * per,
        "_kernels.edges": sums["edges"] * per,
        "_kernels.bytes_computed": sums["bytes"] * per,
        "_kernels.fma_per_s": sums["edges"] / kernel_s if kernel_s else 0.0,
        "_kernels.fma_per_byte": sums["edges"] / sums["bytes"] if sums["bytes"] else 0.0,
        "oracles.determinant_gauss_s": total["oracles.determinant_gauss"] * per,
        "rref.rref_s": total["rref.rref"] * per,
        "rref.rref_calls": calls["rref.rref"] * per,
        "rref.cells": sums["cells"] * per,
        "spectral.verify_spectrum_s": total["spectral.verify_spectrum"] * per,
        "spectral.build_eigenvector_s": total["spectral.build_eigenvector"] * per,
        "reduction.reduce_fully_s": total["reduction.reduce_fully"] * per,
        "reduction.kernel_basis_s": total["reduction.kernel_basis"] * per,
        "reduction.factor_round_s": total["reduction.factor_round"] * per,
        "graph.graph_from_reduction_s": total["graph.graph_from_reduction"] * per,
        "graph.export_dot_s": total["graph.export_dot"] * per,
    }
    rows = level_rows(spans)
    for h in range(LEVEL_ROWS):
        row = rows[h] if h < len(rows) else {"codes_s": 0.0, "kernel_s": 0.0}
        out[f"level.{h}.codes_s"] = row["codes_s"]
        out[f"level.{h}.kernel_s"] = row["kernel_s"]
    return out
