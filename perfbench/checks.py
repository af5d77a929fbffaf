"""Correctness gates, applied to every output after the timed region.

Each ``check_*`` function returns ``None`` for a correct output or a short
reason for a failed one.  A miss against the reference, a non-zero exit
code, a raised error or a non-finite value all count as failures.  The
tolerances are the repository's own, loosened nowhere:

* float permanents and determinants: 1e-11 relative up to n=8
  (acceptance criteria 1 and 2), 1e-9 above (criterion 9 and the ``det``
  command's default);
* exact-backend results: exact equality with exact Ryser or exact
  elimination;
* ``spectrum``: the reported value within 1e-8 of the sweep and every
  residual within 1e-8 (criterion 4, the command's default);
* ``reduce``: ``final_product`` within 1e-9 of perm or det (criteria 6, 7a).
"""

from __future__ import annotations

import cmath
import json
import time
from fractions import Fraction

import spinperm as sp
from spinperm.graph import parse_dot

DET_COMMAND_TOL = 1e-9
SPECTRUM_TOL = 1e-8
REDUCE_TOL = 1e-9
STATISTICS = {"perm": "bosonic", "det": "fermionic"}


def value_tol(n: int) -> float:
    return 1e-11 if n <= 8 else 1e-9


def rel_err(a, b) -> float:
    a, b = complex(a), complex(b)
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def parse_value(text: str) -> complex:
    return complex(text.replace("i", "j"))


def finite(z: complex) -> bool:
    return cmath.isfinite(z)


class References:
    """Reference values per request id, computed once and cached.

    Also keeps the time spent in ``permanent_ryser`` on float matrices of
    the largest n seen, and the largest relative error accepted.
    """

    def __init__(self):
        self._cache: dict = {}
        self.ryser_times: dict[int, list[float]] = {}
        self.max_rel_err = 0.0

    def matrix(self, req: dict):
        return sp.parse_matrix(req["text"], req["fmt"], backend=req.get("backend", "float"))

    def get(self, req: dict, statistics: str | None = None):
        """perm (Ryser) or det (elimination) of the request's matrix."""
        statistics = statistics or STATISTICS[req["op"]]
        key = (req["id"], statistics)
        if key not in self._cache:
            self._cache[key] = self._compute(req, statistics)
        return self._cache[key]

    def _compute(self, req: dict, statistics: str):
        matrix = self.matrix(req)
        if statistics == "fermionic":
            return sp.determinant_gauss(matrix)
        start = time.perf_counter()
        value = sp.permanent_ryser(matrix)
        if matrix.backend == "float":
            self.ryser_times.setdefault(matrix.n, []).append(time.perf_counter() - start)
        return value

    def sweep(self, req: dict, statistics: str) -> complex:
        key = ("sweep", req["id"], statistics)
        if key not in self._cache:
            op = sp.SpinOperator(self.matrix(req), "breve", statistics)
            self._cache[key] = complex(sp.evaluate(op)[0])
        return self._cache[key]

    def ryser_s(self) -> float:
        if not self.ryser_times:
            return 0.0
        times = self.ryser_times[max(self.ryser_times)]
        return sum(times) / len(times)

    def within(self, value, reference, tol: float) -> bool:
        err = rel_err(value, reference)
        if err <= tol:
            self.max_rel_err = max(self.max_rel_err, err)
            return True
        return False


def _float_value(req: dict, value: complex, refs: References) -> str | None:
    if not finite(value):
        return f"non-finite value {value}"
    if not refs.within(value, refs.get(req), value_tol(req["n"])):
        return f"{req['op']} misses its reference (rel {rel_err(value, refs.get(req)):.2e})"
    return None


def check_cli(req: dict, code: int, stdout: str, refs: References) -> str | None:
    """One ``perm``/``det --format json`` process."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
        value = parse_value(doc["permanent" if req["op"] == "perm" else "determinant"])
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
    n = req["n"]
    if doc["total_ops"] != n * 2**n:
        return f"total_ops {doc['total_ops']} != n*2**n"
    return _float_value(req, value, refs)


def check_library(req: dict, out: dict, refs: References) -> str | None:
    """One README-library request from the batch worker."""
    if "error" in out:
        return out["error"]
    n = req["n"]
    if out["total_ops"] != n * 2**n:
        return f"total_ops {out['total_ops']} != n*2**n"
    if req["op"] == "det" and not out["relative_difference"] <= DET_COMMAND_TOL:
        return f"det cross-check rel {out['relative_difference']}"
    try:
        if req["backend"] == "exact":
            got = tuple(Fraction(x) for x in out["exact"])
        else:
            value = parse_value(out["value"])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return f"unreadable value: {exc!r}"
    if req["backend"] == "exact":
        ref = refs.get(req)
        return None if got == (ref.re, ref.im) else f"exact {req['op']} != exact reference"
    return _float_value(req, value, refs)


def check_verify(job: dict, out: dict, refs: References) -> str | None:
    """One verification job: spectrum, reduce and graph --round k under
    both statistics."""
    if "error" in out:
        return out["error"]
    for statistics in ("bosonic", "fermionic"):
        reason = _check_verify_half(job, statistics, out[statistics], refs)
        if reason:
            return f"{statistics}: {reason}"
    return None


def _check_verify_half(job: dict, statistics: str, out: dict, refs: References) -> str | None:
    for name in ("spectrum", "reduce", "graph"):
        if out[name]["code"] != 0:
            return f"{name} exit code {out[name]['code']}: {out[name]['stderr']}"
    n = job["n"]
    try:
        spectrum = json.loads(out["spectrum"]["stdout"])
        reduce = json.loads(out["reduce"]["stdout"])
        value = parse_value(spectrum["permanent"])
        product = parse_value(reduce["final_product"])
        dimension = reduce["rounds"][job["round"] - 1]["dimension"]
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    if not (finite(value) and finite(product)):
        return "non-finite value"
    if not refs.within(value, refs.sweep(job, statistics), SPECTRUM_TOL):
        return "spectrum value differs from the sweep"
    if any(not pair["residual"] <= SPECTRUM_TOL for pair in spectrum["eigenpairs"]):
        return "spectrum residual above tolerance"
    if spectrum["rank"] != n or spectrum["nullity"] != 2**n - 1 - n:
        return f"spectrum rank {spectrum['rank']} nullity {spectrum['nullity']}"
    if not refs.within(product, refs.get(job, statistics), REDUCE_TOL):
        return "reduce final_product misses perm/det"
    nodes, edges = parse_dot(out["graph"]["stdout"])
    if len(nodes) != 1 + dimension:
        return f"graph round {job['round']} has {len(nodes)} nodes, reduce says {dimension} + sink"
    level = {node: (n if node == "sink" else label.count("1")) for node, label in nodes}
    if any(level[t] != level[s] + 1 for s, t, _ in edges):
        return "graph edge does not step one level"
    return None


def check_sweeps(sweeps: list[dict], total_ops: dict) -> str | None:
    """Observed edges at the kernel boundary against n*2**n and the count
    the program reported for the same request (one multiply and one add per
    edge, so the counted operations are twice the edges)."""
    for sweep in sweeps:
        n, ops = sweep["n"], 2 * sweep["edges"]
        if ops != n * 2**n:
            return f"observed {ops} ops on an n={n} sweep, expected {n * 2**n}"
        reported = total_ops.get(sweep["request"])
        if reported is not None and reported != ops:
            return f"observed {ops} ops but the program reported {reported}"
    return None
