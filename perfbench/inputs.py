"""Seeded request generation for the three workloads.

Every matrix is drawn here from the workload seed with numpy's PCG64, one
independent stream per request (``default_rng([seed, index])``), and handed
to the program only as CSV or JSON text.  The mix of request kinds is fixed;
the seed changes matrix entries and request order, never the proportions,
so runs on different seeds measure the same amount of work.
"""

from __future__ import annotations

import json

import numpy as np

# Seeds 1-40 were used while this benchmark was built and tuned.  This one
# was never run then; a change that claims a gain repeats its comparison on
# it before the claim stands.
HELD_OUT_SEED = 9173

CLI_N = 20
VERIFY_N = 7
# One batch block: every (n, op) float pair for n = 4..12, plus four exact
# requests on 0/1 matrices, so 4 of 22 requests (about 1 in 6) are exact.
BATCH_FLOAT_NS = tuple(range(4, 13))
BATCH_EXACT = (("perm", 6), ("det", 8), ("perm", 10), ("det", 10))
BATCH_BLOCKS = 10
VERIFY_MATRICES = 8
VERIFY_ROUND = 4


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def gaussian(seed: int, index: int, n: int) -> np.ndarray:
    rng = _rng(seed, index)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def zero_one(seed: int, index: int, n: int) -> np.ndarray:
    return _rng(seed, index).integers(0, 2, size=(n, n)).astype(np.int64)


def literal(z) -> str:
    """``a+bi`` text that parses back to exactly the same doubles."""
    z = complex(z)
    return f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"


def to_text(arr: np.ndarray, fmt: str) -> str:
    if arr.dtype.kind == "i":
        cells = [[int(v) for v in row] for row in arr]
        if fmt == "json":
            return json.dumps({"n": len(cells), "rows": cells})
        return "\n".join(",".join(str(v) for v in row) for row in cells) + "\n"
    if fmt == "json":
        return json.dumps({"n": arr.shape[0], "rows": [[literal(v) for v in row] for row in arr]})
    return "\n".join(",".join(literal(v) for v in row) for row in arr) + "\n"


def cli_requests(seed: int) -> list[dict]:
    """Two perm and two det n=20 matrices; one round is a perm then a det."""
    out = []
    for index in range(4):
        op = ("perm", "det")[index % 2]
        fmt = ("csv", "json")[index // 2]
        out.append({"id": index, "op": op, "n": CLI_N, "backend": "float", "fmt": fmt,
                    "text": to_text(gaussian(seed, index, CLI_N), fmt)})
    return out


def batch_requests(seed: int) -> list[dict]:
    """``BATCH_BLOCKS`` blocks of 22 library requests, shuffled within a block."""
    order = np.random.default_rng([seed, 1 << 20])
    out = []
    for block in range(BATCH_BLOCKS):
        kinds = [(op, n, "float") for n in BATCH_FLOAT_NS for op in ("perm", "det")]
        kinds += [(op, n, "exact") for op, n in BATCH_EXACT]
        for k in order.permutation(len(kinds)):
            op, n, backend = kinds[k]
            index = len(out)
            fmt = ("csv", "json")[index % 2]
            arr = zero_one(seed, index, n) if backend == "exact" else gaussian(seed, index, n)
            out.append({"id": index, "block": block, "op": op, "n": n, "backend": backend,
                        "fmt": fmt, "text": to_text(arr, fmt)})
    return out


def verify_jobs(seed: int) -> list[dict]:
    """One job per matrix: spectrum, reduce and ``graph --round 4`` under
    both statistics.  Every job does the same work, so the job latencies
    form one population and their median is well defined."""
    out = []
    for index in range(VERIFY_MATRICES):
        fmt = ("csv", "json")[index % 2]
        out.append({"id": index, "n": VERIFY_N, "fmt": fmt, "round": VERIFY_ROUND,
                    "text": to_text(gaussian(seed, index, VERIFY_N), fmt)})
    return out
