"""Input matrix representation, parsing, and seeded generation."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParseError
from .exact import ExactComplex

_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^(?P<re>[+-]?{_FLOAT})(?:(?P<im>[+-]{_FLOAT})[ij])?$"
)
# ``_COMPLEX_RE``'s literals with ASCII digits, joined by commas and each
# padded with the ASCII whitespace that complex() strips, so one fullmatch
# checks a whole matrix (a Unicode ``\d`` is slower per character than
# ``[0-9]``).  What it rejects goes literal by literal (``_float_entries``).
# Every quantifier is possessive: what follows a run never starts with
# what the run takes (a digit, a dot, an exponent, a sign, a pad), so
# giving some back loses no match.  That keeps a failed match from
# re-splitting the digits of every literal before it, which would take
# exponential time, and makes a match about a third faster than atomic
# groups around backtracking quantifiers.
_ASCII_FLOAT = r"(?:[0-9]++(?:\.[0-9]*+)?+|\.[0-9]++)(?:[eE][+-]?+[0-9]++)?+"
_ASCII_LITERAL = rf"[+-]?+{_ASCII_FLOAT}(?:[+-]{_ASCII_FLOAT}[ij])?+"
_PAD = r"[ \t\n\r\f\v]*+"
_LITERALS_RE = re.compile(
    rf"{_PAD}{_ASCII_LITERAL}{_PAD}(?:,{_PAD}{_ASCII_LITERAL}{_PAD})*+"
)

GENERATOR_KINDS = ("complex_gaussian", "real_uniform", "zero_one")


def parse_complex_literal(token: str, backend: str = "float"):
    """Parse ``a``, ``a+bi`` or ``a-bj`` into a scalar of the given backend."""
    m = _COMPLEX_RE.match(token.strip())
    if m is None:
        raise ParseError(f"invalid complex literal {token.strip()!r}")
    if backend == "exact":
        im_part = m.group("im")
        return ExactComplex(
            Fraction(m.group("re")), Fraction(im_part) if im_part else Fraction(0)
        )
    # complex() reads each part with the strtod that float() uses
    return complex(m.group().replace("i", "j"))


def format_complex(value) -> str:
    """Render a scalar as ``a+bi`` (pure reals stay as ``a``); a zero real
    part prints as ``0.0`` whatever its sign."""
    if isinstance(value, ExactComplex):
        value = complex(value)
    value = complex(value)
    re_txt = repr(value.real + 0.0)
    if value.imag == 0.0:
        return re_txt
    sign = "+" if value.imag >= 0 else "-"
    return f"{re_txt}{sign}{repr(abs(value.imag))}i"


@dataclass(frozen=True)
class SquareMatrix:
    """n x n weight matrix; entry(r, c) is the level-r, site-c edge weight.

    ``entries`` is an (n, n) array: complex128 for the float backend, or
    objects holding ExactComplex for the exact backend.  Both backends index,
    slice and transpose it alike; ``weight`` returns a Python complex or an
    ExactComplex.
    """

    n: int
    entries: np.ndarray
    backend: str = "float"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix dimension must be >= 1")
        if self.backend not in ("float", "exact"):
            raise ValueError(f"unknown backend {self.backend!r}")
        arr = self.entries
        if not isinstance(arr, np.ndarray) or arr.shape != (self.n, self.n):
            raise ValueError(f"{self.backend} backend entries must be an (n, n) array")
        if self.backend == "float" and not np.isfinite(arr).all():
            raise ParseError("matrix entries must be finite")

    @classmethod
    def from_array(cls, arr) -> "SquareMatrix":
        arr = np.asarray(arr, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("expected a square 2-d array")
        return cls(arr.shape[0], arr, "float")

    @classmethod
    def from_exact_rows(cls, rows) -> "SquareMatrix":
        return cls(len(rows), np.array(rows, dtype=object), "exact")

    def weight(self, r: int, c: int):
        return self.entries.item(r, c)

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.complex128)

    def to_float(self) -> "SquareMatrix":
        return SquareMatrix.from_array(self.to_array())

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(self.n, self.entries.T, self.backend)


def _rows_to_matrix(rows, backend: str) -> SquareMatrix:
    """CSV token rows or JSON rows as a matrix.

    Every entry is converted before the shape is checked, so the first bad
    entry in reading order is reported before a ragged row.
    """
    if backend == "exact":
        entries = [[_entry_scalar(v, backend) for v in row] for row in rows]
    else:
        entries = _float_entries(rows)
    n = len(rows)
    if n == 0:
        raise ParseError("empty matrix input")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(f"ragged row {i}: expected {n} entries, got {len(row)}")
    if backend == "exact":
        return SquareMatrix.from_exact_rows(entries)
    return SquareMatrix.from_array(np.array(entries, dtype=np.complex128).reshape(n, n))


def _float_entries(rows) -> list[complex]:
    """Every entry of ``rows`` as a complex, in reading order.

    When every entry is an ASCII literal, as ``matrix_to_csv`` and
    ``matrix_to_json`` write them, one ``_LITERALS_RE`` match over their
    comma-joined text checks them all (``_literals``).  Anything else (JSON
    numbers, non-ASCII digits or padding, a bad entry) goes entry by entry
    through ``parse_complex_literal``, which names the first bad one.
    """
    try:
        joined = ",".join(map(",".join, rows))
    except TypeError:  # a non-string JSON entry
        joined = None
    if joined is not None:
        literals = _literals(joined, sum(map(len, rows)))  # no entry held a comma
        if literals is not None:
            return literals
    return [_entry_scalar(v, "float") for row in rows for v in row]


def _literals(joined: str, count: int) -> list[complex] | None:
    """The ``count`` comma-separated literals of ``joined`` as complex, or
    None unless ``_LITERALS_RE`` matches it whole and it holds ``count``."""
    if not _LITERALS_RE.fullmatch(joined):
        return None
    literals = joined.replace("i", "j").split(",")
    if len(literals) != count:
        return None
    # complex() reads each part with the strtod that float() uses
    return list(map(complex, literals))


def _entry_scalar(value, backend: str):
    if isinstance(value, str):
        return parse_complex_literal(value, backend)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"invalid matrix entry {value!r}")
    # json.loads reads 1e400 as inf and NaN and Infinity as they are
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError("matrix entries must be finite")
    if backend == "exact":
        frac = Fraction(value) if isinstance(value, int) else Fraction(repr(value))
        return ExactComplex(frac)
    try:
        return complex(value)
    except OverflowError:  # a JSON integer beyond the double range
        raise ParseError("matrix entries must be finite") from None


def parse_matrix(source: str, format: str = "csv", backend: str = "float") -> SquareMatrix:
    """Parse a CSV or JSON matrix blob.

    CSV: one row per line, comma-separated complex literals.
    JSON: ``{"n": int, "rows": [[entry, ...], ...]}`` with numeric or
    string entries.
    """
    if format == "csv":
        lines = [ln for ln in source.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty matrix input")
        n = len(lines)
        # a square float matrix of ASCII literals: its lines joined by commas
        # are its entries, checked by one match; anything else is split into
        # rows, which names the first bad entry or the first ragged row
        if backend == "float" and all(ln.count(",") == n - 1 for ln in lines):
            literals = _literals(",".join(lines), n * n)
            if literals is not None:
                return SquareMatrix.from_array(np.array(literals, dtype=np.complex128).reshape(n, n))
        return _rows_to_matrix([ln.split(",") for ln in lines], backend)
    if format == "json":
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "rows" not in doc:
            raise ParseError("JSON matrix must be an object with a 'rows' field")
        rows = doc["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ParseError("JSON 'rows' must be a list of lists of entries")
        matrix = _rows_to_matrix(rows, backend)
        declared = doc.get("n", matrix.n)
        if type(declared) is not int:  # True == 1.0 == 1, and bool is an int
            raise ParseError(f"declared n must be an integer, got {declared!r}")
        if declared != matrix.n:
            raise ParseError(f"declared n={declared} but parsed {matrix.n} rows")
        return matrix
    raise ParseError(f"unknown matrix format {format!r}")


def matrix_to_csv(matrix: SquareMatrix) -> str:
    lines = []
    for r in range(matrix.n):
        lines.append(",".join(format_complex(matrix.weight(r, c)) for c in range(matrix.n)))
    return "\n".join(lines) + "\n"


def matrix_to_json(matrix: SquareMatrix) -> str:
    rows = [
        [format_complex(matrix.weight(r, c)) for c in range(matrix.n)]
        for r in range(matrix.n)
    ]
    return json.dumps({"n": matrix.n, "rows": rows})


def random_matrix(
    n: int, seed: int, kind: str = "complex_gaussian", backend: str = "float"
) -> SquareMatrix:
    """Deterministic seeded test matrix.

    ``complex_gaussian`` draws independent standard normals for the real and
    imaginary parts; ``real_uniform`` draws from [0, 1); ``zero_one`` draws
    uniform bits.  Only ``zero_one`` supports the exact backend.
    """
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "complex_gaussian":
        arr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    elif kind == "real_uniform":
        arr = rng.random((n, n)).astype(np.complex128)
    else:
        arr = rng.integers(0, 2, size=(n, n)).astype(np.complex128)
    if backend == "exact":
        if kind != "zero_one":
            raise ValueError("exact backend requires rational entries (use zero_one)")
        rows = [
            [ExactComplex.of(int(arr[r, c].real)) for c in range(n)] for r in range(n)
        ]
        return SquareMatrix.from_exact_rows(rows)
    return SquareMatrix.from_array(arr)
