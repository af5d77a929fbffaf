"""Matrix parsing: one grammar check per matrix, then complex() per literal.

The float parser must accept exactly the literals ``_COMPLEX_RE`` accepts,
name the first bad one, and read every double as ``float()`` reads it.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinperm import ParseError, parse_complex_literal, parse_matrix
from spinperm import matrix as matrix_module

ACCEPTED = ["1e5", ".5", "5.", "+1-2i", "1+2j", "  -3.25E-2+.5e1i ", "\t7\t", "-0", "0-0i"]
REJECTED = ["2i", "inf", "nan", "1_0", "(1+2j)", "1+2", "j", "1e", ""]
ALL_CHARS = "".join(chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF)


def reference(token: str) -> complex:
    """The literal with each part read by float()."""
    m = matrix_module._COMPLEX_RE.match(token.strip())
    return complex(float(m["re"]), float(m["im"]) if m["im"] else 0.0)


def bits_of(values) -> list[int]:
    return np.asarray(values, dtype=np.complex128).view(np.uint64).tolist()


def square(tokens: list[str]) -> list[list[str]]:
    n = int(len(tokens) ** 0.5)
    return [tokens[r * n:(r + 1) * n] for r in range(n)]


def as_csv(rows) -> str:
    return "\n".join(",".join(row) for row in rows)


def as_json(rows) -> str:
    return json.dumps({"n": len(rows), "rows": rows})


@pytest.mark.parametrize("fmt, text", [("csv", as_csv), ("json", as_json)])
def test_accepted_literals_parse_to_float_doubles(fmt, text):
    m = parse_matrix(text(square(ACCEPTED)), fmt)
    assert bits_of(m.entries.ravel()) == bits_of([reference(t) for t in ACCEPTED])
    assert bits_of(m.entries.ravel()) == bits_of([parse_complex_literal(t) for t in ACCEPTED])


@pytest.mark.parametrize("bad", REJECTED)
@pytest.mark.parametrize("fmt, text", [("csv", as_csv), ("json", as_json)])
def test_rejected_literals_name_the_token(fmt, text, bad):
    with pytest.raises(ParseError) as single:
        parse_complex_literal(bad)
    rows = [["1", "2+3i"], [bad, "4"]]
    with pytest.raises(ParseError) as whole:
        parse_matrix(text(rows), fmt)
    assert str(whole.value) == str(single.value) == f"invalid complex literal {bad!r}"


@pytest.mark.parametrize("fmt, text", [("csv", as_csv), ("json", as_json)])
def test_first_bad_token_is_reported_before_a_ragged_row(fmt, text):
    rows = [["1", "2"], ["3", "x", "4"], ["y"]]
    with pytest.raises(ParseError, match="invalid complex literal 'x'"):
        parse_matrix(text(rows), fmt)


def test_json_entry_holding_a_comma_is_rejected():
    with pytest.raises(ParseError, match="invalid complex literal '1,2'"):
        parse_matrix(as_json([["1,2"]]), "json")


def test_json_mixes_numbers_and_literals():
    m = parse_matrix(as_json([[1, "2+1i"], [0.5, "-3"]]), "json")
    assert m.entries.tolist() == [[1, 2 + 1j], [0.5, -3]]
    with pytest.raises(ParseError, match="invalid matrix entry True"):
        parse_matrix(as_json([["1", True], ["nan", 0]]), "json")


def test_any_whitespace_pad_and_unicode_digit_parse():
    # the one-pass check takes ASCII only; every other str.isspace pad and
    # Unicode decimal digit goes token by token and reads as float() reads it
    pads = [c for c in ALL_CHARS if c.isspace()]
    rows = [[f"{c}1.5-2i{c}" for c in pads]]
    m = parse_matrix(as_json(rows * len(pads)), "json")
    assert set(m.entries.ravel().tolist()) == {1.5 - 2j}
    digits = re.findall(r"\d", ALL_CHARS)
    tokens = [f"{d}{d}.{d}e-{d}+.{d}E{d}i" for d in digits]
    tokens += ["1"] * (26**2 - len(tokens))
    m = parse_matrix(as_csv(square(tokens)), "csv")
    assert bits_of(m.entries.ravel()) == bits_of([reference(t) for t in tokens])


DIGITS = "0123456789"
mantissas = st.one_of(
    st.builds(lambda i, dot, f: i + dot + f, st.text(DIGITS, min_size=1, max_size=20),
              st.sampled_from(["", "."]), st.text(DIGITS, max_size=20)),
    st.text(DIGITS, min_size=1, max_size=20).map(lambda f: "." + f),
)
exponents = st.one_of(st.just(""), st.builds(
    lambda e, sign, d: e + sign + d, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
    st.text(DIGITS, min_size=1, max_size=2)))
floats = st.builds(str.__add__, mantissas, exponents)
imaginary = st.one_of(st.just(""), st.builds(lambda sign, f, unit: sign + f + unit,
                                             st.sampled_from("+-"), floats, st.sampled_from("ij")))
literals = st.builds(lambda pad, sign, f, im: pad + sign + f + im + pad,
                     st.sampled_from(["", " ", "\t", "\u3000", "\xa0 "]),
                     st.sampled_from(["", "+", "-"]), floats, imaginary)


@given(st.integers(1, 5).flatmap(lambda n: st.lists(literals, min_size=n * n, max_size=n * n)))
@settings(max_examples=200, deadline=None)
def test_any_literal_parses_to_float_doubles(tokens):
    expected = bits_of([reference(t) for t in tokens])
    for fmt, text in (("csv", as_csv), ("json", as_json)):
        m = parse_matrix(text(square(tokens)), fmt)
        assert bits_of(m.entries.ravel()) == expected


@given(st.lists(st.one_of(literals, st.text(DIGITS + ".eEij+-_() \t\x1f\u0663", max_size=8)),
                min_size=1, max_size=4))
@settings(max_examples=500, deadline=None)
def test_one_pass_check_accepts_the_ascii_literals_of_the_token_grammar(tokens):
    # what the one-pass check rejects goes token by token, so it must
    # accept nothing else; it takes every ASCII literal padded as complex()
    # allows, so CSV and JSON of such literals take the fast path
    joined = ",".join(tokens)
    whole = matrix_module._LITERALS_RE.fullmatch(joined) is not None
    valid = all(matrix_module._COMPLEX_RE.match(piece.strip()) for piece in joined.split(","))
    assert whole == (valid and joined.isascii() and not re.search("[\x1c-\x1f]", joined))


def test_failed_check_takes_linear_time():
    # without the possessive quantifiers, every split of each earlier
    # literal's digits would be retried: about 9**40 attempts here
    code = ("from spinperm import parse_matrix, ParseError\n"
            "row = ','.join(['123456789'] * 40 + ['x'])\n"
            "try:\n    parse_matrix('\\n'.join([row] * 41), 'csv')\n"
            "except ParseError:\n    pass\n")
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_benchmark_inputs_parse_to_the_generated_doubles():
    # perfbench's inputs write every double with repr; they must read back
    # bit for bit, CSV and JSON, seeds 1-10
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    for seed in range(1, 11):
        requests = [(r, inputs.gaussian(seed, r["id"], inputs.CLI_N))
                    for r in inputs.cli_requests(seed)]
        requests += [(r, inputs.gaussian(seed, r["id"], inputs.VERIFY_N))
                     for r in inputs.verify_jobs(seed)]
        requests += [(r, inputs.zero_one(seed, r["id"], r["n"]) if r["backend"] == "exact"
                      else inputs.gaussian(seed, r["id"], r["n"]))
                     for r in inputs.batch_requests(seed)]
        for req, arr in requests:
            backend = req.get("backend", "float")
            m = parse_matrix(req["text"], req["fmt"], backend=backend)
            if backend == "exact":
                assert [[complex(v) for v in row] for row in m.entries] == arr.tolist()
            else:
                assert bits_of(m.entries) == bits_of(arr)
