import numpy as np
import pytest

from spinperm import (
    ExactComplex,
    ParseError,
    SquareMatrix,
    format_complex,
    matrix_to_csv,
    matrix_to_json,
    parse_complex_literal,
    parse_matrix,
    random_matrix,
)


def test_parse_identity_csv():
    m = parse_matrix("1,0\n0,1", "csv")
    assert m.n == 2
    assert np.array_equal(m.entries, np.eye(2))


def test_parse_complex_literals():
    m = parse_matrix("1+2i,3\n0,4-1i", "csv")
    assert m.weight(0, 0) == 1 + 2j
    assert m.weight(0, 1) == 3
    assert m.weight(1, 1) == 4 - 1j


def test_parse_accepts_j_suffix_emits_i():
    assert parse_complex_literal("2+3j") == 2 + 3j
    assert format_complex(2 + 3j) == "2.0+3.0i"
    assert format_complex(1.5 - 2j) == "1.5-2.0i"
    assert format_complex(4.0) == "4.0"


def test_ragged_rows_rejected():
    with pytest.raises(ParseError, match="row 1"):
        parse_matrix("1,2\n3", "csv")


def test_bad_token_rejected():
    with pytest.raises(ParseError, match="nope"):
        parse_matrix("1,nope\n2,3", "csv")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_matrix("", "csv")
    with pytest.raises(ParseError):
        parse_matrix("  \n ", "csv")


def test_json_roundtrip():
    m = random_matrix(3, 11, "complex_gaussian")
    again = parse_matrix(matrix_to_json(m), "json")
    assert np.allclose(m.entries, again.entries)


def test_csv_roundtrip():
    m = random_matrix(4, 2, "complex_gaussian")
    again = parse_matrix(matrix_to_csv(m), "csv")
    assert np.allclose(m.entries, again.entries)


def test_json_declared_n_mismatch():
    with pytest.raises(ParseError, match="declared n"):
        parse_matrix('{"n": 3, "rows": [[1, 0], [0, 1]]}', "json")


@pytest.mark.parametrize("declared", ["true", "1.0"])
def test_json_declared_n_must_be_an_integer(declared):
    # True == 1.0 == 1, so either once passed as the 1x1 matrix's n
    with pytest.raises(ParseError, match="declared n must be an integer, got "):
        parse_matrix(f'{{"n": {declared}, "rows": [[2]]}}', "json")


def test_exact_parse_is_exact():
    m = parse_matrix("0.1,1\n2,3", "csv", backend="exact")
    entry = m.weight(0, 0)
    assert isinstance(entry, ExactComplex)
    assert entry.re.numerator == 1 and entry.re.denominator == 10


def test_nonfinite_rejected():
    with pytest.raises(ParseError):
        SquareMatrix.from_array(np.array([[np.inf, 0], [0, 1]]))


def test_random_matrix_deterministic():
    a = random_matrix(3, 7, "zero_one")
    b = random_matrix(3, 7, "zero_one")
    assert np.array_equal(a.entries, b.entries)
    assert set(np.unique(a.entries.real)) <= {0.0, 1.0}


def test_random_matrix_smallest_case():
    m = random_matrix(1, 0, "complex_gaussian")
    assert m.n == 1 and m.entries.shape == (1, 1)


def test_random_matrix_uniform_range():
    m = random_matrix(4, 1, "real_uniform")
    assert np.all(m.entries.real >= 0) and np.all(m.entries.real < 1)
    assert np.all(m.entries.imag == 0)


def test_random_matrix_exact_requires_rational():
    with pytest.raises(ValueError):
        random_matrix(3, 0, "complex_gaussian", backend="exact")
    m = random_matrix(3, 0, "zero_one", backend="exact")
    assert isinstance(m.weight(0, 0), ExactComplex)


def test_transpose():
    m = random_matrix(3, 5, "complex_gaussian")
    t = m.transpose()
    assert np.allclose(t.entries, m.entries.T)
