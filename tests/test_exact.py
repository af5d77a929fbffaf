from fractions import Fraction

import pytest

from spinperm import ExactComplex
from spinperm.exact import EXACT_ZERO


def test_field_operations():
    a = ExactComplex.of(Fraction(1, 3), 2)
    b = ExactComplex.of(-1, Fraction(1, 2))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert -(-a) == a


def test_division_matches_float():
    a = ExactComplex.of(3, 4)
    b = ExactComplex.of(1, -2)
    assert abs(complex(a / b) - complex(a) / complex(b)) < 1e-15


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        ExactComplex.of(1) / ExactComplex.of(0)


def test_zero_and_truthiness():
    assert not ExactComplex.of(0)
    assert ExactComplex.of(0, 1)
    assert ExactComplex.of(0).is_zero()


def test_zero_factor_gives_the_exact_zero():
    x = ExactComplex.of(Fraction(-7, 3), Fraction(5, 2))
    zero = ExactComplex.of(0)
    for product in (zero * x, x * zero, zero * zero):
        assert product is EXACT_ZERO
    # the product the four Fraction products give
    assert EXACT_ZERO == ExactComplex(zero.re * x.re - zero.im * x.im,
                                      zero.re * x.im + zero.im * x.re)
