"""Exact complex rational scalar for the ground-truth backend."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with big-rational real and imaginary parts.

    Closed under +, -, * and / (nonzero divisor) with no rounding, which is
    what makes it usable as an oracle backend on integer and decimal inputs.
    """

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re, im=0) -> "ExactComplex":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        # a sweep multiplies many zero amplitudes on sparse inputs; a zero
        # factor skips the four Fraction products
        if not (self.re or self.im) or not (other.re or other.im):
            return EXACT_ZERO
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "ExactComplex") -> "ExactComplex":
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by exact complex zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()


EXACT_ZERO = ExactComplex.of(0)
EXACT_ONE = ExactComplex.of(1)
