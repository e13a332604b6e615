"""Scalar arithmetic: exact Gaussian rationals and floating complex numbers.

Every coefficient in the package is a ``Scalar``: either a :class:`GaussianRational`
(exact mode) or a python ``complex`` (floating mode).  Mixing the two in an
arithmetic operation silently degrades to floating, so a computation stays exact
precisely as long as all its inputs are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

__all__ = [
    "GaussianRational",
    "Scalar",
    "as_exact",
    "to_complex",
    "is_exact",
    "scalar_is_zero",
    "structural_zero",
    "frac_sqrt",
    "gr_sqrt",
    "integer_difference",
    "ZERO_TOL",
    "INT_TOL",
]

#: relative zero tolerance for floating coefficients
ZERO_TOL = 1e-12

#: integer-difference and root-merging tolerance for floating roots
INT_TOL = 1e-8

_RAT = (int, Fraction)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- conversions -------------------------------------------------------
    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    @property
    def is_rational_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, _RAT):
            return GaussianRational(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, _RAT):
            return GaussianRational(self.re - other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RAT):
            return GaussianRational(other - self.re, -self.im)
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, _RAT):
            return GaussianRational(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            n = other.re * other.re + other.im * other.im
            if n == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return self * GaussianRational(other.re / n, -other.im / n)
        if isinstance(other, _RAT):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return GaussianRational(self.re / other, self.im / other)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RAT):
            return GaussianRational(other) / self
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons -------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RAT):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


Scalar = Union[GaussianRational, complex]


def as_exact(value) -> GaussianRational:
    """Coerce ints, Fractions, strings like ``"3/4"`` or pairs to a GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction, str)):
        return GaussianRational(Fraction(value))
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return GaussianRational(Fraction(value[0]), Fraction(value[1]))
    raise TypeError(f"cannot coerce {value!r} to an exact scalar")


def to_complex(s: Scalar) -> complex:
    return complex(s)


def is_exact(s: Scalar) -> bool:
    return isinstance(s, GaussianRational)


def scalar_is_zero(s: Scalar, scale: float = 1.0) -> bool:
    """Zero test: exact equality in exact mode, relative tolerance in floating mode.

    `scale` is the running maximum magnitude of the surrounding computation.
    """
    if isinstance(s, GaussianRational):
        return not bool(s)
    return abs(complex(s)) <= ZERO_TOL * max(1.0, scale)


def structural_zero(s: Scalar) -> bool:
    """Zero test with no tolerance: exactly zero in exact mode, equal to 0
    in floating mode."""
    if isinstance(s, GaussianRational):
        return not s
    return s == 0


def integer_difference(a: Scalar, b: Scalar, tol: float = INT_TOL) -> Optional[int]:
    """a - b when it is a (near-)integer, else None."""
    if is_exact(a) and is_exact(b):
        d = a - b
        if d.is_rational_integer:
            return int(d.re)
        return None
    d = to_complex(a) - to_complex(b)
    if abs(d.imag) <= tol and abs(d.real - round(d.real)) <= tol:
        return int(round(d.real))
    return None


def frac_sqrt(f: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if f < 0:
        return None
    num, den = f.numerator, f.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def gr_sqrt(w: GaussianRational) -> Optional[GaussianRational]:
    """Exact square root of a Gaussian rational, or None when it leaves the field."""
    if w.im == 0:
        if w.re >= 0:
            r = frac_sqrt(w.re)
            return GaussianRational(r) if r is not None else None
        r = frac_sqrt(-w.re)
        return GaussianRational(0, r) if r is not None else None
    norm = frac_sqrt(w.re * w.re + w.im * w.im)
    if norm is None:
        return None
    half = (w.re + norm) / 2
    re = frac_sqrt(half)
    if re is None or re == 0:
        return None
    im = w.im / (2 * re)
    cand = GaussianRational(re, im)
    if cand * cand == w:
        return cand
    return None
