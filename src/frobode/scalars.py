"""Scalar arithmetic: exact Gaussian rationals and floating complex numbers.

Every coefficient in the package is a ``Scalar``: either a :class:`GaussianRational`
(exact mode) or a python ``complex`` (floating mode).  An operation on one of
each returns a complex number.  A series holds one kind (see series.py): it is
exact when every coefficient is, and mixing promotes it to complex, so a
computation stays exact precisely as long as all its inputs are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

__all__ = [
    "GaussianRational",
    "Scalar",
    "as_exact",
    "to_complex",
    "is_exact",
    "scalar_is_zero",
    "zero_threshold",
    "frac_sqrt",
    "gr_sqrt",
    "integer_difference",
    "poly_eval",
    "poly_mul",
    "poly_divide_linear",
    "poly_derivative",
    "poly_divmod",
    "ZERO_TOL",
    "INT_TOL",
    "RESIDUAL_TOL",
    "NEWTON_TOL",
]

# -- the float tolerance table ----------------------------------------------

#: relative zero tolerance for floating coefficients
ZERO_TOL = 1e-12
#: integer-difference tolerance for floating roots and exponents: the one
#: that merges them and finds their resonances
INT_TOL = 1e-8
#: relative size above which a floating residual coefficient is non-zero
RESIDUAL_TOL = 1e-9
#: smallest derivative a floating Newton step divides by
NEWTON_TOL = 1e-14

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

_ZERO = GaussianRational(0)


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


def zero_threshold(scale: float = 1.0) -> float:
    """The largest magnitude of a floating zero, against a running magnitude `scale`."""
    return ZERO_TOL * max(1.0, scale)


def scalar_is_zero(s: Scalar, scale: float = 1.0) -> bool:
    """Zero test: exact equality in exact mode, `zero_threshold` in floating mode."""
    if isinstance(s, GaussianRational):
        return not bool(s)
    return abs(complex(s)) <= zero_threshold(scale)


def integer_difference(a: Scalar, b: Scalar) -> Optional[int]:
    """a - b when it is a (near-)integer, else None."""
    if is_exact(a) and is_exact(b):
        if a.im != b.im:
            return None
        d = a.re - b.re
        return int(d) if d.denominator == 1 else None
    d = to_complex(a) - to_complex(b)
    if abs(d.imag) <= INT_TOL and abs(d.real - round(d.real)) <= INT_TOL:
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


# ---------------------------------------------------------------------------
# polynomial helpers: sequences of scalars, lowest power first
# ---------------------------------------------------------------------------


def poly_eval(p: Sequence, z):
    """p(z) by Horner's rule from the leading coefficient; 0 for no coefficient.
    The coefficients and z may be scalars, Fractions or series."""
    if not p:
        return 0
    acc = p[-1]
    for c in p[-2::-1]:
        acc = acc * z + c
    return acc


def poly_mul(p: Sequence, q: Sequence) -> list:
    """The product of two polynomials; zero coefficients add no term."""
    out = [_ZERO] * (len(p) + len(q) - 1)
    qs = [(j, b) for j, b in enumerate(q) if b]
    for i, a in enumerate(p):
        if a:
            for j, b in qs:
                out[i + j] = out[i + j] + a * b
    return out


def poly_divide_linear(p: Sequence, root) -> tuple[list, object]:
    """(q, r) with p(w) = (w - root) q(w) + r, by synthetic division."""
    if not root:  # division by w
        return list(p[1:]), p[0]
    q = list(p[1:])
    for i in range(len(q) - 2, -1, -1):
        q[i] = q[i] + root * q[i + 1]
    return q, (p[0] + root * q[0] if q else p[0])


def poly_derivative(p: Sequence) -> list:
    """The derivative's coefficients; none for a constant."""
    return [k * p[k] for k in range(1, len(p))]


def poly_divmod(p: Sequence, q: Sequence) -> tuple[list, list]:
    """(quotient, remainder) of p by q over Q or Q(i) (low power first, q's top
    coefficient non-zero); the remainder drops its zero top coefficients."""
    r, quo = list(p), [_ZERO] * max(len(p) - len(q) + 1, 0)
    while len(r) >= len(q):
        off = len(r) - len(q)
        quo[off] = f = r[-1] / q[-1]
        r = [x - f * c for x, c in zip(r[:-1], [_ZERO] * off + list(q))]
        while r and r[-1] == 0:
            r.pop()
    return quo, r
