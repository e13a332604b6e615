"""Indicial polynomial, root extraction and exceptional-case taxonomy."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .ode import FrobeniusForm
from .scalars import (INT_TOL, NEWTON_TOL, GaussianRational, Scalar, gr_sqrt,
                      integer_difference, is_exact, poly_derivative, poly_divide_linear,
                      poly_eval, to_complex)

__all__ = [
    "IndicialData",
    "CaseTag",
    "indicial_polynomial",
    "solve_roots",
    "classify_case",
    "integer_difference",
    "INT_TOL",
    "congruence_classes",
]

#: most exact Newton steps spent refining one numpy root towards a
#: rational root; a converging start stops after two or three
_NEWTON_STEPS = 8
#: a prime p = 5 (mod 8), so 2 is not a square and _I^2 = -1 (mod p):
#: a + bi -> a + b _I maps the dyadic Gaussian rationals, every float among
#: them, to Z/p as a ring, and a discriminant with a non-zero image is not 0
_P = 2 ** 64 - 59
_I = pow(2, (_P - 1) // 4, _P)

_ONE = GaussianRational(1)


@dataclass(frozen=True)
class CaseTag:
    """Exceptional-case tag: which equalities / integer gaps the roots exhibit."""

    tag: str  # non_exceptional | o2_equal | o2_integer_diff | case_i .. case_iv | mixed
    m: Optional[int] = None
    p: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        args = [str(v) for v in (self.m, self.p) if v is not None]
        return self.tag + (f"({', '.join(args)})" if args else "")


@dataclass(frozen=True)
class IndicialData:
    poly: tuple  # scalar coefficients of q(r), low power first, monic
    roots: tuple  # ordered Re(r1) >= Re(r2) [>= Re(r3)], ties by decreasing Im
    case: CaseTag
    exact: bool  # whether the roots are exact Gaussian rationals


def indicial_polynomial(f: FrobeniusForm) -> tuple:
    """q(r) for the Frobenius form, monic, low power first."""
    b0, c0 = f.b[0], f.c[0]
    if f.order == 2:
        # r(r-1) + b0 r + c0
        return (c0, b0 - 1, _ONE)
    a0 = f.a[0]
    # r(r-1)(r-2) + a0 r(r-1) + b0 r + c0
    return (c0, GaussianRational(2) - a0 + b0, a0 - GaussianRational(3), _ONE)


def _discriminant(p: Sequence):
    """A multiple of the discriminant of a monic quadratic or cubic (low
    power first): zero exactly when a root repeats."""
    if len(p) == 3:
        return p[1] * p[1] - 4 * p[0]
    c, b, a, _ = p
    aa = a * a  # a^2 b^2 - 4b^3 - 4a^3 c - 27c^2 + 18abc
    return b * b * (aa - 4 * b) + c * (18 * a * b - 4 * aa * a - 27 * c)


def _image(z: complex) -> int:
    """z in Z/_P, its parts read as dyadic rationals and i as _I."""
    (n, d), (m, e) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    return n * pow(d, -1, _P) + _I * m * pow(e, -1, _P)


def _cubic_root(poly: Sequence[GaussianRational]) -> Optional[GaussianRational]:
    """A root in Q(i) of a monic cubic r^3 + ar^2 + br + c, or None.

    A repeated root is (9c - ab) / 2(a^2 - 3b), or -a/3 when a^2 = 3b (a
    triple root).  For a square-free cubic with real-rational coefficients,
    each numpy root's real part is refined by exact Newton steps until a
    step is below 1/(2 lead^2), lead the leading coefficient of P over
    integers; the iterates are rounded to a grid finer than 1/(4 lead^2),
    which keeps their size bounded when a start does not converge.  A step
    that small leaves the iterate nearer to a rational root p/q (q | lead)
    than to any other fraction with denominator at most lead, and that
    nearest fraction is accepted only if it is an exact root.
    """
    c, b, a, _ = poly
    if not _discriminant(poly):
        w = a * a - 3 * b
        return (9 * c - a * b) / (2 * w) if w else -a / 3
    if any(x.im != 0 for x in poly):
        return None
    fracs = [x.re for x in poly]
    if fracs[0] == 0:
        return GaussianRational(0)
    dfracs = poly_derivative(fracs)
    lead = lcm(*(f.denominator for f in fracs))
    tol = Fraction(1, 2 * lead * lead)
    grid = 1 << (2 * lead.bit_length() + 2)
    for z in np.roots([float(f) for f in reversed(fracs)]):
        x = Fraction(float(z.real))
        for _ in range(_NEWTON_STEPS):
            dp = poly_eval(dfracs, x)
            if dp == 0:
                break
            step = poly_eval(fracs, x) / dp
            x = Fraction(round((x - step) * grid), grid)
            if abs(step) < tol:
                break
        cand = x.limit_denominator(lead)
        if poly_eval(fracs, cand) == 0:
            return GaussianRational(cand)
    return None


def _order_key(r: Scalar):
    z = to_complex(r)
    return (-z.real, -z.imag)


def solve_roots(poly: Sequence[Scalar]) -> tuple[tuple, bool]:
    """All roots of a degree-2/3 monic polynomial, ordered by decreasing real
    part (ties: decreasing imaginary part).  Returns (roots, exact_flag).

    A root repeats exactly when the discriminant is zero, and every root then
    lies in Q(i).  Float input is read exactly (a float is a dyadic rational)
    unless the discriminant's image mod `_P` is non-zero.  The roots found in
    Q(i), by `_cubic_root` and from a quadratic's discriminant, are kept, and
    numpy with two Newton steps takes the rest."""
    poly = list(poly)
    exact_in = all(is_exact(c) for c in poly)
    work = poly if exact_in else [to_complex(c) for c in poly]
    if not exact_in and _discriminant(list(map(_image, work))) % _P == 0:
        work = [GaussianRational(z.real, z.imag) for z in work]
    roots: list[Scalar] = []
    if is_exact(work[0]):
        if len(work) == 4 and (r := _cubic_root(work)) is not None:
            roots, work = [r], poly_divide_linear(work, r)[0]
        if len(work) == 3 and (s := gr_sqrt(_discriminant(work))) is not None:
            roots, work = roots + [(s - work[1]) / 2, (-s - work[1]) / 2], work[2:]
        work = [to_complex(c) for c in work]
    # the rest: companion matrix + two Newton polish steps
    if len(work) > 1:
        dpoly = poly_derivative(work)
        for z in np.roots(list(reversed(work))):
            z = complex(z)
            for _ in range(2):
                dp = poly_eval(dpoly, z)
                if abs(dp) > NEWTON_TOL:
                    z = z - poly_eval(work, z) / dp
            roots.append(z)
    roots = roots if exact_in else [complex(r) for r in roots]
    return tuple(sorted(roots, key=_order_key)), exact_in and all(map(is_exact, roots))


def classify_case(roots: Sequence[Scalar]) -> CaseTag:
    """Detect the equal-root / integer-gap configuration of the ordered roots."""
    roots = list(roots)
    if len(roots) == 2:
        d = integer_difference(roots[0], roots[1])
        if d == 0:
            return CaseTag("o2_equal")
        if d is not None and d > 0:
            return CaseTag("o2_integer_diff", m=d)
        return CaseTag("non_exceptional")
    r1, r2, r3 = roots
    d12 = integer_difference(r1, r2)
    d23 = integer_difference(r2, r3)
    d13 = integer_difference(r1, r3)
    if d12 == 0 and d23 == 0:
        return CaseTag("case_i")
    if d12 == 0 and d23 is not None and d23 > 0:
        return CaseTag("case_ii", m=d23)
    if d23 == 0 and d12 is not None and d12 > 0:
        return CaseTag("case_iii", m=d12)
    if d12 is not None and d12 > 0 and d23 is not None and d23 > 0:
        return CaseTag("case_iv", m=d12, p=d23)
    if d12 == 0:
        return CaseTag("mixed", detail="r1=r2, r3 non-congruent")
    if d23 == 0:
        return CaseTag("mixed", detail="r2=r3, r1 non-congruent")
    if d12 is not None and d12 > 0:
        return CaseTag("mixed", m=d12, detail="r1-r2 integer, r3 non-congruent")
    if d23 is not None and d23 > 0:
        return CaseTag("mixed", m=d23, detail="r2-r3 integer, r1 non-congruent")
    if d13 is not None and d13 > 0:
        return CaseTag("mixed", m=d13, detail="r1-r3 integer, r2 non-congruent")
    return CaseTag("non_exceptional")


def congruence_classes(roots: Sequence[Scalar]) -> list[list[tuple[Scalar, int]]]:
    """Group ordered roots into integer-difference classes.

    Each class is a list of (value, multiplicity), sorted by decreasing real
    part, with near-equal floating roots merged into one multiplicity.
    """
    classes: list[list[Scalar]] = []
    for r in roots:
        for cls in classes:
            if integer_difference(r, cls[0]) is not None:
                cls.append(r)
                break
        else:
            classes.append([r])
    out = []
    for cls in classes:
        cls_sorted = sorted(cls, key=_order_key)
        grouped: list[tuple[Scalar, int]] = []
        for r in cls_sorted:
            if grouped and integer_difference(r, grouped[-1][0]) == 0:
                grouped[-1] = (grouped[-1][0], grouped[-1][1] + 1)
            else:
                grouped.append((r, 1))
        out.append(grouped)
    return out


def analyze(f: FrobeniusForm) -> IndicialData:
    """Full indicial pipeline: polynomial, roots, case tag."""
    poly = indicial_polynomial(f)
    roots, exact = solve_roots(poly)
    return IndicialData(tuple(poly), roots, classify_case(roots), exact)
