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


def _rational_root(poly: Sequence[GaussianRational]) -> Optional[GaussianRational]:
    """A rational root of a monic cubic with real-rational coefficients, or None.

    A repeated root is rational and comes from gcd(P, P').  For a
    square-free P, each numpy root's real part is refined by exact Newton
    steps until a step is below 1/(2 lead^2), lead the leading coefficient
    of P over integers; the iterates are rounded to a grid finer than
    1/(4 lead^2), which keeps their size bounded when a start does not
    converge.  A step that small leaves the iterate nearer to a rational
    root p/q (q | lead) than to any other fraction with denominator at most
    lead, and that nearest fraction is accepted only if it is an exact root.
    """
    if any(c.im != 0 for c in poly):
        return None
    fracs = [c.re for c in poly]
    if fracs[0] == 0:
        return GaussianRational(0)
    dfracs = poly_derivative(fracs)
    g = _poly_gcd(fracs, dfracs)
    if len(g) == 2:
        return GaussianRational(-g[0] / g[1])
    if len(g) == 3:
        return GaussianRational(-g[1] / (2 * g[2]))
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


def _poly_gcd(p: list, q: list) -> list:
    """Greatest common divisor of two Fraction polynomials (low power first),
    by Euclid's algorithm; the result's length is its degree plus one."""
    while q:
        r = list(p)
        while len(r) >= len(q):
            f = r[-1] / q[-1]
            off = len(r) - len(q)
            for i, c in enumerate(q):
                r[off + i] -= f * c
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        p, q = q, r
    return p


def _exact_quadratic(poly: Sequence[GaussianRational]) -> Optional[list]:
    c, b, a = poly
    disc = b * b - GaussianRational(4) * a * c
    s = gr_sqrt(disc)
    if s is None:
        return None
    two_a = GaussianRational(2) * a
    return [(-b + s) / two_a, (-b - s) / two_a]


def _order_key(r: Scalar):
    z = to_complex(r)
    return (-z.real, -z.imag)


def solve_roots(poly: Sequence[Scalar]) -> tuple[tuple, bool]:
    """All roots of a degree-2/3 monic polynomial, ordered by decreasing real
    part (ties: decreasing imaginary part).  Returns (roots, exact_flag)."""
    poly = list(poly)
    exact_in = all(is_exact(c) for c in poly)
    if exact_in:
        roots: list[Scalar] = []
        work = poly
        while len(work) - 1 > 2:
            r = _rational_root(work)
            if r is None:
                break
            roots.append(r)
            work, _ = poly_divide_linear(work, r)
        if len(work) - 1 == 2:
            quad = _exact_quadratic(work)
            if quad is not None:
                roots.extend(quad)
                return tuple(sorted(roots, key=_order_key)), True
        elif len(work) - 1 == 1:
            roots.append(-work[0] / work[1])
            return tuple(sorted(roots, key=_order_key)), True
    # floating fallback: companion matrix + two Newton polish steps
    cpoly = [to_complex(c) for c in poly]
    arr = np.roots(list(reversed(cpoly)))
    dpoly = poly_derivative(cpoly)
    out = []
    for z in arr:
        z = complex(z)
        for _ in range(2):
            dp = poly_eval(dpoly, z)
            if abs(dp) > NEWTON_TOL:
                z = z - poly_eval(cpoly, z) / dp
        out.append(z)
    return tuple(sorted(out, key=_order_key)), False


def classify_case(roots: Sequence[Scalar], order: int | None = None) -> CaseTag:
    """Detect the equal-root / integer-gap configuration of the ordered roots."""
    roots = list(roots)
    order = order if order is not None else len(roots)
    if order == 2:
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
    return IndicialData(tuple(poly), roots, classify_case(roots, f.order), exact)
