"""Linear ODE representation and coordinate transforms.

An :class:`Ode` stores the raw coefficient rows ``A_n(x) y^(n) + ... + A_0(x) y``
as truncated series, together with the chart they live in (a finite point or
infinity).  :class:`FrobeniusForm` is the same equation in falling powers of
theta = x d/dx, the shape the series solver consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .scalars import (GaussianRational, Scalar, is_exact, poly_divide_linear, poly_mul,
                      scalar_is_zero, to_complex, zero_threshold)
from .series import Series

__all__ = [
    "Ode",
    "FrobeniusForm",
    "IrregularPointError",
    "shift_to_origin",
    "transform_to_infinity",
    "moebius_pullback",
    "to_frobenius_form",
    "theta_columns",
]

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


class IrregularPointError(ValueError):
    """Raised when an operation requires an ordinary or regular singular point."""


@dataclass(frozen=True)
class Ode:
    """A_order(x) y^(order) + ... + A_0(x) y = rhs, in the given chart."""

    order: int
    coeffs: tuple  # Series tuple [A_order, ..., A_1, A_0]
    chart: object = _ZERO  # finite point (Scalar) or the string "infinity"
    rhs: Optional[Series] = None

    def __post_init__(self):
        if self.order not in (2, 3):
            raise ValueError("only orders 2 and 3 are supported")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need order+1 coefficient rows")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        lead = self.coeffs[0]
        if lead.valuation() is None:
            raise ValueError("leading coefficient vanishes identically through trunc")

    @property
    def trunc(self) -> int:
        return min(c.trunc for c in self.coeffs)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], chart=_ZERO, rhs=None, trunc: int | None = None) -> "Ode":
        """Build from plain coefficient lists (lowest power first per row)."""
        n = max(len(r) for r in rows) - 1
        if trunc is not None:
            n = max(n, trunc)
        ser = tuple(Series(list(r), trunc=n) for r in rows)
        rr = Series(list(rhs), trunc=n) if rhs is not None else None
        return Ode(len(rows) - 1, ser, chart, rr)


@dataclass(frozen=True)
class FrobeniusForm:
    """An equation in falling powers theta^(j) = theta (theta - 1) ... (theta - j + 1)
    = x^j D^j of theta = x d/dx, with power-series coefficients:

        lead theta^(3) + a theta^(2) + b theta + c    (order 3)
        lead theta^(2) + b theta + c                  (order 2)

    Its row k, P_k(theta) = lead_k theta^(n) + a_k theta^(n-1) + b_k theta + c_k,
    multiplies x^k, and P_0 = lead_0 q(theta), q the indicial polynomial.
    `to_frobenius_form` writes x^order times an equation as x^v times this
    form.  Without a lead (lead = 1) it is the normalized equation
    x^n y^(n) + x^(n-1) a y^(n-1) + x b y' + c y."""

    order: int
    b: Series
    c: Series
    a: Optional[Series] = None  # order 3 only
    lead: Optional[Series] = None  # a unit series; None is 1

    def __post_init__(self):
        if self.order == 3 and self.a is None:
            raise ValueError("order-3 Frobenius form needs the a(x) series")

    def columns(self) -> tuple:
        """The coefficient series of theta^(0), ..., theta^(order)."""
        cols = (self.c, self.b) + ((self.a,) if self.order == 3 else ())
        if self.lead is not None:
            return cols + (self.lead,)
        return cols + (Series([_ONE], trunc=min(c.trunc for c in cols)),)

    def as_ode(self, rhs: Optional[Series] = None) -> Ode:
        """The equation sum_j x^j col_j y^(j) of this form."""
        rows = [col.shift(j) for j, col in enumerate(self.columns())]
        return Ode(self.order, tuple(reversed(rows)), _ZERO, rhs)


def poly_degree(s: Series) -> int:
    """Degree of a series viewed as a polynomial (last non-negligible index)."""
    scale = max(1.0, s.magnitude())
    deg = 0
    for n, c in enumerate(s.coeffs):
        if not scalar_is_zero(c, scale):
            deg = n
    return deg


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def shift_to_origin(e: Ode, x0: Scalar) -> Ode:
    """Recenter at x0 via the exact Taylor shift of each (polynomial) row."""
    if e.chart == "infinity":
        raise ValueError("shift_to_origin requires a finite chart")
    if isinstance(x0, (int, float)):
        x0 = GaussianRational(x0) if isinstance(x0, int) else complex(x0)

    def taylor_shift(s: Series) -> Series:
        if is_exact(x0) and s._ints():  # Horner's rule on Gaussian integers
            x, h = Series([x0, _ONE], trunc=s.trunc), Series([_ZERO], trunc=s.trunc)
            for k in range(poly_degree(s), -1, -1):  # h <- h (x + x0) + c_k
                h = h * x + s.window(k, 1).window(0, s.trunc + 1)
            return h
        terms = [(k, c) for k, c in enumerate(s.coeffs) if c]  # a zero adds a zero
        pw = [x0 ** i for i in range(terms[-1][0] + 1 if terms else 0)]
        return Series([sum((math.comb(k, t) * c * pw[k - t] for k, c in terms if k >= t), 0j)
                       for t in range(s.trunc + 1)])

    rows = tuple(taylor_shift(c) for c in e.coeffs)
    rhs = taylor_shift(e.rhs) if e.rhs is not None else None
    return Ode(e.order, rows, _ZERO, rhs)


def transform_to_infinity(e: Ode) -> Ode:
    """Substitute x = 1/t: the pullback along the inversion (0, 1, 1, 0),
    whose origin is the other chart's point (infinity or 0)."""
    rows = moebius_pullback(e, (0, 1, 1, 0)).coeffs
    return Ode(e.order, rows, "infinity" if not isinstance(e.chart, str) else _ZERO, None)


def moebius_pullback(e: Ode, mmap: tuple) -> Ode:
    """Pull an equation of order 2 or 3 with polynomial rows back along
    z = (alpha w + beta)/(gamma w + delta).

    With u = gamma w + delta and det = alpha delta - beta gamma,
    y^(k)(z) = det^-k sum_j L(k, j) gamma^(k-j) u^(k+j) Y^(j)(w), where
    L(k, j) = C(k-1, j-1) k!/j! are the Lah numbers.  The rows are multiplied
    through by det^order u^D, D the largest row degree; every common factor
    (w + delta/gamma) is cancelled, and floating entries negligible against
    the largest one become exact zeros.
    """
    if e.rhs is not None and e.rhs.valuation() is not None:
        raise ValueError("the pullback of a non-homogeneous equation is not supported")
    alpha, beta, gamma, delta = [
        x if isinstance(x, (GaussianRational, complex)) else GaussianRational(x) for x in mmap]
    det = alpha * delta - beta * gamma
    if scalar_is_zero(det, max(1.0, *(abs(to_complex(v)) for v in (alpha, beta, gamma, delta)))):
        raise ValueError("degenerate Moebius map")
    n = e.order
    rows = []
    for r in e.coeffs:
        scale = r.magnitude()
        rows.append(_trimmed([_ZERO if scalar_is_zero(c, scale) else c for c in r.coeffs]))
    D = max(map(len, rows)) - 1
    upow, npow = [[_ONE]], [[_ONE]]  # powers of u and of alpha w + beta
    for i in range(max(D, 2 * n)):
        upow.append(poly_mul(upow[-1], [delta, gamma]))
        if i < D:
            npow.append(poly_mul(npow[-1], [beta, alpha]))
    # u^D A_i(z(w)) = sum_m A_im (alpha w + beta)^m u^(D-m)
    basis = [poly_mul(npow[m], upow[D - m]) for m in range(D + 1)]
    lifted = [_sum_products([([c], basis[m]) for m, c in enumerate(row)]) for row in rows]
    out = []
    for j in range(n, -1, -1):  # the row of Y^(j)
        terms = []
        for k in range(n, j - 1, -1) if j else (0,):
            lah = math.comb(k - 1, j - 1) * math.perm(k, k - j) if j else 1
            f = det ** (n - k) * gamma ** (k - j) * lah
            terms.append((lifted[n - k], [f * c for c in upow[k + j]]))
        out.append(_trimmed(_sum_products(terms)))
    if not scalar_is_zero(gamma, 1.0):
        out = _cancel_root(out, -delta / gamma)
    T = max(map(len, out)) - 1
    if not all(is_exact(c) for r in out for c in r):
        scale = max(abs(to_complex(c)) for r in out for c in r)
        out = [[_ZERO if scalar_is_zero(c, scale) else c for c in r] for r in out]
    return Ode(n, tuple(Series(r, trunc=max(T, e.trunc)) for r in out), e.chart, None)


def _cancel_root(rows: list, root: Scalar) -> list:
    """The rows divided by (w - root) for as long as all of them vanish there;
    the leading row stops the division when it is constant."""
    while len(rows[0]) > 1:
        quotients = []
        for r in rows:
            q, rem = poly_divide_linear(r, root)
            scale = 1.0 if is_exact(rem) else max(abs(to_complex(c)) for c in r)
            if not scalar_is_zero(rem, scale):
                return rows
            quotients.append(q or [_ZERO])
        rows = quotients
    return rows


def _trimmed(row: list) -> list:
    """The row without its top zeros, down to one coefficient."""
    while len(row) > 1 and not row[-1]:
        row.pop()
    return row


def _sum_products(terms: list) -> list:
    """sum p q over the (p, q) pairs of polynomials; zeros add nothing."""
    out = [_ZERO] * max(len(p) + len(q) - 1 for p, q in terms)
    for p, q in terms:
        for i, c in enumerate(poly_mul(p, q)):
            if c:
                out[i] = out[i] + c
    return out


def theta_columns(e: Ode) -> tuple[int, list]:
    """(w, columns): x^order times e is x^w sum_j col_j(x) theta^(j), with w the
    least val(A_i) + i.  Row i, which multiplies y^(order-i) = x^(i-order)
    theta^(order-i), gives col_(order-i) = x^(i-w) A_i, known through
    x^(T_i + i - w); a float entry negligible against its row is 0."""
    rows = []
    for r in e.coeffs:
        if not r._ints():
            tol = zero_threshold(r.magnitude())
            r = Series([0j if abs(c) <= tol else c for c in r.coeffs])
        rows.append(r)
    w = min(v + i for i, r in enumerate(rows) if (v := r.valuation()) is not None)
    return w, [r.window(w - i, r.trunc + 1 + i - w) for i, r in reversed(list(enumerate(rows)))]


def to_frobenius_form(e: Ode) -> FrobeniusForm:
    """The theta-form of e about the chart origin, x^order e = x^v (lead
    theta^(order) + ...), v the valuation of the leading row (`theta_columns`);
    nothing is divided.  Fails with :class:`IrregularPointError` unless
    deg P_0 = order (Fuchs' criterion), i.e. when some row A_i vanishes to an
    order below v - i."""
    if not isinstance(e.chart, str) and not scalar_is_zero(e.chart, 1.0):
        raise ValueError("to_frobenius_form expands about the chart origin")
    _, (c, b, *rest) = theta_columns(e)
    if not rest[-1][0]:
        raise IrregularPointError("irregular singular point: deg P_0 < order (Fuchs' criterion)")
    return FrobeniusForm(e.order, b=b, c=c, a=rest[0] if e.order == 3 else None, lead=rest[-1])
