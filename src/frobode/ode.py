"""Linear ODE representation and coordinate transforms.

An :class:`Ode` stores the raw coefficient rows ``A_n(x) y^(n) + ... + A_0(x) y``
as truncated series, together with the chart they live in (a finite point or
infinity).  :class:`FrobeniusForm` is the normalized shape
``x^n y^(n) + x^(n-1) a(x) y^(n-1) + ... + c(x) y`` that the series solver
consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .scalars import GaussianRational, Scalar, is_exact, scalar_is_zero, to_complex
from .series import Series, laurent_ratio

__all__ = [
    "Ode",
    "FrobeniusForm",
    "IrregularPointError",
    "shift_to_origin",
    "transform_to_infinity",
    "moebius_pullback",
    "to_frobenius_form",
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
    """Normalized equation x^n y^(n) + x^(n-1) a y^(n-1) + x b y' + c y (order 3)
    or x^2 y'' + x b y' + c y (order 2)."""

    order: int
    b: Series
    c: Series
    a: Optional[Series] = None  # order 3 only

    def __post_init__(self):
        if self.order == 3 and self.a is None:
            raise ValueError("order-3 Frobenius form needs the a(x) series")

    @property
    def trunc(self) -> int:
        rows = [self.b, self.c] + ([self.a] if self.a is not None else [])
        return min(r.trunc for r in rows)

    def rows(self) -> tuple:
        """Raw Ode coefficient rows equivalent to this form."""
        n = self.trunc
        if self.order == 2:
            return (
                Series([_ZERO, _ZERO, _ONE], trunc=n),
                self.b.shift(1),
                self.c,
            )
        return (
            Series([_ZERO, _ZERO, _ZERO, _ONE], trunc=n),
            self.a.shift(2),
            self.b.shift(1),
            self.c,
        )

    def as_ode(self, rhs: Optional[Series] = None) -> Ode:
        return Ode(self.order, self.rows(), _ZERO, rhs)

    def is_constant(self) -> bool:
        """Euler detection: a, b, c constant through trunc."""
        rows = [self.b, self.c] + ([self.a] if self.a is not None else [])
        scale = max(1.0, max(r.magnitude() for r in rows))
        return all(
            scalar_is_zero(cf, scale) for r in rows for cf in r.coeffs[1:]
        )


# ---------------------------------------------------------------------------
# polynomial helpers (plain scalar lists, lowest power first)
# ---------------------------------------------------------------------------


def poly_degree(s: Series) -> int:
    """Degree of a series viewed as a polynomial (last non-negligible index)."""
    scale = max(1.0, s.magnitude())
    deg = 0
    for n, c in enumerate(s.coeffs):
        if not scalar_is_zero(c, scale):
            deg = n
    return deg


def _padd(p: list, q: list) -> list:
    n = max(len(p), len(q))
    out = [_ZERO] * n
    for i, c in enumerate(p):
        out[i] = out[i] + c
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return out


def _pmul(p: list, q: list) -> list:
    if not p or not q:
        return [_ZERO]
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _ppow(p: list, k: int) -> list:
    out = [_ONE]
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _pscale(p: list, k: Scalar) -> list:
    return [k * c for c in p]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def shift_to_origin(e: Ode, x0: Scalar) -> Ode:
    """Recenter at x0 via the exact Taylor shift of each (polynomial) row."""
    if e.chart == "infinity":
        raise ValueError("shift_to_origin requires a finite chart")
    if isinstance(x0, (int, float)):
        x0 = GaussianRational(x0) if isinstance(x0, int) else complex(x0)

    # Exact-zero coefficients are skipped.  Each added an exact zero when x0
    # is exact, and a complex zero otherwise, which leaves a complex sum as it
    # is; with a complex x0 every sum is complex, so it starts at 0j.
    start = _ZERO if is_exact(x0) else 0j

    def taylor_shift(s: Series) -> Series:
        terms = [(k, c) for k, c in enumerate(s.coeffs) if not (is_exact(c) and not c)]
        pw = [x0 ** i for i in range(terms[-1][0] + 1 if terms else 0)]
        out = []
        for t in range(s.trunc + 1):
            acc = start
            for k, c in terms:
                if k >= t:
                    acc = acc + math.comb(k, t) * c * pw[k - t]
            out.append(acc)
        return Series(out)

    rows = tuple(taylor_shift(c) for c in e.coeffs)
    rhs = taylor_shift(e.rhs) if e.rhs is not None else None
    return Ode(e.order, rows, _ZERO, rhs)


def transform_to_infinity(e: Ode) -> Ode:
    """Substitute x = 1/t and clear denominators to polynomial rows.

    Order 3 derivative stack: y' = -t^2 w', y'' = t^4 w'' + 2 t^3 w',
    y''' = -t^6 w''' - 6 t^5 w'' - 6 t^4 w'.
    """
    if e.rhs is not None and e.rhs.valuation() is not None:
        raise ValueError("infinity transform of a non-homogeneous equation is not supported")
    rows = e.coeffs
    degs = [poly_degree(r) for r in rows]
    D = max(degs)

    # Laurent rows as dicts: power of t -> scalar
    def laurent(row: Series, tpow: int, factor: Scalar) -> dict:
        out: dict[int, Scalar] = {}
        for j, c in enumerate(row.coeffs):
            if _is_hard_zero(c, row):
                continue
            p = tpow - j
            out[p] = out.get(p, _ZERO) + factor * c
        return out

    def merge(*ds: dict) -> dict:
        out: dict[int, Scalar] = {}
        for d in ds:
            for p, c in d.items():
                out[p] = out.get(p, _ZERO) + c
        return out

    one, m1 = _ONE, GaussianRational(-1)
    if e.order == 3:
        a, b, c, d = rows
        new = [
            laurent(a, 6, one),
            merge(laurent(a, 5, GaussianRational(6)), laurent(b, 4, m1)),
            merge(
                laurent(a, 4, GaussianRational(6)),
                laurent(b, 3, GaussianRational(-2)),
                laurent(c, 2, one),
            ),
            laurent(d, 0, m1),
        ]
    else:
        a, b, c = rows
        new = [
            laurent(a, 4, one),
            merge(laurent(a, 3, GaussianRational(2)), laurent(b, 2, m1)),
            laurent(c, 0, one),
        ]
    # clear denominators: lift so the minimum power across rows is zero
    lo = min((min(d) for d in new if d), default=0)
    hi = max((max(d) for d in new if d), default=0)
    shift = -lo
    T = hi + shift
    out_rows = []
    scale = max(
        (abs(to_complex(v)) for d in new for v in d.values()), default=1.0
    )
    for d in new:
        coeffs = [_ZERO] * (T + 1)
        for p, v in d.items():
            if not scalar_is_zero(v, scale):
                coeffs[p + shift] = v
        out_rows.append(Series(coeffs, trunc=max(T, e.trunc)))
    # the original chart's point swaps with infinity
    new_chart = "infinity" if not isinstance(e.chart, str) else _ZERO
    return Ode(e.order, tuple(out_rows), new_chart, None)


def _is_hard_zero(c: Scalar, row: Series) -> bool:
    if is_exact(c):
        return not bool(c)
    return scalar_is_zero(c, max(1.0, row.magnitude()))


def moebius_pullback(e: Ode, mmap: tuple) -> Ode:
    """Pull back an order-2 polynomial equation along z = (alpha w + beta)/(gamma w + delta).

    Denominators are cleared minimally: common (gamma w + delta) factors are
    cancelled from all rows.
    """
    if e.order != 2:
        raise ValueError("moebius_pullback is defined for order 2")
    alpha, beta, gamma, delta = [
        x if isinstance(x, (GaussianRational, complex)) else GaussianRational(x)
        for x in mmap
    ]
    det = alpha * delta - beta * gamma
    if scalar_is_zero(det, max(1.0, *(abs(to_complex(v)) for v in (alpha, beta, gamma, delta)))):
        raise ValueError("degenerate Moebius map")
    a, b, c = e.coeffs
    num = [beta, alpha]   # alpha w + beta
    den = [delta, gamma]  # gamma w + delta
    D = max(poly_degree(r) for r in (a, b, c))

    def comp(row: Series, extra: int) -> list:
        """(gamma w + delta)^(D+extra) * row(z(w)) as a polynomial in w."""
        out = [_ZERO]
        for j in range(poly_degree(row) + 1):
            cj = row.coeffs[j]
            if _is_hard_zero(cj, row):
                continue
            term = _pscale(_pmul(_ppow(num, j), _ppow(den, D - j + extra)), cj)
            out = _padd(out, term)
        return out

    row2 = comp(a, 4)
    row1 = _padd(_pscale(comp(a, 3), 2 * gamma), comp(b, 2))
    row0 = comp(c, 0)
    rows = [row2, row1, row0]
    # minimal clearing: cancel common (gamma w + delta) factors
    if not scalar_is_zero(gamma, 1.0):
        root = -delta / gamma
        while True:
            divided = []
            ok = True
            for r in rows:
                q, rem = _synth_div(r, root)
                sc = max(1.0, *(abs(to_complex(v)) for v in r))
                if not scalar_is_zero(rem, sc):
                    ok = False
                    break
                divided.append(_pscale(q, _ONE / gamma))
            if not ok:
                break
            rows = divided
    T = max(len(r) for r in rows) - 1
    return Ode(2, tuple(Series(r, trunc=T) for r in rows), e.chart, None)


def _synth_div(p: list, root: Scalar) -> tuple[list, Scalar]:
    """Divide polynomial p by (w - root); returns (quotient, remainder)."""
    n = len(p) - 1
    if n <= 0:
        return [_ZERO], (p[0] if p else _ZERO)
    b = [_ZERO] * n
    b[n - 1] = p[n]
    for i in range(n - 1, 0, -1):
        b[i - 1] = p[i] + root * b[i]
    rem = p[0] + root * b[0]
    return b, rem


def to_frobenius_form(e: Ode) -> FrobeniusForm:
    """Normalize so the leading coefficient is exactly x^order.

    Fails with :class:`IrregularPointError` when the required division would
    introduce negative powers (irregular singular point).
    """
    if not isinstance(e.chart, str) and not scalar_is_zero(e.chart, 1.0):
        raise ValueError("to_frobenius_form expands about the chart origin")
    lead = e.coeffs[0]
    ratios = []
    for i, row in enumerate(e.coeffs[1:], start=1):
        shift, unit = laurent_ratio(row, lead)
        ratios.append((shift, unit))
    T = min(u.trunc for _, u in ratios)
    out = []
    for i, (shift, unit) in enumerate(ratios, start=1):
        # row i (1-based below leading) must become x^{order-i} * series
        lift = shift + i
        if unit.valuation() is None:
            out.append(Series([_ZERO], trunc=T))
            continue
        if lift < 0:
            raise IrregularPointError(
                "irregular singular point: coefficient ratio has too deep a pole"
            )
        out.append(unit.truncate(T).shift(lift))
    if e.order == 2:
        return FrobeniusForm(2, b=out[0], c=out[1])
    return FrobeniusForm(3, a=out[0], b=out[1], c=out[2])
