"""Truncated power series and generalized log-power series.

Two layers of calculus:

* :class:`Series` — a truncated power series ``sum d_n t^n`` with explicit
  truncation order.  It serves both as a series in x and as a jet in a
  nilpotent parameter epsilon, which pushes derivatives with respect to the
  indicial root through the coefficient recurrences.
* :class:`GeneralizedSeries` — a finite sum of terms ``x^rho (log x)^m series(x)``,
  the universal representation for solutions near a regular singular point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import (
    EXP_TOL,
    GaussianRational,
    Scalar,
    as_exact,
    integer_difference,
    is_exact,
    poly_derivative,
    poly_eval,
    scalar_is_zero,
    structural_zero,
    to_complex,
)

__all__ = [
    "Series",
    "JetValuationError",
    "GSTerm",
    "GeneralizedSeries",
    "series_inverse",
    "series_div",
    "laurent_ratio",
    "poly_eval_jet",
    "gs_differentiate",
    "gs_integrate",
    "gs_evaluate",
    "gs_from_series",
]

_ZERO = GaussianRational(0)
_SCALAR_TYPES = frozenset((GaussianRational, complex))
_EXACT_TYPES = frozenset((GaussianRational,))
_COMPLEX_TYPES = frozenset((complex,))


def _as_scalar_list(coeffs: Iterable) -> tuple:
    coeffs = tuple(coeffs)
    if _SCALAR_TYPES.issuperset(map(type, coeffs)):
        return coeffs
    out = []
    for c in coeffs:
        if isinstance(c, (GaussianRational, complex)):
            out.append(c)
        elif isinstance(c, int):
            out.append(GaussianRational(c))
        elif isinstance(c, float):
            out.append(complex(c))
        elif isinstance(c, (str, Fraction, tuple, list)):
            out.append(as_exact(c))
        else:
            out.append(c)
    return tuple(out)


class Series:
    """Truncated power series: coefficients for x^0 .. x^trunc.

    An exact series is also held in integer form (d, re, im): Gaussian-integer
    numerators over one positive denominator, reduced by their gcd, im None
    when real.  Exact arithmetic reads and returns that form (`_IntSeries`): an
    identity view shares it, a reduction starts from the top entries, and a
    product with a complex series converts each exact coefficient once."""

    __slots__ = ("coeffs", "_int")

    def __init__(self, coeffs: Sequence, trunc: int | None = None):
        cs = _as_scalar_list(coeffs)
        if trunc is not None:
            cs = cs[: trunc + 1] + (_ZERO,) * (trunc + 1 - len(cs))
        elif not cs:
            cs = (_ZERO,)
        self.coeffs = cs
        # the integer form, built when an exact kernel first needs it
        self._int = None if _EXACT_TYPES.issuperset(map(type, cs)) else False

    @classmethod
    def variable(cls, base: Scalar, order: int) -> "Series":
        """base + t, truncated at t^order."""
        one = GaussianRational(1) if is_exact(base) else 1.0 + 0j
        return cls([base, one], trunc=order)

    def _ints(self) -> tuple | None:
        """The integer form (d, re, im), or None unless every coefficient is exact."""
        t = self._int
        if t is None:
            t = self._int = _to_int(self.coeffs)
        return t or None

    @property
    def trunc(self) -> int:
        t = self._int
        return len(t[1] if t else self.coeffs) - 1

    def __getitem__(self, n: int) -> Scalar:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return _ZERO

    def coeff(self, n: int) -> Scalar:
        """Coefficient n; unlike indexing, raises IndexError beyond trunc."""
        if n < len(self.coeffs):
            return self.coeffs[n]
        raise IndexError(f"coefficient {n} beyond the known order {self.trunc}")

    def magnitude(self) -> float:
        t = self._ints()
        if t:  # int true division is correctly rounded: the bits of float(Fraction)
            d, re, im = t
            return max((abs(complex(u / d, v / d)) for u, v in zip(re, im or [0] * len(re))),
                       default=0.0)
        return max((abs(to_complex(c)) for c in self.coeffs), default=0.0)

    def is_zero(self, scale: float | None = None) -> bool:
        s = scale if scale is not None else 1.0
        return all(scalar_is_zero(c, s) for c in self.coeffs)

    def valuation(self, scale: float | None = None) -> int | None:
        """Index of the first non-negligible coefficient, or None if all vanish.
        Exact coefficients are tested exactly, whatever the scale."""
        t = self._ints()
        if t:
            _, re, im = t
            return next((n for n, u in enumerate(re) if u or (im and im[n])), None)
        if scale is None:
            scale = max(1.0, self.magnitude())
        for n, c in enumerate(self.coeffs):
            if not scalar_is_zero(c, scale):
                return n
        return None

    # -- arithmetic (truncates to the shorter operand) ---------------------
    def __add__(self, other: "Series") -> "Series":
        b = self._int is not False and other._ints()
        if b:
            return _int_sum(self._ints(), b, 1)
        return Series([x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        b = self._int is not False and other._ints()
        if b:
            return _int_sum(self._ints(), b, -1)
        return Series([x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Series":
        t = self._ints()
        if t:
            return _int_series(t[0], [-u for u in t[1]], t[2] and [-v for v in t[2]])
        return Series([-c for c in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        b = self._int is not False and other._ints()
        if b:
            a = self._ints()
            n = min(len(a[1]), len(b[1]))
            real = a[2] is None and b[2] is None
            re, im = _convolve(_int_support(a, n), _int_support(b, n), n, real)
            return _int_series(a[0] * b[0], re, im)
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs[:n], other.coeffs[:n]
        # When one side is all complex, so is every product: each exact entry of the
        # other side is converted once, and the slots from the first term's on start
        # at 0j (_ZERO + z is 0j + z); the slots before it stay _ZERO.
        start = 0j
        if _COMPLEX_TYPES.issuperset(map(type, b)):
            a = [complex(c) if c.__class__ is GaussianRational and c else c for c in a]
        elif _COMPLEX_TYPES.issuperset(map(type, a)):
            b = [c if c.__class__ is not GaussianRational else complex(c) if c else 0j for c in b]
        else:
            start = None
        out = [_ZERO] * n
        for i in range(n):
            ai = a[i]
            if ai.__class__ is GaussianRational and not ai:
                continue
            if start is not None:
                out[i:], start = [start] * (n - i), None
            for j in range(n - i):
                out[i + j] = out[i + j] + ai * b[j]
        return Series(out)

    def scale(self, k: Scalar) -> "Series":
        if self._ints() and isinstance(k, (GaussianRational, int)):
            return self * Series([k], trunc=self.trunc)
        return Series([k * c for c in self.coeffs])

    def div(self, other: "Series", scale: float = 1.0) -> "Series":
        """Valuation-cancelling division; the result's trunc drops by the
        divisor's valuation.  The divisor's zero test is relative to its own
        magnitude; `scale` (the caller's running magnitude) only bounds the
        numerator's cancellation check."""
        v = other.valuation(other.magnitude())
        if v is None:
            raise ZeroDivisionError("jet division by zero")
        if v > 0:
            nv = self.valuation(max(scale, self.magnitude(), 1.0))
            if nv is None:
                # identically zero numerator divides cleanly
                return Series([_ZERO] * max(1, len(self.coeffs) - v))
            if nv < v:
                raise JetValuationError(
                    f"numerator valuation {nv} < divisor valuation {v}"
                )
        num = self.coeffs[v:] if v < len(self.coeffs) else (_ZERO,)
        den = other.coeffs[v:]
        # invert the unit series den
        d0 = den[0]
        inv0 = (GaussianRational(1) / d0) if is_exact(d0) else (1.0 / to_complex(d0))
        out = []
        for k in range(min(len(num), len(den))):
            acc = num[k]
            for j in range(1, k + 1):
                acc = acc - den[j] * out[k - j]
            out.append(inv0 * acc)
        return Series(out)

    def window(self, lo: int, n: int) -> "Series":
        """Coefficients lo .. lo + n - 1 as n terms, exact zeros outside
        0 .. trunc: the series itself when that keeps every entry."""
        if lo == 0 and n == self.trunc + 1:
            return self
        t = self._ints()
        if t:
            d, re, im = t
            return _int_series(d, _cut(re, lo, n), im and _cut(im, lo, n))
        cs = self.coeffs
        return Series(cs[lo:] if lo >= 0 else (_ZERO,) * -lo + cs, trunc=n - 1)

    def shift(self, k: int) -> "Series":
        """Multiply by x^k (k >= 0) or divide by x^{-k}, keeping trunc."""
        return self.window(-k, self.trunc + 1)

    def truncate(self, n: int) -> "Series":
        if n < 0:  # no coefficient at all
            return Series(self.coeffs, trunc=n)
        return self.window(0, n + 1)

    def derivative(self) -> "Series":
        """d/dx as a plain series; trunc drops by one."""
        return Series(poly_derivative(self.coeffs))

    def evaluate(self, x: complex) -> complex:
        # a leading 0j makes every step complex arithmetic, the first included
        return poly_eval((*self.coeffs, 0j), x)

    def conjugate(self) -> "Series":
        return Series([c.conjugate() for c in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self[i] == other[i] for i in range(n))

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r})"


def series_inverse(a: Series) -> Series:
    """Multiplicative inverse of a series with invertible constant term."""
    if a._ints():
        return _inverse_exact(a)
    a0 = a.coeffs[0]
    if scalar_is_zero(a0, max(1.0, a.magnitude())):
        raise ZeroDivisionError("series has no invertible constant term")
    n = len(a.coeffs)
    inv0 = (GaussianRational(1) / a0) if is_exact(a0) else (1.0 / to_complex(a0))
    # exact-zero a_j only add complex zeros to a sum with no -0 part, so they are
    # skipped, unless an exact a_j != 0 makes them decide when the sum turns complex
    skip = not any(is_exact(c) and c for c in a.coeffs)
    support = [(j, c) for j, c in enumerate(a.coeffs) if j and not (skip and is_exact(c) and not c)]
    out = [inv0]
    for k in range(1, n):
        acc = _ZERO
        for j, c in support:
            if j > k:
                break
            acc = acc + c * out[k - j]
        out.append(-inv0 * acc)
    return Series(out)


# ---------------------------------------------------------------------------
# exact kernels: Gaussian-integer numerators over one common denominator
# ---------------------------------------------------------------------------


def _all_exact(coeffs: Sequence) -> bool:
    return _EXACT_TYPES.issuperset(map(type, coeffs))


def _to_int(coeffs: Sequence[GaussianRational]) -> tuple:
    """The integer form of exact coefficients: d is the lcm of their
    denominators, so the triple is reduced."""
    d = math.lcm(*(c.re.denominator for c in coeffs), *(c.im.denominator for c in coeffs))
    re = [c.re.numerator * (d // c.re.denominator) for c in coeffs]
    im = [c.im.numerator * (d // c.im.denominator) for c in coeffs]
    return d, re, im if any(im) else None


def _int_series(d: int, re: list, im: list | None) -> Series:
    """The series (re + im i)/d, d != 0, reduced by one gcd to a positive denominator."""
    im = im if im and any(im) else None
    # the top entries carry the common denominator, so the gcd is decided there
    g = math.gcd(d, *reversed(re), *reversed(im or ())) * (1 if d > 0 else -1)
    if g != 1:
        d, re, im = d // g, [u // g for u in re], im and [v // g for v in im]
    s = _IntSeries.__new__(_IntSeries)
    s._int = (d, re, im)
    return s


class _IntSeries(Series):
    """A series made in integer form; its `coeffs` are built on first read, by a
    `__getattr__` that would slow every attribute read of a float `Series`."""

    __slots__ = ()

    def __getattr__(self, name: str):
        if name != "coeffs":
            raise AttributeError(name)
        d, re, im = self._int
        cs = self.coeffs = tuple(_gr(u, im[k] if im else 0, d) for k, u in enumerate(re))
        return cs

    def __getitem__(self, n: int) -> Scalar:
        try:
            cs = _COEFFS.__get__(self)
        except AttributeError:  # `coeffs` not built: make coefficient n alone
            d, re, im = self._int
            return _gr(re[n], im[n] if im else 0, d) if 0 <= n < len(re) else _ZERO
        return cs[n] if 0 <= n < len(cs) else _ZERO


_COEFFS = Series.coeffs  # the slot, read without falling back to `__getattr__`


def _int_sum(a: tuple, b: tuple, sign: int) -> Series:
    """a + sign b on integer forms, truncated to the shorter operand."""
    (da, ra, ia), (db, rb, ib) = a, b
    d = math.lcm(da, db)
    fa, fb = d // da, sign * (d // db)
    re = [fa * x + fb * y for x, y in zip(ra, rb)]
    if ia is None and ib is None:
        return _int_series(d, re, None)
    zeros = [0] * len(re)
    return _int_series(d, re, [fa * x + fb * y for x, y in zip(ia or zeros, ib or zeros)])


def _int_support(t: tuple, n: int) -> list:
    """The non-zero (k, u, v), c_k = (u + v i)/d, among the first n of an integer form."""
    _, re, im = t
    return [(k, u, v) for k, (u, v) in enumerate(zip(re[:n], im[:n] if im else [0] * n)) if u or v]


def _cut(xs: list, lo: int, n: int) -> list:
    """xs[lo : lo + n] as a list of n entries, 0 where an index leaves xs."""
    out = [0] * min(max(-lo, 0), n)
    out += xs[lo + len(out) : lo + n]
    return out + [0] * (n - len(out))


def _gr(u: int, v: int, d: int) -> GaussianRational:
    """(u + v i)/d in lowest terms."""
    if not v:
        return GaussianRational(Fraction(u, d)) if u else _ZERO
    return GaussianRational(Fraction(u, d), Fraction(v, d))


def _convolve(sa: Sequence, sb: Sequence, n: int, real: bool) -> tuple[list, list]:
    """(re, im) integer lists of the product of two Gaussian-integer
    supports (k, u, v), truncated to n terms; `real` skips the imaginary
    parts, which must then all be 0."""
    re = [0] * n
    im = [0] * n
    if real:
        for i, ua, _ in sa:
            for j, ub, _ in sb:
                k = i + j
                if k >= n:
                    break
                re[k] += ua * ub
    else:
        for i, ua, va in sa:
            for j, ub, vb in sb:
                k = i + j
                if k >= n:
                    break
                re[k] += ua * ub - va * vb
                im[k] += ua * vb + va * ub
    return re, im


def _inverse_exact(a: Series) -> Series:
    """Fraction-free inverse: with a = A/d for integers A_j,
    1/a = d C_k / A_0^(k+1) (see `_unit_inverse`), written over A_0^n.  A
    complex a is inverted as conj(a) / (a conj(a)), whose divisor is real."""
    d, re, im = a._ints()
    if im is not None:
        conj = _int_series(d, re, [-v for v in im])
        return conj * _inverse_exact(a * conj)
    if not re[0]:
        raise ZeroDivisionError("series has no invertible constant term")
    n = len(re)
    C, pw = _unit_inverse([(k, u, 0) for k, u in enumerate(re) if u], n)
    return _int_series(pw[n], [d * C[k] * pw[n - 1 - k] for k in range(n)], None)


def _unit_inverse(support: Sequence, n: int) -> tuple[list, list]:
    """(C, pw) for a real integer series A given by its support (k, u, 0),
    whose first entry is k = 0: 1/A = sum_k C_k eps^k / A_0^(k+1) through
    eps^(n-1), with C_0 = 1, C_k = -sum_{j>=1} A_j A_0^(j-1) C_(k-j), and
    pw[m] = A_0^m for m <= n."""
    a0 = support[0][1]
    pw = [1]
    for _ in range(n):
        pw.append(pw[-1] * a0)
    P = [(j, u * pw[j - 1]) for j, u, _ in support[1:]]
    C = [1]
    for k in range(1, n):
        acc = 0
        for j, p in P:
            if j > k:
                break
            acc -= p * C[k - j]
        C.append(acc)
    return C, pw


def series_div(a: Series, b: Series) -> Series:
    return a * series_inverse(b)


def laurent_ratio(num: Series, den: Series) -> tuple[int, Series]:
    """num/den as x^shift * unit, where unit has an invertible constant term.

    Returns (shift, unit-quotient).  shift < 0 means the ratio has a pole of
    order -shift.  The quotient's trunc shrinks by the cancelled valuations.
    """
    vd = den.valuation()
    if vd is None:
        raise ZeroDivisionError("division by a series that vanishes through trunc")
    vn = num.valuation()
    if vn is None:
        return 0, Series([_ZERO], trunc=num.trunc)
    v = max(vn, vd)
    nn = num.window(vn, num.trunc + 1 - vn)
    dd = den.window(vd, den.trunc + 1 - vd)
    q = series_div(nn.truncate(num.trunc - v), dd.truncate(den.trunc - v))
    return vn - vd, q


class JetValuationError(ArithmeticError):
    """Series division where the numerator vanishes to lower order than the
    divisor.

    Signals a resonance-bookkeeping mismatch; never silently absorbed.
    """


#: The jet class is `Series`; the name stays because the benchmark's layer
#: tracer (perfbench/layers.py) resolves ``Jet.__mul__`` and ``Jet.div``.
Jet = Series


def poly_eval_jet(poly: Sequence[Scalar], point: Scalar, order: int) -> Series:
    """Evaluate a scalar polynomial (coeff list, low to high) at point + eps."""
    return poly_eval([Series([c], trunc=order) for c in poly], Series.variable(point, order))


# ---------------------------------------------------------------------------
# Generalized series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GSTerm:
    """One term x^exponent (log x)^logpow * body(x)."""

    exponent: Scalar
    logpow: int
    body: Series


class GeneralizedSeries:
    """Finite sum of x^rho (log x)^m * Series terms, kept in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[GSTerm], normalize: bool = True):
        ts = tuple(terms)
        if normalize:
            ts = _normalize_terms(ts)
        self.terms = ts

    @property
    def trunc(self) -> int:
        if not self.terms:
            return 0
        return min(t.body.trunc for t in self.terms)

    def magnitude(self) -> float:
        return max((t.body.magnitude() for t in self.terms), default=0.0)

    def is_zero(self) -> bool:
        return not self.terms

    def max_logpow(self) -> int:
        return max((t.logpow for t in self.terms), default=0)

    def __add__(self, other: "GeneralizedSeries") -> "GeneralizedSeries":
        return GeneralizedSeries(self.terms + other.terms)

    def __sub__(self, other: "GeneralizedSeries") -> "GeneralizedSeries":
        # a float body keeps (-1+0j)*c, which differs from -c in the sign of zeros
        neg = [GSTerm(t.exponent, t.logpow, -t.body if t.body._ints()
                      else t.body.scale(GaussianRational(-1))) for t in other.terms]
        return GeneralizedSeries(self.terms + tuple(neg))

    def __mul__(self, other: "GeneralizedSeries") -> "GeneralizedSeries":
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                out.append(
                    GSTerm(t1.exponent + t2.exponent, t1.logpow + t2.logpow, t1.body * t2.body)
                )
        return GeneralizedSeries(out)

    def scale(self, k: Scalar) -> "GeneralizedSeries":
        return GeneralizedSeries(
            [GSTerm(t.exponent, t.logpow, t.body.scale(k)) for t in self.terms],
            normalize=False,
        )

    def conjugate(self) -> "GeneralizedSeries":
        return GeneralizedSeries(
            [GSTerm(t.exponent.conjugate(), t.logpow, t.body.conjugate()) for t in self.terms],
            normalize=False,
        )

    def truncate(self, n: int) -> "GeneralizedSeries":
        return GeneralizedSeries(
            [GSTerm(t.exponent, t.logpow, t.body.truncate(n)) for t in self.terms],
            normalize=False,
        )

    def log_free(self) -> bool:
        return all(t.logpow == 0 for t in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "GeneralizedSeries(0)"
        bits = [
            f"x^{t.exponent!r}*log^{t.logpow}*{t.body!r}" for t in self.terms
        ]
        return "GeneralizedSeries(" + " + ".join(bits) + ")"


def _normalize_terms(terms: tuple[GSTerm, ...]) -> tuple[GSTerm, ...]:
    """Fold integer exponent offsets into bodies, merge, drop zero terms.
    Each term is placed once, at its offset in its class; a class is
    represented by its member of smallest offset (the first one met)."""
    if not terms:
        return ()
    exact = all(t.body._ints() for t in terms)
    scale = 1.0 if exact else max(1.0, max(t.body.magnitude() for t in terms))
    classes: list[list] = []  # [first exponent, smallest offset, its exponent]
    placed = []  # (class index, offset) per term
    for t in terms:
        for i, cl in enumerate(classes):
            k = integer_difference(t.exponent, cl[0], EXP_TOL)
            if k is not None:
                if k < cl[1]:
                    cl[1], cl[2] = k, t.exponent
                break
        else:
            i, k = len(classes), 0
            classes.append([t.exponent, 0, t.exponent])
        placed.append((i, k))
    trunc = min(t.body.trunc for t in terms)
    merged: dict[tuple[int, int], Series] = {}
    for t, (i, k) in zip(terms, placed):
        key = (i, t.logpow)
        body = t.body.truncate(trunc).shift(k - classes[i][1])
        merged[key] = merged[key] + body if key in merged else body
    where = [complex(cl[2]) for cl in classes]
    out = []
    for i, m in sorted(merged, key=lambda key: (where[key[0]].real, where[key[0]].imag, key[1])):
        body = merged[i, m]
        v = body.valuation() if exact else None if body.is_zero(scale) else next(
            n for n, c in enumerate(body.coeffs) if not structural_zero(c))
        if v is None:
            continue
        rho = classes[i][2]
        if v:
            # compact: exactly-zero leading coefficients go into the exponent
            body = body.window(v, body.trunc + 1 - v)
            rho = rho + v
        out.append(GSTerm(rho, m, body))
    return tuple(out)


def gs_from_series(body: Series, exponent: Scalar = _ZERO, logpow: int = 0) -> GeneralizedSeries:
    return GeneralizedSeries([GSTerm(exponent, logpow, body)])


def gs_differentiate(g: GeneralizedSeries) -> GeneralizedSeries:
    """d/dx termwise; body truncation drops by one (last coefficient unreliable)."""
    out = []
    for t in g.terms:
        rho, m = t.exponent, t.logpow
        body = t.body.truncate(max(t.body.trunc - 1, 0))
        exact = body._ints()
        if isinstance(rho, GaussianRational) and exact:
            power_body, log_body = _differentiate_exact(rho, m, exact)
        else:
            power_body = Series([(rho + n) * c for n, c in enumerate(body.coeffs)])
            log_body = body.scale(m) if m else None
        out.append(GSTerm(rho - 1, m, power_body))
        if m:
            out.append(GSTerm(rho - 1, m - 1, log_body))
    return GeneralizedSeries(out)


def _differentiate_exact(rho: GaussianRational, m: int, body: tuple) -> tuple:
    """The bodies (rho + n) c_n and m c_n, with rho = (p + q i)/e and c_n = (u + v i)/d
    in integer form, as Gaussian-integer products over e d and d."""
    e, (p,), q = _to_int([rho])
    q = q[0] if q else 0
    d, re, im = body
    a = [p + n * e for n in range(len(re))]
    if im is None and not q:
        power = _int_series(d * e, [x * u for x, u in zip(a, re)], None)
    else:
        im = im or [0] * len(re)
        power = _int_series(d * e, [x * u - q * v for x, u, v in zip(a, re, im)],
                            [x * v + q * u for x, u, v in zip(a, re, im)])
    log = _int_series(d, [m * u for u in re], im and [m * v for v in im]) if m else None
    return power, log


def gs_integrate(g: GeneralizedSeries) -> GeneralizedSeries:
    """Termwise antiderivative (integration constants fixed to zero)."""
    out = []
    for t in g.terms:
        rho, m, body = t.exponent, t.logpow, t.body
        N = body.trunc
        bodies = [[_ZERO] * (N + 1) for _ in range(m + 1)]
        log_raised = [_ZERO] * (N + 1)
        for n in range(N + 1):
            d = body[n]
            if structural_zero(d):
                continue
            s1 = rho + n + 1  # s + 1
            resonant = (
                (is_exact(s1) and not bool(s1))
                or (not is_exact(s1) and abs(to_complex(s1)) <= EXP_TOL)
            )
            if resonant:
                # integral of x^{-1} log^m is log^{m+1}/(m+1)
                log_raised[n] = d / (m + 1)
                continue
            inv = (GaussianRational(1) / s1) if is_exact(s1) else (1.0 / to_complex(s1))
            fac = inv
            for j in range(m, -1, -1):
                coef = ((-1) ** (m - j)) * (math.factorial(m) // math.factorial(j))
                bodies[j][n] = bodies[j][n] + coef * fac * d
                fac = fac * inv
        for j in range(m + 1):
            out.append(GSTerm(rho + 1, j, Series(bodies[j])))
        if any(not structural_zero(c) for c in log_raised):
            # these came from x^{rho+n} with rho+n = -1; exponent folds to 0
            for n in range(N + 1):
                if not structural_zero(log_raised[n]):
                    out.append(
                        GSTerm(rho + n + 1, m + 1, Series([log_raised[n]], trunc=N))
                    )
    return GeneralizedSeries(out)


def gs_evaluate(g: GeneralizedSeries, x: complex) -> complex:
    """Evaluate with the principal branch of log."""
    if x == 0:
        for t in g.terms:
            if to_complex(t.exponent).real < 0 or t.logpow > 0:
                raise ValueError("evaluation at 0 with singular term present")
        return sum(
            (to_complex(t.body[0]) if to_complex(t.exponent) == 0 else 0j)
            for t in g.terms
        )
    lx = cmath.log(x)
    acc = 0j
    for t in g.terms:
        acc += cmath.exp(to_complex(t.exponent) * lx) * (lx ** t.logpow) * t.body.evaluate(x)
    return acc


def gs_div_single(g: GeneralizedSeries, d: GeneralizedSeries) -> GeneralizedSeries:
    """Divide by a log-free single-class GeneralizedSeries with a unit leading term."""
    if len(d.terms) != 1 or d.terms[0].logpow != 0:
        raise ValueError("divisor must normalize to a single log-free term")
    dt = d.terms[0]
    v = dt.body.valuation()
    if v is None:
        raise ZeroDivisionError("divisor vanishes through trunc")
    unit = dt.body.window(v, dt.body.trunc + 1 - v)
    inv = series_inverse(unit)
    out = []
    for t in g.terms:
        out.append(
            GSTerm(t.exponent - dt.exponent - v, t.logpow, t.body * inv)
        )
    return GeneralizedSeries(out)
