"""Truncated power series and generalized log-power series.

Two layers of calculus:

* :class:`Series` — a truncated power series ``sum d_n t^n`` with explicit
  truncation order.  It serves both as a series in x and as a jet in a
  nilpotent parameter epsilon, which pushes derivatives with respect to the
  indicial root through the coefficient recurrences.
* :class:`GeneralizedSeries` — a finite sum of terms ``x^rho (log x)^m series(x)``,
  the universal representation for solutions near a regular singular point.

A series is exact or complex, never both: built from a list that mixes the
two kinds, it converts every coefficient to complex once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import (
    GaussianRational,
    Scalar,
    as_exact,
    integer_difference,
    poly_derivative,
    poly_eval,
    scalar_is_zero,
    to_complex,
    zero_threshold,
)

__all__ = [
    "Series",
    "JetValuationError",
    "GSTerm",
    "GeneralizedSeries",
    "series_inverse",
    "series_div",
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
    """The entries, with ints, rational strings, Fractions and pairs made exact;
    `Series` converts a float or any other entry to complex."""
    coeffs = tuple(coeffs)
    if _SCALAR_TYPES.issuperset(map(type, coeffs)):
        return coeffs
    return tuple(as_exact(c) if isinstance(c, (int, str, Fraction, tuple, list)) else c
                 for c in coeffs)


class Series:
    """Truncated power series: coefficients for x^0 .. x^trunc.

    A series holds one kind of scalar.  When every coefficient is exact it
    stays exact, and it is also held in integer form (d, re, im):
    Gaussian-integer numerators over one positive denominator, reduced by
    their gcd, im None when real.  Exact arithmetic reads and returns that
    form (`_IntSeries`): an identity view shares it and a reduction starts
    from the top entries.  Otherwise every coefficient is converted to
    `complex` once, here, and zeros outside 0 .. trunc are 0j; an operation
    with one complex operand converts the other one first."""

    __slots__ = ("coeffs", "_int")

    def __init__(self, coeffs: Sequence, trunc: int | None = None):
        cs = _as_scalar_list(coeffs)
        if _EXACT_TYPES.issuperset(map(type, cs)):
            zero, self._int = _ZERO, None  # the integer form, built when a kernel needs it
        else:
            if not _COMPLEX_TYPES.issuperset(map(type, cs)):  # no copy of a complex tuple:
                cs = tuple(map(complex, cs))  # one per series fragments a float pass's heap
            zero, self._int = 0j, False
        if trunc is not None:
            cs = cs[: trunc + 1] + (zero,) * (trunc + 1 - len(cs))
        elif not cs:
            cs = (_ZERO,)
        self.coeffs = cs

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
        return 0j if self._int is False else _ZERO

    def coeff(self, n: int) -> Scalar:
        """Coefficient n; unlike indexing, raises IndexError beyond trunc."""
        if n < len(self.coeffs):
            return self.coeffs[n]
        raise IndexError(f"coefficient {n} beyond the known order {self.trunc}")

    def complex_coeffs(self) -> Sequence[complex]:
        """The coefficients as complex numbers; an exact series is converted from
        its integer form, whose int true division is correctly rounded: the bits
        of complex(GaussianRational)."""
        t = self._ints()
        if not t:
            return self.coeffs
        d, re, im = t
        return [complex(u / d, v / d) for u, v in zip(re, im or [0] * len(re))]

    def magnitude(self) -> float:
        return max(map(abs, self.complex_coeffs()), default=0.0)

    def valuation(self, scale: float | None = None) -> int | None:
        """Index of the first non-negligible coefficient, or None if all vanish.
        Exact coefficients are tested exactly, whatever the scale."""
        t = self._ints()
        if t:
            _, re, im = t
            return next((n for n, u in enumerate(re) if u or (im and im[n])), None)
        tol = zero_threshold(self.magnitude() if scale is None else scale)
        return next((n for n, c in enumerate(self.coeffs) if not abs(c) <= tol), None)

    # -- arithmetic (truncates to the shorter operand) ---------------------
    def __add__(self, other: "Series") -> "Series":
        b = self._int is not False and other._ints()
        if b:
            return _int_sum(self._ints(), b, 1)
        return Series([x + y for x, y in zip(self.complex_coeffs(), other.complex_coeffs())])

    def __sub__(self, other: "Series") -> "Series":
        b = self._int is not False and other._ints()
        if b:
            return _int_sum(self._ints(), b, -1)
        return Series([x - y for x, y in zip(self.complex_coeffs(), other.complex_coeffs())])

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
            re, im = _convolve(*(_support(t[1][:n], t[2] and t[2][:n]) for t in (a, b)), n, real)
            return _int_series(a[0] * b[0], re, im)
        a, b = self.complex_coeffs(), other.complex_coeffs()
        n = min(len(a), len(b))
        re, _ = _convolve(_support(a[:n], None), _support(b[:n], None), n, True)
        return Series([c or 0j for c in re])

    def scale(self, k: Scalar) -> "Series":
        if self._int is not False and isinstance(k, (GaussianRational, int, Fraction)):
            return self * Series([k], trunc=self.trunc)
        k = complex(k)
        return Series([k * c for c in self.complex_coeffs()])

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
            if nv is None and len(self.coeffs) > v:  # a zero known to x^v divides cleanly
                zero = 0j if self._int is False or other._int is False else _ZERO
                return Series([zero] * (len(self.coeffs) - v))
            if nv is None or nv < v:
                known = f"valuation {nv}" if nv is not None else f"known to order {len(self.coeffs) - 1}"
                raise JetValuationError(f"numerator {known} < divisor valuation {v}")
        num, den = self.coeffs[v:], other.coeffs[v:]
        inv0 = 1 / den[0]  # den is a unit series
        out = []
        for k in range(min(len(num), len(den))):
            acc = num[k]
            for j in range(1, k + 1):
                acc = acc - den[j] * out[k - j]
            out.append(inv0 * acc)
        return Series(out)

    def window(self, lo: int, n: int) -> "Series":
        """Coefficients lo .. lo + n - 1 as n terms, zeros outside 0 .. trunc:
        the series itself when that keeps every entry."""
        if lo == 0 and n == self.trunc + 1:
            return self
        t = self._ints()
        if t:
            d, re, im = t
            return _int_series(d, _cut(re, lo, n), im and _cut(im, lo, n))
        cs = self.coeffs[lo:] if lo >= 0 else (0j,) * -lo + self.coeffs
        return Series(cs + (0j,) * n, trunc=n - 1)  # 0j even when cs is empty

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
        return poly_eval((*self.complex_coeffs(), 0j), x)

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
    cs = a.coeffs
    if scalar_is_zero(cs[0], max(1.0, a.magnitude())):
        raise ZeroDivisionError("series has no invertible constant term")
    inv0 = 1 / cs[0]
    support = [(j, c) for j, c in enumerate(cs) if j and c]
    out = [inv0]
    for k in range(1, len(cs)):
        acc = 0j
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


def _support(re: list, im: list | None) -> list:
    """The non-zero (k, u, v) of the Gaussian integers u + v i, im None when real."""
    if im is None:
        return [(k, u, 0) for k, u in enumerate(re) if u]
    return [(k, u, v) for k, (u, v) in enumerate(zip(re, im)) if u or v]


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


class JetValuationError(ArithmeticError):
    """Series division where the numerator vanishes to lower order than the
    divisor.

    Signals a resonance-bookkeeping mismatch; never silently absorbed.
    """


#: The jet class is `Series`; the name stays because the benchmark's layer
#: tracer (perfbench/layers.py) resolves ``Jet.__mul__`` and ``Jet.div``.
Jet = Series


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
        neg = [GSTerm(t.exponent, t.logpow, -t.body) for t in other.terms]
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
            k = integer_difference(t.exponent, cl[0])
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
        v = body.valuation(scale)
        if v is None:
            continue
        v = v if exact else next(n for n, c in enumerate(body.coeffs) if c)
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
    """d/dx = x^-1 theta termwise (`_theta`): the derivative of x^rho times a
    body known through x^N is x^(rho-1) times a body known through x^N."""
    out = []
    for t in g.terms:
        rho, m, body = t.exponent, t.logpow, t.body
        exact = isinstance(rho, GaussianRational) and body._ints()
        (e, (p,), q), (d, re, im) = ((_to_int([rho]), exact) if exact
                                     else ((1, (rho,), None), (1, body.coeffs, None)))
        im = [0] * len(re) if q and im is None else im
        B = _theta(p, q[0] if q else 0, e, [([0] * len(re), im and [0] * len(re))] * m + [(re, im)])
        out += [GSTerm(rho - 1, i, _int_series(d * e, *B[i]) if exact else Series(B[i][0]))
                for i in range(m, max(m - 2, -1), -1)]
    return GeneralizedSeries(out)


def _theta(p, q, e: int, bodies: list) -> list:
    """e theta on x^((p + q i)/e) sum_m (log x)^m B_m, in the same frame:
    B'_m = (p + n e + q i) B_m + e (m + 1) B_(m+1), on the numerators (re, im)
    of each B_m, with im None throughout for real data (and q = 0)."""
    out = []
    for m, ((re, im), (nr, ni)) in enumerate(zip(bodies, bodies[1:] + [([], [])])):
        a, f = [p + n * e for n in range(len(re))], e * (m + 1)
        r = [x * u - q * v for x, u, v in zip(a, re, im)] if im else [x * u for x, u in zip(a, re)]
        i = im and [x * v + q * u for x, u, v in zip(a, re, im)]
        out.append(([x + f * u for x, u in zip(r, nr)] if nr else r,
                    i and ([x + f * v for x, v in zip(i, ni)] if ni else i)))
    return out


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
            if not d:
                continue
            s1 = rho + n + 1  # s + 1
            if integer_difference(s1, _ZERO) == 0:
                # integral of x^{-1} log^m is log^{m+1}/(m+1)
                log_raised[n] = d / (m + 1)
                continue
            inv = fac = 1 / s1
            for j in range(m, -1, -1):
                coef = ((-1) ** (m - j)) * (math.factorial(m) // math.factorial(j))
                bodies[j][n] = bodies[j][n] + coef * fac * d
                fac = fac * inv
        for j in range(m + 1):
            out.append(GSTerm(rho + 1, j, Series(bodies[j])))
        if any(log_raised):
            # these came from x^{rho+n} with rho+n = -1; exponent folds to 0
            for n in range(N + 1):
                if log_raised[n]:
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
    # each quotient is cut to its numerator's body, so the inverse goes no further
    n = min(dt.body.trunc + 1 - v, 1 + max((t.body.trunc for t in g.terms), default=0))
    inv = series_inverse(dt.body.window(v, n))
    return GeneralizedSeries([GSTerm(t.exponent - dt.exponent - v, t.logpow, t.body * inv)
                              for t in g.terms])
