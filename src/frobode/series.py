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
from typing import Callable, Iterable, Sequence

from .scalars import (
    GaussianRational,
    Scalar,
    as_exact,
    integer_difference,
    is_exact,
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
    "series_exp",
    "laurent_ratio",
    "poly_eval_jet",
    "gs_differentiate",
    "gs_integrate",
    "gs_evaluate",
    "gs_from_series",
]

#: merging tolerance for floating exponents in GeneralizedSeries normalization
EXP_TOL = 1e-9

_ZERO = GaussianRational(0)
_SCALAR_TYPES = frozenset((GaussianRational, complex))
_EXACT_TYPES = frozenset((GaussianRational,))


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
    """Truncated power series: coefficients for x^0 .. x^trunc."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence, trunc: int | None = None):
        cs = _as_scalar_list(coeffs)
        if trunc is not None:
            cs = cs[: trunc + 1] + (_ZERO,) * (trunc + 1 - len(cs))
        elif not cs:
            cs = (_ZERO,)
        self.coeffs = cs

    @classmethod
    def variable(cls, base: Scalar, order: int) -> "Series":
        """base + t, truncated at t^order."""
        one = GaussianRational(1) if is_exact(base) else 1.0 + 0j
        return cls([base, one], trunc=order)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

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
        return max((abs(to_complex(c)) for c in self.coeffs), default=0.0)

    def is_zero(self, scale: float | None = None) -> bool:
        s = scale if scale is not None else 1.0
        return all(scalar_is_zero(c, s) for c in self.coeffs)

    def valuation(self, scale: float | None = None) -> int | None:
        """Index of the first non-negligible coefficient, or None if all vanish."""
        if scale is None:
            # exact coefficients are tested exactly, whatever the scale
            scale = 1.0 if _all_exact(self.coeffs) else max(1.0, self.magnitude())
        for n, c in enumerate(self.coeffs):
            if not scalar_is_zero(c, scale):
                return n
        return None

    # -- arithmetic (truncates to the shorter operand) ---------------------
    def __add__(self, other: "Series") -> "Series":
        a, b = self.coeffs, other.coeffs
        if _all_exact(a) and _all_exact(b):
            return Series([(x + y if x else y) if y else x for x, y in zip(a, b)])
        return Series([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "Series") -> "Series":
        n = min(len(self.coeffs), len(other.coeffs))
        return Series([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs[:n], other.coeffs[:n]
        if _all_exact(a) and _all_exact(b):
            return Series(_mul_exact(a, b))
        out = [_ZERO] * n
        for i in range(n):
            ai = a[i]
            if isinstance(ai, GaussianRational) and not ai:
                continue
            for j in range(n - i):
                out[i + j] = out[i + j] + ai * b[j]
        return Series(out)

    def scale(self, k: Scalar) -> "Series":
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

    def shift(self, k: int) -> "Series":
        """Multiply by x^k (k >= 0) or divide by x^{-k}, keeping trunc."""
        if k >= 0:
            return Series(([_ZERO] * k) + list(self.coeffs), trunc=self.trunc)
        return Series(list(self.coeffs[-k:]), trunc=self.trunc)

    def truncate(self, n: int) -> "Series":
        return Series(self.coeffs, trunc=n)

    def derivative(self) -> "Series":
        """d/dx as a plain series; trunc drops by one."""
        if len(self.coeffs) == 1:
            return Series([_ZERO])
        return Series([(n + 1) * self.coeffs[n + 1] for n in range(len(self.coeffs) - 1)])

    def evaluate(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + to_complex(c)
        return acc

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
    if _all_exact(a.coeffs):
        return Series(_inverse_exact(a.coeffs))
    a0 = a.coeffs[0]
    if scalar_is_zero(a0, max(1.0, a.magnitude())):
        raise ZeroDivisionError("series has no invertible constant term")
    n = len(a.coeffs)
    inv0 = (GaussianRational(1) / a0) if is_exact(a0) else (1.0 / to_complex(a0))
    # exact-zero a_j are skipped: each added an exact zero, or a complex zero
    # to a sum that the complex terms make complex anyway
    support = [(j, c) for j, c in enumerate(a.coeffs) if j and not (is_exact(c) and not c)]
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


def _common_denominator(coeffs: Sequence[GaussianRational]) -> tuple[int, list, bool]:
    """(d, support, real) with c_k = (u + v i)/d for each (k, u, v) in
    support, which lists the non-zero coefficients in increasing k; `real`
    says that every v is 0."""
    d = 1
    for c in coeffs:
        d = math.lcm(d, c.re.denominator, c.im.denominator)
    support = []
    real = True
    for k, c in enumerate(coeffs):
        u, v = c.re, c.im
        if v:
            real = False
        elif not u:
            continue
        support.append((k, u.numerator * (d // u.denominator), v.numerator * (d // v.denominator)))
    return d, support, real


def _gr(u: int, v: int, d: int) -> GaussianRational:
    """(u + v i)/d in lowest terms."""
    if not v:
        return GaussianRational(Fraction(u, d)) if u else _ZERO
    return GaussianRational(Fraction(u, d), Fraction(v, d))


def _mul_exact(a: Sequence[GaussianRational], b: Sequence[GaussianRational]) -> list:
    """Truncated product of two equal-length exact coefficient lists, with
    one integer convolution over the non-zero supports."""
    n = len(a)
    da, sa, ra = _common_denominator(a)
    db, sb, rb = _common_denominator(b)
    re, im = _convolve(sa, sb, n, ra and rb)
    d = da * db
    return [_gr(re[k], im[k], d) for k in range(n)]


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


def _inverse_exact(a: Sequence[GaussianRational]) -> list:
    """Fraction-free inverse: with a = A/d for integers A_j,
    1/a = d C_k / A_0^(k+1) (see `_unit_inverse`).  A complex a is inverted
    as conj(a) / (a conj(a)), whose divisor is real."""
    d, support, real = _common_denominator(a)
    if not real:
        conj = [c.conjugate() for c in a]
        return _mul_exact(conj, _inverse_exact(_mul_exact(a, conj)))
    if not support or support[0][0] != 0:
        raise ZeroDivisionError("series has no invertible constant term")
    n = len(a)
    C, pw = _unit_inverse(support, n)
    return [_gr(d * C[k], 0, pw[k + 1]) for k in range(n)]


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


def series_exp(a: Series) -> Series:
    """exp of a series with zero constant term."""
    if not scalar_is_zero(a.coeffs[0], max(1.0, a.magnitude())):
        raise ValueError("series_exp requires zero constant term")
    n = len(a.coeffs)
    out = [GaussianRational(1) if is_exact(a.coeffs[0]) else 1.0 + 0j]
    for k in range(1, n):
        acc = _ZERO
        for j in range(1, k + 1):
            acc = acc + (j * a.coeffs[j]) * out[k - j]
        out.append(acc / k)
    return Series(out)


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
    nn = Series(num.coeffs[vn:])
    dd = Series(den.coeffs[vd:])
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
    x = Series.variable(point, order)
    acc = Series([_ZERO], trunc=order)
    for c in reversed(list(poly)):
        acc = acc * x + Series([c], trunc=order)
    return acc


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
        neg = [GSTerm(t.exponent, t.logpow, -t.body if _all_exact(t.body.coeffs)
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

    def shift_exponent(self, delta: Scalar) -> "GeneralizedSeries":
        return GeneralizedSeries(
            [GSTerm(t.exponent + delta, t.logpow, t.body) for t in self.terms],
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
    """Fold integer exponent offsets into bodies, merge, drop zero terms."""
    if not terms:
        return ()
    exact = all(_all_exact(t.body.coeffs) for t in terms)
    scale = 1.0 if exact else max(1.0, max(t.body.magnitude() for t in terms))
    # choose class representatives: smallest real part within each integer class
    reps: list[Scalar] = []
    for t in terms:
        placed = False
        for i, r in enumerate(reps):
            k = integer_difference(t.exponent, r, EXP_TOL)
            if k is not None:
                if k < 0:
                    reps[i] = t.exponent
                placed = True
                break
        if placed:
            continue
        reps.append(t.exponent)
    merged: dict[tuple[int, int], Series] = {}
    rep_of: dict[tuple[int, int], Scalar] = {}
    trunc = min(t.body.trunc for t in terms)
    for t in terms:
        for i, r in enumerate(reps):
            k = integer_difference(t.exponent, r, EXP_TOL)
            if k is not None:
                key = (i, t.logpow)
                body = t.body.truncate(trunc).shift(k)
                if key in merged:
                    merged[key] = merged[key] + body
                else:
                    merged[key] = body
                    rep_of[key] = r
                break
    out = []
    for key in sorted(
        merged,
        key=lambda k: (
            to_complex(rep_of[k]).real,
            to_complex(rep_of[k]).imag,
            k[1],
        ),
    ):
        body = merged[key]
        if not any(body.coeffs) if exact else body.is_zero(scale):
            continue
        rho, k2 = rep_of[key], key[1]
        # compact: strip exactly-zero leading coefficients into the exponent
        v = 0
        while v < len(body.coeffs) and structural_zero(body.coeffs[v]):
            v += 1
        if v and v <= body.trunc:
            body = Series(body.coeffs[v:])
            rho = rho + v
        out.append(GSTerm(rho, k2, body))
    return tuple(out)


def gs_from_series(body: Series, exponent: Scalar = _ZERO, logpow: int = 0) -> GeneralizedSeries:
    return GeneralizedSeries([GSTerm(exponent, logpow, body)])


def gs_differentiate(g: GeneralizedSeries) -> GeneralizedSeries:
    """d/dx termwise; body truncation drops by one (last coefficient unreliable)."""
    out = []
    for t in g.terms:
        rho, m = t.exponent, t.logpow
        body = t.body.truncate(max(t.body.trunc - 1, 0))
        if isinstance(rho, GaussianRational) and _all_exact(body.coeffs):
            power_body, log_body = _differentiate_exact(rho, m, body.coeffs)
        else:
            power_body = Series([(rho + n) * c for n, c in enumerate(body.coeffs)])
            log_body = body.scale(m) if m else None
        out.append(GSTerm(rho - 1, m, power_body))
        if m:
            out.append(GSTerm(rho - 1, m - 1, log_body))
    return GeneralizedSeries(out)


def _differentiate_exact(rho: GaussianRational, m: int, cs: Sequence) -> tuple:
    """The bodies (rho + n) c_n and m c_n, with rho = (p + q i)/e and
    c_n = (u + v i)/d, as Gaussian-integer products over e d and d."""
    e = math.lcm(rho.re.denominator, rho.im.denominator)
    p = rho.re.numerator * (e // rho.re.denominator)
    q = rho.im.numerator * (e // rho.im.denominator)
    d, support, _ = _common_denominator(cs)
    power = [_ZERO] * len(cs)
    log = [_ZERO] * len(cs)
    for n, u, v in support:
        a = p + n * e
        power[n] = _gr(a * u - q * v, a * v + q * u, d * e)
        if m:
            log[n] = _gr(m * u, m * v, d)
    return Series(power), Series(log) if m else None


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
    unit = Series(dt.body.coeffs[v:])
    inv = series_inverse(unit)
    out = []
    for t in g.terms:
        out.append(
            GSTerm(t.exponent - dt.exponent - v, t.logpow, t.body * inv)
        )
    return GeneralizedSeries(out)
