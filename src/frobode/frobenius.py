"""Series fundamental systems at regular singular points.

The engine runs the coefficient recurrence

    E_n(r) = sum_{j<n} [ (j+r)(j+r-1) a_{n-j} + (j+r) b_{n-j} + c_{n-j} ] D_j(r)
    D_n(r) = -E_n(r) / q(n+r),      D_0 = seed(r)

(order 2 drops the quadratic block) with the root variable carried as a
nilpotent jet r = base + eps, so that derivatives with respect to r -- which
produce the logarithmic solutions in the exceptional cases -- come out of the
same O(N^2) loop.  Repeated roots and positive-integer root gaps make
q(n + base + eps) vanish to some order in eps at the resonant indices; seeds
(r - base)^s supply matching eps-valuation so the division cancels.  A
log-free head needs no derivative: at jet order 0 the same recurrence runs
on plain scalars (one Gaussian-integer numerator and denominator per D_n in
exact mode), with the operations of the jet loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional, Sequence

from .indicial import (
    IndicialData,
    analyze,
    congruence_classes,
    integer_difference,
)
from .ode import FrobeniusForm, Ode, to_frobenius_form
from .scalars import (RESIDUAL_TOL, ZERO_TOL, GaussianRational, Scalar, is_exact,
                      scalar_is_zero, to_complex)
from .series import (
    GSTerm,
    GeneralizedSeries,
    JetValuationError,
    Series,
    _all_exact,
    _complex_product,
    _convolve,
    _cut,
    _gr,
    _int_series,
    _to_int,
    _unit_inverse,
    gs_differentiate,
    gs_from_series,
    laurent_ratio,
)

__all__ = [
    "FundamentalSystem",
    "FormalProbe",
    "WronskianResult",
    "frobenius_solve",
    "solve",
    "recurrence_jets",
    "formal_probe",
    "wronskian",
    "wronskian_ode_solution",
    "wronskian_of_system",
    "residual",
    "residual_valuation",
]

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)

#: ratios |a_(k+1)/a_k| a formal probe reports
_TRACE_LEN = 10

#: last non-zero coefficients a radius estimate reads
_RADIUS_TAIL = 8


@dataclass(frozen=True)
class FundamentalSystem:
    solutions: tuple  # GeneralizedSeries, ordered to match indicial.roots
    indicial: IndicialData
    trunc: int
    constants: dict = field(default_factory=dict)  # the c / c_tilde of the log cases
    warnings: tuple = ()


# ---------------------------------------------------------------------------
# recurrence kernels
# ---------------------------------------------------------------------------


def recurrence_jets(
    f: FrobeniusForm,
    roots: Sequence[Scalar],
    base: Scalar,
    seed_pow: int,
    jet_order: int,
    N: int,
) -> list[Series]:
    """Run the recurrence with r = base + eps, seed D_0 = eps^seed_pow.

    `roots` are the indicial roots, or any exponents: q(n + r) is the
    product of the (n + base - r_i + eps) factors.  Exact data runs on
    Gaussian integers (`_recurrence_exact`).  Any other data is complex: the
    form, the base and the roots are converted once, and a factor at an
    integer gap of 0 snaps to 0j, which makes resonance detection structural
    rather than a floating tolerance question.
    """
    if seed_pow > jet_order:
        raise ValueError("seed power exceeds jet order")
    if _all_exact([base, *roots]) and _form_exact(f):
        return _recurrence_exact(f, roots, base, seed_pow, jet_order, N)
    base, roots = complex(base), [complex(r) for r in roots]
    return _recurrence_jets(_complex_form(f), roots, base, seed_pow, jet_order, N)


def _form_exact(f: FrobeniusForm) -> bool:
    rows = (f.b, f.c) + ((f.a,) if f.order == 3 else ())
    return all(row._ints() for row in rows)


def _complex_form(f: FrobeniusForm) -> FrobeniusForm:
    """The form with complex rows."""
    b, c, a = (Series(row.complex_coeffs()) if row is not None else None
               for row in (f.b, f.c, f.a))
    return FrobeniusForm(f.order, b, c, a)


def _recurrence_jets(
    f: FrobeniusForm,
    roots: Sequence[complex],
    base: complex,
    seed_pow: int,
    jet_order: int,
    N: int,
) -> list[Series]:
    """The recurrence for complex data; the divisor is the jet
    q(n + base + eps) from `_q_jet`, or at jet order 0 its one coefficient.

    E_n is summed on lists of complex numbers by the operations of the
    `Series` expression sum_j (w D_j + c_k D_j), w = b_k (j + r) + a_k (j + r)(j + r - 1),
    j ascending, over the rows with a non-zero entry, so every value and
    rounding is that of `Series` arithmetic.  At jet order 0 every jet has one
    coefficient, and the same operations run on plain complex numbers:
    D_n = (1/q) (-E_n), with no `Series` until the end.
    """
    m = jet_order + 1
    rows = []  # (k, a_k, b_k, c_k, a_k != 0) for the rows with a non-zero entry, k descending
    for k in range(N, 0, -1):
        ak = f.a[k] if f.order == 3 else 0j
        bk, ck = f.b[k], f.c[k]
        if ak or bk or ck:
            rows.append((k, ak, bk, ck, bool(ak)))
    start = len(rows)  # rows[start:] are the rows with k <= n
    if m == 1:
        p1 = [base + j for j in range(N)]  # (j + r) and (j + r)(j + r - 1)
        p2 = [0j + v * (v - 1) for v in p1]
        d = [1 + 0j]
        for n in range(1, N + 1):
            while start and rows[start - 1][0] <= n:
                start -= 1
            acc = None
            for k, ak, bk, ck, has_a in rows[start:]:
                dj = d[n - k]
                w = bk * p1[n - k]
                if has_a:
                    w = w + ak * p2[n - k]
                term = (0j + w * dj) + ck * dj
                acc = term if acc is None else acc + term
            q = reduce(lambda u, r: 0j + u * _q_factor(r, base, n), roots, 1 + 0j)
            if scalar_is_zero(q, abs(q)):
                raise ZeroDivisionError("jet division by zero")
            d.append((1 / q) * -(0j if acc is None else acc))
        return [Series([u]) for u in d]
    seed = [0j] * m
    seed[seed_pow] = 1 + 0j
    D = [Series(seed)]
    # (j + r) and (j + r)(j + r - 1) jets for all j
    x = [Series.variable(base + j, jet_order) for j in range(N)]
    p1 = [xj.coeffs for xj in x]
    if f.order == 3:
        p2 = [(xj * Series.variable(base + j - 1, jet_order)).coeffs for j, xj in enumerate(x)]
    running = max(1.0, f.b.magnitude(), f.c.magnitude(),
                  f.a.magnitude() if f.a is not None else 0.0)
    for n in range(1, N + 1):
        while start and rows[start - 1][0] <= n:
            start -= 1
        acc: Optional[list] = None
        for k, ak, bk, ck, has_a in rows[start:]:
            d = D[n - k].coeffs
            L = len(d)
            w = [bk * v for v in p1[n - k][:L]]
            if has_a:
                w = [u + ak * v for u, v in zip(w, p2[n - k])]
            term = [u + ck * v for u, v in zip(_complex_product(w, d, L), d)]
            acc = term if acc is None else [u + v for u, v in zip(acc, term)]
        if acc is None:
            acc = [0j] * m
        dn = Series([-u for u in acc]).div(_q_jet(roots, base, n, jet_order), scale=running)
        D.append(dn)
        running = max(running, dn.magnitude(), max(map(abs, acc)))
    return D


def _q_jet(roots: Sequence[Scalar], base: Scalar, n: int, jet_order: int) -> Series:
    out = Series([_ONE], trunc=jet_order)
    for r in roots:
        out = out * Series.variable(_q_factor(r, base, n), jet_order)
    return out


def _q_factor(r: Scalar, base: Scalar, n: int) -> Scalar:
    """n + base - r; a non-zero float difference at an integer gap of 0 snaps
    to 0j (an exact one at that gap is 0 already)."""
    d = base + n - r
    return 0j if d and integer_difference(base + n, r) == 0 else d


def _support(re: list, im: list) -> list:
    return [(t, u, v) for t, (u, v) in enumerate(zip(re, im)) if u or v]


def _recurrence_exact(
    f: FrobeniusForm,
    roots: Sequence[GaussianRational],
    base: GaussianRational,
    seed_pow: int,
    jet_order: int,
    N: int,
) -> list[Series]:
    """`_recurrence_jets` for exact data, on Gaussian integers.

    a, b, c, base and the roots r_i are written over one common denominator
    L, read from the rows' integer forms.  With X_j = L (j + base + eps) the
    row weight a_k x(x - 1) + b_k x + c_k at x = j + base + eps is
    (A_k X_j (X_j - L) + L B_k X_j + L^2 C_k) / L^3, and the divisor
    q(n + base + eps) = prod (n + base + eps - r_i) is Q_n / L^(deg + 1),
    Q_n = L prod (X_n - L r_i), deg the number of roots.  Each D_n is a jet
    of Gaussian-integer numerators over one positive denominator, reduced by
    their gcd; E_n is summed over the lcm of the earlier denominators and
    divided by Q_n with the fraction-free unit inverse, after multiplying
    both by conj(Q_n) when Q_n is complex.  At jet order 0 each D_n is one
    numerator over its denominator, Q_n one Gaussian integer, and the same
    division is a product by conj(Q_n).
    """
    m = jet_order + 1
    deg = len(roots)
    rows = (f.a, f.b, f.c) if f.order == 3 else (f.b, f.c)
    forms = [_to_int([base, *roots])] + [row._ints() for row in rows]
    L = math.lcm(*(d for d, _, _ in forms))
    (beta, *R), *coef = [  # base, the roots and the entries 1 .. N of a, b, c over L
        [(L // d * u, L // d * v) for u, v in zip(_cut(re, lo, n), _cut(im or [], lo, n))]
        for (d, re, im), lo, n in zip(forms, (0, 1, 1, 1), (deg + 1, N, N, N))]
    real = not any(im for _, _, im in forms)
    L2 = L * L
    weights = []  # (k, A, L B, L^2 C) as integers, for the rows with a non-zero entry
    for k, abc in enumerate(zip(*coef), 1):
        A, B, C = abc if f.order == 3 else ((0, 0), *abc)
        if any(A + B + C):
            weights.append((k, *A, L * B[0], L * B[1], L2 * C[0], L2 * C[1]))
    # X_j = x_j + L eps, X_j (X_j - L) = x_j (x_j - L) + s_j eps + L^2 eps^2
    x = [(j * L + beta[0], beta[1]) for j in range(N + 1)]
    xy = [(u * (u - L) - v * v, v * (2 * u - L)) for u, v in x]
    lift = L ** (deg - 2)  # L^(deg + 1) of q over the L^3 of the weights
    if m == 1:
        D1, lam = [(1, 0, 1)], 1  # D_n = (u + v i) / d; lam is the lcm of the d
        for n in range(1, N + 1):
            er = ei = 0
            for k, ar, ai, br, bi, cr, ci in weights:
                if k > n:
                    break
                (u, v, d), (xr, xi), (yr, yi) = D1[n - k], x[n - k], xy[n - k]
                wr = ar * yr - ai * yi + br * xr - bi * xi + cr
                wi = ar * yi + ai * yr + br * xi + bi * xr + ci
                er += lam // d * (wr * u - wi * v)
                ei += lam // d * (wr * v + wi * u)
            (xr, xi), hr, hi = x[n], L, 0  # Q_n
            for rr, ri in R:
                ur, ui = xr - rr, xi - ri
                hr, hi = hr * ur - hi * ui, hr * ui + hi * ur
            if not (hr or hi):
                raise ZeroDivisionError("jet division by zero")
            if hi:
                er, ei, hr = er * hr + ei * hi, ei * hr - er * hi, hr * hr + hi * hi
            sign = -lift if hr > 0 else lift
            er, ei, d = sign * er, sign * ei, abs(hr) * lam
            g = math.gcd(d, er, ei)
            D1.append((er // g, ei // g, d // g))
            lam = math.lcm(lam, d // g)
        return [_int_series(d, [u], None if real else [v]) for u, v, d in D1]
    s = [(L * (2 * u - L), L * 2 * v) for u, v in x]
    seed = [int(t == seed_pow) for t in range(m)]
    D = [_int_series(1, seed, None if real else [0] * m)]
    nums, lens, dens, lam = [_support(seed, [0] * m)], [m], [1], 1  # lam: lcm of dens
    for n in range(1, N + 1):
        re, im = [0] * m, [0] * m
        ell = m
        for k, ar, ai, br, bi, cr, ci in weights:
            if k > n:
                break
            j = n - k
            (xr, xi), (yr, yi), (sr, si) = x[j], xy[j], s[j]
            w = [(0, ar * yr - ai * yi + br * xr - bi * xi + cr,
                  ar * yi + ai * yr + br * xi + bi * xr + ci),
                 (1, ar * sr - ai * si + L * br, ar * si + ai * sr + L * bi),
                 (2, L2 * ar, L2 * ai)]
            ell = min(ell, lens[j])
            tr, ti = _convolve(w, nums[j], lens[j], real)
            fac = lam // dens[j]
            for t in range(lens[j]):
                re[t] += fac * tr[t]
                im[t] += fac * ti[t]
        xr, xi = x[n]
        h = [(L, 0)] + [(0, 0)] * (m - 1)  # Q_n
        for rr, ri in R:  # h <- h (X_n - L r_i)
            ur, ui = xr - rr, xi - ri
            h = [(u * ur - v * ui + L * p, u * ui + v * ur + L * q)
                 for (u, v), (p, q) in zip(h, [(0, 0)] + h)]
        v = next((t for t, p in enumerate(h) if p != (0, 0)), None)
        if v is None:
            raise ZeroDivisionError("jet division by zero")
        if v > 0:
            nv = next((t for t in range(ell) if re[t] or im[t]), None)
            if nv is None:
                nums.append([])
                lens.append(max(1, ell - v))
                dens.append(1)
                D.append(_int_series(1, [0] * lens[-1], None))
                continue
            if nv < v:
                raise JetValuationError(f"numerator valuation {nv} < divisor valuation {v}")
        mm = ell - v
        num = _support(re[v:ell], im[v:ell])
        den = [(t, u, w) for t, (u, w) in enumerate(h[v : v + mm]) if u or w]
        if any(w for _, _, w in den):
            conj = [(t, u, -w) for t, u, w in den]
            num = _support(*_convolve(num, conj, mm, False))
            den = _support(*_convolve(den, conj, mm, False))
        C, pw = _unit_inverse(den, mm)
        sign = -lift if pw[mm] > 0 else lift
        inv = [(t, sign * C[t] * pw[mm - 1 - t], 0) for t in range(mm) if C[t]]
        out_re, out_im = _convolve(num, inv, mm, real)
        d = abs(pw[mm]) * lam
        gcd = math.gcd(d, *out_re, *out_im)
        out_re, out_im = [u // gcd for u in out_re], [u // gcd for u in out_im]
        nums.append(_support(out_re, out_im))
        lens.append(mm)
        dens.append(d // gcd)
        D.append(_int_series(dens[-1], out_re, None if real else out_im))
        lam = math.lcm(lam, dens[-1])
    return D


def _emit_solution(base: Scalar, D: list[Series], j: int, N: int) -> GeneralizedSeries:
    """The j-th r-derivative of x^r sum D_n(r) x^n at r = base, as a
    GeneralizedSeries: sum_t C(j,t) (log x)^t x^base sum_n D_n^{(j-t)} x^n.
    Exact jets give bodies in integer form over the lcm of their denominators;
    a jet that ends below eps^j raises JetValuationError."""
    if any(D[n].trunc < j for n in range(N + 1)):
        raise JetValuationError(f"a jet ends below eps^{j} at exponent {base!r}")
    terms = []
    forms = [D[n]._ints() for n in range(N + 1)]
    lam = math.lcm(*(d for d, _, _ in forms)) if all(forms) else None
    for t in range(j + 1):
        fac = math.comb(j, t) * math.factorial(j - t)
        i = j - t
        if lam and all(i < len(re) for _, re, _ in forms):
            body = _int_series(lam, [fac * (lam // d) * re[i] for d, re, _ in forms],
                               [fac * (lam // d) * im[i] if im else 0 for d, _, im in forms])
        else:
            body = Series([fac * D[n].coeff(i) for n in range(N + 1)])
        terms.append(GSTerm(base, t, body))
    return GeneralizedSeries(terms)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def frobenius_solve(f: FrobeniusForm, N: int = 32) -> FundamentalSystem:
    """Fundamental system at a regular singular (or ordinary) chart origin."""
    ind = analyze(f)
    roots = ind.roots
    entries = []  # (sort_key, solution)
    constants: dict = {}
    warnings: list[str] = []
    for cls in congruence_classes(roots):
        for i, (v, mu, k) in enumerate(cls):
            gaps = [ka - k for _, mua, ka in cls[:i] for _ in range(mua)]  # to the roots above
            sols, consts, warns = _member_solutions(f, roots, v, mu, gaps, N)
            entries.extend(((v, j), s) for j, s in enumerate(sols))
            constants.update(consts)
            warnings.extend(warns)
    entries.sort(key=lambda e: (roots.index(e[0][0]), e[0][1]))
    sols = tuple(s for _, s in entries)
    return FundamentalSystem(sols, ind, N, constants, tuple(warnings))


def _member_solutions(
    f: FrobeniusForm,
    roots: Sequence[Scalar],
    base: Scalar,
    mu: int,
    gaps: list[int],
    N: int,
) -> tuple[list[GeneralizedSeries], dict, list[str]]:
    """The mu solutions attached to a class member at exponent `base`, with the
    roots of its class above it at `gaps`, their log constants and warnings.

    Seeds (r-base)^s are tried in increasing order starting from the paper's
    choice, s = 0 for a repeated root or the top member (nothing above it
    to cancel) and s = 1 otherwise; a seed fails (JetValuationError) when an
    eps-cancellation it relies on does not occur, in which case the next
    seed always absorbs one more resonance and eventually s = len(gaps) is
    unconditionally safe.
    """
    s_first = 0 if mu > 1 or not gaps else 1
    last_err: Exception | None = None
    for s in range(s_first, len(gaps) + 1):
        jet_order = s + mu - 1 + len(gaps)
        try:
            jets = recurrence_jets(f, roots, base, s, jet_order, N)
            sols = [_emit_solution(base, jets, j, N) for j in range(s, s + mu)]
        except JetValuationError as err:
            last_err = err
            continue
        warns = [f"seed (r-base)^{s} used at exponent {base!r}: the paper's"
                 f" lower-order seed hit an uncancelled resonance"] if s > s_first else []
        return sols, _read_log_constants(jets, gaps, s, N), warns
    raise JetValuationError(
        f"no admissible seed at exponent {base!r}: {last_err}"
    )


def _read_log_constants(jets: list[Series], gaps: list[int], s: int, N: int) -> dict:
    """The c / c_tilde constants: the eps^0 coefficient of D at the first
    resonant index, which multiplies the leading exponent of the higher
    solution in the log term."""
    if s not in (1, 2):
        return {}
    res = sorted(n for n in gaps if n <= N)  # the resonant indices
    if not res:
        return {}
    val = jets[res[0]].coeffs[0]
    if len(set(res)) >= 2:
        # two distinct resonances (case iv at the bottom root): the read-off
        # multiplies the middle solution's leading exponent
        return {"c_tilde": val}
    return {"c": val}


def solve(e: Ode, N: int = 32) -> FundamentalSystem:
    """Convenience: normalize an Ode at Finite(0) and solve."""
    return frobenius_solve(to_frobenius_form(e), N)


# ---------------------------------------------------------------------------
# formal probing at arbitrary (possibly irregular) points
# ---------------------------------------------------------------------------

#: radius estimate below which formal solutions are reported divergent
DIVERGENT_RADIUS = 1e-3


@dataclass(frozen=True)
class FormalProbe:
    status: str  # "solutions" | "trivial_only" | "divergent_formal"
    candidates: tuple  # Series tuple (one per free coefficient)
    trace: tuple  # first K ratio magnitudes |a_{k+1}/a_k| of the primary candidate
    radius_estimate: float  # may be 0.0 or math.inf


def formal_probe(e: Ode, N: int = 32) -> FormalProbe:
    """Plain power-series ansatz y = sum a_n x^n in the raw equation: whether
    nontrivial formal solutions exist, and an estimate of their radius.  With
    A_i multiplying y^(d_i) at valuation v_i, the x^k coefficient (k <= N +
    order) involves a_n for n <= k + s, s = max(d_i - v_i), with P(k + s) at
    n = k + s.  Walking n upward, a_n is a vector over free parameters: a
    column no coefficient reaches, or where P(n) = 0, opens one; where
    P(n) != 0 the coefficient solves for a_n; one whose top entry vanishes is
    a constraint that eliminates a parameter; one reaching past a_N is
    dropped.  The candidates are the canonical basis, each vector's last
    non-zero entry in a column where the others vanish, ordered by that
    column and scaled to a monic lowest term.  A float coefficient is zero
    when negligible against the largest, a float sum when negligible against
    its terms, and a float pivot is the largest entry."""
    order = e.order
    exact = all(row._ints() for row in e.coeffs)
    zero, one = (_ZERO, _ONE) if exact else (0j, 1.0 + 0j)
    scale = 1.0 if exact else max(r.magnitude() for r in e.coeffs)
    rows = []  # (d_i, the non-zero (j, A_i[j])) of each row A_i
    for i, r in enumerate(e.coeffs):
        nz = [(j, c if exact else to_complex(c)) for j, c in enumerate(r.coeffs)
              if not scalar_is_zero(c, scale)]
        rows.append((order - i, nz))
    s = max(d - nz[0][0] for d, nz in rows if nz)
    # a_n grows like (n!)^gevrey: the steepest slope of the recurrence's Newton
    # polygon, positive only where Fuchs' criterion fails (top < order)
    top = max(d for d, nz in rows if nz and d - nz[0][0] == s)
    gevrey = max(((d - top) / (s - d + j) for d, nz in rows for j, _ in nz if d - j < s),
                 default=0.0)

    def equation(k: int) -> list:
        """[(n, coefficient of a_n)] of the x^k coefficient, zeros left out."""
        cols: dict = {}
        for d, nz in rows:
            for j, c in nz:
                if j <= k:
                    cols.setdefault(k + d - j, []).append(math.perm(k + d - j, d) * c)
        eq = [(n, _sum(ts, exact)) for n, ts in sorted(cols.items())]
        return [(n, c) for n, c in eq if c]

    def apply(eq: list, v: list) -> Scalar:
        return _sum([c * v[n] for n, c in eq if v[n]], exact)

    basis: list = []  # a_0 .. a_N of each free parameter, known through a_n
    for n in range(max(N, N + order + s) + 1):
        eq = equation(n - s) if 0 <= n - s <= N + order else []
        if eq and eq[-1][0] == n and n <= N:
            pn = eq.pop()[1]
            for v in basis:
                v[n] = -apply(eq, v) / pn
            continue
        if not eq or eq[-1][0] <= N:
            p = _pivot(basis, [apply(eq, v) for v in basis], exact)
            if p is not None:
                del basis[p]
        if n <= N:
            basis.append([zero] * n + [one] + [zero] * (N - n))
    if not basis:
        return FormalProbe("trivial_only", (), (), math.inf)
    column: dict = {}  # vector index -> the column of its last non-zero entry
    for col in range(N, -1, -1):
        p = _pivot(basis, [v[col] for v in basis], exact, skip=column)
        if p is not None:
            column[p] = col
    candidates = tuple(_monic_leading(Series(basis[q])) for q in sorted(column, key=column.get))
    primary = candidates[0]
    trace = []
    for k in range(min(_TRACE_LEN, N)):
        a0, a1 = to_complex(primary[k]), to_complex(primary[k + 1])
        trace.append(abs(a1 / a0) if a0 != 0 else math.inf)
    radius = min(_radius_estimate(c, gevrey) for c in candidates)
    status = "divergent_formal" if radius < DIVERGENT_RADIUS else "solutions"
    return FormalProbe(status, candidates, tuple(trace), radius)


def _sum(terms: list, exact: bool) -> Scalar:
    """The sum of the terms; a float sum negligible against their magnitude is 0."""
    total = sum(terms, _ZERO if exact else 0j)
    if exact:
        return total
    bound = ZERO_TOL * sum(map(abs, terms))
    if math.isfinite(bound) and abs(total) <= bound:
        return 0j
    return total


def _pivot(vecs: list, c: list, exact: bool, skip=()) -> Optional[int]:
    """Pivot on the first non-zero c[p], p not in `skip` (the largest in float
    mode): subtract c[q]/c[p] times vecs[p] from every other vecs[q], so that
    c, read as a linear form, vanishes on each of them; return p, or None
    when those c[p] are all 0."""
    live = [q for q in range(len(c)) if q not in skip and c[q]]
    if not live:
        return None
    if exact:
        p = live[0]
    else:
        p = max(live, key=lambda q: abs(c[q]))
    for q, v in enumerate(vecs):
        if q != p and c[q]:
            f = c[q] / c[p]
            vecs[q] = [_sum([x, -f * y], exact) for x, y in zip(v, vecs[p])]
    return p


def _monic_leading(s: Series) -> Series:
    """s over its first non-zero coefficient, a float one however small."""
    lead = next((c for c in s.coeffs if c), None)
    if lead is None:
        return s
    return s.scale(1 / lead)


def _radius_estimate(s: Series, gevrey: float) -> float:
    """1 / limsup |a_n|^(1/n) from the last `_RADIUS_TAIL` non-zero terms, or 0
    when the series diverges.  At a regular singular or ordinary point
    (gevrey <= 0) every formal power series converges; at an irregular one
    a_n grows like (n!)^gevrey R^n unless the series converges, and the test
    is |a_n|^(1/n) increasing across the tail by a factor 1.10, or by less
    where n^(gevrey/2) grows by less: far out, (n!)^gevrey gains only about
    (n_last/n_first)^gevrey over a tail of fixed length.  |a_n|^(1/n) is read
    from the exact parts when |a_n| is out of the float range; a float a_n
    that overflowed is left out."""
    tail = [(n, c) for n, c in enumerate(s.coeffs)
            if n and c and (is_exact(c) or math.isfinite(abs(c)))]
    tail = tail[-_RADIUS_TAIL:]
    if len(tail) < 3:
        return math.inf
    rho = []
    for n, c in tail:
        if is_exact(c) and not 1e-300 < abs(c.re) + abs(c.im) < 1e300:
            norm = c.re * c.re + c.im * c.im
            rho.append(math.exp((math.log(norm.numerator) - math.log(norm.denominator)) / (2 * n)))
        else:
            rho.append(abs(to_complex(c)) ** (1.0 / n))
    if gevrey > 0:
        increasing = all(b >= a * (1 - 1e-9) for a, b in zip(rho, rho[1:]))
        growth = min(1.10, (tail[-1][0] / tail[0][0]) ** (gevrey / 2))
        if increasing and rho[-1] >= rho[0] * growth:
            return 0.0
    return 1.0 / max(rho)


# ---------------------------------------------------------------------------
# wronskians and residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WronskianResult:
    """W = K x^exponent body, body(0) = 1 -- or, when b/a has a pole of order
    >= 2, an essential singularity described by the principal part of -int b/a."""

    essential: bool
    exponent: Optional[Scalar] = None
    body: Optional[Series] = None
    principal_part: dict = field(default_factory=dict)  # exponent -> coefficient

    def as_generalized_series(self) -> GeneralizedSeries:
        if self.essential:
            raise ValueError("essential-singularity wronskian has no series form")
        return gs_from_series(self.body, self.exponent)


def _abel_rows(e: Ode) -> tuple:
    """(alpha, beta, principal): the two leading rows as a = x^v alpha and
    b = x^(v-1) beta through the order they are known to; or, when b/a has
    terms u x^p with p < -1, None, None and the principal part of -int b/a."""
    a, b = e.coeffs[0], e.coeffs[1]
    v, vb, T = a.valuation(), b.valuation(), min(a.trunc, b.trunc)
    if vb is None or vb >= v - 1:
        return a.window(v, T + 1 - v), b.window(v - 1, T + 2 - v), {}
    shift, unit = laurent_ratio(b, a)
    scale = max(1.0, unit.magnitude())
    return None, None, {shift + j + 1: -u / (shift + j + 1) for j, u in
                        enumerate(unit.coeffs[: -1 - shift]) if not scalar_is_zero(u, scale)}


def _abel_body(alpha: Series, beta: Series, lead: Scalar = _ONE) -> tuple:
    """(rho, w): x^rho w solves x alpha W' + beta W = 0, with rho = -beta_0/alpha_0,
    w_0 = lead and alpha_0 m w_m = -sum_{k>=1} (alpha_k (m - k) + gamma_k) w_(m-k),
    gamma = beta + rho alpha, through gamma's order and at most one past alpha's
    (w_m reads alpha_k for k < m only).  Exact rows run on Gaussian integers a, b
    (the rows times one factor that makes a_0 a positive integer): w_m = u_m/E_m,
    E_m = m! a_0^(2m), u_m = -sum_k (a_0 a_k (m - k) + a_0 b_k - b_0 a_k) u_(m-k)
    E_(m-1)/E_(m-k).  Other rows run in complex."""
    t, s = alpha._ints(), beta._ints()
    if not (t and s):
        a, b = ([*r.complex_coeffs()] for r in (alpha, beta))
        rho = -b[0] / a[0]
        M = min(len(a) - bool(rho), len(b) - 1)
        sup = [(k, x / a[0], (y + rho * x) / a[0]) for k, (x, y) in enumerate(zip(a + [0j], b))
               if 0 < k <= M and (x or y)]
        w = [to_complex(lead)]
        for m in range(1, M + 1):
            w.append(-sum(((x * (m - k) + y) * w[m - k] for k, x, y in sup if k <= m), 0j) / m)
        return rho, Series(w)
    (da, ra, ia), (db, rb, ib) = t, s
    ia, ib = ia or [0] * len(ra), ib or [0] * len(rb)
    cr, ci = ra[0], -ia[0]  # both rows times da db conj(alpha_0 da)
    a = [((u * cr - v * ci) * db, (u * ci + v * cr) * db) for u, v in zip(ra, ia)] + [(0, 0)]
    b = [((u * cr - v * ci) * da, (u * ci + v * cr) * da) for u, v in zip(rb, ib)]
    (a0, _), (b0r, b0i) = a[0], b[0]
    M = min(len(a) - 1 - bool(b0r or b0i), len(b) - 1)
    sup = [(k, a0 * xr, a0 * xi, a0 * yr - b0r * xr + b0i * xi, a0 * yi - b0r * xi - b0i * xr)
           for k, ((xr, xi), (yr, yi)) in enumerate(zip(a[1 : M + 1], b[1:]), 1)
           if xr or xi or yr or yi]
    (dk, (kr,), ki) = _to_int([lead])
    E, ur, ui = [1], [kr], [ki[0] if ki else 0]
    for m in range(1, M + 1):
        xr = xi = 0
        for k, pr, pi, gr, gi in sup:
            if k > m:
                break
            f = E[m - 1] // E[m - k]
            qr, qi, vr, vi = (pr * (m - k) + gr) * f, (pi * (m - k) + gi) * f, ur[m - k], ui[m - k]
            xr += qr * vr - qi * vi
            xi += qr * vi + qi * vr
        E.append(E[-1] * m * a0 * a0)
        ur.append(-xr)
        ui.append(-xi)
    return _gr(-b0r, -b0i, a0), _int_series(E[M] * dk, [u * (E[M] // d) for u, d in zip(ur, E)],
                                            [v * (E[M] // d) for v, d in zip(ui, E)])


def wronskian_ode_solution(e: Ode) -> WronskianResult:
    """Abel's identity: W = x^rho w solves a W' + b W = 0 for the two leading
    rows a, b of an equation of order 2 or 3 (see `_abel_body`)."""
    alpha, beta, principal = _abel_rows(e)
    if alpha is None:
        return WronskianResult(True, principal_part=principal)
    return WronskianResult(False, *_abel_body(alpha, beta))


def wronskian(e: Ode, solutions) -> GeneralizedSeries:
    """The wronskian of a fundamental system of e by Abel's identity, through the
    order the rows determine: K x^rho w with w from `_abel_body`, and K x^rho the
    lowest term of the determinant of the solutions cut to `order` terms (zero
    when that is).  Exact solutions give an exact W, whose rho must be Abel's;
    any other W is complex."""
    det = wronskian_of_system([s.truncate(e.order - 1) for s in solutions])
    free = [t for t in det.terms if not t.logpow]
    if not free:
        return GeneralizedSeries(())
    low = min(free, key=lambda t: to_complex(t.exponent).real)
    alpha, beta, _ = _abel_rows(e)
    if alpha is None:
        raise ValueError("essential-singularity wronskian has no series form")
    exact = all(t.body._ints() for s in solutions for t in s.terms)
    rho, w = _abel_body(alpha if exact else Series(alpha.complex_coeffs()), beta, low.body[0])
    if exact and rho != low.exponent:
        raise ArithmeticError(f"the solutions' wronskian leads with x^{low.exponent}, "
                              f"Abel's identity with x^{rho}")
    return GeneralizedSeries([GSTerm(low.exponent, 0, w)], False)


def wronskian_of_system(solutions) -> GeneralizedSeries:
    """Determinant of the derivative matrix in GeneralizedSeries arithmetic,
    expanded along the first row: the minor of column j is the determinant
    of the rows below over the other columns, taken cyclically from j + 1,
    which gives it the sign (-1)^(j (n - 1))."""
    if isinstance(solutions, FundamentalSystem):
        solutions = solutions.solutions
    mat = [list(solutions)]
    while len(mat) < len(mat[0]):
        mat.append([gs_differentiate(g) for g in mat[-1]])

    def det(k: int, cols: list) -> GeneralizedSeries:
        if len(cols) == 1:
            return mat[k][cols[0]]
        out = None
        for j, c in enumerate(cols):
            term = mat[k][c] * det(k + 1, cols[j + 1:] + cols[:j])
            out = term if out is None else out - term if j * (len(cols) - 1) % 2 else out + term
        return out

    return det(0, list(range(len(mat))))


def residual(e: Ode, g: GeneralizedSeries) -> GeneralizedSeries:
    """L(g) minus the right-hand side, in GeneralizedSeries arithmetic."""
    derivs = [g]
    for _ in range(e.order):
        derivs.append(gs_differentiate(derivs[-1]))
    out = None
    for i, row in enumerate(e.coeffs):  # row multiplies y^(order - i)
        term = gs_from_series(row) * derivs[e.order - i]
        out = term if out is None else out + term
    if e.rhs is not None:
        out = out - gs_from_series(e.rhs)
    return out


def residual_valuation(res: GeneralizedSeries, base: Scalar, scale: float = 1.0) -> float:
    """How deeply the residual vanishes, graded by x^base: the smallest
    k + offset over non-negligible coefficients (math.inf if none).  An exact
    coefficient is negligible only when it is zero; a floating one when it is
    at most RESIDUAL_TOL * scale."""
    best = math.inf
    thresh = RESIDUAL_TOL * max(1.0, scale)
    for t in res.terms:
        off = integer_difference(t.exponent, base)
        if off is None:
            off_c = to_complex(t.exponent) - to_complex(base)
            off = off_c.real
        k = t.body.valuation() if t.body._ints() else next(
            (k for k, c in enumerate(t.body.coeffs) if abs(c) > thresh), None)
        if k is not None:
            best = min(best, k + off)
    return best
