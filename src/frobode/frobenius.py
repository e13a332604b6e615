"""Series fundamental systems at regular singular points.

The engine runs the recurrence of the equation's theta-form (`FrobeniusForm`),
x^order L = x^v sum_k x^k P_k(theta) with theta = x d/dx and P_0 = lead_0 q:

    P_0(n + r) D_n(r) = lead_n q(r) D_0 - sum_{k=1..min(n,d)} P_k(n-k+r) D_{n-k}(r)

D_0 = seed(r).  Nothing is divided by the leading row, and d is bounded by
the degrees of the rows, so the loop costs O(N d).  The root variable is a
nilpotent jet r = base + eps, so that derivatives with respect to r -- which
produce the logarithmic solutions in the exceptional cases -- come out of the
same loop.  Repeated roots and positive-integer root gaps make
q(n + base + eps) vanish to some order in eps at the resonant indices; seeds
(r - base)^s supply matching eps-valuation so the division cancels.  At jet
order 0 the recurrence runs on plain scalars.  `residual` applies the same
rows to a series.
"""

from __future__ import annotations

import itertools
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
from .ode import FrobeniusForm, Ode, theta_columns, to_frobenius_form
from .scalars import (INT_TOL, RESIDUAL_TOL, ZERO_TOL, GaussianRational, Scalar, is_exact,
                      scalar_is_zero, to_complex, zero_threshold)
from .series import (
    GSTerm,
    GeneralizedSeries,
    JetValuationError,
    Series,
    _all_exact,
    _convolve,
    _cut,
    _frames,
    _int_series,
    _support,
    _theta,
    _to_int,
    _unit_inverse,
    gs_from_series,
    series_div,
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
    """The jets D_0 .. D_N of the module's recurrence on the form's rows, with
    r = base + eps and the seed D_0 = eps^seed_pow.  `roots` are the `order`
    indicial roots, or any exponents: P_0(n + r) is lead_0 times the product of
    the (n + base - r_i + eps) factors, q(r) that product at n = 0.  The
    forcing lead_n q(r) D_0 makes D_n the jets of the form over its lead.
    Exact data runs on Gaussian integers (`_recurrence_exact`), any other on
    complex numbers, where a factor at an integer gap of 0 snaps to 0j: a
    resonance is structural, not a tolerance question."""
    if seed_pow > jet_order:
        raise ValueError("seed power exceeds jet order")
    if len(roots) != f.order:
        raise ValueError(f"an order-{f.order} recurrence needs {f.order} roots")
    return _recurrence(f.columns(), roots, base, seed_pow, jet_order, N)


def _recurrence(cols: Sequence[Series], roots: Sequence[Scalar], base: Scalar, seed_pow: int,
                jet_order: int, N: int) -> list[Series]:
    """`recurrence_jets` on the columns of theta^(0), ..., theta^(len(roots))."""
    if _all_exact([base, *roots]) and all(col._ints() for col in cols):
        return _recurrence_exact(cols, roots, base, seed_pow, jet_order, N)
    cols = [col.complex_coeffs() for col in cols]
    if cols[-1][0] != 1:
        inv = 1 / cols[-1][0]
        cols = [[x * inv for x in col] for col in cols]
    base, roots = complex(base), [complex(r) for r in roots]
    return _recurrence_jets(cols, roots, base, seed_pow, jet_order, N)


def _recurrence_jets(
    cols: Sequence[Sequence[complex]],
    roots: Sequence[complex],
    base: complex,
    seed_pow: int,
    jet_order: int,
    N: int,
) -> list[Series]:
    """The recurrence for complex columns over lead_0; the divisor is the jet
    q(n + base + eps) from `_divisor_jet`, or at jet order 0 its one coefficient.
    The sum runs on lists of complex numbers by the operations of the `Series`
    expression sum_k (w D_j + c_k D_j), w = sum_i P_k,i (j + r)^(i) over the
    falling powers i >= 1 with a non-zero entry, over the rows with a non-zero
    entry, j = n - k ascending: every rounding is that of `Series` arithmetic.
    At jet order 0 the same operations run on plain complex numbers.
    """
    m = jet_order + 1
    running = max(1.0, *(max(map(abs, col), default=0.0) for col in cols))
    cols = [list(col[: N + 1]) + [0j] * (N + 1 - len(col)) for col in cols]
    lead = cols[-1]
    rows = [(k, ws[0], ws[1:]) for k in range(N, 0, -1)  # (k, c_k, [P_k,1 ...]), k descending
            if any(ws := [col[k] for col in cols])]  # for the rows that are not 0
    top = max((i for _, _, ws in rows for i, w in enumerate(ws, 1) if w), default=1)
    start = len(rows)  # rows[start:] are the rows with k <= n
    p = _falling_powers(base, N, top, m)
    if m == 1:
        p = [[u for u, in row] for row in p]
        qs, d = _divisor_jet(roots, base, 0, 1)[0], [1 + 0j]
        for n in range(1, N + 1):
            while start and rows[start - 1][0] <= n:
                start -= 1
            acc = None
            for k, ck, ws in rows[start:]:
                dj = d[n - k]
                w = ws[0] * p[0][n - k]
                for i in range(1, top):
                    if ws[i]:
                        w = w + ws[i] * p[i][n - k]
                term = (0j + w * dj) + ck * dj
                acc = term if acc is None else acc + term
            if lead[n]:
                acc = (0j if acc is None else acc) - lead[n] * qs
            q = _divisor_jet(roots, base, n, 1)[0]
            if scalar_is_zero(q, abs(q)):
                raise ZeroDivisionError("jet division by zero")
            d.append((1 / q) * -(0j if acc is None else acc))
        return [Series([u]) for u in d]
    seed = [0j] * m
    seed[seed_pow] = 1 + 0j
    D = [Series(seed)]
    qs = (Series(_divisor_jet(roots, base, 0, m)) * D[0]).coeffs
    for n in range(1, N + 1):
        while start and rows[start - 1][0] <= n:
            start -= 1
        acc: Optional[list] = None
        for k, ck, ws in rows[start:]:
            d = D[n - k].coeffs
            L = len(d)
            w = [ws[0] * v for v in p[0][n - k][:L]]
            for i in range(1, top):
                if ws[i]:
                    w = [u + ws[i] * v for u, v in zip(w, p[i][n - k])]
            wd, _ = _convolve(_support(w, None), _support(d, None), L, True)
            term = [u + ck * v for u, v in zip(wd, d)]
            acc = term if acc is None else [u + v for u, v in zip(acc, term)]
        if acc is None:
            acc = [0j] * m
        if lead[n]:
            acc = [u - lead[n] * v for u, v in zip(acc, qs)]
        dn = Series([-u for u in acc]).div(Series(_divisor_jet(roots, base, n, m)), scale=running)
        D.append(dn)
        running = max(running, dn.magnitude(), max(map(abs, acc)))
    return D


def _divisor_jet(roots: Sequence[complex], base: complex, n: int, m: int) -> list:
    """q(n + base + eps) through eps^(m-1), the product of the factors
    n + base - r + eps; a factor whose parts are both within INT_TOL (an
    integer gap of 0, as `integer_difference` decides it) snaps to 0j."""
    q = [1 + 0j] + [0j] * (m - 1)
    for r in roots:
        d = base + n - r
        q = _times_variable(q, 0j if abs(d.real) <= INT_TOL and abs(d.imag) <= INT_TOL else d)
    return q


def _falling_powers(base: complex, N: int, top: int, m: int) -> list:
    """p[i - 1][j] = (j + base + eps)^(i), falling, i = 1 .. top, j < N, through eps^(m-1)."""
    p = [[[base + j, 1 + 0j, *[0j] * (m - 2)][:m] for j in range(N)]]
    for i in range(1, top):
        p.append([_times_variable(x, base + j - i) for j, x in enumerate(p[-1])])
    return p


def _times_variable(jet: list, d: complex) -> list:
    """The jet times d + eps, rounded as a `Series` product rounds it (finite entries)."""
    out = [0j + u * d for u in jet]
    return out[:1] + [v + u for u, v in zip(jet, out[1:])]


def _times_linear(jets: list, factors: list, L: int) -> list:
    """Each jet times (f + L eps), f a Gaussian integer (re, im), keeping its
    length: jets as (re, im) lists."""
    if len(jets[0]) == 1:
        return [[(u * fr - v * fi, u * fi + v * fr)] for ((u, v),), (fr, fi) in zip(jets, factors)]
    return [[(u * fr - v * fi + L * p, u * fi + v * fr + L * q)
             for (u, v), (p, q) in zip(b, [(0, 0)] + b)] for b, (fr, fi) in zip(jets, factors)]


def _falling_jets(x: list, L: int, top: int, m: int) -> list:
    """The jets B_i(X) = X (X - L) ... (X - (i-1) L), i = 1 .. top, through
    eps^(m-1) at X = x + L eps, for each Gaussian integer x = (re, im) given."""
    b, out = [[(1, 0)] + [(0, 0)] * (m - 1)] * len(x), []
    for i in range(top):
        b = _times_linear(b, [(xr - i * L, xi) for xr, xi in x], L)
        out.append(b)
    return list(zip(*out)) if out else [()] * len(x)


def _recurrence_exact(
    cols: Sequence[Series],
    roots: Sequence[GaussianRational],
    base: GaussianRational,
    seed_pow: int,
    jet_order: int,
    N: int,
) -> list[Series]:
    """`_recurrence_jets` for exact data, on Gaussian integers.  Over the
    common denominator L of the columns, base and roots, P_k,i = C_k,i / L and
    X_j = L (j + base + eps); with o the order, the weight P_k(j + r) is
    sum_i L^(o-i) C_k,i B_i(X_j) / L^(o+1), B_i(X) = X (X - L) ... (X - (i-1) L),
    the divisor P_0(n + r) is H_n / L^(o+1), H_n = C_0,o prod (X_n - L r_i), and
    the forcing is C_n,o prod (X_0 - L r_i) D_0 / L^(o+1).  Each D_n is a jet
    of Gaussian-integer numerators over one positive denominator, reduced by
    their gcd; E_n is summed over the lcm of the earlier denominators and
    divided by H_n (times conj(H_n) when complex) with the fraction-free unit
    inverse, or at jet order 0 by one Gaussian integer.
    """
    m = jet_order + 1
    order = len(cols) - 1
    forms = [_to_int([base, *roots])] + [col._ints() for col in cols]
    L = math.lcm(*(d for d, _, _ in forms))
    scale = [1] + [L ** (order - i) for i in range(order + 1)]
    (beta, *R), *coef = [  # L (base, roots) and L^(o-i) C_k,i for k = 0 .. N
        [(f * L // d * u, f * L // d * v) for u, v in zip(_cut(re, 0, n), _cut(im or [], 0, n))]
        for (d, re, im), f, n in zip(forms, scale, [order + 1] + [N + 1] * (order + 1))]
    real = not any(im for _, _, im in forms)
    lead = coef[-1]
    weights = [(k, P[0], P[1:]) for k, P in enumerate(zip(*coef))  # the rows k >= 1 not 0
               if k and any(u or v for u, v in P)]
    top = max((i for _, _, P in weights for i, (u, v) in enumerate(P, 1) if u or v), default=0)
    x = [(j * L + beta[0], beta[1]) for j in range(N + 1)]
    basis = _falling_jets(x, L, top, m)
    zeros = [(0, 0)] * (m - 1)
    H = [[lead[0]] + zeros] * (N + 1)  # H_n = C_0,o prod (X_n - L r_i)
    force = [[(1, 0)] + zeros]  # q(r) D_0 L^o
    for rr, ri in R:
        H = _times_linear(H, [(xr - rr, xi - ri) for xr, xi in x], L)
        force = _times_linear(force, [(x[0][0] - rr, x[0][1] - ri)], L)
    force = ([(0, 0)] * seed_pow + force[0])[:m]
    if m == 1:
        (fr, fi), = force
        D1, lam = [(1, 0, 1)], 1  # D_n = (u + v i) / d; lam is the lcm of the d
        for n in range(1, N + 1):
            er = ei = 0
            for k, (wr, wi), P in weights:
                if k > n:
                    break
                u, v, d = D1[n - k]
                for (pr, pi), ((br, bi),) in zip(P, basis[n - k]):
                    wr += pr * br - pi * bi
                    wi += pr * bi + pi * br
                fac = lam // d
                er += fac * (wr * u - wi * v)
                ei += fac * (wr * v + wi * u)
            lr, li = lead[n]
            er -= lam * (lr * fr - li * fi)
            ei -= lam * (lr * fi + li * fr)
            ((hr, hi),) = H[n]
            if not (hr or hi):
                raise ZeroDivisionError("jet division by zero")
            if hi:
                er, ei, hr = er * hr + ei * hi, ei * hr - er * hi, hr * hr + hi * hi
            sign = -1 if hr > 0 else 1
            er, ei, d = sign * er, sign * ei, abs(hr) * lam
            g = math.gcd(d, er, ei)
            D1.append((er // g, ei // g, d // g))
            lam = math.lcm(lam, d // g)
        return [_int_series(d, [u], None if real else [v]) for u, v, d in D1]
    seed = [int(t == seed_pow) for t in range(m)]
    D = [_int_series(1, seed, None if real else [0] * m)]
    nums, lens, dens, lam = [_support(seed, [0] * m)], [m], [1], 1  # lam: lcm of dens
    for n in range(1, N + 1):
        re, im = [0] * m, [0] * m
        ell = m
        for k, w0, P in weights:
            if k > n:
                break
            j = n - k
            wr, wi = [0] * m, [0] * m
            wr[0], wi[0] = w0
            for (pr, pi), jet in zip(P, basis[j]):
                if pr or pi:
                    for t, (br, bi) in enumerate(jet):
                        wr[t] += pr * br - pi * bi
                        wi[t] += pr * bi + pi * br
            ell = min(ell, lens[j])
            tr, ti = _convolve(_support(wr, wi), nums[j], lens[j], real)
            fac = lam // dens[j]
            for t in range(lens[j]):
                re[t] += fac * tr[t]
                im[t] += fac * ti[t]
        lr, li = lead[n]
        if lr or li:
            for t, (fr, fi) in enumerate(force):
                re[t] -= lam * (lr * fr - li * fi)
                im[t] -= lam * (lr * fi + li * fr)
        h = H[n]
        v = next((t for t, p in enumerate(h) if p != (0, 0)), None)
        if v is None:
            raise ZeroDivisionError("jet division by zero")
        if v > 0:
            nv = next((t for t in range(ell) if re[t] or im[t]), None)
            if nv is None and ell > v:  # a zero known to eps^v divides cleanly
                nums.append([])
                lens.append(ell - v)
                dens.append(1)
                D.append(_int_series(1, [0] * lens[-1], None))
                continue
            if nv is None or nv < v:
                known = f"valuation {nv}" if nv is not None else f"known to order {ell - 1}"
                raise JetValuationError(f"numerator {known} < divisor valuation {v}")
        mm = ell - v
        num = _support(re[v:ell], im[v:ell])
        den = [(t, u, w) for t, (u, w) in enumerate(h[v : v + mm]) if u or w]
        if any(w for _, _, w in den):
            conj = [(t, u, -w) for t, u, w in den]
            num = _support(*_convolve(num, conj, mm, False))
            den = _support(*_convolve(den, conj, mm, False))
        C, pw = _unit_inverse(den, mm)
        sign = -1 if pw[mm] > 0 else 1
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
    A jet that ends below eps^j raises JetValuationError."""
    if any(D[n].trunc < j for n in range(N + 1)):
        raise JetValuationError(f"a jet ends below eps^{j} at exponent {base!r}")
    return GeneralizedSeries([GSTerm(base, t, _stack(D, j - t, math.perm(j, j - t), N))
                              for t in range(j + 1)])


def _stack(D: list[Series], i: int, fac: int, N: int) -> Series:
    """fac times the eps^i coefficients of D_0 .. D_N, as one series; exact
    jets give it in integer form over the lcm of their denominators."""
    forms = [D[n]._ints() for n in range(N + 1)]
    if all(forms) and all(i < len(re) for _, re, _ in forms):
        lam = math.lcm(*(d for d, _, _ in forms))
        return _int_series(lam, [fac * (lam // d) * re[i] for d, re, _ in forms],
                           [fac * (lam // d) * im[i] if im else 0 for d, _, im in forms])
    return Series([fac * D[n].coeff(i) for n in range(N + 1)])


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
    last_err = ""
    for s in range(s_first, len(gaps) + 1):
        jet_order = s + mu - 1 + len(gaps)
        try:
            jets = recurrence_jets(f, roots, base, s, jet_order, N)
            sols = [_emit_solution(base, jets, j, N) for j in range(s, s + mu)]
        except JetValuationError as err:
            last_err = str(err)  # not err: its traceback holds this frame, a cycle
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
    shift, unit = vb - v, series_div(b.window(vb, b.trunc + 1 - v), a.window(v, a.trunc + 1 - v))
    scale = max(1.0, unit.magnitude())
    return None, None, {shift + j + 1: -u / (shift + j + 1) for j, u in
                        enumerate(unit.coeffs[: -1 - shift]) if not scalar_is_zero(u, scale)}


def _abel_body(alpha: Series, beta: Series, lead: Scalar = _ONE) -> tuple:
    """(rho, w): x^rho w solves x alpha W' + beta W = 0, the theta-equation
    (alpha theta + beta) W = 0, with rho = -beta_0/alpha_0 and w_0 = lead: the
    recurrence of the columns (beta, alpha) at rho, through beta's order and
    at most one past alpha's (w_m reads alpha_k for k < m only)."""
    rho = -beta[0] / alpha[0]
    M = min(alpha.trunc + 1 - bool(rho), beta.trunc)
    return rho, _stack(_recurrence([beta, alpha], [rho], rho, 0, 0, M), 0, 1, M).scale(lead)


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
    """det[D^i y_j] = x^(-n(n-1)/2) det[theta^i y_j], as [D^i y] is [theta^i y] times a
    triangular matrix of diagonal x^(-i), and theta keeps a frame (`_joined`) whole: W sums
    the determinant of each choice of one frame per column, through the shortest, whose row
    i holds (e theta)^i of column j's numerators over D_j (`_expand`), e and D_j the common
    denominators of the E_j and of column j (1 for complex data).

    With l = log x, theta = theta_body + delta for delta = d/dl, which commutes with theta,
    so dW/dl = sum_j det(.., theta^i delta y_j, ..).  When every delta y_j is a combination
    of the other columns up to terms W does not read (`_log_closed`), each such determinant
    repeats a column and dW/dl = 0; l = 0 is a ring map, so W is then the determinant of
    the log^0 bodies of the theta-rows, and only that one is expanded."""
    if isinstance(solutions, FundamentalSystem):
        solutions = solutions.solutions
    n, terms = len(solutions), []
    if n == 1:
        return solutions[0]
    h, cols = n * (n - 1) // 2, [[_joined(*f) for f in _frames(g.terms)] for g in solutions]
    exact = all(is_exact(E) and C._ints() for col in cols for E, _, _, C in col)
    cut = exact and all(len(col) == 1 for col in cols) and any(col[0][1] > 1 for col in cols)
    for pick in itertools.product(*cols):
        L = min(S for _, _, S, _ in pick)
        forms = [[x._ints() if exact else (1, x.complex_coeffs(), None) for x in (Series([E]), C)]
                 for E, _, _, C in pick]
        e = math.lcm(*(f for (f, _, _), _ in forms))
        real, mat = not any(q or im for (_, _, q), (_, _, im) in forms), []
        for (_, M, S, _), ((f, (p,), q), (_, re, im)) in zip(pick, forms):
            im = None if real else im or [0] * len(re)
            mat.append([[(re[m * S:m * S + L], im and im[m * S:m * S + L]) for m in range(M)]])
            while len(mat[-1]) < n:  # mat[j][i]: (e theta)^i y_j
                mat[-1].append(_theta(p * (e // f), q[0] * (e // f) if q else 0, e, mat[-1][-1]))
        if cut and _log_closed(pick, [C for _, C in forms], L):
            mat = [[bodies[:1] for bodies in col] for col in mat]
        den, E = e ** h * math.prod(d for _, (d, _, _) in forms), sum(E for E, _, _, _ in pick) - h
        terms += [GSTerm(E, m, _int_series(den, re, im) if exact else Series([u or 0j for u in re]))
                  for m, (re, im) in enumerate(_expand(mat, 0, list(range(n)), L, real, exact))]
    return GeneralizedSeries(terms)


def _joined(E: Scalar, S: int, bodies: dict) -> tuple:
    """(E, M, S, C) for a frame of `_frames`: C its bodies of (log x)^m, m < M,
    end to end in one series, S terms each."""
    M = 1 + max(bodies)
    return E, M, S, reduce(Series.__add__, (b.window(-m * S, M * S) for m, b in bodies.items()))


def _log_closed(pick: tuple, forms: list, L: int) -> bool:
    """Whether delta = d/dlog x sends each column u_j, cut to the L terms W reads, to
    sum_k A_kj u_k over the columns k taken before it, plus terms at or past x^(E_j + L):
    columns taken by log count, each class on its Gaussian-integer numerators at positions
    (offset, log power), by fraction-free elimination (`_reduce`).  False also when a
    column reduces to 0."""
    bases: dict = {}  # the first exponent of a class -> [(pivot, reduced column)]
    for (E, M, S, _), (_, re, im) in sorted(zip(pick, forms), key=lambda pf: pf[0][1]):
        first = next((c for c in bases if integer_difference(E, c) is not None), E)
        o, basis = integer_difference(E, first), bases.setdefault(first, [])
        u = {(o + n, m): (re[m * S + n], im[m * S + n] if im else 0)
             for m in range(M) for n in range(L) if re[m * S + n] or im and im[m * S + n]}
        du = _reduce({(k, m - 1): (m * x, m * y) for (k, m), (x, y) in u.items() if m}, basis)
        u = _reduce(u, basis)
        if not u or any(k < o + L for k, _ in du):
            return False
        basis.append((min(u), u))
    return True


def _reduce(v: dict, basis: list) -> dict:
    """v <- b_p v - v_p b for each (p, b) of basis in turn, on Gaussian integers (re, im),
    keeping only the non-zero entries."""
    for p, b in basis:
        if p in v:
            (br, bi), (cr, ci), w = b[p], v[p], {}
            for k in v.keys() | b.keys():
                (x, y), (s, t) = v.get(k, (0, 0)), b.get(k, (0, 0))
                z = (br * x - bi * y - cr * s + ci * t, br * y + bi * x - cr * t - ci * s)
                if any(z):
                    w[k] = z
            v = w
    return v


def _expand(mat: list, k: int, cols: list, L: int, real: bool, exact: bool) -> list:
    """The determinant of rows k.. over cols of mat[column][row], by log power (re, im),
    along row k: the minor of column j is over the other columns taken cyclically from
    j + 1, of sign (-1)^(j (n - 1)), and an exact minor's content joins the products after
    them.  A complex body negligible against its running sums is 0."""
    if len(cols) == 1:
        return mat[cols[0]][k]
    zero = ([0] * L, None if real else [0] * L)
    out, scale = [zero] * (1 + sum(len(mat[c][0]) - 1 for c in cols)), 0.0
    for j, c in enumerate(cols):
        minor = _expand(mat, k + 1, cols[j + 1:] + cols[:j], L, real, exact)
        g = (math.gcd(*(u for b in minor for p in b if p for u in p)) or 1) if exact else 1
        minor = [_support(*([u // g for u in p] if p and g > 1 else p for p in b)) for b in minor]
        g = -g if j * (len(cols) - 1) % 2 else g
        for (s, x), (t, y) in itertools.product(enumerate(_support(*b) for b in mat[c][k]),
                                                enumerate(minor)):
            (r, i), (pr, pi) = out[s + t], _convolve(x, y, L, real)  # i None when real
            out[s + t] = ([u + g * v for u, v in zip(r, pr)],
                          i and [u + g * v for u, v in zip(i, pi)])
            scale = scale if exact else max(scale, *map(abs, out[s + t][0]))
    tol = zero_threshold(scale)
    return out if exact else [(r, i) if max(map(abs, r)) > tol else ([0j] * L, i) for r, i in out]


def residual(e: Ode, g: GeneralizedSeries) -> GeneralizedSeries:
    """L(g) minus the right-hand side, from the theta-form of the rows,
    x^order L = x^w sum_j col_j theta^(j) (`theta_columns`), applied termwise
    (`_theta_bodies`): no derivative and no product of generalized series.
    The rows are read as polynomials, 0 past their trunc, and each body is cut
    at the rows' trunc: a body of g known through x^N gives a residual known
    through x^(N + w - order) over its exponent."""
    w, cols = theta_columns(e)
    top = min(r.trunc for r in e.coeffs)
    terms = [GSTerm(t.exponent + w - e.order, t.logpow - i, body) for t in g.terms
             for i, body in enumerate(_theta_bodies(cols, t, min(t.body.trunc, top)))]
    out = GeneralizedSeries(terms)
    if e.rhs is not None:
        out = out - gs_from_series(e.rhs)
    return out


def _theta_bodies(cols: Sequence[Series], t: GSTerm, top: int) -> list:
    """The bodies through x^top of sum_j col_j theta^(j) applied to
    x^s (log x)^M body: item i is the body of x^s (log x)^(M - i).  On
    x^(s + n), theta^(j) is (s + n + delta)^(j), delta = d/dlog, so item i
    sums col_j times the body whose x^n entry is M!/(M - i)! [delta^i]
    (s + n + delta)^(j) body_n; with s = S/e, that is [delta^i]
    B_j(S + n e + e delta) / e^j (`_falling_jets`).  Exact data runs on
    Gaussian integers over one denominator, complex data as the real parts
    of (re, im) pairs, with every denominator 1."""
    s, M, order = t.exponent, t.logpow, len(cols) - 1
    parts = [Series([s]), t.body.window(0, top + 1), *cols]
    exact = all(x._ints() for x in parts)
    (e, (p,), q), (db, ur, ui), *forms = [  # complex data runs on the real parts
        x._ints() if exact else (1, list(x.complex_coeffs()), None) for x in parts]
    q, ui = q[0] if q else 0, ui or [0] * len(ur)
    real = not q and not any(ui) and not any(ci for _, _, ci in forms)
    lam = math.lcm(*(d for d, _, _ in forms))
    jets = _falling_jets([(p + n * e, q) for n in range(top + 1)], e, order, M + 1)
    out = [([0] * (top + 1), None if real else [0] * (top + 1)) for _ in range(M + 1)]
    for j, (d, cr, ci) in enumerate(forms):
        f = lam // d * e ** (order - j)
        col = _support([f * u for u in cr[: top + 1]], [f * v for v in ci or [0] * len(cr)])
        for i in range(min(j, M) + 1) if col else ():
            f, b = math.perm(M, i), [jet[j - 1][i] if j else (1, 0) for jet in jets]
            h = [(n, f * (br * u - bi * v), f * (br * v + bi * u))
                 for n, ((br, bi), u, v) in enumerate(zip(b, ur, ui)) if u or v]
            (r, v), (pr, pv) = out[i], _convolve(col, h, top + 1, real)  # v None when real
            out[i] = [x + y for x, y in zip(r, pr)], v and [x + y for x, y in zip(v, pv)]
    if exact:
        return [_int_series(db * lam * e ** order, r, v) for r, v in out]
    return [Series([u or 0j for u in r]) for r, _ in out]  # 0j: an int would go through as_exact


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
