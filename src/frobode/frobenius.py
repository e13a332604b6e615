"""Series fundamental systems at regular singular points.

The engine runs the coefficient recurrence

    E_n(r) = sum_{j<n} [ (j+r)(j+r-1) a_{n-j} + (j+r) b_{n-j} + c_{n-j} ] D_j(r)
    D_n(r) = -E_n(r) / q(n+r),      D_0 = seed(r)

(order 2 drops the quadratic block) with the root variable carried as a
nilpotent jet r = base + eps, so that derivatives with respect to r -- which
produce the logarithmic solutions in the exceptional cases -- come out of the
same O(N^2) loop.  Repeated roots and positive-integer root gaps make
q(n + base + eps) vanish to some order in eps at the resonant indices; seeds
(r - base)^s supply matching eps-valuation so the division cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .indicial import (
    IndicialData,
    analyze,
    congruence_classes,
    indicial_polynomial,
    integer_difference,
)
from .ode import FrobeniusForm, Ode, to_frobenius_form
from .scalars import GaussianRational, Scalar, is_exact, scalar_is_zero, structural_zero, to_complex
from .series import (
    GSTerm,
    GeneralizedSeries,
    JetValuationError,
    Series,
    _all_exact,
    _common_denominator,
    _convolve,
    _gr,
    _unit_inverse,
    gs_differentiate,
    gs_from_series,
    laurent_ratio,
    poly_eval_jet,
)

__all__ = [
    "FundamentalSystem",
    "FormalProbe",
    "WronskianResult",
    "frobenius_solve",
    "solve",
    "recurrence_coefficients",
    "recurrence_jets",
    "formal_probe",
    "wronskian_ode_solution",
    "wronskian_of_system",
    "residual",
    "residual_valuation",
]

_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


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

    `roots` are the indicial roots; q(n + r) is the product of the
    (n + base - r_i + eps) factors.  Exact data runs on Gaussian integers
    (`_recurrence_exact`); otherwise near-zero constant parts of the factors
    are snapped to exact zero, which makes resonance detection structural
    rather than a floating tolerance question.
    """
    if seed_pow > jet_order:
        raise ValueError("seed power exceeds jet order")
    if _all_exact([base, *roots]) and _form_exact(f):
        qpoly = [_ONE]  # prod (z - r_i), low power first
        for r in roots:
            qpoly = [_ZERO] + qpoly
            for i in range(len(qpoly) - 1):
                qpoly[i] = qpoly[i] - r * qpoly[i + 1]
        return _recurrence_exact(f, base, seed_pow, jet_order, N, qpoly)
    return _recurrence_jets(
        f, base, seed_pow, jet_order, N, lambda n: _q_jet(roots, base, n, jet_order)
    )


def recurrence_jets_free(f: FrobeniusForm, r: Scalar, N: int, jet_order: int = 0) -> list[Series]:
    """Recurrence at an exponent that need not be an indicial root.

    q(n+r) is evaluated from the indicial polynomial directly; divisions must
    be invertible (no resonance handling)."""
    qpoly = indicial_polynomial(f)
    if is_exact(r) and _form_exact(f):
        return _recurrence_exact(f, r, 0, jet_order, N, qpoly)
    return _recurrence_jets(
        f, r, 0, jet_order, N, lambda n: poly_eval_jet(qpoly, r + n, jet_order)
    )


def recurrence_coefficients(f: FrobeniusForm, r: Scalar, N: int) -> list[Scalar]:
    """Plain scalar recurrence D_n at an arbitrary (non-resonant) exponent r."""
    jets = recurrence_jets_free(f, r, N)
    return [j.coeffs[0] for j in jets]


def _form_exact(f: FrobeniusForm) -> bool:
    rows = (f.b, f.c) + ((f.a,) if f.order == 3 else ())
    return all(_all_exact(row.coeffs) for row in rows)


def _recurrence_jets(
    f: FrobeniusForm,
    base: Scalar,
    seed_pow: int,
    jet_order: int,
    N: int,
    q_at: Callable[[int], Series],
) -> list[Series]:
    """The recurrence for float and mixed data; q_at(n) is the jet
    q(n + base + eps).

    E_n is summed on lists of scalars by the operations of the `Series`
    expression sum_j (w D_j + c_k D_j), w = b_k (j + r) + a_k (j + r)(j + r - 1),
    j ascending, over the rows with a non-zero entry, so every value, type
    and rounding is that of `Series` arithmetic.  An exact scalar meets a
    complex one only as complex(scalar): each row coefficient is converted
    once, and a D_j of complex entries only is used in complex arithmetic
    alone.  Exact entries (the seed, the zero jets of cancelled resonances,
    exact weights when the base is exact) keep exact arithmetic.
    """
    m = jet_order + 1
    seed = [_ZERO] * m
    seed[seed_pow] = _ONE
    D = [Series(seed)]
    plain = [False]  # D_j has complex entries only
    # (j + r) and (j + r)(j + r - 1) jets for all j
    x = [Series.variable(base + j, jet_order) for j in range(N)]
    p1 = [xj.coeffs for xj in x]
    if f.order == 3:
        p2 = [(xj * Series.variable(base + j - 1, jet_order)).coeffs for j, xj in enumerate(x)]
    rows = []  # (k, a_k, b_k, c_k, their complex values, a_k != 0), k descending
    for k in range(N, 0, -1):
        ak = f.a[k] if f.order == 3 else _ZERO
        bk, ck = f.b[k], f.c[k]
        if not (structural_zero(ak) and structural_zero(bk) and structural_zero(ck)):
            rows.append((k, ak, bk, ck, complex(ak), complex(bk), complex(ck),
                         not structural_zero(ak)))
    start = len(rows)  # rows[start:] are the rows with k <= n
    running = max(1.0, f.b.magnitude(), f.c.magnitude(),
                  f.a.magnitude() if f.a is not None else 0.0)
    for n in range(1, N + 1):
        while start and rows[start - 1][0] <= n:
            start -= 1
        acc: Optional[list] = None
        for k, ak, bk, ck, ac, bc, cc, has_a in rows[start:]:
            j = n - k
            d = D[j].coeffs
            L = len(d)
            w = [(bc if v.__class__ is complex else bk) * v for v in p1[j][:L]]
            if has_a:
                w = [u + (ac if v.__class__ is complex else ak) * v for u, v in zip(w, p2[j])]
            fast = plain[j]
            out = [0j if fast else _ZERO] * L
            for i, a in enumerate(w):
                if a.__class__ is GaussianRational:
                    if not a:
                        continue
                    if fast:
                        a = complex(a)
                for t in range(i, L):
                    out[t] = out[t] + a * d[t - i]
            c_ = cc if fast else ck
            term = [u + c_ * v for u, v in zip(out, d)]
            acc = term if acc is None else [u + v for u, v in zip(acc, term)]
        if acc is None:
            acc = [_ZERO] * m
        dn = Series([-u for u in acc]).div(q_at(n), scale=running)
        D.append(dn)
        plain.append(all(u.__class__ is complex for u in dn.coeffs))
        running = max(running, dn.magnitude(), max(abs(to_complex(u)) for u in acc))
    return D


def _q_jet(roots: Sequence[Scalar], base: Scalar, n: int, jet_order: int) -> Series:
    out = Series([_ONE], trunc=jet_order)
    for r in roots:
        d = base + n - r
        if integer_difference(base + n, r) == 0:
            d = _ZERO if is_exact(d) else 0j
        out = out * Series.variable(d, jet_order)
    return out


def _gmul(p: tuple, q: tuple) -> tuple:
    """Product of two Gaussian integers (u, v) = u + v i."""
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _gadd(*ps: tuple) -> tuple:
    return (sum(p[0] for p in ps), sum(p[1] for p in ps))


def _support(re: list, im: list) -> list:
    return [(t, u, v) for t, (u, v) in enumerate(zip(re, im)) if u or v]


def _recurrence_exact(
    f: FrobeniusForm,
    base: GaussianRational,
    seed_pow: int,
    jet_order: int,
    N: int,
    qpoly: Sequence[GaussianRational],
) -> list[Series]:
    """`_recurrence_jets` for exact data, on Gaussian integers.

    a, b, c, base and q (low power first; the divisor is q(n + base + eps))
    are written over one common denominator L.  With X_j = L (j + base + eps)
    the row weight a_k x(x - 1) + b_k x + c_k at x = j + base + eps is
    (A_k X_j (X_j - L) + L B_k X_j + L^2 C_k) / L^3, and q(n + base + eps) is
    Q_n / L^(deg + 1), Q_n = sum_i Q_i X_n^i L^(deg - i) by Horner's rule.
    Each D_n is a jet of Gaussian-integer numerators over one positive
    denominator, reduced by their gcd; E_n is summed over the lcm of the
    earlier denominators and divided by Q_n with the fraction-free unit
    inverse, after multiplying both by conj(Q_n) when Q_n is complex.
    """
    m = jet_order + 1
    deg = len(qpoly) - 1
    rows = (f.a, f.b, f.c) if f.order == 3 else (f.b, f.c)
    data = [base, *qpoly] + [row[k] for row in rows for k in range(1, N + 1)]
    L, support, real = _common_denominator(data)
    g = [(0, 0)] * len(data)
    for i, u, v in support:
        g[i] = (u, v)
    beta, Q, coef = g[0], g[1 : deg + 2], g[deg + 2 :]
    L2 = L * L
    weights = []  # (k, A, L B, L^2 C) for the rows with a non-zero entry
    for k in range(1, N + 1):
        abc = [coef[i * N + k - 1] for i in range(len(rows))]
        if f.order == 2:
            abc.insert(0, (0, 0))
        A, B, C = abc
        if A != (0, 0) or B != (0, 0) or C != (0, 0):
            weights.append((k, A, (L * B[0], L * B[1]), (L2 * C[0], L2 * C[1])))
    # X_j = x_j + L eps, X_j (X_j - L) = x_j (x_j - L) + s_j eps + L^2 eps^2
    x = [(j * L + beta[0], beta[1]) for j in range(N + 1)]
    xy = [_gmul(xj, (xj[0] - L, xj[1])) for xj in x]
    s = [(L * (2 * xj[0] - L), L * 2 * xj[1]) for xj in x]
    lift = L ** (deg - 2)  # L^(deg + 1) of q over the L^3 of the weights
    nums = [[(seed_pow, 1, 0)]]  # D_n numerators as supports (t, u, v)
    lens = [m]
    dens = [1]
    lam = 1  # lcm of dens
    for n in range(1, N + 1):
        re, im = [0] * m, [0] * m
        ell = m
        for k, A, LB, L2C in weights:
            if k > n:
                break
            j = n - k
            w0 = _gadd(_gmul(A, xy[j]), _gmul(LB, x[j]), L2C)
            w1 = _gadd(_gmul(A, s[j]), (L * LB[0], L * LB[1]))
            w = [(0, *w0), (1, *w1), (2, L2 * A[0], L2 * A[1])]
            ell = min(ell, lens[j])
            tr, ti = _convolve(w, nums[j], lens[j], real)
            fac = lam // dens[j]
            for t in range(lens[j]):
                re[t] += fac * tr[t]
                im[t] += fac * ti[t]
        h = [Q[deg]] + [(0, 0)] * (m - 1)  # Q_n
        for i in range(deg - 1, -1, -1):  # h <- h X_n + Q_i L^(deg - i)
            c = L ** (deg - i)
            hx = [_gmul(p, x[n]) for p in h]
            h = [_gadd(hx[0], (Q[i][0] * c, Q[i][1] * c))] + [
                _gadd(hx[t], (L * h[t - 1][0], L * h[t - 1][1])) for t in range(1, m)
            ]
        v = next((t for t, p in enumerate(h) if p != (0, 0)), None)
        if v is None:
            raise ZeroDivisionError("jet division by zero")
        if v > 0:
            nv = next((t for t in range(ell) if re[t] or im[t]), None)
            if nv is None:
                nums.append([])
                lens.append(max(1, ell - v))
                dens.append(1)
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
        inv = [(t, C[t] * pw[mm - 1 - t], 0) for t in range(mm) if C[t]]
        out_re, out_im = _convolve(num, inv, mm, real)
        sign = -lift if pw[mm] > 0 else lift
        out_re = [sign * u for u in out_re]
        out_im = [sign * u for u in out_im]
        d = abs(pw[mm]) * lam
        gcd = math.gcd(d, *out_re, *out_im)
        nums.append(_support([u // gcd for u in out_re], [u // gcd for u in out_im]))
        lens.append(mm)
        dens.append(d // gcd)
        lam = math.lcm(lam, dens[-1])
    D = []
    for num, ell, d in zip(nums, lens, dens):
        re, im = [0] * ell, [0] * ell
        for t, u, w in num:
            re[t], im[t] = u, w
        D.append(Series([_gr(re[t], im[t], d) for t in range(ell)]))
    return D


def _emit_solution(base: Scalar, D: list[Series], j: int, N: int) -> GeneralizedSeries:
    """The j-th r-derivative of x^r sum D_n(r) x^n at r = base, as a
    GeneralizedSeries: sum_t C(j,t) (log x)^t x^base sum_n D_n^{(j-t)} x^n."""
    terms = []
    for t in range(j + 1):
        fac = math.comb(j, t) * math.factorial(j - t)
        body = Series([fac * D[n].coeff(j - t) for n in range(N + 1)])
        terms.append(GSTerm(base, t, body))
    return GeneralizedSeries(terms)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def frobenius_solve(f: FrobeniusForm, N: int = 32) -> FundamentalSystem:
    """Fundamental system at a regular singular (or ordinary) chart origin."""
    ind = analyze(f)
    roots = ind.roots
    classes = congruence_classes(roots)
    entries = []  # (sort_key, solution)
    constants: dict = {}
    warnings: list[str] = []
    for cls in classes:
        above = 0  # total multiplicity of class members above the current one
        for idx, (v, mu) in enumerate(cls):
            if idx == 0:
                jets = recurrence_jets(f, roots, v, 0, mu - 1, N)
                for j in range(mu):
                    entries.append(((v, j), _emit_solution(v, jets, j, N)))
            else:
                sols, info = _subordinate_solutions(f, roots, v, mu, above, N)
                for j, s in enumerate(sols):
                    entries.append(((v, j), s))
                constants.update(info.get("constants", {}))
                warnings.extend(info.get("warnings", []))
            above += mu
    entries.sort(key=lambda e: (-to_complex(e[0][0]).real, -to_complex(e[0][0]).imag, e[0][1]))
    sols = tuple(s for _, s in entries)
    # label the log constants per the case taxonomy
    return FundamentalSystem(sols, ind, N, constants, tuple(warnings))


def _subordinate_solutions(
    f: FrobeniusForm,
    roots: Sequence[Scalar],
    base: Scalar,
    mu: int,
    above: int,
    N: int,
) -> tuple[list[GeneralizedSeries], dict]:
    """Solutions attached to a non-maximal class member.

    Seeds (r-base)^s are tried in increasing order starting from the paper's
    choice; a seed fails (JetValuationError) when an eps-cancellation it relies
    on does not occur, in which case the next seed always absorbs one more
    resonance and eventually s = `above` is unconditionally safe.
    """
    s_first = 0 if mu > 1 else 1
    info: dict = {"constants": {}, "warnings": []}
    last_err: Exception | None = None
    for s in range(s_first, above + 1):
        jet_order = s + mu - 1 + above
        try:
            jets = recurrence_jets(f, roots, base, s, jet_order, N)
        except JetValuationError as err:
            last_err = err
            continue
        sols = [_emit_solution(base, jets, j, N) for j in range(s, s + mu)]
        if s > s_first:
            info["warnings"].append(
                f"seed (r-base)^{s} used at exponent {base!r}: the paper's"
                f" lower-order seed hit an uncancelled resonance"
            )
        info["constants"].update(_read_log_constants(jets, roots, base, s, N))
        return sols, info
    raise JetValuationError(
        f"no admissible seed at exponent {base!r}: {last_err}"
    )


def _read_log_constants(jets: list[Series], roots, base, s: int, N: int) -> dict:
    """The c / c_tilde constants: the eps^0 coefficient of D at the first
    resonant index, which multiplies the leading exponent of the higher
    solution in the log term."""
    if s not in (1, 2):
        return {}
    # resonant indices above the base exponent (with repetition by multiplicity)
    res = sorted(
        n for r in roots
        if (n := integer_difference(r, base)) is not None and 0 < n <= N
    )
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


@dataclass(frozen=True)
class FormalProbe:
    status: str  # "solutions" | "trivial_only" | "divergent_formal"
    candidates: tuple  # Series tuple (one per free coefficient)
    trace: tuple  # first K ratio magnitudes |a_{k+1}/a_k| of the primary candidate
    radius_estimate: float  # may be 0.0 or math.inf


def formal_probe(e: Ode, N: int = 32, trace_len: int = 10) -> FormalProbe:
    """Plain power-series ansatz in the raw equation; reports whether
    nontrivial formal solutions exist and estimates their radius."""
    rows = []
    order = e.order
    exact = all(is_exact(c) for row in e.coeffs for c in row.coeffs)
    for k in range(N + order + 1):
        row = [_ZERO] * (N + 1)
        support_ok = True
        for n in range(0, k + order + 1):
            coef = _ZERO
            for i, arow in enumerate(e.coeffs):  # arow multiplies y^(order-i)
                deriv = order - i
                idx = k - n + deriv
                if 0 <= idx <= arow.trunc:
                    cc = arow[idx]
                    if not structural_zero(cc):
                        coef = coef + _falling(n, deriv) * cc
            if structural_zero(coef):
                continue
            if not is_exact(coef) and scalar_is_zero(coef, max(1.0, _row_mag(e))):
                continue
            if n > N:
                support_ok = False
                break
            row[n] = coef
        if support_ok and any(not structural_zero(c) for c in row):
            rows.append(row)
    basis = _nullspace(rows, N + 1, exact)
    if not basis:
        return FormalProbe("trivial_only", (), (), math.inf)
    candidates = tuple(_monic_leading(Series(v)) for v in basis)
    primary = candidates[0]
    trace = []
    for k in range(min(trace_len, N)):
        a0, a1 = to_complex(primary[k]), to_complex(primary[k + 1])
        trace.append(abs(a1 / a0) if a0 != 0 else math.inf)
    radius = min(_radius_estimate(c) for c in candidates)
    status = "divergent_formal" if radius < 1e-3 else "solutions"
    return FormalProbe(status, candidates, tuple(trace), radius)


def _monic_leading(s: Series) -> Series:
    v = s.valuation()
    if v is None:
        return s
    lead = s.coeffs[v]
    if is_exact(lead):
        return s.scale(GaussianRational(1) / lead)
    return s.scale(1.0 / to_complex(lead))


def _row_mag(e: Ode) -> float:
    return max(r.magnitude() for r in e.coeffs)


def _falling(n: int, i: int) -> int:
    out = 1
    for t in range(i):
        out *= n - t
    return out


def _nullspace(rows: list[list], ncols: int, exact: bool) -> list[list]:
    """Nullspace basis by Gaussian elimination; exact or floating pivoting."""
    mat = [list(r) for r in rows]
    if not exact:
        mat = [[to_complex(c) for c in r] for r in mat]
    pivots: dict[int, int] = {}  # col -> row index
    used = [False] * len(mat)
    for col in range(ncols):
        best, bestmag = None, 0.0
        for ri, row in enumerate(mat):
            if used[ri]:
                continue
            mag = abs(to_complex(row[col]))
            if exact:
                if row[col] != 0 and (best is None):
                    best = ri
                    break
            elif mag > bestmag:
                best, bestmag = ri, mag
        if best is None:
            continue
        if not exact:
            rowscale = max(abs(to_complex(c)) for c in mat[best])
            if bestmag <= 1e-10 * max(1.0, rowscale):
                continue
        used[best] = True
        pivots[col] = best
        prow = mat[best]
        inv = (_ONE / prow[col]) if exact else (1.0 / prow[col])
        mat[best] = [inv * c for c in prow]
        for ri, row in enumerate(mat):
            if ri == best:
                continue
            fac = row[col]
            if structural_zero(fac):
                continue
            mat[ri] = [row[j] - fac * mat[best][j] for j in range(ncols)]
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [_ZERO] * ncols
        vec[fc] = _ONE if exact else 1.0 + 0j
        for col, ri in pivots.items():
            vec[col] = -mat[ri][fc] * (_ONE if exact else (1.0 + 0j))
        basis.append(vec)
    return basis


def _radius_estimate(s: Series, tail: int = 8) -> float:
    """1 / limsup |a_n|^(1/n) from the last `tail` terms, with a growth-trend
    test: steadily increasing |a_n|^(1/n) (super-geometric coefficients)
    reports radius 0."""
    mags = [abs(to_complex(c)) for c in s.coeffs]
    idx = [n for n in range(1, len(mags)) if mags[n] > 0]
    if not idx:
        return math.inf
    last = idx[-tail:]
    if len(last) < 3:
        return math.inf
    rho = [mags[n] ** (1.0 / n) for n in last]
    increasing = all(b >= a * (1 - 1e-9) for a, b in zip(rho, rho[1:]))
    if increasing and rho[-1] > 1.10 * rho[0]:
        return 0.0
    return 1.0 / max(rho)


# ---------------------------------------------------------------------------
# wronskians and residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WronskianResult:
    """W = K x^exponent exp(series) -- or, when b/a has a pole of order >= 2,
    an essential singularity described by the principal part of -int b/a."""

    essential: bool
    exponent: Optional[Scalar] = None
    exp_argument: Optional[Series] = None  # analytic part of -int b/a
    principal_part: dict = field(default_factory=dict)  # exponent -> coefficient

    def as_generalized_series(self) -> GeneralizedSeries:
        if self.essential:
            raise ValueError("essential-singularity wronskian has no series form")
        from .series import series_exp

        return gs_from_series(series_exp(self.exp_argument), self.exponent)


def wronskian_ode_solution(e: Ode) -> WronskianResult:
    """Abel's identity: solve A_n W' + A_(n-1) W = 0 from the two leading
    rows, for an equation of order 2 or 3."""
    a, b = e.coeffs[0], e.coeffs[1]
    if b.valuation() is None:
        return WronskianResult(False, _ZERO, Series([_ZERO], trunc=e.trunc))
    shift, unit = laurent_ratio(b, a)
    if shift < -1:
        principal = {}
        for j, u in enumerate(unit.coeffs):
            p = shift + j
            if p >= -1:
                break
            if not scalar_is_zero(u, max(1.0, unit.magnitude())):
                # term of -int b/a: -u x^{p+1}/(p+1)
                principal[p + 1] = -u / (p + 1)
        return WronskianResult(True, principal_part=principal)
    residue = unit[-1 - shift] if shift <= -1 else _ZERO
    # analytic part of b/a, then -integral
    T = unit.trunc
    analytic = [_ZERO] * (T + 1)
    for j, u in enumerate(unit.coeffs):
        p = shift + j
        if 0 <= p <= T:
            analytic[p] = u
    arg = [_ZERO] * (T + 2)
    for p, u in enumerate(analytic):
        arg[p + 1] = -u / (p + 1)
    return WronskianResult(False, -residue, Series(arg, trunc=T + 1))


def wronskian_of_system(solutions) -> GeneralizedSeries:
    """Determinant of the derivative matrix in GeneralizedSeries arithmetic."""
    if isinstance(solutions, FundamentalSystem):
        solutions = solutions.solutions
    n = len(solutions)
    mat = [list(solutions)]
    for _ in range(n - 1):
        mat.append([gs_differentiate(g) for g in mat[-1]])
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if n == 3:
        out = None
        for j in range(3):
            minor = (
                mat[1][(j + 1) % 3] * mat[2][(j + 2) % 3]
                - mat[1][(j + 2) % 3] * mat[2][(j + 1) % 3]
            )
            term = mat[0][j] * minor
            out = term if out is None else out + term
        return out
    raise ValueError("2 or 3 solutions expected")


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


def residual_valuation(
    res: GeneralizedSeries,
    base: Scalar,
    scale: float = 1.0,
    tol: float = 1e-9,
) -> float:
    """How deeply the residual vanishes, graded by x^base: the smallest
    k + offset over non-negligible coefficients (math.inf if none).  An exact
    coefficient is negligible only when it is zero; `scale` and `tol` apply
    to floating coefficients."""
    best = math.inf
    thresh = tol * max(1.0, scale)
    for t in res.terms:
        off = integer_difference(t.exponent, base)
        if off is None:
            off_c = to_complex(t.exponent) - to_complex(base)
            off = off_c.real
        for k, c in enumerate(t.body.coeffs):
            if (bool(c) if is_exact(c) else abs(to_complex(c)) > thresh):
                best = min(best, k + off)
                break
    return best
