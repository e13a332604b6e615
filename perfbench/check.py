"""Output checks that do not use the program's arithmetic.

Every check here works on plain data read out of the program's results
(exponents, log powers and coefficient lists) with this file's own
``fractions.Fraction`` and ``complex`` arithmetic:

* a generalized series is substituted into the equation, log terms
  included, and L(y) - rhs must vanish through the order the requested N
  determines: exactly in exact mode, and within a rounding bound in float
  mode; a series that stops short of that order fails (``ShortOutput``);
* a wronskian must satisfy Abel's equation A_0 W' + A_1 W = 0 through the
  same order, with a non-zero leading term at the exponent
  (sum of indicial roots) - n(n-1)/2;
* closed forms: criterion 1's third-order Bessel coefficients, the Bessel
  ratio, Laguerre termination, Legendre polynomials, holonomy multipliers,
  probe recurrences, Fuchs' criterion and Horner evaluation.

``residual_valuation`` and the other certificates the program reports are
never taken as evidence.

Float bound.  A computed coefficient sequence satisfies the solver's
recurrence up to the rounding of each step.  The solver runs a
full-history recurrence on the normalised equation (rows divided by the
unit A_0 / x^v), so float results are substituted into the normalised rows
and each residual coefficient at x^s is compared with S_s, the sum of the
absolute values of the products that make it up: the check allows
``(FLOAT_SLACK * (N + 1) * eps + ROOT_SLACK * gap) * S_s``, where gap is the
spread of any root cluster the solver treats as one exponent.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

EPS = 2.0**-52
#: constant of the float bound (complex multiply-adds, plus the rounding of
#: the float input rows and of the chart shift)
FLOAT_SLACK = 4
#: weight of the root-cluster spread in the float bound
ROOT_SLACK = 2
#: tolerance when comparing a float result with a closed form
CLOSED_RTOL = 1e-9


class CheckError(AssertionError):
    """An output failed a check."""


class ShortOutput(CheckError):
    """An output stops short of the order that the requested N asks for."""


def require(cond, what):
    if not cond:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# exact complex numbers
# ---------------------------------------------------------------------------


class GQ:
    """Complex number with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, o):
        if type(o) is GQ:
            return GQ(self.re + o.re, self.im + o.im)
        return complex(self) + o

    __radd__ = __add__

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if type(o) is GQ:
            if not o.im and not self.im:
                return GQ(self.re * o.re)
            return GQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
        if isinstance(o, (int, Fraction)):
            return GQ(self.re * o, self.im * o)
        return complex(self) * o

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is GQ:
            n = o.re * o.re + o.im * o.im
            return self * GQ(o.re / n, -o.im / n)
        return GQ(self.re / o, self.im / o)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, o):
        if type(o) is GQ:
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GQ({self.re}, {self.im})"


def num(v):
    """A program scalar (exact Gaussian rational, complex, int, Fraction) as
    a GQ or a complex."""
    if isinstance(v, complex):
        return v
    if isinstance(v, float):
        return complex(v)
    if isinstance(v, (int, Fraction)):
        return GQ(v)
    if isinstance(v, GQ):
        return v
    re, im = getattr(v, "re", None), getattr(v, "im", None)
    if isinstance(re, Fraction) and isinstance(im, Fraction):
        return GQ(re, im)
    raise TypeError(f"not a scalar: {v!r}")


def parse_json_scalar(v):
    """A scalar as the CLI writes it: "p/q", ["p/q", "r/s"], or [re, im]."""
    if isinstance(v, str):
        return GQ(Fraction(v))
    if isinstance(v, bool):
        raise CheckError(f"bad scalar {v!r}")
    if isinstance(v, int):
        return GQ(v)
    if isinstance(v, float):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        if all(isinstance(c, str) for c in v):
            return GQ(Fraction(v[0]), Fraction(v[1]))
        return complex(v[0], v[1])
    raise CheckError(f"bad scalar {v!r}")


def is_exact(v) -> bool:
    return type(v) is GQ


def is_zero(v) -> bool:
    return not v if is_exact(v) else v == 0


def real_part(v) -> float:
    return float(v.re) if is_exact(v) else v.real


# ---------------------------------------------------------------------------
# generalized series as plain data
# ---------------------------------------------------------------------------


def gs_terms(g):
    """[(exponent, logpow, [coeffs])] of a program GeneralizedSeries."""
    return [
        (num(t.exponent), int(t.logpow), [num(c) for c in t.body.coeffs])
        for t in g.terms
    ]


def json_terms(obj):
    """The same from a serialised series (``dump_gs``)."""
    return [
        (parse_json_scalar(t["exponent"]), int(t["logpow"]),
         [parse_json_scalar(c) for c in t["coeffs"]])
        for t in obj["terms"]
    ]


def _int_offset(a, b):
    """a - b when it is an integer, else None."""
    if is_exact(a) and is_exact(b):
        d = a - b
        if d.im == 0 and d.re.denominator == 1:
            return int(d.re)
        return None
    d = complex(a) - complex(b)
    k = round(d.real)
    if abs(d.imag) <= 1e-9 * max(1.0, abs(complex(b))) and abs(d.real - k) <= 1e-9 * max(1.0, abs(complex(b))):
        return int(k)
    return None


def monomials(terms):
    """Monomial form {(class, offset, logpow): coefficient} plus the class
    representatives; x^(rep + offset) (log x)^logpow."""
    reps = []
    out = {}
    for e, m, cs in terms:
        for ci, rep in enumerate(reps):
            k = _int_offset(e, rep)
            if k is not None:
                break
        else:
            reps.append(e)
            ci, k = len(reps) - 1, 0
        for n, c in enumerate(cs):
            if not is_zero(c):
                key = (ci, k + n, m)
                out[key] = out[key] + c if key in out else c
    return reps, out


def truncation(terms) -> float:
    """Real part of the highest exponent through which every term is
    represented."""
    return min(real_part(e) + len(cs) - 1 for e, _, cs in terms)


def lead_exponent(terms):
    """Exponent of the lowest non-zero coefficient (by real part)."""
    best = None
    for e, _, cs in terms:
        for n, c in enumerate(cs):
            if not is_zero(c):
                s = e + GQ(n) if is_exact(e) else e + n
                if best is None or real_part(s) < real_part(best):
                    best = s
                break
    return best


# ---------------------------------------------------------------------------
# applying an equation
# ---------------------------------------------------------------------------


def apply_rows(rows, terms, rhs=None, majorant=None, through=math.inf):
    """L(y) - rhs for y given as terms; rows = [(coeffs, absweights)] for the
    derivatives order, ..., 0 (highest first).  Returns the class
    representatives and {(class, offset, logpow): (value, magnitude)}, where
    magnitude is the sum of the absolute values of the contributions.
    ``majorant(exponent)``, when given, bounds the size of y's coefficients
    in place of their absolute values.  Exponents above ``through`` are
    skipped."""
    order = len(rows) - 1
    reps, mono = monomials(terms)
    # derivative stack: list of {key: (value, mag)}
    cur = {}
    for (ci, j, m), v in mono.items():
        mag = abs(complex(v))
        if majorant is not None:
            mag = max(mag, majorant(real_part(reps[ci]) + j))
        cur[(ci, j, m)] = (v, mag)
    derivs = [cur]
    for _ in range(order):
        nxt = {}
        for (ci, j, m), (v, mag) in cur.items():
            s = reps[ci] + GQ(j) if is_exact(reps[ci]) else reps[ci] + j
            w = v * s
            if not is_zero(w):
                key = (ci, j - 1, m)
                a, b = nxt.get(key, (GQ(0) if is_exact(w) else 0j, 0.0))
                # |s| + 1 rather than |s|: an exponent that is off by a root
                # cluster's spread still leaves an error where s is near 0
                nxt[key] = (a + w, b + mag * (abs(complex(s)) + 1))
            if m:
                key = (ci, j - 1, m - 1)
                w = v * m
                a, b = nxt.get(key, (GQ(0) if is_exact(w) else 0j, 0.0))
                nxt[key] = (a + w, b + mag * m)
        cur = nxt
        derivs.append(cur)
    out = {}
    base = [real_part(r) for r in reps]
    for i, (row, weights) in enumerate(rows):
        d = derivs[order - i]
        for p, (a, aw) in enumerate(zip(row, weights)):
            # a float row's zero still carries the rounding of the terms
            # that cancelled in it
            if is_zero(a) and (is_exact(a) or not aw):
                continue
            for (ci, j, m), (v, mag) in d.items():
                if base[ci] + j + p > through + 1e-9:
                    continue
                key = (ci, j + p, m)
                w = a * v
                z, b = out.get(key, (GQ(0) if is_exact(w) else 0j, 0.0))
                out[key] = (z + w, b + aw * mag)
    if rhs is not None:
        # rhs lives in the class of exponent 0
        ci = None
        for c, rep in enumerate(reps):
            if _int_offset(rep, GQ(0)) is not None:
                ci, off = c, _int_offset(rep, GQ(0))
                break
        if ci is None:
            reps.append(GQ(0))
            ci, off = len(reps) - 1, 0
        for p, (a, aw) in enumerate(zip(*rhs)):
            if is_zero(a):
                continue
            key = (ci, p - off, 0)
            z, b = out.get(key, (GQ(0) if is_exact(a) else 0j, 0.0))
            out[key] = (z - a, b + aw)
    return reps, out


def float_tolerance(N, root_gap=0.0):
    """Relative rounding bound of the float error model (see above)."""
    return FLOAT_SLACK * (N + 1) * EPS + ROOT_SLACK * root_gap


def reach(rows) -> int:
    """How far above an exponent s the coefficients of y reach into the
    coefficient of x^s in L(y): max over the rows of (derivative order -
    the row's valuation)."""
    order = len(rows) - 1
    return max(order - i - valuation(row) for i, (row, _) in enumerate(rows)
               if any(not is_zero(c) for c in row))


def check_vanishes(rows, terms, through: float, N: int, what: str, rhs=None,
                   majorant=None, root_gap=0.0):
    """L(y) - rhs vanishes at every exponent with real part <= through.
    ``through`` comes from the requested N, never from y: y must carry
    every coefficient that L(y) needs there, so an output cut short fails
    here instead of leaving its missing coefficients to count as 0."""
    need = through + reach(rows)
    if truncation(terms) < need - 1e-9:
        raise ShortOutput(f"{what}: known only through x^{truncation(terms):g}, "
                          f"the check needs x^{need:g}")
    reps, out = apply_rows(rows, terms, rhs, majorant, through)
    tol = float_tolerance(N, root_gap)
    for (ci, j, m), (v, mag) in out.items():
        s = real_part(reps[ci]) + j
        if s > through + 1e-9:
            continue
        if is_exact(v):
            require(not v, f"{what}: residual {v} at x^({reps[ci]}+{j}) log^{m}, through {through}")
        else:
            require(abs(v) <= tol * mag,
                    f"{what}: residual {abs(v):.3e} > {tol * mag:.3e} at x^({reps[ci]}+{j}) log^{m}")


def root_gap(roots) -> float:
    """How far the float roots that the solver treats as one exponent (or as
    an integer gap) are from being so: the spread of a root cluster."""
    gap = 0.0
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            if is_exact(a) and is_exact(b):
                continue
            d = complex(a) - complex(b)
            miss = abs(d - round(d.real))
            if miss < 1e-4:
                gap = max(gap, miss)
    return gap


# ---------------------------------------------------------------------------
# equations: chart shift, indicial polynomial, Fuchs
# ---------------------------------------------------------------------------


def local_rows(rows, point, mode):
    """Rows at the expansion point (own Taylor shift), as
    [(coeffs, absweights)] with coefficients GQ (exact) or complex (float)."""
    out = []
    for r in rows:
        vals, weights = [], []
        for t in range(len(r)):
            acc, w = Fraction(0), 0.0
            for k in range(t, len(r)):
                c = r[k] * math.comb(k, t) * point ** (k - t)
                acc += c
                w += abs(float(c))
            vals.append(acc)
            weights.append(w)
        if mode == "float":
            out.append(([complex(float(v)) for v in vals], weights))
        else:
            out.append(([GQ(v) for v in vals], weights))
    return out


def normalized_rows(exact_rows, length):
    """The rows divided by the unit A_0 / x^v, as float series through
    ``length`` terms (computed exactly, then rounded).  This is the
    normalised equation whose full-history recurrence the solver runs, so
    its terms are the ones whose rounding the float bound must count.  The
    weights bound the rounding of the chart shift and of the division: the
    shift's absolute sums, convolved with a majorant of the unit's inverse."""
    a0 = exact_rows[0][0]
    v = valuation(a0)
    unit = a0[v:] + [GQ(0)] * length
    mags = [abs(c) for c in unit]
    inv, major = [GQ(1) / unit[0]], [1.0 / mags[0]]
    for k in range(1, length):
        acc, acc_m = GQ(0), 0.0
        for j in range(1, k + 1):
            if unit[j]:
                acc = acc + unit[j] * inv[k - j]
                acc_m += mags[j] * major[k - j]
        inv.append(-(acc * inv[0]))
        major.append(acc_m / mags[0])
    weight0 = exact_rows[0][1]
    out = []
    for row, weights in exact_rows:
        g, w = [], []
        for k in range(length):
            acc, acc_w = GQ(0), 0.0
            for j in range(min(k + 1, len(row))):
                if row[j]:
                    acc = acc + row[j] * inv[k - j]
                acc_w += weights[j] * major[k - j]
            g.append(complex(acc))
            w.append(acc_w * weight0[v] * major[0])
        out.append((g, w))
    return out


def valuation(row) -> int:
    for n, c in enumerate(row):
        if not is_zero(c):
            return n
    raise CheckError("zero row")


def _ff_poly(k):
    """Coefficients of r (r-1) ... (r-k+1), low power first."""
    p = [Fraction(1)]
    for t in range(k):
        q = [Fraction(0)] * (len(p) + 1)
        for i, c in enumerate(p):
            q[i + 1] += c
            q[i] -= t * c
        p = q
    return p


def indicial_poly(rows):
    """Monic indicial polynomial at the origin from exact local rows."""
    order = len(rows) - 1
    v = valuation(rows[0][0])
    q = [GQ(0)] * (order + 1)
    for i, (row, _) in enumerate(rows):
        j = v - i
        if 0 <= j < len(row) and not is_zero(row[j]):
            for d, c in enumerate(_ff_poly(order - i)):
                q[d] = q[d] + row[j] * c
    lead = q[order]
    return [c / lead for c in q]


def peval(p, z):
    acc = GQ(0) if is_exact(z) and all(is_exact(c) for c in p) else 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc


def fuchs_tag(rows) -> str:
    """ordinary / regular_singular / irregular_singular at the origin, from
    the pole orders of A_i / A_0."""
    v0 = valuation(rows[0][0])
    regular = True
    for i, (row, _) in enumerate(rows[1:], start=1):
        if any(not is_zero(c) for c in row):
            if v0 - valuation(row) > i:
                regular = False
    if not regular:
        return "irregular_singular"
    return "ordinary" if v0 == 0 else "regular_singular"


def infinity_irregular(rows) -> bool:
    """Fuchs at infinity: A_i / A_0 = O(x^-i) for every i, else irregular."""
    def deg(r):
        d = -1
        for n, c in enumerate(r):
            if c:
                d = n
        return d

    d0 = deg(rows[0])
    return any(deg(r) >= 0 and deg(r) - d0 > -i for i, r in enumerate(rows[1:], start=1))


# ---------------------------------------------------------------------------
# composite checks
# ---------------------------------------------------------------------------


def check_fundamental_system(eq, mode, solutions, wronskian, case, roots, N):
    """Solutions of ``eq`` (see equations.py) as term lists; the wronskian
    as a term list; the program's case string and roots."""
    order = eq["order"]
    rows = local_rows(eq["rows"], eq["point"], mode)
    require(len(solutions) == order, f"{len(solutions)} solutions for order {order}")
    if mode == "exact" and eq["tag"] is not None:
        require(str(case).startswith(eq["tag"]), f"case {case}, expected {eq['tag']}")
    exact_rows = local_rows(eq["rows"], eq["point"], "exact")
    q = indicial_poly(exact_rows)
    for r in roots:
        if is_exact(r):
            require(not peval(q, r), f"root {r} does not solve the indicial polynomial")
        else:
            scale = sum(abs(complex(c)) * max(1.0, abs(r)) ** k for k, c in enumerate(q))
            require(abs(peval([complex(c) for c in q], r)) <= 1e-6 * scale,
                    f"root {r} does not solve the indicial polynomial")
    gap = root_gap(roots)
    float_rows = []

    def rows_for(terms):
        if all(is_exact(c) for _, _, cs in terms for c in cs):
            return rows if mode == "exact" else [([complex(c) for c in r], w) for r, w in rows]
        if not float_rows:
            float_rows.extend(normalized_rows(exact_rows, N + order + 2))
        return float_rows

    for idx, terms in enumerate(solutions):
        require(terms, f"solution {idx} is zero")
        rho = real_part(lead_exponent(terms))
        # the N + 1 requested coefficients, of which substitution can verify
        # those through x^(rho+N-order)
        if truncation(terms) < rho + N - 1e-9:
            raise ShortOutput(f"solution {idx}: known only through x^{truncation(terms):g}, "
                              f"N = {N} asks for x^{rho + N:g}")
        check_vanishes(rows_for(terms), terms, rho + N - order, N, f"solution {idx}",
                       root_gap=gap)
    check_wronskian(rows_for(wronskian) if wronskian else rows, exact_rows, q, wronskian,
                    solutions, N, gap)
    if eq["closed"] is not None:
        check_closed_form(eq["closed"], solutions, N - order)


def check_wronskian(rows, exact_rows, q, wterms, solutions, N, gap=0.0):
    """Abel's equation A_0 W' + A_1 W = 0 through the order that solutions
    known through x^(rho+N-order) determine, with W leading at
    x^(s1 - n(n-1)/2)."""
    order = len(rows) - 1
    require(wterms, "wronskian is zero")
    lead = lead_exponent(wterms)
    want = -q[order - 1] - GQ(order * (order - 1) // 2)
    if is_exact(lead):
        require(lead == want, f"wronskian leads with x^{lead}, Abel says x^{want}")
    else:
        require(abs(complex(lead) - complex(want)) <= 1e-6 * max(1.0, abs(complex(want))),
                f"wronskian leads with x^{lead}, Abel says x^{want}")
    v = valuation(exact_rows[0][0])
    through = real_part(lead) + N - order + v - 1
    majorant = None
    if any(not is_exact(c) for _, _, cs in wterms for c in cs):
        majorant = _determinant_majorant(solutions, real_part(lead), N)
    check_vanishes(rows[:2], wterms, through, N, "wronskian (Abel)", majorant=majorant,
                   root_gap=gap)


def _determinant_majorant(solutions, lead, N):
    """Coefficientwise bound on the sum of |products| that make up the
    wronskian determinant: cancellation there is what float rounding
    cannot resolve."""
    n = len(solutions)
    size = N + 2
    derivs = []  # derivs[i][k][t]: bound on |x^(lead_i - k + t)| coefficient of y_i^(k)
    for terms in solutions:
        base = real_part(lead_exponent(terms))
        reps, mono = monomials(terms)
        per_k = []
        for k in range(n):
            u = [0.0] * size
            for (ci, j, m), c in mono.items():
                s = real_part(reps[ci]) + j
                t = round(s - base)
                if 0 <= t < size:
                    u[t] += abs(complex(c)) * (abs(complex(reps[ci])) + abs(j) + m + k) ** k
            per_k.append(u)
        derivs.append(per_k)
    total = [0.0] * size
    for perm in itertools.permutations(range(n)):
        acc = derivs[perm[0]][0]
        for k in range(1, n):
            u = derivs[perm[k]][k]
            nxt = [0.0] * size
            for a, x in enumerate(acc):
                if x:
                    for b in range(size - a):
                        nxt[a + b] += x * u[b]
            acc = nxt
        for t in range(size):
            total[t] += acc[t]

    def bound(exponent):
        t = round(exponent - lead)
        return total[t] if 0 <= t < size else 0.0
    return bound


def _solution_at(solutions, exponent, limit):
    """Coefficients 0 .. limit of the log-free single-term solution leading
    with the given exponent."""
    for terms in solutions:
        if len(terms) == 1 and terms[0][1] == 0 and _int_offset(terms[0][0], exponent) == 0:
            cs = terms[0][2]
            if len(cs) <= limit:
                raise ShortOutput(f"solution at x^{exponent} known only through index "
                                  f"{len(cs) - 1}, the closed form is compared through {limit}")
            return cs[:limit + 1]
    raise CheckError(f"no log-free solution at exponent {exponent}")


def _div(a, b):
    if is_exact(a) and is_exact(b):
        return a / b
    return complex(a) / complex(b)


def _close(got, want):
    if is_exact(got):
        return got == GQ(want)
    return abs(got - complex(float(want))) <= CLOSED_RTOL * max(abs(float(want)), 1e-300)


def check_closed_form(closed, solutions, limit):
    """Compare coefficients 0 .. limit with the closed form."""
    kind, param = closed
    if kind == "bessel3":
        cs = _solution_at(solutions, GQ(0), limit)
        for n, c in enumerate(cs):
            k, r = divmod(n, 3)
            want = Fraction((-1) ** k, 27**k * math.factorial(k) ** 3) if r == 0 else Fraction(0)
            require(_close(c, want), f"third-order Bessel coefficient {n}: {c} != {want}")
    elif kind == "bessel":
        for nu in {param, -param}:
            if nu != param and (2 * param).denominator == 1:
                continue  # integer order: the second solution has logs
            cs = _solution_at(solutions, GQ(nu), limit)
            for n in range(1, len(cs), 2):
                require(is_zero(cs[n]) or (not is_exact(cs[n]) and abs(cs[n]) <= 1e-300),
                        f"Bessel odd coefficient {n} non-zero")
            for k in range(1, (len(cs) - 1) // 2 + 1):
                ratio = Fraction(-1, 4) / (k * (k + nu))
                if is_exact(cs[2 * k]) and is_exact(cs[2 * k - 2]):
                    require(cs[2 * k] == cs[2 * k - 2] * ratio, f"Bessel ratio at k={k}")
                else:
                    want = complex(cs[2 * k - 2]) * float(ratio)
                    require(abs(complex(cs[2 * k]) - want) <= CLOSED_RTOL * abs(want) + 1e-300,
                            f"Bessel ratio at k={k}")
    elif kind == "laguerre3":
        cs = _solution_at(solutions, GQ(0), limit)
        want = Fraction(1)
        for n, c in enumerate(cs):
            # n^3 d_n = (n - 1 - alpha) d_(n-1): terminates after n = alpha
            if n:
                want = want * (n - 1 - param) / n**3
            require(_close(_div(c, cs[0]), want), f"Laguerre coefficient {n}")
    elif kind == "legendre":
        cs = _solution_at(solutions, GQ(0), limit)
        p = legendre_at_one(param)
        for n, c in enumerate(cs):
            want = p[n] if n < len(p) else Fraction(0)
            require(_close(_div(c, cs[0]), want), f"Legendre coefficient {n}")
    else:
        raise CheckError(f"unknown closed form {kind}")


def legendre_at_one(ell):
    """Taylor coefficients of P_ell(1 + t) (Bonnet recursion)."""
    p0, p1 = [Fraction(1)], [Fraction(0), Fraction(1)]  # in x
    if ell == 0:
        px = p0
    else:
        for n in range(1, ell):
            nxt = [Fraction(0)] * (n + 2)
            for i, c in enumerate(p1):
                nxt[i + 1] += Fraction(2 * n + 1, n + 1) * c
            for i, c in enumerate(p0):
                nxt[i] -= Fraction(n, n + 1) * c
            p0, p1 = p1, nxt
        px = p1
    out = [Fraction(0)] * len(px)
    for k, c in enumerate(px):
        for t in range(k + 1):
            out[t] += c * math.comb(k, t)
    return out


def check_particular(eq, mode, yp_terms, N):
    """L(y_p) = rhs through x^(N - order)."""
    order = eq["order"]
    rows = local_rows(eq["rows"], eq["point"], mode)
    rhs = local_rows([eq["rhs"]], eq["point"], mode)[0]
    require(yp_terms, "particular solution is zero")
    check_vanishes(rows, yp_terms, N - order, N, "particular solution", rhs)


def check_third(eq, mode, y3_terms, y1_terms, y2_terms, N):
    """y3 solves the homogeneous equation and carries an exponent class of
    its own."""
    order = eq["order"]
    rows = local_rows(eq["rows"], eq["point"], mode)
    require(y3_terms, "third solution is zero")
    lead = lead_exponent(y3_terms)
    check_vanishes(rows, y3_terms, real_part(lead) + N - order, N, "third solution")
    known = [t[0] for t in y1_terms + y2_terms]
    require(any(all(_int_offset(e, k) is None for k in known) for e, _, _ in y3_terms),
            "third solution lies in the exponent classes of the first two")


def horner(terms, x: float) -> complex:
    lx = math.log(x)
    acc = 0j
    for e, m, cs in terms:
        body = 0j
        for c in reversed(cs):
            body = body * x + complex(c)
        acc += cmath.exp(complex(e) * lx) * lx**m * body
    return acc


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def _rejects(fn, what):
    """``fn`` must fail a check on a wrong value, not on a short output."""
    try:
        fn()
    except ShortOutput:
        raise
    except CheckError:
        return
    raise CheckError(f"self-test: {what} was accepted")


def self_test(solve, particular):
    """The checker must reject a solution with one coefficient moved by
    1e-12 and a particular solution checked against the wrong right-hand
    side.  ``solve(eq)`` and ``particular(eq)`` return term lists."""
    from equations import _equation

    F = Fraction
    eq = _equation("selftest", 3, [[F(0), F(0), F(0), F(1)], [F(0), F(0), F(0), F(1)],
                                   [F(0), F(0), F(1)], [F(0), F(-1)]], F(0), 16, "case_iv")
    rows = local_rows(eq["rows"], eq["point"], "exact")
    terms = solve(eq)[0]
    through = real_part(lead_exponent(terms)) + 16 - 3
    check_vanishes(rows, terms, through, 16, "self-test")
    e, m, cs = terms[0]
    bad = [(e, m, [cs[0], cs[1] + GQ(F(1, 10**12))] + cs[2:])] + terms[1:]
    _rejects(lambda: check_vanishes(rows, bad, through, 16, "self-test"),
             "a solution moved by 1e-12")
    # Bessel nu = 1/3 with rhs 1 + 2x: the particular solution is complete
    eq = _equation("selftest_rhs", 2, [[F(0), F(0), F(1)], [F(0), F(1)], [F(-1, 9), F(0), F(1)]],
                   F(0), 16, "non_exceptional", rhs=[F(1), F(2)])
    yp = particular(eq)
    check_particular(eq, "exact", yp, 16)
    _rejects(lambda: check_particular(dict(eq, rhs=[F(1), F(3)]), "exact", yp, 16),
             "a particular solution for the wrong rhs")
