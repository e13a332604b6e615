"""Fundamental systems, formal probes, wronskians and residual certificates."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobode.frobenius import (
    _q_jet,
    formal_probe,
    frobenius_solve,
    recurrence_coefficients,
    recurrence_jets,
    recurrence_jets_free,
    residual,
    residual_valuation,
    solve,
    wronskian_of_system,
    wronskian_ode_solution,
)
from frobode.indicial import analyze, indicial_polynomial
from frobode.ode import FrobeniusForm, Ode, to_frobenius_form
from frobode.scalars import GaussianRational, to_complex
from frobode.series import JetValuationError, Series, poly_eval_jet

G = GaussianRational


def _gr(p, q=1):
    return G(Fraction(p, q))


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------


def test_sine_cosine_basis_at_an_ordinary_point():
    fs = solve(Ode.from_rows([[1], [0], [1]], trunc=12), N=12)
    sin_body = fs.solutions[0].terms[0].body
    cos_body = fs.solutions[1].terms[0].body
    for n in range(12):
        sign = _gr((-1) ** (n // 2)) if n % 2 == 0 else _gr(0)
        assert cos_body[n] == sign * _gr(1, math.factorial(n))
        s_sign = _gr((-1) ** (n // 2)) if n % 2 == 0 else _gr(0)
        assert sin_body[n] == s_sign * _gr(1, math.factorial(n + 1))
    assert fs.solutions[0].log_free() and fs.solutions[1].log_free()


def test_third_order_bessel_coefficients():
    # x^3 y''' + 3x^2 y'' + x y' + x^3 y: phi1 has d_{3k} = (-1)^k / (27^k (k!)^3)
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 3], [0, 1], [0, 0, 0, 1]], trunc=26)
    fs = solve(e, N=26)
    assert fs.indicial.case.tag == "case_i"
    body = fs.solutions[0].terms[0].body
    for k in range(9):
        assert body[3 * k] == _gr((-1) ** k, 27**k * math.factorial(k) ** 3)
        if 3 * k + 1 <= 26:
            assert not bool(body[3 * k + 1])
    # phi2 log-free part: harmonic numbers, (-1)^{n+1} H_n / (27^n (n!)^3)
    phi2 = fs.solutions[1]
    free = next(t for t in phi2.terms if t.logpow == 0)
    logt = next(t for t in phi2.terms if t.logpow == 1)
    assert logt.body.coeffs[: 10] == fs.solutions[0].terms[0].body.coeffs[:10]
    for n in range(1, 7):
        h = Fraction(0)
        for j in range(1, n + 1):
            h += Fraction(1, j)
        want = G(Fraction((-1) ** (n + 1)) * h / (27**n * math.factorial(n) ** 3))
        got = free.body[3 * n - 3] if free.exponent == G(3) else free.body[3 * n]
        assert got == want


def test_complex_conjugate_solution_pair():
    # x^3 y''' + x^2 y'' + x y' + x^3 y: roots 1 + i, 1 - i, 0
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 1], [0, 1], [0, 0, 0, 1]], trunc=20)
    fs = solve(e, N=20)
    s1, s2, s3 = fs.solutions
    conj = s1.conjugate()
    assert all(
        t1.exponent == t2.exponent and t1.body.coeffs == t2.body.coeffs
        for t1, t2 in zip(conj.terms, s2.terms)
    )
    # phi3 product formula: c_{3k} = (-1)^k / (3^k k! prod ((3j-1)^2 + 1))
    body = s3.terms[0].body
    prod = 1
    for k in range(1, 7):
        prod *= (3 * k - 1) ** 2 + 1
        assert body[3 * k] == _gr((-1) ** k, 3**k * math.factorial(k) * prod)


def test_laguerre_termination():
    # alpha = 3: x^3 y''' + 3x^2 y'' + (1-x)x y' + 3x y, series terminates at x^3
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 3], [0, 1, -1], [0, 3]], trunc=16)
    fs = solve(e, N=16)
    body = fs.solutions[0].terms[0].body
    assert body[0] == _gr(1)
    assert body[1] == _gr(-3)
    assert body[2] == _gr(3, 4)
    assert body[3] == _gr(-1, 36)
    assert all(not bool(body[k]) for k in range(4, 17))


def test_case_iv_structure_and_constants():
    # x^3 y''' + x^3 y'' + x^2 y' - x y: roots 2, 1, 0
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1], [0, -1]], trunc=16)
    fs = solve(e, N=16)
    assert str(fs.indicial.case) == "case_iv(1, 1)"
    phi1 = fs.solutions[0]
    assert phi1.terms[0].exponent == G(2)
    for n in range(11):
        assert phi1.terms[0].body[n] == _gr((-1) ** n, math.factorial(n + 1))
    # middle solution is log-free (its resonance constant vanishes)
    assert fs.solutions[1].log_free()
    assert fs.constants["c"] == _gr(0)
    assert fs.constants["c_tilde"] == _gr(-1)
    assert not fs.solutions[2].log_free()


def test_case_ii_logs():
    # x^3 y''' + x^2 y'' + x^2 y' + x y: roots 1, 1, 0
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 1]], trunc=16)
    fs = solve(e, N=16)
    assert str(fs.indicial.case) == "case_ii(1)"
    assert fs.solutions[0].log_free()
    assert fs.solutions[1].max_logpow() == 1
    assert not fs.solutions[2].log_free()


def test_euler_closed_form():
    # x^2 y'' - 2 y = 0: roots 2, -1
    f = to_frobenius_form(Ode.from_rows([[0, 0, 1], [0], [-2]], trunc=8))
    fs = frobenius_solve(f, 8)
    exps = [s.terms[0].exponent for s in fs.solutions]
    assert exps == [G(2), G(-1)]
    # x^2 y'' - x y' + y = 0: double root 1 -> x and x log x
    f2 = to_frobenius_form(Ode.from_rows([[0, 0, 1], [0, -1], [1]], trunc=8))
    fs2 = frobenius_solve(f2, 8)
    assert fs2.solutions[0].max_logpow() == 0
    assert fs2.solutions[1].max_logpow() == 1


# ---------------------------------------------------------------------------
# residual certificates and wronskians
# ---------------------------------------------------------------------------


def test_residuals_vanish_through_reliable_order():
    random.seed(1)
    N = 20
    for _ in range(10):
        order = random.choice([2, 3])
        rnd = lambda: Series(
            [random.randint(-3, 3) for _ in range(random.randint(1, 5))], trunc=N
        )
        if order == 2:
            f = FrobeniusForm(2, b=rnd(), c=rnd())
        else:
            f = FrobeniusForm(3, b=rnd(), c=rnd(), a=rnd())
        fs = frobenius_solve(f, N)
        e = f.as_ode()
        scale = max(r.magnitude() for r in e.coeffs)
        for sol, root in zip(fs.solutions, fs.indicial.roots):
            rv = residual_valuation(
                residual(e, sol), root, scale * max(1.0, sol.magnitude())
            )
            assert rv >= N - order
        assert not wronskian_of_system(fs.solutions).is_zero()


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_divisor_zero_test_ignores_the_running_magnitude(mode):
    # roots about 20.14, 1.84 and -0.97: D_n grows to about 1e15 while
    # q(n + r) stays near 774, which a zero test scaled by D_n took for 0
    Q = Fraction
    rows = [
        [0, 0, 0, 1],
        [0, 0, -18, -30, 17],
        [0, Q(-40, 9), Q(29, 10), Q(19, 3)],
        [36, Q(-11, 3), 3, Q(-17, 2)],
    ]
    N = 24
    if mode == "float":
        rows = [[complex(c) for c in r] for r in rows]
    e = Ode.from_rows(rows, trunc=N)
    fs = solve(e, N=N)
    assert fs.indicial.case.tag == "non_exceptional"
    scale = max(r.magnitude() for r in e.coeffs)
    for sol, root in zip(fs.solutions, fs.indicial.roots):
        rv = residual_valuation(residual(e, sol), root, scale * max(1.0, sol.magnitude()))
        assert rv >= N - 3


def test_wronskian_solution_regular_case():
    # x^3 y'' - x^2 y' - y: a w' + b w = 0 gives W = K x
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, -1], [-1]], trunc=10)
    w = wronskian_ode_solution(e)
    assert not w.essential
    assert w.exponent == G(1)
    g = w.as_generalized_series()
    assert g.terms[0].exponent == G(1)
    assert g.terms[0].body[0] == G(1)
    assert all(not bool(c) for c in g.terms[0].body.coeffs[1:])


def test_wronskian_solution_essential_case():
    # x^3 y'' - x y' - y: -int(b/a) has principal part -1/x
    e = Ode.from_rows([[0, 0, 0, 1], [0, -1], [-1]], trunc=10)
    w = wronskian_ode_solution(e)
    assert w.essential
    assert w.principal_part == {-1: G(-1)}


# ---------------------------------------------------------------------------
# formal probes
# ---------------------------------------------------------------------------


def test_probe_divergent_with_recurrence():
    # x^2 y'' - y' - y/2: (k+1) a_{k+1} = (k^2 - k - 1/2) a_k
    e = Ode.from_rows([[0, 0, 1], [-1], ["-1/2"]], trunc=32)
    p = formal_probe(e, 32)
    assert p.status == "divergent_formal"
    assert p.radius_estimate < 1e-3
    a = p.candidates[0]
    for k in range(10):
        assert (k + 1) * a[k + 1] == _gr(2 * k * k - 2 * k - 1, 2) * a[k]


def test_probe_divergent_third_order():
    # x^3 y''' - x^2 y'' - y' - y/2: (k+1) a_{k+1} = (k^3 - 4k^2 + 3k - 1/2) a_k
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, -1], [-1], ["-1/2"]], trunc=32)
    p = formal_probe(e, 32)
    assert p.status == "divergent_formal"
    assert p.radius_estimate < 1e-3
    a = p.candidates[0]
    for k in range(10):
        rhs = _gr(2 * (k**3 - 4 * k * k + 3 * k) - 1, 2)
        assert (k + 1) * a[k + 1] == rhs * a[k]


def test_probe_trivial_only():
    for rows in ([[0, 0, 0, 1], [0, 0, -1], [-1]], [[0, 0, 0, 1], [0, -1], [-1]]):
        assert formal_probe(Ode.from_rows(rows, trunc=24)).status == "trivial_only"


def test_probe_always_nontrivial_family():
    # z^2 a u'' + b u' + c u with a(0), b(0), c(0) != 0
    e = Ode.from_rows([[0, 0, 1], [1, 1], [2, 1]], trunc=24)
    p = formal_probe(e)
    assert p.status != "trivial_only"
    assert len(p.candidates) >= 1
    # b0 (n+1) d_{n+1} = -(n(n-1) a-part + b-tail + c-part) d_n ... verified via
    # the equation itself: feed the candidate back through the operator
    res = residual(e, _as_gs(p.candidates[0]))
    rv = residual_valuation(res, G(0), max(1.0, p.candidates[0].magnitude()))
    assert rv >= 20


def _as_gs(s):
    from frobode.series import gs_from_series

    return gs_from_series(s)


def test_probe_convergent_solutions():
    e = Ode.from_rows([[1], [0], [1]], trunc=24)
    p = formal_probe(e)
    assert p.status == "solutions"
    assert p.radius_estimate > 1.0


# ---------------------------------------------------------------------------
# jets against finite differences
# ---------------------------------------------------------------------------


def test_jet_derivative_matches_central_difference():
    random.seed(4)
    for _ in range(10):
        f = FrobeniusForm(
            3,
            b=Series([complex(random.uniform(-2, 2)) for _ in range(3)], trunc=12),
            c=Series([complex(random.uniform(-2, 2)) for _ in range(3)], trunc=12),
            a=Series([complex(random.uniform(-2, 2)) for _ in range(3)], trunc=12),
        )
        r = complex(random.uniform(0.3, 1.5), random.uniform(0.2, 0.8))
        h = 1e-5
        jets = recurrence_jets_free(f, r, 10, jet_order=1)
        plus = recurrence_coefficients(f, r + h, 10)
        minus = recurrence_coefficients(f, r - h, 10)
        for n in range(11):
            fd = (to_complex(plus[n]) - to_complex(minus[n])) / (2 * h)
            dj = to_complex(jets[n].coeff(1))
            assert abs(dj - fd) <= 1e-6 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# the integer recurrence against a plain Gaussian-rational jet recurrence
# ---------------------------------------------------------------------------


def _jvar(x0, m):
    """x0 + eps, as a jet of m coefficients."""
    return ([x0, G(1)] + [G(0)] * m)[:m]


def _jmul(p, q):
    return [sum((p[i] * q[t - i] for i in range(t + 1)), G(0)) for t in range(min(len(p), len(q)))]


def _oracle_jets(f, q_at, base, seed_pow, jet_order, N):
    """D_n = -E_n / q(n + base + eps) on lists of scalars, jets truncated to
    the shorter operand; q_at(n, m) is q(n + base + eps) with m coefficients."""
    m = jet_order + 1
    zero = G(0)
    D = [[G(1 if t == seed_pow else 0) for t in range(m)]]
    for n in range(1, N + 1):
        acc = [zero] * m
        for j in range(n):
            ak, bk, ck = (f.a[n - j] if f.order == 3 else zero), f.b[n - j], f.c[n - j]
            if ak == 0 and bk == 0 and ck == 0:
                continue
            x = _jvar(base + j, m)
            xx = _jmul(x, _jvar(base + j - 1, m))
            w = [ak * u + bk * v + (ck if t == 0 else zero) for t, (u, v) in enumerate(zip(xx, x))]
            acc = [u + v for u, v in zip(acc, _jmul(w, D[j]))]
        q = q_at(n, m)
        v = next((t for t, u in enumerate(q) if u != 0), None)
        if v is None:
            raise ZeroDivisionError("jet division by zero")
        nv = next((t for t, u in enumerate(acc) if u != 0), None)
        if v and nv is None:
            D.append([zero] * max(1, len(acc) - v))
            continue
        if v and nv < v:
            raise JetValuationError(f"numerator valuation {nv} < divisor valuation {v}")
        out = []
        for k in range(len(acc) - v):
            tail = sum((q[v + i] * out[k - i] for i in range(1, k + 1)), zero)
            out.append((-acc[v + k] - tail) / q[v])
        D.append(out)
    return D


def _root_product(roots, base):
    def q_at(n, m):
        out = [G(1)] + [G(0)] * (m - 1)
        for r in roots:
            out = _jmul(out, _jvar(base + n - r, m))
        return out
    return q_at


def _outcome(fn):
    try:
        return [list(j.coeffs) if hasattr(j, "coeffs") else j for j in fn()]
    except (JetValuationError, ZeroDivisionError, ValueError) as err:
        return (type(err), str(err))


def _gaussian(parts=(-3, 3), den=4, complex_=True):
    u = st.fractions(min_value=parts[0], max_value=parts[1], max_denominator=den)
    return st.builds(G, u, u if complex_ else st.just(0))


@st.composite
def _recurrence_case(draw):
    order = draw(st.sampled_from([2, 3]))
    cplx = draw(st.booleans())
    coef = st.one_of(st.just(G(0)), _gaussian(complex_=cplx))
    N = draw(st.integers(1, 10))
    rows = [Series(draw(st.lists(coef, min_size=1, max_size=5)), trunc=N) for _ in range(order)]
    base = draw(_gaussian(complex_=cplx))
    # roots at integer offsets from the base make q(n + base) vanish
    roots = [base - draw(st.integers(-1, 3)) if draw(st.booleans()) else draw(_gaussian((-12, 12)))
             for _ in range(order)]
    jet_order = draw(st.integers(0, 3))
    seed_pow = draw(st.integers(0, jet_order))
    f = FrobeniusForm(order, b=rows[-2], c=rows[-1], a=rows[0] if order == 3 else None)
    return f, roots, base, seed_pow, jet_order, N


@settings(max_examples=120, deadline=None)
@given(_recurrence_case())
def test_exact_recurrence_matches_jet_oracle(case):
    f, roots, base, seed_pow, jet_order, N = case
    got = _outcome(lambda: recurrence_jets(f, roots, base, seed_pow, jet_order, N))
    q_at = _root_product(roots, base)
    want = _outcome(lambda: _oracle_jets(f, q_at, base, seed_pow, jet_order, N))
    assert got == want


@settings(max_examples=40, deadline=None)
@given(_recurrence_case())
def test_exact_free_recurrence_matches_jet_oracle(case):
    f, _, r, _, jet_order, N = case
    q = indicial_polynomial(f)

    def q_at(n, m):
        acc = [G(0)] * m
        for c in reversed(q):  # Horner at r + n + eps
            acc = _jmul(acc, _jvar(r + n, m))
            acc[0] += c
        return acc

    got = _outcome(lambda: recurrence_jets_free(f, r, N, jet_order))
    want = _outcome(lambda: _oracle_jets(f, q_at, r, 0, jet_order, N))
    assert got == want


def test_exact_recurrence_on_resonant_and_complex_forms():
    forms = [
        # case_iv, roots 2, 1, 0: seeds 1 and 2 at the bottom root; seed 0
        # leaves q's zero at n = 1 uncancelled, and with no eps at all q
        # vanishes identically there
        ([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1], [0, -1]],
         [(G(0), 1, 3), (G(0), 2, 4), (G(1), 1, 2), (G(0), 0, 1), (G(0), 0, 0)]),
        # roots 1 + i, 1 - i, 0
        ([[0, 0, 0, 1], [0, 0, 1], [0, 1], [0, 0, 0, 1]],
         [(G(1, 1), 0, 0), (G(1, -1), 0, 1), (G(0), 0, 2)]),
        # roots 1, 0 with c = x^2 only: D_1 is a structural zero, one shorter
        ([[0, 0, 1], [0], [0, 0, 1]], [(G(0), 1, 2), (G(1), 0, 0)]),
    ]
    raised = []
    for rows, runs in forms:
        f = to_frobenius_form(Ode.from_rows(rows, trunc=12))
        roots = analyze(f).roots
        for base, s, jet_order in runs:
            got = _outcome(lambda: recurrence_jets(f, roots, base, s, jet_order, 12))
            q_at = _root_product(roots, base)
            want = _outcome(lambda: _oracle_jets(f, q_at, base, s, jet_order, 12))
            assert got == want
            if isinstance(got, tuple):
                raised.append(got)
    assert raised == [
        (JetValuationError, "numerator valuation 0 < divisor valuation 1"),
        (ZeroDivisionError, "jet division by zero"),
    ]
    f = to_frobenius_form(Ode.from_rows(forms[2][0], trunc=12))
    roots = analyze(f).roots
    lens = [len(j.coeffs) for j in recurrence_jets(f, roots, G(0), 1, 2, 12)]
    assert lens[:5] == [3, 2, 3, 2, 3]
    with pytest.raises(ValueError, match="seed power exceeds jet order"):
        recurrence_jets(f, roots, G(0), 2, 1, 12)


def test_irrational_roots_take_the_float_recurrence():
    # x^2 y'' + x y' + (x - 2) y: roots +-sqrt(2)
    f = to_frobenius_form(Ode.from_rows([[0, 0, 1], [0, 1], [-2, 1]], trunc=10))
    ind = analyze(f)
    assert not ind.exact
    jets = recurrence_jets(f, ind.roots, ind.roots[0], 0, 1, 10)
    assert all(isinstance(c, complex) for j in jets[1:] for c in j.coeffs)
    want = _oracle_jets(f, _root_product(ind.roots, ind.roots[0]), ind.roots[0], 0, 1, 10)
    for j, w in zip(jets, want):
        for c, cw in zip(j.coeffs, w):
            assert abs(to_complex(c) - to_complex(cw)) <= 1e-12 * max(1.0, abs(to_complex(cw)))


# ---------------------------------------------------------------------------
# the float and mixed recurrence against the `Series` loop it replaced
# ---------------------------------------------------------------------------


def _jet_loop(f, base, seed_pow, jet_order, N, q_at):
    """The recurrence in `Series` arithmetic, as float and mixed data ran it
    before the list loop: the reference that loop must match bit for bit."""

    def zero(*cs):
        return all((isinstance(c, G) and not c) or c == 0 for c in cs)

    a, b, c = f.a, f.b, f.c
    seed = [G(0)] * (jet_order + 1)
    seed[seed_pow] = G(1)
    D = [Series(seed)]
    p1 = [Series.variable(base + j, jet_order) for j in range(N)]
    if f.order == 3:
        p2 = [p1[j] * Series.variable(base + j - 1, jet_order) for j in range(N)]
    running = max(1.0, f.b.magnitude(), f.c.magnitude(),
                  f.a.magnitude() if f.a is not None else 0.0)
    for n in range(1, N + 1):
        acc = None
        for j in range(n):
            k = n - j
            ak = a[k] if f.order == 3 else G(0)
            bk, ck = b[k], c[k]
            if zero(ak, bk, ck):
                continue
            w = p1[j].scale(bk)
            if f.order == 3 and not zero(ak):
                w = w + p2[j].scale(ak)
            term = w * D[j] + D[j].scale(ck)
            acc = term if acc is None else acc + term
        if acc is None:
            acc = Series([G(0)] * (jet_order + 1))
        dn = (-acc).div(q_at(n), scale=running)
        D.append(dn)
        running = max(running, dn.magnitude(), acc.magnitude())
    return D


def _bits(fn):
    """Each jet's coefficients as (type, repr) pairs, so that equal outcomes
    have equal values, types, lengths and float bits (signed zeros too);
    or the type and message of the exception raised."""
    try:
        return [[(type(c), repr(c)) for c in j.coeffs] for j in fn()]
    except (JetValuationError, ZeroDivisionError) as err:
        return (type(err), str(err))


def _same_as_jet_loop(f, roots, base, seed_pow, jet_order, N):
    got = _bits(lambda: recurrence_jets(f, roots, base, seed_pow, jet_order, N))
    want = _bits(lambda: _jet_loop(
        f, base, seed_pow, jet_order, N, lambda n: _q_jet(roots, base, n, jet_order)))
    assert got == want
    return got


def _float(cplx):
    part = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    return st.builds(complex, part, part if cplx else st.just(0.0))


@st.composite
def _float_case(draw):
    order = draw(st.sampled_from([2, 3]))
    cplx = draw(st.booleans())
    # exact zeros are the padding of float rows; exact entries make mixed rows
    coef = st.one_of(st.just(G(0)), st.just(0j), _float(cplx), _gaussian(complex_=cplx))
    N = draw(st.integers(1, 10))
    rows = [Series(draw(st.lists(coef, min_size=1, max_size=5)), trunc=N) for _ in range(order)]
    base = draw(st.one_of(_float(cplx), _gaussian(complex_=cplx)))
    # a root at an integer offset from the base: q(n + base) vanishes at
    # n = r - base when the offset is negative; exact roots and an exact base
    # make q exact, and its exact zeros are what meets the rows
    gap = draw(st.integers(-3, 2))
    roots = [base - gap if draw(st.booleans()) else complex(base) - gap]
    roots += [draw(st.one_of(_float(cplx), _gaussian(complex_=cplx))) for _ in range(order - 1)]
    jet_order = draw(st.integers(0, 3))
    seed_pow = draw(st.integers(0, jet_order))
    f = FrobeniusForm(order, b=rows[-2], c=rows[-1], a=rows[0] if order == 3 else None)
    return f, draw(st.permutations(roots)), base, seed_pow, jet_order, N


@settings(max_examples=150, deadline=None)
@given(_float_case())
def test_float_recurrence_matches_the_jet_loop(case):
    _same_as_jet_loop(*case)


@settings(max_examples=40, deadline=None)
@given(_float_case())
def test_float_free_recurrence_matches_the_jet_loop(case):
    f, roots, _, _, jet_order, N = case
    r = complex(roots[0])
    q = indicial_polynomial(f)
    got = _bits(lambda: recurrence_jets_free(f, r, N, jet_order))
    want = _bits(lambda: _jet_loop(
        f, r, 0, jet_order, N, lambda n: poly_eval_jet(q, r + n, jet_order)))
    assert got == want


def test_float_and_mixed_recurrence_on_resonant_and_irrational_forms():
    def form(rows, mode):
        if mode == "float":
            rows = [[complex(Fraction(c)) for c in r] for r in rows]
        return to_frobenius_form(Ode.from_rows(rows, trunc=12))

    raised = []
    # case_iv in float mode, roots 2, 1, 0: the runs of the exact test
    f = form([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1], [0, -1]], "float")
    roots = analyze(f).roots
    for i, s, jet_order in [(2, 1, 3), (2, 2, 4), (1, 1, 2), (2, 0, 1), (2, 0, 0)]:
        got = _same_as_jet_loop(f, roots, roots[i], s, jet_order, 12)
        if isinstance(got, tuple):
            raised.append(got)
    assert raised == [
        (JetValuationError, "numerator valuation 0 < divisor valuation 1"),
        (ZeroDivisionError, "jet division by zero"),
    ]
    # roots 1, 0 with c = x^2 only: E_1 = 0 over q(1 + eps) = eps (1 + eps)
    # gives D_1 a jet of exact zeros, one shorter
    f = form([[0, 0, 1], [0], [0, 0, 1]], "float")
    roots = analyze(f).roots
    got = _same_as_jet_loop(f, roots, roots[1], 1, 2, 12)
    assert [len(j) for j in got[:5]] == [3, 2, 3, 2, 3]
    assert got[1] == [(G, "0")] * 2
    # float entries only at x^0, which the recurrence never reads: with an
    # exact base and exact roots every D_n stays exact
    f = FrobeniusForm(2, b=Series([0.5 + 0j, "1/3"], trunc=6),
                      c=Series([0j, 1, "-1/7"], trunc=6))
    got = _same_as_jet_loop(f, (G(0), G(-1, 2)), G(0), 0, 1, 6)
    assert all(t is G for jet in got for t, _ in jet)
    # exact rows, roots +-sqrt(2): a float base
    f = form([[0, 0, 1], [0, 1], [-2, 1, "1/3"]], "exact")
    roots = analyze(f).roots
    for jet_order in range(3):
        _same_as_jet_loop(f, roots, roots[jet_order % 2], 0, jet_order, 12)
    # exact rows, q(r) = (r - 1)(r^2 - 2): the exact base 1 with float roots,
    # where the weights and the j = 0 term are exact
    f = FrobeniusForm(3, b=Series([-2, 1, 0, "1/5"], trunc=12),
                      c=Series([2, "-1/3", 1], trunc=12), a=Series([2, "1/7"], trunc=12))
    ind = analyze(f)
    assert not ind.exact
    for roots in (ind.roots, (G(1), 2 ** 0.5, -(2 ** 0.5))):
        for jet_order in range(3):
            got = _same_as_jet_loop(f, roots, G(1), jet_order // 2, jet_order, 12)
            assert all(t is complex for t, _ in got[2])
