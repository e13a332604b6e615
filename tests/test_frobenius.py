"""Fundamental systems, formal probes, wronskians and residual certificates."""

import gc
import math
import os
import random
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import frobode.frobenius as fro
import frobode.ode as ode_mod
from frobode.frobenius import (
    _abel_body,
    _abel_rows,
    _emit_solution,
    formal_probe,
    frobenius_solve,
    recurrence_jets,
    residual,
    residual_valuation,
    solve,
    wronskian,
    wronskian_of_system,
    wronskian_ode_solution,
)
from frobode.indicial import analyze, indicial_polynomial, integer_difference
from frobode.ode import FrobeniusForm, Ode, shift_to_origin, theta_columns, to_frobenius_form
from frobode.scalars import GaussianRational, to_complex
from frobode.series import (GeneralizedSeries, GSTerm, JetValuationError, Series,
                            gs_differentiate, gs_from_series, series_inverse)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import check  # noqa: E402  (the benchmark's output checks)

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


def test_a_seed_retry_leaves_no_reference_cycle():
    """case_ii(1) retries its lowest member's seed.  The failed seed's error is
    kept as a message: the exception's traceback holds the retry loop's frame,
    which held the exception, a cycle that kept every frame and jet of the
    failed run alive until the next cyclic collection (484 objects here)."""
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 1]], trunc=16)
    gc.collect()
    gc.disable()
    try:
        warnings = solve(e, N=16).warnings
        garbage = gc.collect()
    finally:
        gc.enable()
    assert [w[:15] for w in warnings] == ["seed (r-base)^2"]
    assert garbage == 0


def test_emit_raises_on_a_jet_that_ends_below_its_derivative(monkeypatch):
    """x^3 y''' - 2x y' + 4y = 0 (roots 2, 2, -1): the log solution at the
    double root is the eps^1 coefficient of jets through eps^1; jets through
    eps^0 cannot give it, and `_emit_solution` says so by a JetValuationError
    (the float solve's seed loop counts it as a failed seed).  The check reads
    `Series.trunc`, so emitting exact jets builds no GaussianRational."""
    f = to_frobenius_form(Ode.from_rows([[0, 0, 0, 1], [0], [0, -2], [4]], trunc=12))
    ind = analyze(f)
    two = ind.roots[0]
    short = recurrence_jets(f, ind.roots, two, 0, 0, 12)
    with pytest.raises(JetValuationError, match="below eps\\^1"):
        _emit_solution(two, short, 1, 12)
    jets = recurrence_jets(f, ind.roots, two, 0, 1, 12)
    made = [0]
    init = GaussianRational.__init__

    def counting(self, *args):
        made[0] += 1
        init(self, *args)

    monkeypatch.setattr(GaussianRational, "__init__", counting)
    log_solution = _emit_solution(two, jets, 1, 12)
    monkeypatch.undo()
    assert made[0] == 0 and two == 2 and log_solution.max_logpow() == 1


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
# the theta-form of polynomial rows
# ---------------------------------------------------------------------------


def _falling(x, j):
    out = Fraction(1)
    for u in range(j):
        out *= x - u
    return out


def _theta_oracle(rows, rho, N):
    """The log-free coefficients D_0 = 1, ..., D_N at the root rho, from the
    polynomial rows as Fractions: x^order L = x^v sum_k x^k P_k(theta), with
    P_k(theta) = sum_i A_i[k + v - i] theta^(order - i) in falling powers, and
    P_0(n + rho) D_n = -sum_k P_k(n - k + rho) D_(n-k)."""
    order = len(rows) - 1
    A = [[Fraction(c) for c in r] for r in rows]
    v = next(j for j, c in enumerate(A[0]) if c)

    def P(k, x):
        return sum((r[k + v - i] * _falling(x, order - i) for i, r in enumerate(A)
                    if 0 <= k + v - i < len(r)), Fraction(0))

    D = [Fraction(1)]
    for n in range(1, N + 1):
        D.append(-sum(P(k, n - k + rho) * D[n - k] for k in range(1, n + 1)) / P(0, n + rho))
    return D


#: the benchmark's o2_equal_n16 rows (seed 3): double root -1/4, leading row x^2 + x^3/2
_O2_EQUAL_ROWS = [[0, 0, 1, "1/2"], [0, "3/2", "1/5", "-2/3"], ["1/16", "1/3", "-2/5"]]


def test_last_coefficients_follow_the_polynomial_rows():
    """With a leading row that is not a monomial, the x^15 and x^16
    coefficients of y1 (and every other) are those of the theta-recurrence
    on the polynomial rows."""
    fs = solve(Ode.from_rows(_O2_EQUAL_ROWS, trunc=16), N=16)
    (t,) = fs.solutions[0].terms
    assert t.exponent == _gr(-1, 4)
    want = _theta_oracle(_O2_EQUAL_ROWS, Fraction(-1, 4), 16)
    assert [t.body[n] for n in (15, 16)] == [G(want[15]), G(want[16])]
    assert list(t.body.coeffs) == [G(c) for c in want]


def _legendre_three_at_one(N):
    return shift_to_origin(Ode.from_rows([[1, 0, -1], [0, -2], [12]], trunc=N), G(1))


@pytest.mark.parametrize("make, N", [
    (lambda N: Ode.from_rows(_O2_EQUAL_ROWS, trunc=N), 16),
    (_legendre_three_at_one, 24),
    (lambda N: Ode.from_rows([[0, 0, 0, 1, 1], [0, 0, 3, "1/2"], [0, 1, 0, 1], [0, 0, 0, 1]],
                             trunc=N), 12),
])
def test_certificate_covers_the_last_coefficient(make, N):
    """a_N of y1 enters the residual at x^(rho + N - order + v): the exact
    certificate of the solver's y1 is clean, and with 1 added to a_N it is
    finite there."""
    e = make(N)
    fs = solve(e, N=N)
    rho = fs.indicial.roots[0]
    (t,) = fs.solutions[0].terms
    assert residual_valuation(residual(e, fs.solutions[0]), rho) == math.inf
    body = Series(list(t.body.coeffs[:-1]) + [t.body.coeffs[-1] + 1])
    bad = GeneralizedSeries([GSTerm(t.exponent, 0, body)])
    v = e.coeffs[0].valuation()
    assert v >= 1
    assert residual_valuation(residual(e, bad), rho) == N - e.order + v


def test_float_log_solution_follows_the_exact_one_under_a_lead():
    """(2 + x) x^2 y'' + ... with roots 1/4 and -7/4: the float log solution,
    whose jets carry the forcing of the lead at eps^2, equals the exact one
    within rounding."""
    rows = [[0, 0, 2, 1], [0, 5, "1/3"], ["-7/8", "1/2", 1]]
    exact = solve(Ode.from_rows(rows, trunc=12), N=12)
    floats = solve(Ode.from_rows([[complex(Fraction(c)) for c in r] for r in rows], trunc=12), N=12)
    assert str(exact.indicial.case) == "o2_integer_diff(2)"
    assert abs(complex(floats.constants["c"]) - complex(exact.constants["c"])) < 1e-12
    for a, b in zip(exact.solutions, floats.solutions):
        for ta, tb in zip(a.terms, b.terms):
            assert (ta.logpow, complex(ta.exponent)) == (tb.logpow, tb.exponent)
            for x, y in zip(ta.body.coeffs, tb.body.coeffs):
                assert abs(complex(x) - y) <= 1e-12 * max(1.0, abs(complex(x)))


def _cases_of(order, logs=False):
    """Offsets from a base root for each case tag: a gap of 0 repeats a root,
    an integer gap makes a class, 1/3 and 2/3 are off every class; with
    `logs`, only the tags whose systems can have a log term."""
    m, p = st.integers(1, 4), st.integers(1, 4)
    third = Fraction(1, 3)
    if order == 2:
        return st.one_of(st.just([0, 0]), m.map(lambda m: [0, -m]),
                         *[] if logs else [st.just([0, third])])
    return st.one_of(
        st.just([0, 0, 0]), m.map(lambda m: [0, 0, -m]), m.map(lambda m: [0, -m, -m]),
        st.builds(lambda m, p: [0, -m, -m - p], m, p), st.just([0, 0, third]),
        m.map(lambda m: [0, -m, third]), *[] if logs else [st.just([0, third, 2 * third])])


@st.composite
def _theta_equation(draw, logs=False, complex_=False):
    """Exact polynomial rows with a leading row x^v (lc + ...) that is not a
    monomial, v in {order, order + 1}, whose indicial polynomial has the
    drawn roots, all within 8 of each other (`_cases_of`); with `complex_`,
    Gaussian-rational rows and roots."""
    order = draw(st.sampled_from([2, 3]))
    base = Fraction(draw(st.integers(-6, 6)), 4)
    if complex_:
        base = G(base, Fraction(draw(st.integers(-6, 6)), 4))
    roots = [base + k for k in draw(_cases_of(order, logs))]
    q = [Fraction(1)]  # prod (z - r), low power first
    for r in roots:
        q = [u - r * w for u, w in zip([Fraction(0)] + q, q + [Fraction(0)])]
    falling = [q[1] + 1, q[0]] if order == 2 else [q[2] + 3, q[1] + q[2] + 1, q[0]]
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if complex_:
        small = _gaussian((-3, 3), 3)
    lc = draw(small.filter(bool))
    v = order + draw(st.integers(0, 1))
    rows = [[0] * v + [lc, draw(small.filter(bool))] + draw(st.lists(small, max_size=2))]
    for i, c in enumerate(falling, 1):
        rows.append([0] * (v - i) + [lc * c] + draw(st.lists(small, max_size=3)))
    return rows, draw(st.integers(8, 16))  # every integer gap within N


def _coefficients(g, rho, N):
    """{(log power, offset from rho): coefficient as a string} through x^(rho + N)."""
    out = {}
    for t in g.terms:
        k = round(to_complex(t.exponent - rho).real)
        for n, c in enumerate(t.body.coeffs):
            if k + n <= N:
                out[t.logpow, k + n] = str(c)
    return out


@settings(max_examples=40, deadline=None)
@given(_theta_equation())
def test_solutions_are_stable_in_the_number_of_terms(case):
    """solve(N) and solve(N + 8) agree as strings through x^(rho + N), log
    constants included, on equations of every case tag whose leading row is
    not a monomial."""
    rows, N = case
    short = solve(Ode.from_rows(rows, trunc=N), N=N)
    long = solve(Ode.from_rows(rows, trunc=N + 8), N=N + 8)
    assert short.indicial.case == long.indicial.case
    assert short.constants == long.constants
    for a, b, rho in zip(short.solutions, long.solutions, short.indicial.roots):
        got, want = _coefficients(a, rho, N), _coefficients(b, rho, N)
        assert {k: c for k, c in got.items() if c != "0"} == {k: c for k, c in want.items() if c != "0"}


@settings(max_examples=40, deadline=None)
@given(_theta_equation())
def test_wronskian_of_a_solve_is_abels_through_all_its_terms(case):
    """On equations of every case tag, the determinant of solve(N) is
    log-free, leads at x^(sum rho - n(n-1)/2), has N + 1 coefficients, and
    equals K w from Abel's identity on the rows given with N + 8 terms."""
    rows, N = case
    fs = solve(Ode.from_rows(rows, trunc=N), N=N)
    n = len(rows) - 1
    (t,) = wronskian_of_system(fs).terms
    assert t.logpow == 0 and t.exponent == sum(fs.indicial.roots, G(0)) - n * (n - 1) // 2
    assert len(t.body.coeffs) == N + 1
    alpha, beta, _ = _abel_rows(Ode.from_rows(rows, trunc=N + 8))
    rho, w = _abel_body(alpha, beta, t.body[0])
    assert rho == t.exponent
    assert [str(c) for c in t.body.coeffs] == [str(c) for c in w.coeffs[: N + 1]]


@settings(max_examples=40, deadline=None)
@given(_theta_equation())
def test_float_wronskian_of_a_solve_passes_the_benchmarks_float_check(case):
    """The same equations in floats, where the float solve finds the exact
    case: the determinant is log-free with N + 1 coefficients, and solves
    Abel's equation within the benchmark's (N + 1) eps error model
    (`perfbench/check.py`)."""
    rows, N = case
    exact = solve(Ode.from_rows(rows, trunc=N), N=N)
    n = len(rows) - 1
    e = Ode(n, tuple(Series([complex(c) for c in r], trunc=N) for r in rows))
    try:
        fs = solve(e, N)
    except (JetValuationError, ZeroDivisionError):  # float root clusters
        return
    if str(fs.indicial.case) != str(exact.indicial.case):
        return
    W = wronskian_of_system(fs)
    (t,) = W.terms
    assert t.logpow == 0 and not t.body._ints() and len(t.body.coeffs) == N + 1
    exact_rows = check.local_rows([[Fraction(c) for c in r] for r in rows], Fraction(0), "exact")
    check.check_wronskian(check.normalized_rows(exact_rows, N + n + 2), exact_rows,
                          check.indicial_poly(exact_rows), check.gs_terms(W),
                          [check.gs_terms(s) for s in fs.solutions], N,
                          check.root_gap([check.num(r) for r in fs.indicial.roots]))


# ---------------------------------------------------------------------------
# residual certificates and wronskians
# ---------------------------------------------------------------------------


def _derivative_residual(e, g):
    """sum_i A_i g^(order - i) on plain {(exponent, log power): c} sums, each
    D applied termwise (`_dx`) and the rows read as polynomials: exact, with
    no term cut."""
    derivs = [_known_terms(g)]
    for _ in range(e.order):
        derivs.append(_dx(derivs[-1]))
    out = {}
    for i, row in enumerate(e.coeffs):
        for k, a in enumerate(row.coeffs):
            for (x, m), c in derivs[e.order - i].items():
                out[x + k, m] = out.get((x + k, m), 0) + a * c
    return out


def _offset(x, s):
    """x - s as the integer offset within their class."""
    return round(to_complex(x - s).real)


@st.composite
def _residual_case(draw):
    """Exact polynomial rows, at a regular or irregular point, and a series
    x^s sum_m (log x)^m body_m with a Gaussian-rational s."""
    order = draw(st.sampled_from([2, 3]))
    coef = st.one_of(st.just(G(0)), _gaussian())
    rows = [[0] * draw(st.integers(0, 3)) + draw(st.lists(coef, min_size=1, max_size=4))
            for _ in range(order + 1)]
    rows[0].append(G(1))
    N = draw(st.integers(4, 12))
    s = draw(_gaussian())
    bodies = [[draw(_gaussian().filter(bool))] + draw(st.lists(coef, max_size=N))
              for _ in range(draw(st.integers(1, 3)))]
    g = GeneralizedSeries([GSTerm(s, m, Series(b, trunc=N)) for m, b in enumerate(bodies)])
    return Ode.from_rows(rows, trunc=N + 4), g, s, N


@settings(max_examples=80, deadline=None)
@given(_residual_case())
@example((Ode.from_rows([[0, 1], [0], [0]], trunc=8),  # x y'' on i + i x^4: 12i x^3
          GeneralizedSeries([GSTerm(G(0), 0, Series([G(0, 1), 0, 0, 0, G(0, 1)], trunc=4))]),
          G(0), 4))
def test_theta_residual_matches_the_derivative_residual(case):
    """The theta-form residual equals L(g) computed termwise with derivatives
    through x^(N + w - order) over the exponent of g, x^w the lowest power of
    x^order L, log powers and complex exponents included: the order the
    theta-form residual is known to."""
    e, g, s, N = case
    want = {(m, _offset(x, s)): c for (x, m), c in _derivative_residual(e, g).items()}
    got = {(t.logpow, _offset(t.exponent, s) + n): c
           for t in residual(e, g).terms for n, c in enumerate(t.body.coeffs)}
    top = N + theta_columns(e)[0] - e.order
    assert all(got.get(key, G(0)) == want.get(key, G(0))
               for key in set(got) | set(want) if key[1] <= top)


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


def test_wronskian_solution_stops_where_the_rows_do():
    # (x^2 - x^3) y'' + x y' + y: W = K (1 - x)/x; rows through x^12 give
    # b/a = 1/(x (1 - x)) through x^9, so W's body is known through x^10
    e = Ode.from_rows([[0, 0, 1, -1], [0, 1], [1]], trunc=12)
    (t,) = wronskian_ode_solution(e).as_generalized_series().terms
    assert t.exponent == G(-1)
    assert list(t.body.coeffs) == [G(1), G(-1)] + [G(0)] * 9


@st.composite
def _abel_case(draw):
    """An exact equation of order 2 or 3 with chosen indicial roots: equal
    roots and integer gaps (the log cases) as often as free ones, the rows
    of a Frobenius form with short random tails, times a unit 1 + u x.
    Complex roots are drawn at order 2 only, where they are found exactly."""
    order = draw(st.sampled_from([2, 3]))
    root = _gaussian(den=3, complex_=order == 2 and draw(st.booleans()))
    base = draw(root)
    roots = [base]
    for _ in range(order - 1):
        roots.append(base - draw(st.integers(0, 3)) if draw(st.booleans()) else draw(root))
    # N above every integer gap, so past every resonance: the basis does not depend on N
    gaps = [int((r - s).re) for r in roots for s in roots if (r - s).is_rational_integer]
    N = draw(st.integers(max(7, max(gaps) + 1), 14))
    q = [G(1)]  # prod (r - r_i), low power first
    for r in roots:
        q = [(q[i - 1] if i else G(0)) - r * (q[i] if i < len(q) else G(0))
             for i in range(len(q) + 1)]
    # the constant terms that give x^n y^(n) + ... the indicial polynomial q
    if order == 2:
        heads = [G(1) + q[1], q[0]]
    else:
        a0 = G(3) + q[2]
        heads = [a0, q[1] - G(2) + a0, q[0]]
    tail = st.lists(_gaussian(den=3, complex_=False), max_size=3)
    inner = [[h] + draw(tail) for h in heads]  # a, b, c (order 3) or b, c
    rows = [[0] * order + [1]] + [[0] * (order - 1 - i) + r for i, r in enumerate(inner)]
    u = draw(st.sampled_from([0, G(1, 2), G(-3)]))
    rows = [[c + (u * r[k - 1] if k else 0) for k, c in enumerate(r + [0])] for r in rows]
    return Ode.from_rows(rows, trunc=N), N


def _abel_parts(e, N):
    fs = solve(e, N)
    (t,) = wronskian(e, fs.solutions).terms
    return fs, t


@settings(max_examples=40, deadline=None)
@given(_abel_case())
def test_exact_wronskian_is_the_determinant_of_a_longer_solve(case):
    """W reaches x^(rho + N - order), solves Abel's equation a W' + b W = 0
    exactly, and equals as strings the determinant of the solutions of an
    (N + 8)-term solve wherever that determinant agrees with the one of an
    (N + 16)-term solve, and no further than the shorter of the two: the top
    coefficients of a solution can be wrong, and a determinant inherits them."""
    e, N = case
    fs, t = _abel_parts(e, N)
    assert fs.indicial.exact and t.logpow == 0 and t.body._ints()
    assert len(t.body.coeffs) - 1 >= N - e.order
    W = GeneralizedSeries([t])
    a, b = (gs_from_series(r) for r in e.coeffs[:2])
    assert (a * gs_differentiate(W) + b * W).is_zero()
    dets = []
    for N2 in (N + 8, N + 16):
        long = Ode(e.order, tuple(Series(r.coeffs, trunc=N2) for r in e.coeffs))
        (d,) = [s for s in wronskian_of_system(solve(long, N2)).terms if not s.logpow]
        assert d.exponent == t.exponent
        dets.append([str(c) for c in d.body.coeffs])
    n = next((i for i, (u, v) in enumerate(zip(*dets)) if u != v), min(map(len, dets)))
    n = min(n, len(t.body.coeffs))
    assert n >= 1 and dets[0][:n] == [str(c) for c in t.body.coeffs[:n]]


@settings(max_examples=40, deadline=None)
@given(_abel_case())
def test_float_wronskian_follows_the_exact_one(case):
    """The same equation in floats: where the float solve finds the exact
    case (float root clusters can split, or fail to seed), W is complex and
    matches the exact W coefficientwise."""
    e, N = case
    fs, t = _abel_parts(e, N)
    ef = Ode(e.order, tuple(Series([to_complex(c) for c in r.coeffs]) for r in e.coeffs))
    try:
        ffs = solve(ef, N)
    except (JetValuationError, ZeroDivisionError):  # float root clusters
        return
    if str(ffs.indicial.case) != str(fs.indicial.case):
        return
    W = wronskian(ef, ffs.solutions)
    if W.is_zero():  # a triple root the float solve finds, with three equal solutions
        assert not wronskian_of_system(ffs.solutions).terms
        return
    (ft,) = W.terms
    assert ft.logpow == 0 and not ft.body._ints()
    assert abs(to_complex(ft.exponent) - to_complex(t.exponent)) <= 1e-6
    assert len(ft.body.coeffs) == len(t.body.coeffs)
    scale = 1.0
    for f, x in zip(ft.body.coeffs, t.body.coeffs):
        scale = max(scale, abs(to_complex(x)))
        assert abs(f - to_complex(x)) <= 1e-6 * scale


def test_float_wronskian_of_a_dyadic_double_root_follows_the_exact_one():
    """One equation of the property test above, taken as floats:
    x^3 y''' + (7/2) x^2 y'' + (1/4) x y' + (3/8 + x + x^2) y = 0 at N = 7,
    roots 1/2, 1/2, -3/2 (case_ii(2) in both modes).  The double root is
    decided exactly, so the float roots are the exact ones and the float W
    is the exact W to rounding."""
    N = 7
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, "7/2"], [0, "1/4"], ["3/8", 1, 1]], trunc=N)
    fs, t = _abel_parts(e, N)
    ef = Ode(e.order, tuple(Series([to_complex(c) for c in r.coeffs]) for r in e.coeffs))
    ffs = solve(ef, N)
    assert str(ffs.indicial.case) == str(fs.indicial.case) == "case_ii(2)"
    assert ffs.indicial.roots == (0.5, 0.5, -1.5)
    (ft,) = wronskian(ef, ffs.solutions).terms
    assert ft.exponent == to_complex(t.exponent)
    assert len(ft.body.coeffs) == len(t.body.coeffs)
    for f, x in zip(ft.body.coeffs, t.body.coeffs):
        assert abs(f - to_complex(x)) <= 1e-12 * max(1.0, abs(to_complex(x)))


def test_float_roots_of_equal_real_part_come_in_the_exact_order():
    """x^2 y'' + (1 + 11i/3) x y' - (10/3) y = 0 has the exact roots -5i/3 and
    -2i.  As floats their real parts come out on either side of 0; they are
    still ordered by imaginary part, so the float solutions come in the
    exact order and the float W is the exact W, not its negative."""
    N = 8
    e = Ode.from_rows([[0, 0, 1], [0, [1, "11/3"]], ["-10/3"]], trunc=N)
    fs, t = _abel_parts(e, N)
    assert fs.indicial.roots == (GaussianRational(0, Fraction(-5, 3)), GaussianRational(0, -2))
    ef = Ode(e.order, tuple(Series([to_complex(c) for c in r.coeffs]) for r in e.coeffs))
    ffs = solve(ef, N)
    for f, x in zip(ffs.indicial.roots, fs.indicial.roots):
        assert abs(f - to_complex(x)) <= 1e-12
    (ft,) = wronskian(ef, ffs.solutions).terms
    assert abs(ft.exponent - to_complex(t.exponent)) <= 1e-9
    assert len(ft.body.coeffs) == len(t.body.coeffs)
    for f, x in zip(ft.body.coeffs, t.body.coeffs):
        assert abs(f - to_complex(x)) <= 1e-9


def test_wronskian_of_system_of_one_and_two_solutions():
    """One solution is its own wronskian; two give y1 y2' - y2 y1' as
    generalized-series arithmetic does, through the order that product is
    known to, and go on through x^(lead + N)."""
    N = 8
    e = Ode.from_rows([[0, 0, 1], [0, 1], [0, 0, 1]], trunc=N)
    y1, y2 = solve(e, N).solutions
    assert wronskian_of_system([y1]) is y1
    W = wronskian_of_system([y1, y2])
    expected = y1 * gs_differentiate(y2) - y2 * gs_differentiate(y1)
    assert str(W.truncate(expected.trunc).terms) == str(expected.terms)
    (t,) = W.terms
    assert t.exponent == -1 and t.body.trunc == N


def _known_terms(g):
    """The coefficients g knows as {(exponent, log power): c}."""
    return {(t.exponent + n, t.logpow): c for t in g.terms for n, c in enumerate(t.body.coeffs) if c}


def _dx(p):
    """d/dx of such a sum: c x^e (log x)^m -> c e x^(e-1) (log x)^m + c m x^(e-1) (log x)^(m-1)."""
    out = {}
    for (e, m), c in p.items():
        for key, v in (((e - 1, m), c * e), ((e - 1, m - 1), c * m)):
            if key[1] >= 0 and v:
                out[key] = out.get(key, 0) + v
    return out


def _cofactor_det(mat):
    """The determinant of a matrix of such sums, by cofactors along row 0."""
    if len(mat) == 1:
        return mat[0][0]
    out = {}
    for j, p in enumerate(mat[0]):
        minor = _cofactor_det([row[:j] + row[j + 1:] for row in mat[1:]])
        for (e, m), c in p.items():
            for (f, k), u in minor.items():
                out[e + f, m + k] = out.get((e + f, m + k), 0) + (-c * u if j % 2 else c * u)
    return out


_HALF, _THIRD = G(Fraction(1, 2)), G(Fraction(1, 3))
_EXPONENT_SETS = [[_HALF, _THIRD], [_HALF + 1, _THIRD, _THIRD + 1], [_HALF, _HALF + 2, _THIRD + 1],
                  [_HALF, _HALF + 1], [_THIRD, _THIRD - 1]]


@st.composite
def _columns_in_two_classes(draw):
    """2 or 3 columns of terms x^e (log x)^m body, exact or float, whose exponents
    lie in 1/2 + Z and 1/3 + Z (the first column in both), with bodies known to
    different orders; each column also as the same terms known 4 coefficients
    further."""
    n, exact = draw(st.sampled_from([2, 3])), draw(st.booleans())
    cols = []
    for j in range(n):
        short, long = [], []
        for e in draw(st.sampled_from(_EXPONENT_SETS[:3] if j == 0 else _EXPONENT_SETS)):
            for m in range(draw(st.integers(1, 2))):
                cs = draw(st.lists(_gaussian(), min_size=7, max_size=9))
                cs[0] += 7
                cs = cs if exact else [to_complex(c) for c in cs]
                short.append(GSTerm(e, m, Series(cs[:len(cs) - 4])))
                long.append(GSTerm(e, m, Series(cs)))
        cols.append((GeneralizedSeries(short), GeneralizedSeries(long)))
    return cols, exact


def _known_order(ys):
    """The power below which every product of the determinant of D^i y_j is
    known: column j, of lowest exponent low_j, is known below x^(top_j + 1)."""
    low = [min(t.exponent.re for t in y.terms) for y in ys]
    top = [min(t.exponent.re + t.body.trunc for t in y.terms) for y in ys]
    return sum(low) - len(ys) * (len(ys) - 1) // 2 + min(a + 1 - b for a, b in zip(top, low))


@settings(max_examples=40, deadline=None)
@given(_columns_in_two_classes())
def test_wronskian_of_columns_in_two_classes_is_their_cofactor_determinant(case):
    """Columns whose terms lie in two congruence classes: every coefficient W
    gives, and every one below the order the cofactor determinant of D^i y_j on
    its columns is known to (`_known_order`), equals that determinant taken on
    the same columns known 4 coefficients further, as plain sums (y1 y2' - y2 y1'
    at n = 2).  (A product of generalized series cuts every body to the shortest
    relative order and drops a class that vanishes there, so it cannot say how
    far each class is known.)"""
    cols, exact = case
    ys, longer = zip(*cols)
    n = len(ys)
    W = wronskian_of_system(list(ys))
    mat = [[_known_terms(y) for y in longer]]
    while len(mat) < n:
        mat.append([_dx(p) for p in mat[-1]])
    want = _cofactor_det(mat)
    bound, further = _known_order(ys), _known_order(longer)
    assert all(bound <= t.exponent.re + t.body.trunc + 1 <= further for t in W.terms)
    assert all(bool(t.body._ints()) == exact for t in W.terms)
    got = {(t.exponent + k, t.logpow): c for t in W.terms for k, c in enumerate(t.body.coeffs)}
    # a bound on each product of the determinant, as floats cancel in it
    scale = math.prod(max((abs(to_complex(c)) for row in mat for c in row[j].values()), default=1.0)
                      for j in range(n))
    for key in set(got) | {key for key in want if key[0].re < bound}:
        a, b = got.get(key, 0), want.get(key, 0)
        assert a == b if exact else abs(to_complex(a) - to_complex(b)) <= 1e-9 * scale, key


def _oracle_wronskian(ys):
    """The cofactor determinant of D^i y_j on plain sums of the columns ys."""
    mat = [[_known_terms(y) for y in ys]]
    while len(mat) < len(ys):
        mat.append([_dx(p) for p in mat[-1]])
    return _cofactor_det(mat)


def _wronskian_and_cut(ys):
    """W of ys, and what each call of `_log_closed`, the test for the log^0
    cut, returned in it."""
    seen, closed = [], fro._log_closed

    def spy(*args):
        seen.append(closed(*args))
        return seen[-1]

    with mock.patch.object(fro, "_log_closed", spy):
        return wronskian_of_system(ys), seen


def _assert_is_the_oracle(W, want, bound):
    """W is known below x^bound, and every coefficient it gives, and every one of
    `want` below x^bound of any log power, is want's."""
    assert all(t.exponent.re + t.body.trunc + 1 == bound for t in W.terms)
    got = {(t.exponent + k, t.logpow): c for t in W.terms for k, c in enumerate(t.body.coeffs)}
    for key in set(got) | {key for key in want if key[0].re < bound}:
        assert got.get(key, 0) == want.get(key, 0), key


@settings(max_examples=30, deadline=None)
@given(st.booleans().flatmap(lambda c: _theta_equation(logs=True, complex_=c)))
def test_wronskian_of_a_log_system_takes_the_log0_cut(case):
    """On exact systems of every log case tag, real and Gaussian, W takes the
    log^0 cut exactly when a solution has a log term, and every coefficient it
    gives, of every log power, is the cofactor determinant of D^i y_j of the
    same equation solved 4 terms further."""
    rows, N = case
    fs = solve(Ode.from_rows(rows, trunc=N), N=N)
    W, seen = _wronskian_and_cut(fs.solutions)
    assert seen == ([True] if any(s.max_logpow() for s in fs.solutions) else [])
    (t,) = W.terms
    assert t.logpow == 0
    longer = solve(Ode.from_rows(rows, trunc=N + 4), N=N + 4).solutions
    _assert_is_the_oracle(W, _oracle_wronskian(longer), _known_order(fs.solutions))


#: third-order Bessel, x^3 y''' + 3x^2 y'' + x y' + x^3 y = 0: case_i, roots 0, 0, 0
_BESSEL3_ROWS = [[0, 0, 0, 1], [0, 0, 3], [0, 1], [0, 0, 0, 1]]


def _bump(y, m, k):
    """y with 1 added to its coefficient of x^(low + k) (log x)^m, low its
    lowest exponent; every body keeps its length."""
    low = min(y.terms, key=lambda t: t.exponent.re).exponent
    terms = []
    for t in y.terms:
        cs = list(t.body.coeffs)
        if t.logpow == m:
            cs[k + _offset(low, t.exponent)] += 1
        terms.append(GSTerm(t.exponent, t.logpow, Series(cs)))
    return GeneralizedSeries(terms, normalize=False)


def _full_path_with_log_terms(ys):
    """W of ys declines the cut, has a log term, and is the oracle's."""
    W, seen = _wronskian_and_cut(ys)
    assert seen == [False] and any(t.logpow for t in W.terms)
    _assert_is_the_oracle(W, _oracle_wronskian(ys), _known_order(ys))


@pytest.mark.parametrize("j, m, k", [(2, 1, 5), (2, 2, 0), (2, 2, 12), (1, 1, 12), (2, 1, 3)])
def test_a_log_body_changed_where_w_reads_it_takes_the_full_path(j, m, k):
    """1 added to a log body of a case_i system, 13 terms long, at an offset
    below 13: delta y_j leaves the span of the other columns there, the test
    fails, and W is the oracle's with its log terms."""
    ys = list(solve(Ode.from_rows(_BESSEL3_ROWS, trunc=12), N=12).solutions)
    ys[j] = _bump(ys[j], m, k)
    _full_path_with_log_terms(ys)


def test_a_log_body_changed_where_w_does_not_read_it_leaves_w_unchanged():
    """With y1 cut to 10 terms W reads 10 terms of each column: 1 added to the
    log body of y3 at x^11 changes no coefficient of W, and both take the cut."""
    ys = [y.truncate(9) if j == 0 else y for j, y in
          enumerate(solve(Ode.from_rows(_BESSEL3_ROWS, trunc=12), N=12).solutions)]
    W, seen = _wronskian_and_cut(ys)
    bumped, seen_bumped = _wronskian_and_cut(ys[:2] + [_bump(ys[2], 1, 11)])
    assert seen == seen_bumped == [True]
    assert str(bumped.terms) == str(W.terms)
    (t,) = W.terms
    assert t.logpow == 0 and len(t.body.coeffs) == 10


@pytest.mark.parametrize("pick", [(0, 2), (1, 2)])
def test_a_subset_that_is_not_log_closed_takes_the_full_path(pick):
    """{y1, y3} and {y2, y3} of a case_i system: delta y3 needs y2, delta y2
    needs y1, so W keeps its log terms, which are the oracle's."""
    fs = solve(Ode.from_rows(_BESSEL3_ROWS, trunc=12), N=12)
    _full_path_with_log_terms([fs.solutions[j] for j in pick])


def test_a_column_in_the_span_of_those_before_it_takes_the_full_path():
    """{y1, y2, y2} of a case_i system: the second y2 reduces to 0, the test
    declines the cut, and W is 0."""
    y1, y2, _ = solve(Ode.from_rows(_BESSEL3_ROWS, trunc=12), N=12).solutions
    W, seen = _wronskian_and_cut([y1, y2, y2])
    assert seen == [False] and W.is_zero()


def test_columns_at_different_offsets_are_compared_where_they_align():
    """case_iii, roots 0, -2, -2: y1 starts 2 above y2 and y3, and delta y2 is
    c y1.  With the log term of y2 moved down to x^-2 it matches y1 offset by
    offset from each column's start, but not power by power: the test fails,
    and W is the oracle's with its log terms."""
    rows = [[0, 0, 0, 1, 1], [0, 0, 7, 1], [0, 9, 1], [0, 1]]  # q = z (z + 2)^2
    fs = solve(Ode.from_rows(rows, trunc=12), N=12)
    assert str(fs.indicial.case) == "case_iii(2)"
    y1, y2, y3 = fs.solutions
    W, seen = _wronskian_and_cut(fs.solutions)
    assert seen == [True] and [t.logpow for t in W.terms] == [0]
    moved = GeneralizedSeries([GSTerm(t.exponent - 2 * t.logpow, t.logpow, t.body)
                               for t in y2.terms], normalize=False)
    _full_path_with_log_terms([y1, moved, y3])


def test_wronskian_of_a_log_system_is_right_inside_its_known_order():
    """x^3 y''' + 15x^2 y'' + 58xy' + (54 + x)y = 0 (roots -3, -3, -6,
    case_ii(3)) at N = 12: W is exactly 18x^-15 through x^-3, with no log
    term, as Abel's identity says; a determinant of generalized series cut
    at every product came out as 18 - 13/4 x + ... with log terms."""
    N = 12
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 15], [0, 58], [54, 1]], trunc=N)
    fs = solve(e, N)
    assert str(fs.indicial.case).startswith("case_ii")
    (t,) = wronskian_of_system(fs).terms
    assert (t.exponent, t.logpow) == (-15, 0)
    assert [str(c) for c in t.body.coeffs] == ["18"] + ["0"] * N


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


def _probe_oracle(e, N):
    """The nullspace of the x^0 .. x^(N+order) coefficients of L(sum a_n x^n)
    that involve no a_n past a_N, by Gauss-Jordan elimination: one vector per
    free column, scaled to a monic lowest term, in column order."""
    mat = []
    for k in range(N + e.order + 1):
        row = [G(0)] * (N + 1)
        for n in range(k + e.order + 1):
            c = G(0)
            for i, a in enumerate(e.coeffs):
                d = e.order - i
                if 0 <= k - n + d <= a.trunc:
                    c = c + math.perm(n, d) * a[k - n + d]
            if c and n > N:
                break
            if c:
                row[n] = c
        else:
            mat.append(row)
    pivots = []
    for col in range(N + 1):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(N + 1) if c not in pivots):
        v = [G(0)] * (N + 1)
        v[free] = G(1)
        for i, col in enumerate(pivots):
            v[col] = -mat[i][free]
        lead = next(x for x in v if x)
        basis.append([x / lead for x in v])
    return basis


@st.composite
def _probe_case(draw):
    order = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(1, 16))
    coef = st.one_of(st.just(G(0)), _gaussian(complex_=draw(st.booleans())))
    dense = draw(st.booleans())
    # P(n) with integer roots: the rows' lowest terms in the falling-factorial
    # basis, sum_d perm(n, d) alpha_d = c prod (n - root)
    s = draw(st.integers(-3, 1))
    roots = draw(st.lists(st.integers(0, N + 2), min_size=1, max_size=order))
    vals = [math.prod(n - r for r in roots) for n in range(order + 1)]
    alpha = []
    for d in range(order + 1):
        alpha.append(G(Fraction(vals[0], math.factorial(d))))
        vals = [b - a for a, b in zip(vals, vals[1:])]
    rows = []
    for i in range(order + 1):
        d = order - i
        if draw(st.booleans()):
            v, lead = d - s, alpha[d]
        else:
            v, lead = draw(st.integers(0, order + 5)), draw(_gaussian())
        tail = draw(st.lists(coef, max_size=N + 2 if dense else 3))
        rows.append([G(0)] * max(v, 0) + [lead if v >= 0 else G(0)] + tail)
    if not any(rows[0]):
        rows[0] = [G(0)] * order + [G(1)]
    trunc = draw(st.sampled_from([None, N, max(1, N - 4), N + 4]))
    return Ode.from_rows(rows, trunc=trunc), N


@settings(max_examples=150, deadline=None)
@given(_probe_case())
def test_probe_matches_the_gauss_jordan_nullspace(case):
    e, N = case
    p = formal_probe(e, N)
    want = _probe_oracle(e, N)
    assert [repr(list(c.coeffs)) for c in p.candidates] == [repr(v) for v in want]
    assert (p.status == "trivial_only") == (not want)


def test_float_probe_keeps_the_exact_candidates():
    # x^3 y'' + (2x^2 - x/2) y' = 0: a_k = 2(k - 1) a_(k-1) from a_1 = 0, so
    # the constants are the only power series solutions; every coefficient
    # is dyadic, so float mode sees the same equation
    rows = [[0, 0, 0, 1], [0, "-1/2", 2], [0]]
    exact = formal_probe(Ode.from_rows(rows, trunc=16), 16)
    fl = formal_probe(Ode.from_rows([[float(Fraction(c)) for c in r] for r in rows], trunc=16), 16)
    assert [list(c.coeffs) for c in exact.candidates] == [[G(1)] + [G(0)] * 16]
    assert exact.status == fl.status == "solutions"
    assert [[to_complex(c) for c in s.coeffs] for s in fl.candidates] == [
        [to_complex(c) for c in s.coeffs] for s in exact.candidates]


def test_float_probe_of_a_divergent_series():
    # criterion 6's equation in float mode: the candidate is monic at x^0, as
    # in exact mode, and past n = 170 its coefficients overflow, which the
    # radius estimate leaves out
    rows = [[0, 0, 1], [-1], ["-1/2"]]
    exact = formal_probe(Ode.from_rows(rows, trunc=32), 32).candidates[0]
    for N in (32, 256):
        p = formal_probe(Ode.from_rows([[float(Fraction(c)) for c in r] for r in rows]), N)
        assert p.status == "divergent_formal"
        got = p.candidates[0]
        assert all(abs(got[k] - to_complex(exact[k])) <= 1e-9 * abs(to_complex(exact[k]))
                   for k in range(33))


def test_probe_at_512_terms():
    # criterion 6's x^2 y'' - y' - y/2 = 0: factorial coefficients, at a
    # length where |a_n| is past the float range and |a_n|^(1/n) grows by
    # under 2% across the last terms
    t0 = time.perf_counter()
    p = formal_probe(Ode.from_rows([[0, 0, 1], [-1], ["-1/2"]], trunc=32), 512)
    assert time.perf_counter() - t0 < 10
    assert p.status == "divergent_formal" and p.radius_estimate == 0.0
    a = p.candidates[0]
    assert all((k + 1) * a[k + 1] == _gr(2 * k * k - 2 * k - 1, 2) * a[k] for k in range(511))
    # criterion 1's third-order Bessel equation: an entire solution
    bessel = Ode.from_rows([[0, 0, 0, 1], [0, 0, 3], [0, 1], [0, 0, 0, 1]], trunc=26)
    p = formal_probe(bessel, 512)
    assert p.status == "solutions" and p.radius_estimate > 100
    b = p.candidates[0]
    assert b[510] == _gr((-1) ** 170, 27**170 * math.factorial(170) ** 3)


def test_probe_at_a_regular_singular_point_reports_solutions():
    # -(x^2 + x^3) y'' + 10x y' - 30y = 0 is regular singular at 0, so its
    # formal power series converge (to x = -1), although |a_n|^(1/n) still
    # grows across the first ten terms
    p = formal_probe(Ode.from_rows([[0, 0, -1, -1], [0, 10], [-30]]), 10)
    assert p.status == "solutions" and 0 < p.radius_estimate < math.inf


@pytest.mark.parametrize("N", [16, 48, 128])
def test_probe_sees_gevrey_one_third_divergence(N):
    # ((-2 - i)x^5 + 2x^7) y'' + (-x + 2x^2 - ix^3) y' + (...) y = 0: the
    # x^5 y'' term three steps below the recurrence's top makes a_n grow like
    # (n!)^(1/3), which gains under 10% across the last 8 terms from N = 16
    rows = [[0, 0, 0, 0, 0, (-2, -1), 0, 2], [0, -1, 2, (0, -1)],
            [0, 0, 0, 3, "2/3", "-4/3", 0, 1]]
    p = formal_probe(Ode.from_rows(rows), N)
    assert p.status == "divergent_formal" and p.radius_estimate == 0.0


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
        roots = analyze(f).roots
        jets = recurrence_jets(f, roots, r, 0, 1, 10)
        plus = recurrence_jets(f, roots, r + h, 0, 0, 10)
        minus = recurrence_jets(f, roots, r - h, 0, 0, 10)
        for n in range(11):
            fd = (to_complex(plus[n].coeffs[0]) - to_complex(minus[n].coeffs[0])) / (2 * h)
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
            if len(acc) <= v:
                raise JetValuationError(f"numerator known to order {len(acc) - 1} < divisor valuation {v}")
            D.append([zero] * (len(acc) - v))
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


def _rows(draw, order, N, coef, unit):
    """`order` rows through x^N; when a unit 1 + u x is drawn they are
    divided by it, as `to_frobenius_form` divides by a leading unit, which
    makes every row a dense series."""
    rows = [Series(draw(st.lists(coef, min_size=1, max_size=5)), trunc=N) for _ in range(order)]
    u = draw(st.one_of(st.none(), unit))
    if u is None:
        return rows
    inv = series_inverse(Series([G(1), u], trunc=N))
    return [r * inv for r in rows]


@st.composite
def _recurrence_case(draw):
    order = draw(st.sampled_from([2, 3]))
    cplx = draw(st.booleans())
    coef = st.one_of(st.just(G(0)), _gaussian(complex_=cplx))
    N = draw(st.integers(1, 40))
    rows = _rows(draw, order, N, coef, _gaussian(complex_=cplx))
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


@st.composite
def _exact_root_case(draw):
    """An exact form whose indicial roots are exact: its q(r) is set from
    drawn roots, any Gaussian pair at order 2 and at order 3 three rational
    roots or a Gaussian double root beside a third.  The exponent is free or
    at an integer offset from a root."""
    order = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(1, 40))
    coef = st.one_of(st.just(G(0)), _gaussian())
    rows = _rows(draw, order, N, coef, _gaussian())
    if order == 2:
        roots = [draw(_gaussian()), draw(_gaussian())]
    elif draw(st.booleans()):
        roots = [draw(_gaussian(complex_=False)) for _ in range(3)]
    else:
        d = draw(_gaussian())
        roots = [d, d, draw(_gaussian())]
    q = [G(1)]  # prod (z - r_i), low power first
    for r in roots:
        q = [u - r * v for u, v in zip([G(0)] + q, q + [G(0)])]
    lows = [q[1] + 1, q[0]] if order == 2 else [q[2] + 3, q[1] + q[2] + 1, q[0]]
    rows = [Series([c, *row.coeffs[1:]], trunc=N) for c, row in zip(lows, rows)]
    f = FrobeniusForm(order, b=rows[-2], c=rows[-1], a=rows[0] if order == 3 else None)
    assert list(indicial_polynomial(f)) == q
    r = draw(st.one_of(_gaussian(), st.builds(lambda r, k: r - k, st.sampled_from(roots),
                                               st.integers(-1, 3))))
    jet_order = draw(st.integers(0, 3))
    return f, r, draw(st.integers(0, jet_order)), jet_order, N


@settings(max_examples=40, deadline=None)
@given(_exact_root_case())
def test_exact_free_recurrence_matches_jet_oracle(case):
    """For exact roots, q(n + r) as the product of their factors gives the
    jets that the indicial polynomial by Horner's rule gives."""
    f, r, seed_pow, jet_order, N = case
    ind = analyze(f)
    assert ind.exact
    q = indicial_polynomial(f)

    def q_at(n, m):
        acc = [G(0)] * m
        for c in reversed(q):  # Horner at r + n + eps
            acc = _jmul(acc, _jvar(r + n, m))
            acc[0] += c
        return acc

    got = _outcome(lambda: recurrence_jets(f, ind.roots, r, seed_pow, jet_order, N))
    want = _outcome(lambda: _oracle_jets(f, q_at, r, seed_pow, jet_order, N))
    assert got == want


@settings(max_examples=40, deadline=None)
@given(_exact_root_case(), st.lists(_gaussian(), min_size=1, max_size=3))
def test_theta_form_runs_the_recurrence_of_the_form_over_its_lead(case, unit):
    """Multiplying every column of a form by a polynomial lead l leaves its
    jets unchanged: the forcing l_n q(r) D_0 accounts for the lead, at any
    exponent and seed.  How far a jet is known follows the rows that reach
    it, and the lead adds rows, so a jet may be known to different orders in
    the two forms: they are equal through the order both know, and where
    their outcomes differ otherwise, one side met a jet it does not know."""
    f, r, seed_pow, jet_order, N = case
    lead = Series([G(2, 1)] + unit, trunc=N)
    cols = [col * lead for col in (f.b, f.c, f.a) if col is not None]
    g = FrobeniusForm(f.order, *cols[:2], a=cols[2] if f.order == 3 else None, lead=lead)
    roots = analyze(f).roots
    assert analyze(g).roots == roots
    want = _outcome(lambda: recurrence_jets(f, roots, r, seed_pow, jet_order, N))
    got = _outcome(lambda: recurrence_jets(g, roots, r, seed_pow, jet_order, N))
    if got == want:
        return
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert any(isinstance(o, tuple) and o[0] is JetValuationError
                   and o[1].startswith("numerator known to order") for o in (got, want))
    else:
        assert len(got) == len(want) == N + 1
        for a, b in zip(got, want):
            assert a[: len(b)] == b[: len(a)]


def test_a_zero_numerator_known_below_the_divisor_leaves_the_jet_unknown():
    """A third-order form times the lead (2+i) + (-1+2i) x, at r = -4 + eps
    with roots 3, 2, -1 and jet order 1: the lead's rows reach D_6 from D_3, a
    zero known only at eps^0, so E_6 is 0 only through eps^0 while P_0(6 + r)
    has valuation 1.  D_6 = -46/135 - 154/1215 i, as the form over its lead
    finds; the lead form raises rather than answer 0, exact or in floats."""
    N = 6
    f = FrobeniusForm(3, Series([-2, 0, G(-1, Fraction(-7, 3))], trunc=N), Series([6], trunc=N),
                      a=Series([-1], trunc=N))
    lead = Series([G(2, 1), G(-1, 2)], trunc=N)
    g = FrobeniusForm(3, f.b * lead, f.c * lead, a=f.a * lead, lead=lead)
    roots = analyze(f).roots
    assert roots == (3, 2, -1)
    assert [str(c) for c in recurrence_jets(f, roots, G(-4), 0, 1, N)[6].coeffs] == ["(-46/135-154/1215i)"]
    unknown = "numerator known to order 0 < divisor valuation 1"
    with pytest.raises(JetValuationError, match=unknown):
        recurrence_jets(g, roots, G(-4), 0, 1, N)
    cg = FrobeniusForm(3, *(Series([complex(c) for c in col.coeffs], trunc=N) for col in (g.b, g.c)),
                       a=Series([complex(c) for c in g.a.coeffs], trunc=N),
                       lead=Series([complex(c) for c in lead.coeffs], trunc=N))
    with pytest.raises(JetValuationError, match=unknown):
        recurrence_jets(cg, [complex(r) for r in roots], -4 + 0j, 0, 1, N)


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
# the complex recurrence against the `Series` loop it replaced
# ---------------------------------------------------------------------------


def _variable(base, order):
    """base + eps through eps^order, a `Series` of the base's kind."""
    return Series([base, G(1) if isinstance(base, G) else 1.0 + 0j], trunc=order)


def _q_jet(roots, base, n, jet_order):
    """q(n + base + eps) as the `Series` product the recurrence once took, a
    non-zero float factor at an integer gap of 0 snapped to 0j."""
    out = Series([G(1)], trunc=jet_order)
    for r in roots:
        d = base + n - r
        out = out * _variable(0j if d and integer_difference(base + n, r) == 0 else d, jet_order)
    return out


def _jet_loop(f, base, seed_pow, jet_order, N, q_at):
    """The recurrence in `Series` arithmetic, as complex data ran it before
    the list loop: the reference that loop must match bit for bit.  The seed
    and an empty sum are of the base's kind."""

    def zero(*cs):
        return all((isinstance(c, G) and not c) or c == 0 for c in cs)

    a, b, c = f.a, f.b, f.c
    one = G(1) if isinstance(base, G) else 1 + 0j
    seed = [one * 0] * (jet_order + 1)
    seed[seed_pow] = one
    D = [Series(seed)]
    p1 = [_variable(base + j, jet_order) for j in range(N)]
    if f.order == 3:
        p2 = [p1[j] * _variable(base + j - 1, jet_order) for j in range(N)]
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
            acc = Series([one * 0] * (jet_order + 1))
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


def _as_complex(f, *scalars):
    """The form and the scalars as the recurrence runs them: unchanged when
    all are exact, else each converted to complex."""
    rows = [r for r in (f.a, f.b, f.c) if r is not None]
    if all(isinstance(c, G) for c in scalars) and all(r._ints() for r in rows):
        return (f, *scalars)
    cf = FrobeniusForm(f.order, *(r if r is None else Series([complex(c) for c in r.coeffs])
                                  for r in (f.b, f.c, f.a)))
    return (cf, *map(complex, scalars))


def _same_as_jet_loop(f, roots, base, seed_pow, jet_order, N):
    got = _bits(lambda: recurrence_jets(f, roots, base, seed_pow, jet_order, N))
    f, base, *roots = _as_complex(f, base, *roots)
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
    N = draw(st.integers(1, 40))
    rows = _rows(draw, order, N, coef, st.one_of(_float(cplx), _gaussian(complex_=cplx)))
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


@st.composite
def _divisor_case(draw):
    """Roots, base, n and jet order for the list-built jets: parts drawn with
    zeros of either sign, and a root at an integer gap of 0 from base + n
    whose factor snaps to 0j (exactly 0, or off by at most INT_TOL)."""
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3, 3, allow_nan=False))
    cplx = st.builds(complex, part, part)
    base, n = draw(cplx), draw(st.integers(0, 4))
    off = st.builds(complex, st.sampled_from([0.0, -0.0, 1e-8, -1e-8, 3e-9]),
                    st.sampled_from([0.0, -0.0, 1e-8, -7e-9]))
    roots = [draw(st.one_of(cplx, st.builds(lambda d: base + n - d, off)))
             for _ in range(draw(st.integers(1, 3)))]
    return roots, base, n, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(_divisor_case())
@example(([0.5 - 0.0j, 2.5 + 3e-9j, -1.0 + 0.0j], 0.5 + 0j, 2, 2))
@example(([1 - 0.0j, 1 + 1e-8j, 0.25 - 0.0j], -1 - 0.0j, 2, 3))
def test_list_built_jets_are_the_series_products(case):
    """The divisor jets and falling powers the complex recurrence builds as
    lists equal, repr for repr (signed zeros included), the `Series` products
    they replace, at every jet order, with the snapped factors 0j."""
    roots, base, n, jet_order = case
    want = _q_jet(roots, base, n, jet_order).coeffs
    assert repr(fro._divisor_jet(roots, base, n, jet_order + 1)) == repr(list(want))
    N, top = n + 1, len(roots)
    x = [_variable(base + j, jet_order) for j in range(N)]
    want = [[list(xj.coeffs) for xj in x]]
    for i in range(1, top):
        x = [xj * _variable(base + j - i, jet_order) for j, xj in enumerate(x)]
        want.append([list(xj.coeffs) for xj in x])
    assert repr(fro._falling_powers(base, N, top, jet_order + 1)) == repr(want)


def test_float_kernels_make_no_gaussian_rational(monkeypatch):
    """Criterion 1's Bessel equation in float mode: the complex recurrence, the
    theta-columns, the valuations, the residual bodies and the wronskian
    neither build a `GaussianRational` nor convert one to complex."""
    rows = [[0, 0, 0, 1], [0, 0, 3], [0, 1], [0, 0, 0, 1]]
    e = Ode.from_rows([[complex(c) for c in r] for r in rows], trunc=26)
    depth, entered, made = [0], set(), []

    def spy(owner, name):
        orig = getattr(owner, name)

        def wrapped(*args, **kw):
            depth[0] += 1
            entered.add(name)
            try:
                return orig(*args, **kw)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(owner, name, wrapped)

    def recording(name):
        orig = getattr(GaussianRational, name)

        def wrapped(self, *args):
            if depth[0]:
                made.append(name)
            return orig(self, *args)
        return wrapped

    for owner, name in [(fro, "_recurrence_jets"), (fro, "theta_columns"), (ode_mod, "theta_columns"),
                        (Series, "valuation"), (fro, "_theta_bodies"), (fro, "wronskian_of_system")]:
        spy(owner, name)
    for name in ("__init__", "__complex__"):
        monkeypatch.setattr(GaussianRational, name, recording(name))
    fs = solve(e, N=26)
    W = fro.wronskian_of_system(fs)
    residuals = [residual(e, s) for s in fs.solutions]
    monkeypatch.undo()
    assert made == []
    assert entered == {"_recurrence_jets", "theta_columns", "valuation", "_theta_bodies",
                       "wronskian_of_system"}
    assert str(fs.indicial.case) == "case_i" and len(W.terms) == 1
    assert all(isinstance(c, complex) for r in residuals for t in r.terms for c in t.body.coeffs)


@st.composite
def _irrational_case(draw):
    """Exact order-3 rows with the roots a and p +- sqrt(s) (s not a square,
    so the pair is float), run at jet order 0 from any of the three."""
    N = draw(st.integers(1, 40))
    coef = st.one_of(st.just(G(0)), _gaussian(complex_=False))
    rows = _rows(draw, 3, N, coef, _gaussian(complex_=False))
    p = complex(draw(_gaussian(complex_=False)))
    s = draw(st.sampled_from([2, 3, 5, 6, 7, 10]))
    roots = [draw(_gaussian(complex_=False)), p + s ** 0.5, p - s ** 0.5]
    f = FrobeniusForm(3, b=rows[1], c=rows[2], a=rows[0])
    return f, roots, draw(st.sampled_from(roots)), 0, 0, N


@settings(max_examples=60, deadline=None)
@given(_irrational_case())
def test_mixed_recurrence_with_an_irrational_pair_matches_the_jet_loop(case):
    _same_as_jet_loop(*case)


def test_jet_order_zero_runs_on_scalars(monkeypatch):
    """At jet order 0 the float, mixed and exact recurrences make no `Series`
    product or division; at jet order 1 the float one does."""
    calls = []

    def counting(name):
        orig = getattr(Series, name)

        def wrapped(self, *args, **kw):
            calls.append(name)
            return orig(self, *args, **kw)
        return wrapped

    exact = to_frobenius_form(Ode.from_rows(
        [[0, 0, 0, 1, 1], [0, 0, 3, "1/2"], [0, 1, 0, 1], [0, 0, 0, 1]], trunc=16))
    mixed = FrobeniusForm(3, b=Series([-2, 1, 0, "1/5"], trunc=16),
                          c=Series([2, "-1/3", 1], trunc=16), a=Series([2, "1/7"], trunc=16))
    floats = FrobeniusForm(3, **{k: Series([complex(c) for c in getattr(exact, k).coeffs])
                                 for k in ("a", "b", "c", "lead")})
    runs = [
        lambda: recurrence_jets(exact, analyze(exact).roots, analyze(exact).roots[0], 0, 0, 16),
        lambda: recurrence_jets(mixed, analyze(mixed).roots, analyze(mixed).roots[1], 0, 0, 16),
        lambda: recurrence_jets(floats, analyze(floats).roots, analyze(floats).roots[0], 0, 0, 16),
        lambda: recurrence_jets(exact, analyze(exact).roots, G(1, 3), 0, 0, 16),
        lambda: recurrence_jets(mixed, analyze(mixed).roots, 0.5 + 0.25j, 0, 0, 16),
        lambda: recurrence_jets(floats, analyze(floats).roots, 0.5 + 0.25j, 0, 0, 16),
    ]
    assert not analyze(mixed).exact and analyze(exact).exact
    monkeypatch.setattr(Series, "__mul__", counting("__mul__"))
    monkeypatch.setattr(Series, "div", counting("div"))
    for run in runs:
        assert len(run()) == 17
    assert calls == []
    recurrence_jets(floats, analyze(floats).roots, 0.5 + 0.25j, 0, 1, 16)
    assert calls.count("div") == 16


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
    # gives D_1 a jet of zeros, one shorter
    f = form([[0, 0, 1], [0], [0, 0, 1]], "float")
    roots = analyze(f).roots
    got = _same_as_jet_loop(f, roots, roots[1], 1, 2, 12)
    assert [len(j) for j in got[:5]] == [3, 2, 3, 2, 3]
    assert got[1] == [(complex, "0j")] * 2
    # float entries only at x^0, which the recurrence never reads, make the rows
    # complex: with an exact base and exact roots every D_n is complex
    f = FrobeniusForm(2, b=Series([0.5 + 0j, "1/3"], trunc=6),
                      c=Series([0j, 1, "-1/7"], trunc=6))
    got = _same_as_jet_loop(f, (G(0), G(-1, 2)), G(0), 0, 1, 6)
    assert all(t is complex for jet in got for t, _ in jet)
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


def test_certificates_build_few_gaussian_rationals(monkeypatch):
    """The wronskian and the residuals of criterion 1's exact third-order
    Bessel system run on integer-form bodies: building them makes a few
    hundred `GaussianRational`s (exponents and zero tests), not one per
    coefficient (1460 when every product and sum made its coefficients)."""
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 3], [0, 1], [0, 0, 0, 1]], trunc=26)
    fs = solve(e, N=26)
    made = [0]
    init = GaussianRational.__init__

    def counting(self, *args):
        made[0] += 1
        init(self, *args)

    monkeypatch.setattr(GaussianRational, "__init__", counting)
    W = wronskian_of_system(fs)
    residuals = [residual(e, s) for s in fs.solutions]
    monkeypatch.undo()
    assert made[0] <= 400
    assert len(W.terms) == 1 and all(r.is_zero() for r in residuals)
