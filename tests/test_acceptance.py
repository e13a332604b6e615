"""Acceptance suite: the twelve shipping criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
"""

import cmath
import functools
import math
import random
import time
from fractions import Fraction

from frobode.frobenius import (
    formal_probe,
    frobenius_solve,
    recurrence_jets,
    residual,
    residual_valuation,
    solve,
    wronskian_of_system,
    wronskian_ode_solution,
)
from frobode.classify import classify_infinity, classify_point, euler_characterize
from frobode.indicial import analyze
from frobode.nonhom import variation_of_parameters
from frobode.ode import FrobeniusForm, Ode, transform_to_infinity
from frobode.riccati import Circle, holonomy_of_loop, liouvillian_solution, riccati_model
from frobode.scalars import GaussianRational, to_complex
from frobode.series import Series, gs_differentiate

G = GaussianRational


def _gr(p, q=1):
    return G(Fraction(p, q))


def criterion(num, text):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.time()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:2d}: FAIL - {text}")
                raise
            print(f"ACCEPTANCE {num:2d}: PASS - {text} ({time.time() - t0:.2f}s)")

        return run

    return wrap


@criterion(1, "third-order Bessel coefficients and harmonic-number log part")
def test_criterion_01():
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 3], [0, 1], [0, 0, 0, 1]], trunc=26)
    fs = solve(e, N=26)
    body = fs.solutions[0].terms[0].body
    for k in range(9):
        assert body[3 * k] == _gr((-1) ** k, 27**k * math.factorial(k) ** 3)
    free = next(t for t in fs.solutions[1].terms if t.logpow == 0)
    offset = 3 if free.exponent == G(3) else 0
    for n in range(1, 7):
        h = sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))
        want = G(Fraction((-1) ** (n + 1)) * h / (27**n * math.factorial(n) ** 3))
        assert free.body[3 * n - offset] == want


@criterion(2, "complex-pair product formula and termwise conjugacy")
def test_criterion_02():
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 1], [0, 1], [0, 0, 0, 1]], trunc=20)
    fs = solve(e, N=20)
    s1, s2, s3 = fs.solutions
    assert fs.indicial.exact
    conj = s1.conjugate()
    assert all(
        t1.exponent == t2.exponent and t1.body.coeffs == t2.body.coeffs
        for t1, t2 in zip(conj.terms, s2.terms)
    )
    body, prod = s3.terms[0].body, 1
    for k in range(1, 7):
        prod *= (3 * k - 1) ** 2 + 1
        assert body[3 * k] == _gr((-1) ** k, 3**k * math.factorial(k) * prod)


@criterion(3, "third-order Laguerre series terminates for alpha = 3")
def test_criterion_03():
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 3], [0, 1, -1], [0, 3]], trunc=16)
    fs = solve(e, N=16)
    body = fs.solutions[0].terms[0].body
    assert [str(body[k]) for k in range(4)] == ["1", "-3", "3/4", "-1/36"]
    assert all(not bool(body[k]) for k in range(4, 17))


@criterion(4, "case tags: CaseIV(1,1) with 1/(n+1)! series, CaseII(1) with logs")
def test_criterion_04():
    e5 = Ode.from_rows([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1], [0, -1]], trunc=16)
    fs5 = solve(e5, N=16)
    assert str(fs5.indicial.case) == "case_iv(1, 1)"
    phi1 = fs5.solutions[0].terms[0].body
    for n in range(11):
        assert phi1[n] == _gr((-1) ** n, math.factorial(n + 1))
    e4 = Ode.from_rows([[0, 0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 1]], trunc=16)
    fs4 = solve(e4, N=16)
    assert str(fs4.indicial.case) == "case_ii(1)"
    assert not fs4.solutions[1].log_free()
    assert not fs4.solutions[2].log_free()


@criterion(5, "200 random instances: residual valuation >= N - order, W != 0")
def test_criterion_05():
    random.seed(7)
    N = 24
    t0 = time.time()
    for _ in range(200):
        order = random.choice([2, 3])
        rnd = lambda: Series(
            [random.randint(-4, 4) for _ in range(random.randint(1, 5))], trunc=N
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
            assert rv >= N - order, (fs.indicial.roots, rv)
        W = wronskian_of_system(fs.solutions)
        assert not W.is_zero()
    assert time.time() - t0 < 30


@criterion(6, "divergence/triviality probes with exact recurrences")
def test_criterion_06():
    p2 = formal_probe(Ode.from_rows([[0, 0, 1], [-1], ["-1/2"]], trunc=32), 32)
    assert p2.status == "divergent_formal" and p2.radius_estimate < 1e-3
    a = p2.candidates[0]
    for k in range(10):
        assert (k + 1) * a[k + 1] == _gr(2 * k * k - 2 * k - 1, 2) * a[k]
    p3 = formal_probe(
        Ode.from_rows([[0, 0, 0, 1], [0, 0, -1], [-1], ["-1/2"]], trunc=32), 32
    )
    assert p3.status == "divergent_formal" and p3.radius_estimate < 1e-3
    b = p3.candidates[0]
    for k in range(10):
        assert (k + 1) * b[k + 1] == _gr(2 * (k**3 - 4 * k * k + 3 * k) - 1, 2) * b[k]
    for rows in ([[0, 0, 0, 1], [0, 0, -1], [-1]], [[0, 0, 0, 1], [0, -1], [-1]]):
        assert formal_probe(Ode.from_rows(rows, trunc=24)).status == "trivial_only"
    fam = formal_probe(Ode.from_rows([[0, 0, 1], [1, 1], [2, 1]], trunc=24))
    assert fam.status != "trivial_only" and len(fam.candidates) >= 1
    d = fam.candidates[0]
    # coefficientwise recurrence of z^2 u'' + (1+z) u' + (2+z) u = 0:
    # (n+1) d_{n+1} = -(n(n-1) + n + 2) d_n - d_{n-1}
    for n in range(11):
        prev = d[n - 1] if n >= 1 else G(0)
        assert (n + 1) * d[n + 1] == -_gr(n * (n - 1) + n + 2) * d[n] - prev


@criterion(7, "wronskian pipeline: K x exactly, and essential part -1/x")
def test_criterion_07():
    w1 = wronskian_ode_solution(Ode.from_rows([[0, 0, 0, 1], [0, 0, -1], [-1]], trunc=10))
    assert not w1.essential and w1.exponent == G(1)
    g = w1.as_generalized_series()
    assert g.terms[0].body[0] == G(1)
    assert all(not bool(c) for c in g.terms[0].body.coeffs[1:])
    w2 = wronskian_ode_solution(Ode.from_rows([[0, 0, 0, 1], [0, -1], [-1]], trunc=10))
    assert w2.essential and w2.principal_part == {-1: G(-1)}


@criterion(8, "jet derivatives match central differences on 50 random instances")
def test_criterion_08():
    random.seed(11)
    t0 = time.time()
    for trial in range(50):
        case_i = trial % 2 == 0
        if case_i:
            # triple root at 0: b, c vanish appropriately, a(0) = 3
            f = FrobeniusForm(
                3,
                a=Series([3.0 + 0j] + [complex(random.uniform(-1, 1))], trunc=12),
                b=Series([1.0 + 0j, complex(random.uniform(-1, 1))], trunc=12),
                c=Series([0j, complex(random.uniform(-1, 1))], trunc=12),
            )
            r = complex(random.uniform(0.2, 1.2), random.uniform(0.2, 0.9))
        else:
            f = FrobeniusForm(
                3,
                a=Series([complex(random.uniform(-2, 2)) for _ in range(3)], trunc=12),
                b=Series([complex(random.uniform(-2, 2)) for _ in range(3)], trunc=12),
                c=Series([complex(random.uniform(-2, 2)) for _ in range(3)], trunc=12),
            )
            r = complex(random.uniform(0.3, 1.5), random.uniform(0.2, 0.8))
        h = 1e-5
        roots = analyze(f).roots  # q(n + r) is the product of their factors
        jets = recurrence_jets(f, roots, r, 0, 1, 10)
        plus = recurrence_jets(f, roots, r + h, 0, 0, 10)
        minus = recurrence_jets(f, roots, r - h, 0, 0, 10)
        for n in range(11):
            fd = (to_complex(plus[n].coeffs[0]) - to_complex(minus[n].coeffs[0])) / (2 * h)
            dj = to_complex(jets[n].coeff(1))
            assert abs(dj - fd) <= 1e-6 * max(1.0, abs(fd))
    assert time.time() - t0 < 10


@criterion(9, "holonomy: e^{2 pi sqrt 3} multipliers and trivial loops")
def test_criterion_09():
    t0 = time.time()
    m = riccati_model(Ode.from_rows([[0, 0, 1], [0], [1]], trunc=4))
    g = holonomy_of_loop(m, Circle(0j, 1.0))
    want = math.exp(2 * math.pi * math.sqrt(3))
    mags = sorted(abs(w) for w in g.multipliers())
    assert abs(mags[1] - want) <= 1e-4 * want
    assert abs(mags[0] - 1 / want) <= 1e-4 / want
    random.seed(5)
    for _ in range(3):
        b = [complex(random.uniform(-1, 1)) for _ in range(4)]
        c = [complex(random.uniform(-1, 1)) for _ in range(4)]
        mm = riccati_model(Ode.from_rows([[1], b, c], trunc=4))
        gg = holonomy_of_loop(mm, Circle(0.2 + 0.1j, 0.8))
        assert gg.identity_defect() < 1e-6
    assert time.time() - t0 < 20


@criterion(10, "infinity: Euler regular at both ends; transformed coefficients exact")
def test_criterion_10():
    eu = Ode.from_rows([[0, 0, 1], [0, 2], [1]], trunc=8)
    assert euler_characterize(eu)["is_euler"]
    assert classify_point(eu).tag == "regular_singular"
    assert classify_infinity(eu).tag == "regular_singular"
    eu3 = Ode.from_rows([[0, 0, 0, 1], [0, 0, 2], [0, -1], [3]], trunc=8)
    assert classify_point(eu3).tag == "regular_singular"
    assert classify_infinity(eu3).tag == "regular_singular"
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, -1], [-1], [["-1/2", "0"]]], trunc=8)
    w = transform_to_infinity(e)
    rows = [[str(c) for c in r.coeffs[:4]] for r in w.coeffs]
    assert rows == [
        ["0", "0", "0", "1"],
        ["0", "0", "7", "0"],
        ["0", "8", "-1", "0"],
        ["1/2", "0", "0", "0"],
    ]


@criterion(11, "non-homogeneous: particular residuals and the cofactor identities")
def test_criterion_11():
    random.seed(3)
    N = 24
    t0 = time.time()
    for _ in range(50):
        rnd = lambda: Series(
            [random.randint(-3, 3) for _ in range(random.randint(1, 5))], trunc=N
        )
        f = FrobeniusForm(3, b=rnd(), c=rnd(), a=rnd())
        fs = frobenius_solve(f, N)
        e = f.as_ode(rhs=Series([random.randint(-3, 3) for _ in range(4)], trunc=N))
        part = variation_of_parameters(e, fs)
        scale = max(1.0, part.y_p.magnitude()) * max(r.magnitude() for r in e.coeffs)
        rv = residual_valuation(residual(e, part.y_p), G(0), scale)
        assert rv >= N - 3, (fs.indicial.roots, rv)
        # cofactor identities: y1 W23 + y2 W31 + y3 W12 = 0 and the
        # second-derivative row reproduces the system wronskian
        y = list(fs.solutions)
        d = [gs_differentiate(s) for s in y]
        W23 = y[1] * d[2] - y[2] * d[1]
        W31 = y[2] * d[0] - y[0] * d[2]
        W12 = y[0] * d[1] - y[1] * d[0]
        row1 = y[0] * W23 + y[1] * W31 + y[2] * W12
        srow = max(1.0, max(s.magnitude() for s in y)) ** 2
        mag1 = max((t.body.magnitude() for t in row1.terms), default=0.0)
        assert mag1 <= 1e-6 * srow * max(1.0, srow)
        row3 = (
            gs_differentiate(d[0]) * W23
            + gs_differentiate(d[1]) * W31
            + gs_differentiate(d[2]) * W12
        )
        diff = row3 - wronskian_of_system(y)
        magd = max((t.body.magnitude() for t in diff.terms), default=0.0)
        assert magd <= 1e-6 * max(1.0, wronskian_of_system(y).magnitude()) * srow
    assert time.time() - t0 < 20


@criterion(12, "Liouvillian evaluator matches the Gaussian closed form")
def test_criterion_12():
    e = Ode.from_rows([[1], [0, -1], [-1]], trunc=8)
    sol = liouvillian_solution(e, ((0, 1), (1,)), anchor=0j, grid=[0.2, 0.5 + 0.1j])
    for j in range(1, 11):
        z = j / 10
        integ = math.sqrt(math.pi / 2) * math.erf(z / math.sqrt(2))
        for k, ell in ((1, 0), (0, 1), (2, -1)):
            want = math.exp(z * z / 2) * (ell + k * integ)
            assert abs(sol(z, k, ell) - want) < 1e-8
