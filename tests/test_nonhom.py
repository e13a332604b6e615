"""Variation of parameters, reduction of order, and completing a basis."""

import math
import random
from fractions import Fraction

import pytest

from frobode.frobenius import (
    frobenius_solve,
    residual,
    residual_valuation,
    wronskian_of_system,
    wronskian_ode_solution,
)
from frobode.nonhom import reduce_order, third_from_two, variation_of_parameters
from frobode.ode import FrobeniusForm, Ode, to_frobenius_form
from frobode.scalars import GaussianRational, to_complex
from frobode.series import GSTerm, GeneralizedSeries, Series, gs_differentiate, gs_div_single

G = GaussianRational


def _scale_of(e, g):
    return max(1.0, g.magnitude()) * max(r.magnitude() for r in e.coeffs)


def test_particular_solution_kills_the_rhs():
    rows = [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1], [0, -1]]
    e = Ode.from_rows(rows, rhs=[0, 0, 1], trunc=20)
    fs = frobenius_solve(FrobeniusForm(
        3,
        a=Series([0, 1], trunc=20),
        b=Series([0, 1], trunc=20),
        c=Series([0, -1], trunc=20),
    ), 20)
    part = variation_of_parameters(e, fs)
    rv = residual_valuation(
        residual(e, part.y_p), G(0), _scale_of(e, part.y_p)
    )
    assert rv >= 17


def test_particular_solution_randomized():
    random.seed(12)
    N = 20
    for _ in range(5):
        rnd = lambda: Series(
            [random.randint(-3, 3) for _ in range(random.randint(1, 4))], trunc=N
        )
        f = FrobeniusForm(3, a=rnd(), b=rnd(), c=rnd())
        fs = frobenius_solve(f, N)
        e = f.as_ode(rhs=Series([random.randint(-3, 3) for _ in range(4)], trunc=N))
        part = variation_of_parameters(e, fs)
        rv = residual_valuation(residual(e, part.y_p), G(0), _scale_of(e, part.y_p))
        assert rv >= N - 3


def test_order2_variation_of_parameters():
    e = Ode.from_rows([[1], [0], [1]], rhs=[1], trunc=16)
    fs = frobenius_solve(
        FrobeniusForm(2, b=Series([0], trunc=16), c=Series([0, 0, 1], trunc=16)), 16
    )
    part = variation_of_parameters(e, fs)
    rv = residual_valuation(residual(e, part.y_p), G(0), _scale_of(e, part.y_p))
    assert rv >= 13


@pytest.mark.parametrize("N", [16, 24])
@pytest.mark.parametrize("rows, case", [
    ([[0, 0, 0, 1], [0, 0, 2, 1], [0, 0, 1], [0, -1]], "case_iii(1)"),
    ([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1], [0, -1]], "case_iv(1, 1)"),
])
def test_particular_solution_of_a_log_case_reaches_the_requested_order(rows, case, N):
    """y_p of an order-3 equation with a triple root (case iii) or a double
    root and a root one below (case iv) is known through x^(N - 3), the order
    that N terms of the solutions determine, and its exact residual vanishes."""
    e = Ode.from_rows(rows, rhs=[1, 2, -1], trunc=N)
    fs = frobenius_solve(to_frobenius_form(Ode(3, e.coeffs, e.chart, None)), N)
    assert str(fs.indicial.case) == case
    y_p = variation_of_parameters(e, fs).y_p
    assert min(to_complex(t.exponent).real + t.body.trunc for t in y_p.terms) == N - 3
    res = residual(e, y_p)
    assert all(t.body._ints() for t in res.terms) and residual_valuation(res, G(0)) == math.inf


def test_missing_rhs_is_rejected():
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 1], [0, 1], [1]], trunc=8)
    f = frobenius_solve(
        FrobeniusForm(
            3,
            a=Series([1], trunc=8),
            b=Series([1], trunc=8),
            c=Series([1], trunc=8),
        ),
        8,
    )
    with pytest.raises(ValueError):
        variation_of_parameters(e, f)


def test_reduce_order_produces_an_order2_equation():
    # x^3 y''' + x^2 y'' + x y' + x^3 y with phi = the analytic solution
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 1], [0, 1], [0, 0, 0, 1]], trunc=20)
    fs = frobenius_solve(
        FrobeniusForm(
            3,
            a=Series([1], trunc=20),
            b=Series([1], trunc=20),
            c=Series([0, 0, 0, 1], trunc=20),
        ),
        20,
    )
    phi = fs.solutions[2]
    reduced = reduce_order(e, phi)
    assert reduced.order == 2
    # v = (y2 / phi)' solves the reduced equation for any other solution y2
    y2 = fs.solutions[0]
    v = gs_differentiate(gs_div_single(y2, phi))
    rv = residual_valuation(
        residual(reduced, v), v.terms[0].exponent, _scale_of(reduced, v)
    )
    assert rv >= 12


def test_reduce_order_rejects_non_solutions():
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 1], [0, 1], [0, 0, 0, 1]], trunc=12)
    from frobode.series import gs_from_series

    with pytest.raises(ValueError):
        reduce_order(e, gs_from_series(Series([1, 5, 5], trunc=12)))


#: README's x^3 y''' + x^3 y'' + x^2 y' - x y = 0: case iv, roots 2, 1, 0
_README_ROWS = [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1], [0, -1]]


def _nudged(y, power, delta):
    """y with delta added to its x^power coefficient."""
    (t,) = y.terms
    cs = list(t.body.coeffs)
    cs[power - round(to_complex(t.exponent).real)] += delta
    return GeneralizedSeries([GSTerm(t.exponent, 0, Series(cs))])


def test_an_exact_near_solution_is_rejected_exactly():
    """1/10^9 added to the x^7 coefficient of y1 leaves an exact residual
    that does not vanish: no tolerance lets it pass as a solution."""
    e = Ode.from_rows(_README_ROWS, trunc=16)
    y1, y2, _ = frobenius_solve(to_frobenius_form(e), 16).solutions
    reduce_order(e, y1)
    third_from_two(e, y1, y2)
    bad = _nudged(y1, 7, Fraction(1, 10 ** 9))
    with pytest.raises(ValueError):
        reduce_order(e, bad)
    with pytest.raises(ValueError):
        third_from_two(e, bad, y2)


def test_a_float_series_is_judged_by_the_residual_tolerance():
    """L(x^7) = 210 x^7 + 48 x^8, so nudging the x^7 coefficient of the float
    y1 by 1e-7/210 leaves a residual of 1e-7 of the scale: above RESIDUAL_TOL."""
    e = Ode.from_rows([[float(c) for c in row] for row in _README_ROWS], trunc=16)
    y1, y2, _ = frobenius_solve(to_frobenius_form(e), 16).solutions
    third_from_two(e, y1, y2)
    bad = _nudged(y1, 7, 1e-7 / 210)
    assert _scale_of(e, bad) == 1.0
    with pytest.raises(ValueError):
        reduce_order(e, bad)
    with pytest.raises(ValueError):
        third_from_two(e, y1, bad)


#: x^3 y''' + x^2 y'' + x y' + x^3 y = 0: roots 1 + i, 1 - i, 0
_THIRD_ROWS = [[0, 0, 0, 1], [0, 0, 1], [0, 1], [0, 0, 0, 1]]

#: x^3 y''' + x^4 y'' + x (5/9 + x) y' + (-5/9 + x) y = 0: roots 5/3, 1, 1/3,
#: and a1/a0 = x vanishes at 0
_A1_VANISHES = [[0, 0, 0, 1], [0, 0, 0, 0, 1], [0, Fraction(5, 9), 1], [Fraction(-5, 9), 1]]


def test_third_from_two_completes_the_system():
    e = Ode.from_rows(_THIRD_ROWS, trunc=20)
    fs = frobenius_solve(
        FrobeniusForm(
            3,
            a=Series([1], trunc=20),
            b=Series([1], trunc=20),
            c=Series([0, 0, 0, 1], trunc=20),
        ),
        20,
    )
    y1, y2 = fs.solutions[0], fs.solutions[1]
    y3 = third_from_two(e, y1, y2)
    rv = residual_valuation(residual(Ode(3, e.coeffs, G(0), None), y3), G(0), _scale_of(e, y3))
    assert rv >= 14
    assert not wronskian_of_system([y1, y2, y3]).is_zero()


def test_third_from_two_when_a1_over_a0_vanishes_at_zero():
    e = Ode.from_rows(_A1_VANISHES, trunc=16)
    fs = frobenius_solve(to_frobenius_form(e), 16)
    y1, y2 = fs.solutions[0], fs.solutions[1]
    y3 = third_from_two(e, y1, y2)
    assert residual_valuation(residual(e, y3), G(0)) == math.inf
    assert not wronskian_of_system([y1, y2, y3]).is_zero()


@pytest.mark.parametrize("rows, N", [(_A1_VANISHES, 16), (_THIRD_ROWS, 20)])
def test_abel_wronskian_matches_the_determinant_at_order_3(rows, N):
    """Abel's identity from the two leading rows equals the 3x3 determinant
    of the solver's fundamental system over its leading coefficient, exactly,
    through all N + 1 coefficients of the determinant; the oracle reads the
    same rows given with N + 8 terms, so it reaches past them."""
    e = Ode.from_rows(rows, trunc=N)
    (det,) = wronskian_of_system(frobenius_solve(to_frobenius_form(e), N)).terms
    (abel,) = wronskian_ode_solution(Ode.from_rows(rows, trunc=N + 8)).as_generalized_series().terms
    assert (det.exponent, det.logpow) == (abel.exponent, abel.logpow)
    assert len(det.body.coeffs) == N + 1 < len(abel.body.coeffs)
    lead = det.body[0]
    assert [c / lead for c in det.body.coeffs] == list(abel.body.coeffs[: N + 1])


@pytest.mark.parametrize("N", [8, 15, 23])
def test_third_from_two_accepts_the_solvers_log_solutions(N):
    """Criterion 1's x^3 y''' + 3x^2 y'' + x y' + x^3 y = 0 (case_i): the two
    log solutions pass the certificate at every N, and complete a system."""
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 3], [0, 1], [0, 0, 0, 1]], trunc=N)
    y1, y2, _ = frobenius_solve(to_frobenius_form(e), N).solutions
    assert y2.max_logpow() == 1
    y3 = third_from_two(e, y1, y2)
    assert not wronskian_of_system([y1, y2, y3]).is_zero()
