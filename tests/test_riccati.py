"""Riccati models, path continuation, holonomy fitting and Liouvillian forms."""

import cmath
import math
import random

import pytest

from frobode.indicial import analyze
from frobode.ode import Ode, to_frobenius_form
from frobode.riccati import (
    _transition,
    Circle,
    MoebiusMap,
    Polyline,
    ProjectivePoint,
    continue_along_path,
    holonomy_of_loop,
    liouvillian_solution,
    riccati_model,
)


def test_model_of_singular_equation():
    # z^2 u'' + u = 0: dt/dz = -(z^2 t^2 + 1)/z^2; regular singular at both
    # the origin and infinity, so both appear in sigma
    m = riccati_model(Ode.from_rows([[0, 0, 1], [0], [1]], trunc=4))
    assert m.a == (0j, 0j, 1 + 0j)
    assert m.c == (1 + 0j,)
    assert m.ramification == (0j, "infinity")


def test_model_ramification_at_infinity():
    # u'' - z u' - u = 0: a has no zeros but infinity is (irregular) singular
    m = riccati_model(Ode.from_rows([[1], [0, -1], [-1]], trunc=4))
    assert m.ramification == ("infinity",)


def test_continuation_follows_known_solution():
    # t = z solves the Riccati model of u'' - z u' - u = 0
    m = riccati_model(Ode.from_rows([[1], [0, -1], [-1]], trunc=4))
    path = Polyline((0.2 + 0j, 0.8 + 0.3j))
    out = continue_along_path(m, 0.2 + 0j, path)
    assert abs(out.as_complex() - (0.8 + 0.3j)) < 1e-8


def test_continuation_switches_charts():
    # start at t = infinity, i.e. u(0) = 0: u = e^{z^2/2} int_0^z e^{-s^2/2},
    # so t = u'/u = z + e^{-z^2/2} / (sqrt(pi/2) erf(z/sqrt 2))
    m = riccati_model(Ode.from_rows([[1], [0, -1], [-1]], trunc=4))
    out = continue_along_path(m, "infinity", Polyline((0j, 0.5 + 0j)))
    want = 0.5 + math.exp(-1 / 8) / _erf_integral(0.5)
    assert abs(out.as_complex() - want) < 1e-9


def test_moebius_fit_and_composition():
    f = MoebiusMap.from_matrix(2, 1, 0, 1)
    g = MoebiusMap.from_matrix(1, 0, 1, 1)
    h = f.compose(g)
    p = ProjectivePoint.of(0.7 + 0.1j)
    lhs = h.apply(p).as_complex()
    rhs = f.apply(g.apply(p)).as_complex()
    assert abs(lhs - rhs) < 1e-12
    ident = f.compose(f.inverse())
    assert ident.identity_defect() < 1e-12


def test_holonomy_multipliers_around_singularity():
    # z^2 u'' + u = 0: loop map multipliers are e^{±2 pi sqrt(3)}
    m = riccati_model(Ode.from_rows([[0, 0, 1], [0], [1]], trunc=4))
    g = holonomy_of_loop(m, Circle(0j, 1.0))
    want = math.exp(2 * math.pi * math.sqrt(3))
    mult = sorted(abs(w) for w in g.multipliers())
    assert mult[1] == pytest.approx(want, rel=1e-4)
    assert mult[0] == pytest.approx(1 / want, rel=1e-4)


def test_trivial_holonomy_without_singularities():
    random.seed(9)
    b = [complex(random.uniform(-1, 1)) for _ in range(4)]
    c = [complex(random.uniform(-1, 1)) for _ in range(4)]
    m = riccati_model(Ode.from_rows([[1], b, c], trunc=4))
    g = holonomy_of_loop(m, Circle(0.2 + 0.1j, 0.7))
    assert g.identity_defect() < 1e-6


@pytest.mark.parametrize("rows", [[[1], [0], [10**4]], [[1], [(0, 200)], [1]]])
def test_steps_are_short_against_large_coefficients(rows):
    # no singular point, so the holonomy is the identity; a Taylor step longer
    # than |a/c|^(1/2) = 0.01 or |a/b| = 0.005 sums terms that cancel to
    # nothing.  The loop is a thin rectangle, along which no solution grows
    # by more than e^4, so double precision can carry (u, u') round it.
    m = riccati_model(Ode.from_rows(rows))
    loop = Polyline((-1 + 0j, 1 + 0j, 1 + 0.02j, -1 + 0.02j, -1 + 0j))
    assert holonomy_of_loop(m, loop).identity_defect() <= 1e-9


@pytest.mark.xfail(strict=True, reason="(u, u') is carried in double precision, and cos 10z, "
                   "cos 100z grow to cosh 10, cosh 100 on the loop, so digits are lost")
@pytest.mark.parametrize("c", [100, 10**4])
def test_unit_circle_without_singular_points_is_the_identity(c):
    # u'' + c u = 0 has no singular point, so any loop gives the identity
    m = riccati_model(Ode.from_rows([[1], [0], [c]]))
    assert holonomy_of_loop(m, Circle(0j, 1.0)).identity_defect() <= 1e-9


def test_trivial_loops_are_the_identity_to_rounding():
    random.seed(5)
    for _ in range(3):
        b = [complex(random.uniform(-1, 1)) for _ in range(4)]
        c = [complex(random.uniform(-1, 1)) for _ in range(4)]
        m = riccati_model(Ode.from_rows([[1], b, c], trunc=4))
        assert holonomy_of_loop(m, Circle(0.2 + 0.1j, 0.8)).identity_defect() <= 1e-12


def test_holonomy_multipliers_are_the_frobenius_exponent_gap():
    # z u'' + u'/3 + u = 0 at 0 has exponents 0 and 2/3: the loop multiplies
    # z^rho by e^{2 pi i rho}, and Abel gives det T = exp(-2 pi i/3)
    e = Ode.from_rows([[0, 1], ["1/3"], [1]], trunc=8)
    r1, r2 = (complex(r) for r in analyze(to_frobenius_form(e)).roots)
    assert {r1, r2} == {0, 2 / 3}
    m = riccati_model(e)
    for turns in (1, 2, -1):
        mult = holonomy_of_loop(m, Circle(0j, 0.5, turns)).multipliers()
        for sign in (1, -1):
            want = cmath.exp(2j * math.pi * turns * sign * (r1 - r2))
            assert min(abs(w - want) for w in mult) < 1e-9
    T, _ = _transition(m, Circle(0j, 0.5))
    assert abs(complex(T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]) - cmath.exp(-2j * math.pi / 3)) < 1e-9


def test_log_case_holonomy_is_parabolic():
    # Bessel of order 0, z^2 u'' + z u' + z^2 u = 0: a double exponent, so the
    # loop map is a non-identity map with both multipliers 1
    m = riccati_model(Ode.from_rows([[0, 0, 1], [0, 1], [0, 0, 1]], trunc=4))
    g = holonomy_of_loop(m, Circle(0j, 1.0))
    assert all(abs(w - 1) < 1e-6 for w in g.multipliers())
    assert g.identity_defect() > 0.1


def test_turns_power_the_one_turn_map():
    m = riccati_model(Ode.from_rows([[0, 0, 1], [0], [1]], trunc=4))
    g = holonomy_of_loop(m, Circle(0j, 1.0, 2))
    want = math.exp(4 * math.pi * math.sqrt(3))
    mult = sorted(abs(w) for w in g.multipliers())
    assert mult[1] == pytest.approx(want, rel=1e-6)
    assert mult[0] == pytest.approx(1 / want, rel=1e-6)
    # three turns lose det T to cancellation, which Abel's identity sees
    with pytest.raises(ArithmeticError):
        holonomy_of_loop(m, Circle(0j, 1.0, 3))


def test_repeated_root_of_a_is_one_ramification_point():
    for rows in ([["1/9", "-2/3", 1], [0], [1]], [[1, -3, 3, -1], [0], [1]]):
        m = riccati_model(Ode.from_rows(rows, trunc=4))
        finite = [s for s in m.ramification if s != "infinity"]
        assert len(finite) == 1


def test_loop_through_singularity_is_rejected():
    m = riccati_model(Ode.from_rows([[0, 0, 1], [0], [1]], trunc=4))
    with pytest.raises(ValueError):
        continue_along_path(m, 0j, Polyline((-1 + 0j, 1 + 0j)))


def test_liouvillian_closed_form():
    # u'' - z u' - u = 0 with gamma = z: u = e^{z^2/2} (ell + k int e^{-s^2/2})
    e = Ode.from_rows([[1], [0, -1], [-1]], trunc=8)
    sol = liouvillian_solution(e, ((0, 1), (1,)), anchor=0j, grid=[0.2, 0.5 + 0.1j])
    for j in range(1, 11):
        z = j / 10
        got = sol(z, 1, 2)
        want = math.exp(z * z / 2) * (2 + _erf_integral(z))
        assert abs(got - want) < 1e-8


def _erf_integral(z: float) -> float:
    return math.sqrt(math.pi / 2) * math.erf(z / math.sqrt(2))


def test_liouvillian_rejects_bad_gamma():
    e = Ode.from_rows([[1], [0, -1], [-1]], trunc=8)
    with pytest.raises(ValueError):
        liouvillian_solution(e, ((1, 1), (1,)), anchor=0j, grid=[0.3, 0.7])


def test_liouvillian_c_zero_branch():
    # u'' + u' = 0: c == 0, so u = ell + k int e^{-z}
    e = Ode.from_rows([[1], [1], [0]], trunc=8)
    sol = liouvillian_solution(e, None, anchor=0j, grid=[0.5])
    for z in (0.3, 0.9):
        want = 2 + (1 - math.exp(-z))
        assert abs(sol(z, 1, 2) - want) < 1e-8


def test_liouvillian_past_a_pole_of_gamma_at_a_regular_point():
    # u'' - z u' + u = 0 with gamma = 1/z: (k, ell) = (0, 1) from anchor 1 is
    # u = z, analytic through the pole of gamma at the regular point 0
    e = Ode.from_rows([[1], [0, -1], [1]], trunc=8)
    sol = liouvillian_solution(e, ((1,), (0, 1)), anchor=1 + 0j, grid=[0.5, 2.0])
    for z in (-1, -0.5 + 0.01j):
        assert abs(sol(z, 0, 1) - z) < 1e-12


def test_liouvillian_with_both_constants():
    # z^2 u'' - 2u = 0 with gamma = 2/z, anchor 1: u = z^2 (ell + k (1 - z^-3)/3);
    # a segment through the singular point 0 is rejected
    e = Ode.from_rows([[0, 0, 1], [0], [-2]], trunc=8)
    sol = liouvillian_solution(e, ((2,), (0, 1)), anchor=1 + 0j, grid=[0.5, 2.0])
    z = -0.5 + 0.5j
    assert abs(sol(z, 1, 1) - z * z * (1 + (1 - z ** -3) / 3)) < 1e-12
    with pytest.raises(ValueError):
        sol(-1.0)


@pytest.mark.parametrize("z", [5, 8, 12, 3 + 3j, 5j, -6 + 2j])
def test_liouvillian_gaussian_form_against_mpmath(z):
    """Far from the anchor and off the real axis, where the solution grows like
    e^(z^2/2): relative error against a 30-digit erf."""
    mpmath = pytest.importorskip("mpmath")
    e = Ode.from_rows([[1], [0, -1], [-1]], trunc=8)
    sol = liouvillian_solution(e, ((0, 1), (1,)), anchor=0j, grid=[0.2, 0.5 + 0.1j])
    with mpmath.workdps(30):
        w = mpmath.mpc(z)
        want = complex(mpmath.exp(w * w / 2)
                       * (2 + mpmath.sqrt(mpmath.pi / 2) * mpmath.erf(w / mpmath.sqrt(2))))
    assert abs(sol(z, 1, 2) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize(
    "rows, gamma, z, want",
    [
        ([[1], [0], [-1]], ((-1,), (1,)), 30, math.exp(-30)),  # u'' - u = 0: e^-z
        ([[1], [0, 1], [1]], ((0, -1), (1,)), 10, math.exp(-50)),  # u = e^(-z^2/2)
        ([[1], [0, 1], [1]], ((0, -1), (1,)), 6 + 2j, cmath.exp(-(6 + 2j) ** 2 / 2)),
    ],
    ids=["exp", "gaussian", "gaussian-complex"],
)
def test_liouvillian_keeps_the_digits_of_a_decaying_solution(rows, gamma, z, want):
    """(k, ell) = (0, 1) is exp(int gamma), far below the transition matrix, whose
    entries grow like the other solution."""
    sol = liouvillian_solution(Ode.from_rows(rows, trunc=8), gamma, anchor=0j, grid=[0.5, 1.0])
    assert abs(sol(z, 0, 1) - want) <= 1e-12 * abs(want)


def test_liouvillian_through_a_pole_of_gamma_refuses_cancelled_digits():
    # (2z - 1)u'' - 2u' + (3 - 2z)u = 0 has solutions z e^-z and e^z, and
    # gamma = (1 - z)/z; the segment from -1 - i to 30 + 30i meets its pole 0
    e = Ode.from_rows([[-1, 2], [-2], [3, -2]], trunc=8)
    a = -1 - 1j
    sol = liouvillian_solution(e, ((1, -1), (0, 1)), anchor=a, grid=[0.3j, 2.0])
    for z in (-0.5 - 0.5j, 1 + 1j, 30 + 29j):  # 1 + i through the pole
        want = z * cmath.exp(a - z) / a
        assert abs(sol(z, 0, 1) - want) <= 1e-12 * abs(want)
    with pytest.raises(ArithmeticError):
        sol(30 + 30j, 0, 1)
