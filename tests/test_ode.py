"""Equation container, chart transforms and the Frobenius normalization."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from frobode.ode import (
    IrregularPointError,
    Ode,
    moebius_pullback,
    poly_degree,
    shift_to_origin,
    to_frobenius_form,
    transform_to_infinity,
)
from frobode.scalars import GaussianRational, to_complex
from frobode.series import Series


def test_from_rows_and_validation():
    e = Ode.from_rows([[1], [0], [1]], trunc=8)
    assert e.order == 2
    assert e.trunc == 8
    with pytest.raises(ValueError):
        Ode.from_rows([[1], [0]], trunc=4)  # wrong row count
    with pytest.raises(ValueError):
        Ode(4, (Series([1]),) * 5)


def test_frobenius_normalization_of_constant_leading_row():
    # y'' + y = 0  ->  x^2 y'' + x*0*y' + x^2 y = 0
    f = to_frobenius_form(Ode.from_rows([[1], [0], [1]], trunc=8))
    assert f.b.valuation() is None
    assert f.c[2] == GaussianRational(1)
    assert f.c[0] == GaussianRational(0) and f.c[1] == GaussianRational(0)


def test_frobenius_form_round_trips_through_rows():
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, 3], [0, 1, -1], [0, 3]], trunc=10)
    f = to_frobenius_form(e)
    e2 = f.as_ode()
    f2 = to_frobenius_form(e2)
    assert f2.a.coeffs == f.a.truncate(f2.a.trunc).coeffs
    assert f2.b.coeffs == f.b.truncate(f2.b.trunc).coeffs
    assert f2.c.coeffs == f.c.truncate(f2.c.trunc).coeffs


def test_irregular_point_rejected():
    # x^2 y'' - y' - y/2: the y' ratio has a pole of order 2
    e = Ode.from_rows([[0, 0, 1], [-1], ["-1/2"]], trunc=8)
    with pytest.raises(IrregularPointError):
        to_frobenius_form(e)


def test_shift_to_origin_preserves_values():
    e = Ode.from_rows([[1, 2, 1], [0, 3], [5, 0, 0, 1]], trunc=6)
    s = shift_to_origin(e, GaussianRational(2))
    for row, srow in zip(e.coeffs, s.coeffs):
        # srow(u) must equal row(u + 2)
        for u in (0.1, -0.4):
            assert to_complex(srow.evaluate(u)) == pytest.approx(
                to_complex(row.evaluate(u + 2))
            )


def test_transform_to_infinity_oracle():
    # x^3 y''' - x^2 y'' - y' - y/2 becomes t^3, 7t^2, 8t - t^2, 1/2
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, -1], [-1], [["-1/2", "0"]]], trunc=8)
    w = transform_to_infinity(e)
    assert w.chart == "infinity"
    rows = [[str(c) for c in r.coeffs[:4]] for r in w.coeffs]
    assert rows[0] == ["0", "0", "0", "1"]
    assert rows[1] == ["0", "0", "7", "0"]
    assert rows[2] == ["0", "8", "-1", "0"]
    assert rows[3] == ["1/2", "0", "0", "0"]


def test_transform_to_infinity_is_an_involution_on_values():
    e = Ode.from_rows([[0, 0, 1, 1], [1, 2], [3]], trunc=8)
    back = transform_to_infinity(transform_to_infinity(e))
    # same equation up to a common polynomial factor: compare row ratios
    x = 0.37
    orig = [to_complex(r.evaluate(x)) for r in e.coeffs]
    twice = [to_complex(r.evaluate(x)) for r in back.coeffs]
    ratios = [t / o for o, t in zip(orig, twice) if abs(o) > 1e-12]
    assert max(abs(r - ratios[0]) for r in ratios) < 1e-9


def test_moebius_pullback_sends_pulled_points_to_origin():
    # z = (w + 1)/(w + 2): w = 0 corresponds to z = 1/2
    e = Ode.from_rows([[["-1/2", "0"], 1], [1], [1]], trunc=6)  # a(z) = z - 1/2
    p = moebius_pullback(
        e,
        (
            GaussianRational(1),
            GaussianRational(1),
            GaussianRational(1),
            GaussianRational(2),
        ),
    )
    assert p.order == 2
    # the pulled-back leading coefficient must vanish at w = 0
    assert not bool(p.coeffs[0][0])
    assert poly_degree(p.coeffs[0]) >= 1


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4))
def test_shift_by_zero_is_identity(row):
    e = Ode.from_rows([[1], [0], row if any(row) else [1]], trunc=6)
    s = shift_to_origin(e, GaussianRational(0))
    assert all(a.coeffs == b.coeffs for a, b in zip(e.coeffs, s.coeffs))


def _shift_reference(s, x0):
    """The chart shift summing every coefficient, exact zeros included."""
    N = s.trunc
    pw = [x0 ** i for i in range(N + 1)]
    out = []
    for t in range(N + 1):
        acc = GaussianRational(0)
        for k in range(t, N + 1):
            acc = acc + math.comb(k, t) * s.coeffs[k] * pw[k - t]
        out.append(acc)
    return out


_part = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_float_part = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
_scalar = st.one_of(
    st.just(GaussianRational(0)),
    st.just(0j),
    st.builds(GaussianRational, _part, _part),
    st.builds(complex, _float_part, _float_part),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(_scalar, min_size=1, max_size=5), min_size=3, max_size=3),
    st.integers(1, 12),
    st.one_of(st.builds(GaussianRational, _part, _part), st.builds(complex, _float_part, _float_part)),
)
def test_shift_to_origin_matches_the_full_sum(rows, N, x0):
    # rows padded with exact zeros to N, at an exact or a float point: the
    # same values, types and float bits as the sum over every coefficient
    rows[0] = [1, *rows[0]]  # a leading row that does not vanish
    e = Ode(2, tuple(Series(r, trunc=N) for r in rows), GaussianRational(0), None)
    got = shift_to_origin(e, x0)
    for row, srow in zip(e.coeffs, got.coeffs):
        want = _shift_reference(row, x0)
        assert [(type(c), repr(c)) for c in srow.coeffs] == [(type(c), repr(c)) for c in want]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.builds(GaussianRational, _part, _part), min_size=1, max_size=7),
             min_size=3, max_size=3),
    st.integers(0, 12),
    st.builds(GaussianRational, _part, _part),
)
def test_exact_shift_runs_on_gaussian_integers(rows, extra, x0):
    # an exact row at an exact point: the same coefficients as the full sum,
    # given in the reduced integer form of the exact kernels
    rows[0] = [1, *rows[0]]
    N = max(map(len, rows)) - 1 + extra
    e = Ode(2, tuple(Series(r, trunc=N) for r in rows), GaussianRational(0), None)
    for row, srow in zip(e.coeffs, shift_to_origin(e, x0).coeffs):
        d, re, im = srow._int
        assert d > 0 and math.gcd(d, *re, *(im or ())) == 1 and (im is None or any(im))
        assert repr(srow.coeffs) == repr(tuple(_shift_reference(row, x0)))
