"""Exact Gaussian-rational scalar arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobode.scalars import (
    GaussianRational,
    as_exact,
    gr_sqrt,
    is_exact,
    scalar_is_zero,
    to_complex,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_construction_and_parsing():
    assert as_exact("3/4") == GaussianRational(Fraction(3, 4))
    assert as_exact(("1/2", "-2/3")) == GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    assert as_exact(5) == GaussianRational(5)
    with pytest.raises(TypeError):
        as_exact(object())


def test_mixed_arithmetic_degrades_to_complex():
    g = GaussianRational(1, 2)
    assert isinstance(g + 0.5, complex)
    assert isinstance(0.5 * g, complex)
    assert to_complex(g) == 1 + 2j


def test_zero_test_tolerance():
    assert scalar_is_zero(GaussianRational(0), 1.0)
    assert not scalar_is_zero(GaussianRational(0, 1), 1e9)
    assert scalar_is_zero(1e-13 + 0j, 1.0)
    assert not scalar_is_zero(1e-10 + 0j, 1.0)


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_division_inverts_multiplication(a):
    b = GaussianRational(3, -7)
    assert (a * b) / b == a


@given(gaussians)
def test_conjugation_is_involutive(a):
    assert a.conjugate().conjugate() == a
    assert is_exact(a.conjugate())


@given(gaussians)
def test_square_root_of_squares(a):
    s = gr_sqrt(a * a)
    assert s is not None
    assert s * s == a * a


def test_sqrt_of_non_square_is_none():
    assert gr_sqrt(GaussianRational(2)) is None
    assert gr_sqrt(GaussianRational(-1)) == GaussianRational(0, 1)


@given(gaussians, st.integers(min_value=0, max_value=6))
def test_power_matches_repeated_multiplication(a, k):
    acc = GaussianRational(1)
    for _ in range(k):
        acc = acc * a
    assert a**k == acc


def test_structural_zero_has_no_tolerance():
    """Truthiness is the zero test with no tolerance, exact and complex."""
    assert not GaussianRational(0)
    assert GaussianRational(0, Fraction(1, 10**30))
    assert not 0j and not complex(-0.0, 0.0)
    assert 1e-300 + 0j
    assert complex(0.0, 1e-300)


@given(gaussians, st.one_of(gaussians, st.integers(-5, 5), st.builds(GaussianRational, st.integers(-5, 5), rationals)))
def test_integer_difference_matches_the_gaussian_difference(a, b):
    from frobode.scalars import integer_difference

    if isinstance(b, int):  # an integer offset from a
        b = a - b
    d = a - b
    assert integer_difference(a, b) == (int(d.re) if d.is_rational_integer else None)


@st.composite
def _near_threshold_row(draw):
    """(scale, entries): complex entries along an axis (abs exact) just below,
    at and just above ZERO_TOL * max(1, scale), exact zeros among them."""
    from frobode.scalars import ZERO_TOL

    scale = draw(st.floats(1e-3, 1e6))
    tol = ZERO_TOL * max(1.0, scale)
    mag = st.sampled_from([0.0, math.nextafter(tol, 0.0), tol, math.nextafter(tol, math.inf)])
    axis = st.sampled_from([complex(1, 0), complex(-1, 0), complex(0, 1), complex(0, -1)])
    entries = draw(st.lists(st.builds(lambda m, u: complex(m * u.real, m * u.imag), mag, axis),
                            min_size=1, max_size=8))
    return scale, entries


@settings(max_examples=200)
@given(_near_threshold_row(), st.data())
def test_valuation_decides_zeros_as_scalar_is_zero(case, data):
    """`Series.valuation` reads its threshold once per series: the first entry
    it keeps is the first that `scalar_is_zero` keeps, at the series' own
    magnitude and at a scale given."""
    from frobode.series import Series

    scale, entries = case
    want = next((n for n, c in enumerate(entries) if not scalar_is_zero(c, scale)), None)
    assert Series(entries).valuation(scale) == want
    row = list(entries)  # an entry of magnitude `scale` makes it the row's own
    row.insert(data.draw(st.integers(0, len(row))), complex(0, -scale))
    assert Series(row).magnitude() == scale
    want = next(n for n, c in enumerate(row) if not scalar_is_zero(c, max(1.0, scale)))
    assert Series(row).valuation() == want == Series(row).valuation(scale)


@settings(max_examples=100)
@given(st.lists(_near_threshold_row(), min_size=3, max_size=4), st.data())
def test_theta_columns_decide_zeros_as_scalar_is_zero(cases, data):
    """`theta_columns` reads one threshold per row: each entry it zeroes is one
    that `scalar_is_zero` calls 0 against the row's magnitude, and no other."""
    from frobode.ode import Ode, theta_columns
    from frobode.series import Series

    rows = []
    for scale, entries in cases:
        entries.insert(data.draw(st.integers(0, len(entries))), complex(scale, 0))
        rows.append(Series(entries))
    e = Ode(len(rows) - 1, rows)
    zeroed = [Series([0j if scalar_is_zero(c, max(1.0, r.magnitude())) else c for c in r.coeffs])
              for r in rows]
    w = min(i + next(n for n, c in enumerate(r.coeffs) if c) for i, r in enumerate(zeroed))
    want = [r.window(w - i, r.trunc + 1 + i - w) for i, r in reversed(list(enumerate(zeroed)))]
    got_w, got = theta_columns(e)
    assert got_w == w
    assert [repr(c.coeffs) for c in got] == [repr(c.coeffs) for c in want]
