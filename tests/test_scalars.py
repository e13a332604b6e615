"""Exact Gaussian-rational scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
