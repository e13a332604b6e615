"""Truncated series (also as jets) and generalized (log-power) series."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobode.scalars import GaussianRational, to_complex
from frobode.series import (
    GeneralizedSeries,
    GSTerm,
    JetValuationError,
    Series,
    gs_differentiate,
    gs_evaluate,
    gs_from_series,
    gs_integrate,
    laurent_ratio,
    poly_eval_jet,
    series_div,
    series_inverse,
)

small_ints = st.integers(min_value=-9, max_value=9)
exact_series = st.lists(small_ints, min_size=1, max_size=17).map(
    lambda cs: Series(cs, trunc=16)
)


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


def test_indexing_and_truncation():
    s = Series([1, 2, 3])
    assert s.trunc == 2
    assert s[1] == GaussianRational(2)
    assert s[99] == GaussianRational(0)
    assert Series([1, 2, 3], trunc=5).coeffs[5] == GaussianRational(0)


@settings(max_examples=60)
@given(exact_series, exact_series, exact_series)
def test_ring_axioms(a, b, c):
    assert (a + b).coeffs == (b + a).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@settings(max_examples=60)
@given(exact_series, exact_series)
def test_evaluation_is_a_homomorphism(a, b):
    """Evaluating a truncated product agrees with the product of evaluations
    up to the truncation error bound."""
    x = 0.03
    prod = (a * b).evaluate(x)
    direct = a.evaluate(x) * b.evaluate(x)
    bound = (a.magnitude() + 1) * (b.magnitude() + 1) * 20 * abs(x) ** 17 * 4
    assert abs(prod - direct) <= bound + 1e-12


def test_inverse_and_division():
    a = Series([1, -1, 2, 5], trunc=8)
    assert (a * series_inverse(a)).coeffs[0] == GaussianRational(1)
    assert all(not bool(c) for c in (a * series_inverse(a)).coeffs[1:])
    b = Series([2, 1], trunc=8)
    assert (series_div(a, b) * b).coeffs == a.coeffs


# -- the exact kernels against a naive Fraction oracle ------------------------


def _pairs(s: Series) -> list:
    return [(c.re, c.im) for c in s.coeffs]


def _naive_product(a: list, b: list) -> list:
    n = min(len(a), len(b))
    out = []
    for k in range(n):
        re = im = Fraction(0)
        for i in range(k + 1):
            (ar, ai), (br, bi) = a[i], b[k - i]
            re += ar * br - ai * bi
            im += ar * bi + ai * br
        out.append((re, im))
    return out


def _naive_inverse(a: list) -> list:
    ar, ai = a[0]
    norm = ar * ar + ai * ai
    ir, ii = ar / norm, -ai / norm
    out = [(ir, ii)]
    for k in range(1, len(a)):
        sr = si = Fraction(0)
        for j in range(1, k + 1):
            (pr, pi), (qr, qi) = a[j], out[k - j]
            sr += pr * qr - pi * qi
            si += pr * qi + pi * qr
        out.append((-(ir * sr - ii * si), -(ir * si + ii * sr)))
    return out


small_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 40))


@st.composite
def gaussian_series(draw, unit=False):
    """Exact series of 1 to 14 terms, real-only or complex, non-zero only at
    every step-th index (step 3 is the shape of the third-order Bessel
    series)."""
    complex_ = draw(st.booleans())
    step = draw(st.sampled_from([1, 1, 2, 3]))
    parts = draw(st.lists(st.tuples(small_fractions, small_fractions), min_size=1, max_size=14))
    cs = [
        GaussianRational(re, im if complex_ else 0) if k % step == 0 else GaussianRational(0)
        for k, (re, im) in enumerate(parts)
    ]
    if unit and not cs[0]:
        cs[0] = GaussianRational(draw(st.integers(1, 9)))
    return Series(cs)


@settings(max_examples=100)
@given(gaussian_series(), gaussian_series())
def test_exact_product_matches_naive_convolution(a, b):
    p = a * b
    assert p.trunc == min(a.trunc, b.trunc)
    assert _pairs(p) == _naive_product(_pairs(a), _pairs(b))


@settings(max_examples=100)
@given(gaussian_series(unit=True))
def test_exact_inverse_matches_naive_inverse(a):
    assert _pairs(series_inverse(a)) == _naive_inverse(_pairs(a))


def test_exact_kernels_on_sparse_unequal_denominators():
    # phi1 of the third-order Bessel equation: d_3k = (-1)^k / (27^k k!^3)
    bessel3 = Series(
        [
            Fraction((-1) ** (n // 3), 27 ** (n // 3) * math.factorial(n // 3) ** 3)
            if n % 3 == 0 else 0
            for n in range(31)
        ]
    )
    b = _pairs(bessel3)
    assert _pairs(bessel3 * bessel3) == _naive_product(b, b)
    assert _pairs(series_inverse(bessel3)) == _naive_inverse(b)
    a = Series([Fraction(1, 3), GaussianRational(Fraction(1, 7), Fraction(2, 5)), Fraction(1, 11)])
    c = Series([Fraction(1, 2), Fraction(-1, 5)])
    assert (a * c).trunc == 1
    assert _pairs(a * c) == _naive_product(_pairs(a), _pairs(c))
    assert _pairs(series_inverse(a)) == _naive_inverse(_pairs(a))


def test_exact_kernels_on_length_one():
    a = Series([GaussianRational(Fraction(2, 3), Fraction(-1, 4))])
    assert _pairs(a * a) == _naive_product(_pairs(a), _pairs(a))
    assert _pairs(series_inverse(a)) == _naive_inverse(_pairs(a))
    with pytest.raises(ZeroDivisionError):
        series_inverse(Series([0, 1]))


def test_mixed_exact_float_operands_take_the_float_path():
    exact = Series([Fraction(1, 3), Fraction(-2, 7), GaussianRational(1, 1), 5])
    mixed = Series([0.5, Fraction(1, 9), 0, Fraction(3, 2)])
    as_exact = [(Fraction(1, 2), Fraction(0))] + _pairs(Series(mixed.coeffs[1:]))
    for p in (exact * mixed, mixed * exact, series_inverse(mixed)):
        assert all(isinstance(c, complex) for c in p.coeffs)
    checks = (
        (exact * mixed, _naive_product(_pairs(exact), as_exact)),
        (series_inverse(mixed), _naive_inverse(as_exact)),
    )
    for got, want in checks:
        for g, (re, im) in zip(got.coeffs, want):
            assert g == pytest.approx(complex(float(re), float(im)), rel=1e-12)


def test_laurent_ratio_cancels_valuations():
    num = Series([0, 0, 0, 2, 4], trunc=8)
    den = Series([0, 1, 1], trunc=8)
    shift, unit = laurent_ratio(num, den)
    assert shift == 2
    assert unit[0] == GaussianRational(2)
    back = unit * den.truncate(unit.trunc)
    want = num.shift(-2).truncate(back.trunc)
    assert back.coeffs == want.coeffs


def test_derivative_drops_trunc():
    s = Series([5, 1, 3, 7], trunc=3)
    d = s.derivative()
    assert d.trunc == 2
    assert d.coeffs == Series([1, 6, 21]).coeffs


# ---------------------------------------------------------------------------
# Series as jets
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(st.lists(small_ints, min_size=3, max_size=5), st.lists(small_ints, min_size=3, max_size=5))
def test_jet_div_mul_roundtrip(a, b):
    num, den = Series(a), Series(b)
    if den.valuation() is None or num.valuation() is None:
        return
    if num.valuation() < den.valuation():
        return
    q = num.div(den)
    back = q * den
    for t in range(len(q.coeffs)):
        assert to_complex(back.coeff(t)) == pytest.approx(to_complex(num.coeff(t)))


def test_jet_division_valuation_guard():
    with pytest.raises(JetValuationError):
        Series([1, 1, 1]).div(Series([0, 1, 1]))


def test_jet_division_shrinks_reliable_order():
    q = Series([0, 1, 2, 3]).div(Series([0, 1, 1]))
    assert q.trunc == 1
    with pytest.raises(IndexError):
        q.coeff(2)


def test_poly_eval_jet_matches_derivatives():
    # p(r) = r^3 - 2r + 1 at r = 2 + eps
    p = [GaussianRational(1), GaussianRational(-2), GaussianRational(0), GaussianRational(1)]
    j = poly_eval_jet(p, GaussianRational(2), 2)
    assert j.coeff(0) == GaussianRational(5)
    assert math.factorial(1) * j.coeff(1) == GaussianRational(10)  # 3r^2 - 2
    assert math.factorial(2) * j.coeff(2) == GaussianRational(12)  # 6r


# ---------------------------------------------------------------------------
# Generalized series
# ---------------------------------------------------------------------------


def test_normalization_merges_integer_offsets():
    g = GeneralizedSeries(
        [
            GSTerm(GaussianRational(1), 0, Series([1, 0, 0], trunc=4)),
            GSTerm(GaussianRational(2), 0, Series([3, 1], trunc=4)),
        ]
    )
    assert len(g.terms) == 1
    t = g.terms[0]
    assert t.exponent == GaussianRational(1)
    assert t.body[0] == GaussianRational(1)
    assert t.body[1] == GaussianRational(3)


def test_zero_bodies_are_dropped():
    g = gs_from_series(Series([0, 0], trunc=3), GaussianRational(2))
    assert g.is_zero()


def test_differentiate_then_integrate_is_identity():
    g = gs_from_series(Series([1, 2, -1, 4], trunc=6), GaussianRational(1, 1), logpow=1)
    back = gs_integrate(gs_differentiate(g))
    diff = back - g.truncate(back.trunc)
    assert all(t.body.is_zero(scale=10.0) for t in diff.terms)


def test_integrate_log_raises_power_at_minus_one():
    g = gs_from_series(Series([1], trunc=2), GaussianRational(-1))
    out = gs_integrate(g)
    assert out.max_logpow() == 1


def test_evaluation_with_logs():
    half = GaussianRational(Fraction(1, 2))
    g = GeneralizedSeries([GSTerm(half, 1, Series([2], trunc=2))])
    x = 0.3
    want = 2 * x**0.5 * math.log(x)
    assert gs_evaluate(g, x) == pytest.approx(want)


def test_product_adds_exponents_and_logpowers():
    g1 = GeneralizedSeries(
        [GSTerm(GaussianRational(Fraction(1, 2)), 1, Series([1, 1], trunc=4))]
    )
    g2 = GeneralizedSeries(
        [GSTerm(GaussianRational(Fraction(1, 3)), 2, Series([2], trunc=4))]
    )
    p = g1 * g2
    assert p.terms[0].exponent == GaussianRational(Fraction(5, 6))
    assert p.max_logpow() == 3


def _float_inverse_reference(a):
    """The float inverse recurrence over every a_j, exact zeros included."""
    a0 = a.coeffs[0]
    inv0 = GaussianRational(1) / a0 if isinstance(a0, GaussianRational) else 1.0 / a0
    out = [inv0]
    for k in range(1, len(a.coeffs)):
        acc = GaussianRational(0)
        for j in range(1, k + 1):
            acc = acc + a.coeffs[j] * out[k - j]
        out.append(-inv0 * acc)
    return out


@settings(max_examples=100)
@given(
    st.one_of(
        st.builds(GaussianRational, st.integers(1, 9), small_fractions),
        st.complex_numbers(min_magnitude=0.5, max_magnitude=3, allow_nan=False, allow_infinity=False),
    ),
    st.lists(
        st.one_of(
            st.just(GaussianRational(0)),
            st.just(0j),
            st.builds(GaussianRational, small_fractions, small_fractions),
            st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        ),
        max_size=12,
    ),
)
def test_float_inverse_matches_the_full_recurrence(a0, tail):
    # float and mixed series, padded with exact zeros: the same values,
    # types and float bits as the recurrence over every coefficient
    a = Series([a0, *tail], trunc=14)
    assume(any(isinstance(c, complex) for c in a.coeffs))
    got = series_inverse(a)
    want = _float_inverse_reference(a)
    assert [(type(c), repr(c)) for c in got.coeffs] == [(type(c), repr(c)) for c in want]


def test_mixed_inverse_converts_exact_terms_where_the_full_recurrence_does():
    # exact i at x^2 and x^4 beside 0j at x^5: skipping the exact zeros summed
    # the exact products before converting them, 0.04320000000000001 for 0.0432
    a = Series([GaussianRational(1, 2), 0, GaussianRational(0, 1), 0, GaussianRational(0, 1), 0j],
               trunc=14)
    want = _float_inverse_reference(a)
    assert [(type(c), repr(c)) for c in series_inverse(a).coeffs] == [
        (type(c), repr(c)) for c in want]
    assert repr(want[6]) == "(0.1376-0.0432j)"


# -- exact generalized-series operations against a naive GaussianRational oracle


def _naive_differentiate(g: GeneralizedSeries) -> GeneralizedSeries:
    """d/dx termwise, one GaussianRational product per coefficient."""
    out = []
    for t in g.terms:
        cs = t.body.coeffs[: max(t.body.trunc - 1, 0) + 1]
        power = [(t.exponent + n) * c for n, c in enumerate(cs)]
        out.append(GSTerm(t.exponent - 1, t.logpow, Series(power)))
        if t.logpow:
            out.append(GSTerm(t.exponent - 1, t.logpow - 1, Series([t.logpow * c for c in cs])))
    return GeneralizedSeries(out)


def _naive_normalize(terms) -> list:
    """(exponent, logpow, coefficient pairs) of the canonical form: integer
    exponent offsets folded into the body of the class's smallest exponent,
    bodies cut to the shortest trunc and summed in Fractions, zero sums
    dropped and exactly-zero leading coefficients moved into the exponent."""
    trunc = min(t.body.trunc for t in terms)
    reps = []
    for t in terms:
        for i, r in enumerate(reps):
            if (t.exponent - r).is_rational_integer:
                if (t.exponent - r).re < 0:
                    reps[i] = t.exponent
                break
        else:
            reps.append(t.exponent)
    sums = {}
    for t in terms:
        r = next(r for r in reps if (t.exponent - r).is_rational_integer)
        k = int((t.exponent - r).re)
        zeros = [(Fraction(0), Fraction(0))] * (trunc + 1)
        acc = sums.setdefault((reps.index(r), t.logpow), zeros)
        for n in range(trunc + 1 - k):
            re, im = acc[n + k]
            acc[n + k] = (re + t.body.coeffs[n].re, im + t.body.coeffs[n].im)
    out = []
    for i, m in sorted(sums, key=lambda key: (reps[key[0]].re, reps[key[0]].im, key[1])):
        acc = sums[i, m]
        v = next((n for n, c in enumerate(acc) if c != (0, 0)), None)
        if v is not None:
            out.append((reps[i] + v, m, acc[v:]))
    return out


small_exponents = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4])),
    st.sampled_from([0, 0, Fraction(1, 2), -2]),
)


@st.composite
def exact_gs_terms(draw, max_terms=4):
    """Exact terms, not normalized: exponents at integer offsets from one or
    two class representatives, log powers 0-2, sparse or length-1 bodies."""
    reps = draw(st.lists(small_exponents, min_size=1, max_size=2))
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        rho = draw(st.sampled_from(reps)) + draw(st.integers(0, 2))
        terms.append(GSTerm(rho, draw(st.integers(0, 2)), draw(gaussian_series())))
    return terms


def _gs_pairs(g: GeneralizedSeries) -> list:
    return [(t.exponent, t.logpow, _pairs(t.body)) for t in g.terms]


@settings(max_examples=80)
@given(exact_gs_terms())
def test_exact_differentiate_matches_naive_products(terms):
    g = GeneralizedSeries(terms, normalize=False)
    got = gs_differentiate(g)
    assert repr(got) == repr(_naive_differentiate(g))
    assert all(isinstance(c, GaussianRational) for t in got.terms for c in t.body.coeffs)


def test_exact_differentiate_edge_cases():
    rho = GaussianRational(Fraction(-3, 2), Fraction(5, 7))
    cases = [
        GSTerm(rho, 2, Series([GaussianRational(1, -1)])),
        GSTerm(GaussianRational(-2), 1, Series([0, 0, 5, 0, 0, 7, 0])),  # (rho + 2) c_2 = 0
        GSTerm(GaussianRational(0, 1), 0,
               Series([Fraction(1, 3), 0, GaussianRational(Fraction(2, 5), -1)], trunc=6)),
        GSTerm(GaussianRational(0), 1, Series([4, 1, 2])),
    ]
    for t in cases:
        g = GeneralizedSeries([t], normalize=False)
        assert repr(gs_differentiate(g)) == repr(_naive_differentiate(g))
    d = gs_differentiate(GeneralizedSeries([cases[0]], normalize=False))
    assert [t.body.trunc for t in d.terms] == [0, 0]


@settings(max_examples=100)
@given(gaussian_series(), gaussian_series())
def test_exact_series_sum_and_difference_match_fractions(a, b):
    n = min(a.trunc, b.trunc) + 1
    pa, pb = _pairs(a)[:n], _pairs(b)[:n]
    assert _pairs(a + b) == [(x + u, y + v) for (x, y), (u, v) in zip(pa, pb)]
    assert _pairs(a - b) == [(x - u, y - v) for (x, y), (u, v) in zip(pa, pb)]


@settings(max_examples=60)
@given(exact_gs_terms(), exact_gs_terms())
def test_exact_generalized_difference_matches_scaling_by_minus_one(ta, tb):
    a, b = GeneralizedSeries(ta), GeneralizedSeries(tb)
    assert repr(a - b) == repr(a + b.scale(GaussianRational(-1)))
    assert (a - a).is_zero()


@settings(max_examples=80)
@given(exact_gs_terms(max_terms=6))
def test_exact_normalization_matches_naive_merge(terms):
    assert _gs_pairs(GeneralizedSeries(terms)) == _naive_normalize(terms)


def test_exact_normalization_cancels_folds_and_merges():
    half = GaussianRational(Fraction(1, 2))
    body = Series([Fraction(1, 3), GaussianRational(0, 2), 5], trunc=4)
    # an exact sum that cancels is dropped
    assert GeneralizedSeries([GSTerm(half, 1, body), GSTerm(half, 1, -body)]).terms == ()
    # leading exact zeros fold into the exponent
    (t,) = GeneralizedSeries([GSTerm(half, 0, Series([0, 0, 3, 4], trunc=5))]).terms
    assert (t.exponent, _pairs(t.body)) == (half + 2, _pairs(Series([3, 4, 0, 0])))
    # integer offsets merge into the smallest exponent, cut to the shortest trunc
    terms = [GSTerm(half + 1, 0, Series([1, 2, 3], trunc=3)),
             GSTerm(half, 0, Series([7, -1], trunc=5))]
    (t,) = GeneralizedSeries(terms).terms
    assert (t.exponent, _pairs(t.body)) == (half, _pairs(Series([7, 0, 2, 3])))
    assert _gs_pairs(GeneralizedSeries(terms)) == _naive_normalize(terms)


signed_zero_floats = st.lists(
    st.builds(complex, st.sampled_from([0.0, -0.0, 1.5, -2.0]), st.sampled_from([0.0, -0.0, 0.25])),
    min_size=1, max_size=6,
)


def float_gs(exponents):
    """Float bodies with signed zero parts, at float or exact exponents."""
    term = st.builds(GSTerm, st.sampled_from(exponents), st.integers(0, 1),
                     signed_zero_floats.map(Series))
    return st.lists(term, min_size=1, max_size=3).map(GeneralizedSeries)


@settings(max_examples=100)
@given(float_gs([0.5 + 0j, 1.5 + 0j, -0.25 + 0j, 0.5 + 1j]),
       float_gs([0.5 + 0j, 2.5 + 0j, 0.75 + 0j, GaussianRational(3)]))
def test_float_generalized_difference_keeps_signed_zeros(a, b):
    # (-1+0j)*c and -c differ in the sign of zero parts: float bodies are scaled
    assert repr(a - b) == repr(a + b.scale(GaussianRational(-1)))


def test_float_difference_of_a_lone_term_is_scaled_not_negated():
    a = gs_from_series(Series([1.0 + 0j, 1.0 + 0j]), 0.5 + 0j)
    b = gs_from_series(Series([2.0 + 0j, 0j]), 0.25 + 0j)
    (t, _) = (a - b).terms
    assert repr(t.body) == "Series([(-2+0j), (-0+0j)])"  # -b would give (-2-0j), (-0-0j)


def test_mixed_operands_take_the_float_path():
    third = GaussianRational(Fraction(1, 3))
    mixed = Series([Fraction(1, 3), 0.5 + 0j, GaussianRational(0, 1), -0.0 + 0j])
    exact = Series([2, Fraction(-1, 7), 0, GaussianRational(1, 1)])
    assert repr(mixed + exact) == repr(Series([x + y for x, y in zip(mixed.coeffs, exact.coeffs)]))
    assert repr(exact + mixed) == repr(Series([x + y for x, y in zip(exact.coeffs, mixed.coeffs)]))
    g = GeneralizedSeries([GSTerm(third, 1, mixed)], normalize=False)
    assert repr(gs_differentiate(g)) == repr(_naive_differentiate(g))
    assert any(isinstance(c, complex) for t in gs_differentiate(g).terms for c in t.body.coeffs)
    h = gs_from_series(exact, third)
    assert repr(h - g) == repr(h + g.scale(GaussianRational(-1)))
    assert repr(g - h) == repr(g + h.scale(GaussianRational(-1)))
    # a mixed sum is zero within the float tolerance, not only when exactly zero
    half = GaussianRational(Fraction(1, 2))
    near = Series([-1.0 + 1e-17j, -2.0 + 0j])
    assert GeneralizedSeries([GSTerm(half, 0, Series([1, 2])), GSTerm(0.5 + 0j, 0, near)]).is_zero()


def test_exact_zero_tests_compute_no_magnitude(monkeypatch):
    def no_magnitude(self):
        raise AssertionError("magnitude computed for an exact series")

    monkeypatch.setattr(Series, "magnitude", no_magnitude)
    big = Series([0, 0, 10**40, Fraction(1, 3)], trunc=6)
    assert big.valuation() == 2
    assert Series([0, 0], trunc=3).valuation() is None
    assert laurent_ratio(Series([0, 3, 1], trunc=5), big)[0] == -1
    one, two = GaussianRational(1), GaussianRational(2)
    g = GeneralizedSeries([GSTerm(one, 0, big), GSTerm(two, 1, big)])
    assert [t.exponent for t in g.terms] == [GaussianRational(3), GaussianRational(4)]
    with pytest.raises(AssertionError):
        Series([0, 1e-13 + 0j, 1.0 + 0j]).valuation()


# -- the integer form against naive GaussianRational operations --------------


def _int_form(d: int, re: list, im: list | None) -> Series:
    from frobode.series import _int_series

    return _int_series(d, list(re), None if im is None else list(im))


def _eager(d: int, re: list, im: list | None) -> Series:
    return Series([GaussianRational(Fraction(u, d), Fraction(im[k] if im else 0, d))
                   for k, u in enumerate(re)])


@st.composite
def integer_forms(draw, min_size=1):
    """(d, re, im) triples, often unreduced (a common factor in d and every
    numerator), real (im None, or a list of zeros) or complex, sparse,
    all-zero or of length 1; some numerators exceed 2^53."""
    n = draw(st.integers(min_size, 9))
    big = draw(st.booleans())
    num = (st.one_of(st.integers(2**53, 2**66), st.integers(-(2**66), -(2**53))) if big
           else st.integers(-12, 12))
    zero_or = lambda s: st.one_of(st.just(0), s)  # noqa: E731
    re = draw(st.lists(zero_or(num), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["real", "zeros", "complex"]))
    im = {"real": None, "zeros": [0] * n,
          "complex": draw(st.lists(zero_or(num), min_size=n, max_size=n))}[kind]
    g = draw(st.sampled_from([1, 1, 2, 6, 35]))
    d = draw(st.integers(1, 40)) * g
    re = [g * u for u in re]
    im = im and [g * v for v in im]
    return d, re, im


def _assert_reduced(s: Series):
    d, re, im = s._int
    assert d > 0 and math.gcd(d, *re, *(im or ())) == 1
    assert im is None or any(im)


def _assert_same(got: Series, want: Series):
    """Equal by repr to the eager series, with reduced Fractions, in integer form."""
    _assert_reduced(got)
    assert repr(got) == repr(want)
    assert [(c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator)
            for c in got.coeffs] == [(c.re.numerator, c.re.denominator,
                                      c.im.numerator, c.im.denominator) for c in want.coeffs]


def _naive_mul(a, b):
    n = min(len(a), len(b))
    return Series([sum((a[i] * b[k - i] for i in range(k + 1)), GaussianRational(0))
                   for k in range(n)])


def _naive_shift(cs, k):
    padded = [GaussianRational(0)] * max(k, 0) + list(cs[max(-k, 0):])
    return Series(padded, trunc=len(cs) - 1)


@settings(max_examples=150)
@given(integer_forms(), integer_forms(), small_exponents, st.integers(-4, 12))
def test_integer_form_operations_match_naive_gaussian_rationals(ta, tb, k, m):
    a, b = _int_form(*ta), _int_form(*tb)
    ea, eb = _eager(*ta).coeffs, _eager(*tb).coeffs
    _assert_same(a, Series(ea))
    _assert_same(a * b, _naive_mul(ea, eb))
    _assert_same(a + b, Series([x + y for x, y in zip(ea, eb)]))
    _assert_same(a - b, Series([x - y for x, y in zip(ea, eb)]))
    _assert_same(-a, Series([-x for x in ea]))
    _assert_same(a.scale(k), Series([k * x for x in ea]))
    _assert_same(a.scale(m), Series([m * x for x in ea]))
    if m >= 0:
        _assert_same(a.truncate(m), Series(ea, trunc=m))
    _assert_same(a.shift(m), _naive_shift(ea, m))
    assert a.valuation() == next((n for n, c in enumerate(ea) if c), None)
    assert a.trunc == len(ea) - 1


@settings(max_examples=150)
@given(integer_forms())
def test_integer_form_inverse_and_magnitude(t):
    a = _int_form(*t)
    cs = _eager(*t).coeffs
    # the parent's formula, bit for bit
    want = max(abs(to_complex(c)) for c in cs)
    got = a.magnitude()
    assert (got == want and repr(got) == repr(want))
    if cs[0]:
        inv = series_inverse(a)
        _assert_reduced(inv)
        assert _pairs(inv) == _naive_inverse(_pairs(Series(cs)))
    else:
        with pytest.raises(ZeroDivisionError):
            series_inverse(a)


def test_integer_form_magnitude_is_correctly_rounded():
    # float(u) / d rounds twice and misses float(Fraction(u, d)) here
    for d, re, im in ((3, [2**53 + 1], None), (14, [0, 218639182639853878], None),
                      (7, [1, 2**53 + 1], [2**53 + 1, -5])):
        want = max(abs(to_complex(c)) for c in _eager(d, re, im).coeffs)
        assert repr(_int_form(d, re, im).magnitude()) == repr(want)


@settings(max_examples=100)
@given(integer_forms(), small_exponents, st.integers(0, 2))
def test_integer_form_differentiate_matches_naive(t, rho, m):
    g = GeneralizedSeries([GSTerm(rho, m, _int_form(*t))], normalize=False)
    naive = _naive_differentiate(GeneralizedSeries([GSTerm(rho, m, _eager(*t))], normalize=False))
    got = gs_differentiate(g)
    assert repr(got) == repr(naive)
    for term in got.terms:
        _assert_reduced(term.body)


@settings(max_examples=60)
@given(integer_forms(), integer_forms())
def test_integer_form_coefficients_are_built_once(ta, tb):
    a = _int_form(*ta)
    first = a.coeffs
    assert a.coeffs is first
    assert repr(Series(first)) == repr(_eager(*ta))
    # arithmetic on a read series still reads and returns the integer form
    _assert_same(a * _int_form(*tb), _naive_mul(_eager(*ta).coeffs, _eager(*tb).coeffs))


def test_integer_form_stays_unmaterialized(monkeypatch):
    import frobode.series as series_mod

    a = _int_form(6, [3, 0, -2, 12], [0, 4, 0, 6])
    b = _int_form(35, [7, 5, 0, 0], None)
    c = Series([Fraction(1, 3), GaussianRational(0, 1), 2, 0])

    def refuse(*args):
        raise AssertionError("a coefficient was built from the integer form")

    monkeypatch.setattr(series_mod, "_gr", refuse)
    out = [a * b, a + b, a - b, -a, a.scale(GaussianRational(2, 1)), a.truncate(2),
           a.shift(2), a.shift(-1), series_inverse(b), c * a, c + a]
    g = GeneralizedSeries([GSTerm(GaussianRational(Fraction(1, 2)), 1, a),
                           GSTerm(GaussianRational(Fraction(3, 2)), 1, b)])
    out += [t.body for t in gs_differentiate(g).terms]
    assert a.valuation() == 0 and b.shift(-2).valuation() is None
    assert a.magnitude() > 0 and all(s._int for s in out)


def test_integer_form_with_float_operands_takes_the_float_path():
    a = _int_form(6, [3, 0, -2], [0, 4, 0])
    f = Series([0.5 + 0j, -0.0 + 0j, 2.0 - 1j])
    ea = _eager(6, [3, 0, -2], [0, 4, 0]).coeffs
    for got, want in (
        (a * f, Series([sum((ea[i] * f.coeffs[k - i] for i in range(k + 1)), GaussianRational(0))
                        for k in range(3)])),
        (f * a, Series([sum((f.coeffs[i] * ea[k - i] for i in range(k + 1)), GaussianRational(0))
                        for k in range(3)])),
        (a + f, Series([x + y for x, y in zip(ea, f.coeffs)])),
        (f - a, Series([y - x for x, y in zip(ea, f.coeffs)])),
        (a.scale(0.5 + 0j), Series([(0.5 + 0j) * x for x in ea])),
    ):
        assert all(isinstance(c, complex) for c in got.coeffs)
        assert repr(got) == repr(want)


@settings(max_examples=150)
@given(integer_forms(), st.integers(-4, 12), st.integers(0, 12))
def test_identity_views_share_the_form_and_other_views_are_reduced(t, lo, n):
    a, eager = _int_form(*t), _eager(*t)
    floats = Series([to_complex(c) for c in eager.coeffs])
    for s in (a, eager, floats):
        assert s.window(0, s.trunc + 1) is s and s.truncate(s.trunc) is s and s.shift(0) is s
    view = a.window(lo, n + 1)
    ea = eager.coeffs
    assert repr(view) == repr(Series([ea[k] if 0 <= k < len(ea) else GaussianRational(0)
                                      for k in range(lo, lo + n + 1)]))
    if view is not a:
        _assert_reduced(view)
    assert (view is a) == (lo == 0 and n == a.trunc)


def _loop_mul(a, b):
    """The product by a per-element loop: an exact entry meets a complex one as
    GaussianRational * complex, and an exact-zero entry of `a` adds no term."""
    n = min(len(a), len(b))
    out = [GaussianRational(0)] * n
    for i in range(n):
        if isinstance(a[i], GaussianRational) and not a[i]:
            continue
        for j in range(n - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


_signed_parts = st.sampled_from([0.0, -0.0, 1.5, -2.0, 0.1, -1e-320, 3e-310])


@settings(max_examples=200)
@given(integer_forms(), st.lists(st.builds(complex, _signed_parts, _signed_parts), min_size=1,
                                 max_size=9), st.integers(0, 4), st.integers(0, 4))
def test_mixed_products_match_the_per_element_loop(t, zs, lead, pad):
    d, re, im = t  # with a leading run of `lead` exact zeros
    exact = _int_form(d, [0] * lead + re, im and [0] * lead + im)
    body, padded = Series(zs), Series(zs, trunc=len(zs) - 1 + pad)
    for a, b in ((exact, body), (body, exact), (exact, padded), (padded, exact), (body, padded)):
        got, want = (a * b).coeffs, _loop_mul(a.coeffs, b.coeffs)
        assert [(type(c), repr(c)) for c in got] == [(type(c), repr(c)) for c in want]


@settings(max_examples=100)
@given(integer_forms(), st.randoms(use_true_random=False))
def test_int_series_reduces_alike_whatever_the_order_of_entries(t, rnd):
    from frobode.series import _int_series

    d, re, im = t
    perm = list(range(len(re)))
    rnd.shuffle(perm)
    dd, rr, ii = _int_series(d, list(re), im and list(im))._int
    got = _int_series(d, [re[k] for k in perm], im and [im[k] for k in perm])._int
    assert got == (dd, [rr[k] for k in perm], ii and [ii[k] for k in perm])


def _two_pass_normalize(terms):
    """The earlier `_normalize_terms`: representatives chosen in one pass over
    the terms, every term matched against them again in a second."""
    from frobode.scalars import integer_difference, structural_zero
    from frobode.series import EXP_TOL

    scale = max(1.0, max(t.body.magnitude() for t in terms))
    reps = []
    for t in terms:
        for i, r in enumerate(reps):
            k = integer_difference(t.exponent, r, EXP_TOL)
            if k is not None:
                if k < 0:
                    reps[i] = t.exponent
                break
        else:
            reps.append(t.exponent)
    merged, rep_of = {}, {}
    trunc = min(t.body.trunc for t in terms)
    for t in terms:
        for i, r in enumerate(reps):
            k = integer_difference(t.exponent, r, EXP_TOL)
            if k is not None:
                body = t.body.truncate(trunc).shift(k)
                key = (i, t.logpow)
                merged[key] = merged[key] + body if key in merged else body
                rep_of.setdefault(key, r)
                break
    out = []
    for key in sorted(merged, key=lambda k: (to_complex(rep_of[k]).real,
                                             to_complex(rep_of[k]).imag, k[1])):
        body, rho = merged[key], rep_of[key]
        if body.is_zero(scale):
            continue
        v = next(n for n, c in enumerate(body.coeffs) if not structural_zero(c))
        if v:
            body, rho = Series(body.coeffs[v:]), rho + v
        out.append(GSTerm(rho, key[1], body))
    return tuple(out)


@settings(max_examples=150)
@given(st.lists(
    st.builds(GSTerm,
              st.sampled_from([0.5 + 0j, 1.5 + 0j, -0.5 + 0j, 1.5 + 2e-10j, 2.5 - 3e-10 + 0j,
                               0.25 + 1j, 2.25 + 1j, GaussianRational(Fraction(1, 2)),
                               GaussianRational(Fraction(5, 2))]),
              st.integers(0, 1),
              st.lists(st.sampled_from([0j, -0.0 + 0j, 1.5 + 0j, -2.0 + 0.25j, 1e-14 + 0j,
                                        GaussianRational(0), GaussianRational(3)]),
                       min_size=1, max_size=6).map(Series)),
    min_size=1, max_size=6))
def test_float_normalization_matches_the_two_pass_merge(terms):
    assert repr(GeneralizedSeries(terms).terms) == repr(_two_pass_normalize(tuple(terms)))
