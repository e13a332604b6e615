"""The Moebius pullback of orders 2 and 3, and the chart at infinity as its
inversion case."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from frobode.classify import classify_infinity
from frobode.ode import Ode, moebius_pullback, poly_degree, transform_to_infinity
from frobode.riccati import riccati_model
from frobode.scalars import GaussianRational, scalar_is_zero, to_complex
from frobode.series import Series

_G = GaussianRational
# x y'' + 2 y' = 0, solved by 1/x; its point at infinity is ordinary
_INVERSE = [[0, 1], [2], [0]]

_EQUATIONS = [
    _INVERSE,
    [[Fraction(1, 2), -3, 1], [-1, 2], [Fraction(1, 3), 1]],
    [[0, 1, 0, 1], [-2, 0, 1], [0, 1], [Fraction(1, 2), 1]],
    [[1, 0, -1], [0, 3], [2, 0, 1], [-1]],
]
_MAPS = [
    (0, 1, 1, 0),  # det -1: the inversion
    (1, 2, 1, 1),  # det -1
    (2, 0, 0, 1),  # det 2
    (1, 1, -1, 1),  # det 2
    (1, Fraction(1, 2), 1, 1),  # det 1/2
    (_G(1, 1), 2, 1, _G(0, 1)),  # complex, det -3 + i
]


@pytest.mark.parametrize("rows", _EQUATIONS, ids=["o2-inverse", "o2", "o3", "o3-even"])
@pytest.mark.parametrize("mmap", _MAPS, ids=["inv", "det-1", "scale2", "det2", "det1/2", "complex"])
def test_pullback_is_the_operator_times_a_common_factor(rows, mmap):
    sympy = pytest.importorskip("sympy")
    x, w = sympy.symbols("x w")

    def sym(c):
        c = c if isinstance(c, GaussianRational) else _G(c)
        return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator)

    def operator(coeffs, f, var):
        n = len(coeffs) - 1
        return sum(sum(sym(c) * var**k for k, c in enumerate(row)) * sympy.diff(f, var, n - i)
                   for i, row in enumerate(coeffs))

    e = Ode.from_rows(rows, trunc=8)
    pulled = moebius_pullback(e, mmap)
    assert pulled.order == e.order
    a, b, c, d = map(sym, mmap)
    z = (a * w + b) / (c * w + d)
    new_rows = [r.coeffs[: poly_degree(r) + 1] for r in pulled.coeffs]
    pulled_side, given_side = [], []
    for g in (x**3 + 2 * x + 5, x**4 - x + 3):
        pulled_side.append(operator(new_rows, g.subs(x, z), w))
        given_side.append(operator(rows, g, x).subs(x, z))
        assert sympy.expand(sympy.numer(sympy.together(given_side[-1]))) != 0
    # the two ratios pulled / given agree: their cross difference vanishes
    cross = pulled_side[0] * given_side[1] - pulled_side[1] * given_side[0]
    assert sympy.expand(sympy.numer(sympy.together(cross))) == 0


def test_pullback_along_a_scaling_keeps_the_solution():
    # along z = 2w the solution 1/z = 1/(2w) is a multiple of 1/w
    p = moebius_pullback(Ode.from_rows(_INVERSE, trunc=6), (2, 0, 0, 1))
    for wv in (Fraction(1, 3), Fraction(5, 2)):
        a, b, c = (sum(co * wv**k for k, co in enumerate(r.coeffs)) for r in p.coeffs)
        assert not a * 2 / wv**3 - b / wv**2 + c / wv


def test_ordinary_point_at_infinity_is_reported_ordinary():
    e = Ode.from_rows(_INVERSE, trunc=8)
    w = transform_to_infinity(e)
    assert [str(r[0]) for r in w.coeffs] == ["1", "0", "0"]
    assert classify_infinity(e).tag == "ordinary"
    assert "infinity" not in riccati_model(e).ramification


def test_pullback_of_a_non_homogeneous_equation_is_refused():
    e = Ode.from_rows([[1, 0, 1], [0, 1], [1]], rhs=[1, 1], trunc=6)
    with pytest.raises(ValueError):
        moebius_pullback(e, (1, 1, 0, 1))
    with pytest.raises(ValueError):
        transform_to_infinity(e)


def _reference_infinity(e: Ode) -> list:
    """The x = 1/t transform on Laurent rows as dicts, both derivative stacks
    written out: y' = -t^2 w', y'' = t^4 w'' + 2 t^3 w',
    y''' = -t^6 w''' - 6 t^5 w'' - 6 t^4 w'.  Returns the coefficient lists;
    negligible float entries are exact zeros, and a row with a float entry
    is a float row, whose zeros are 0j."""
    rows = e.coeffs
    zero = _G(0)

    def laurent(row, tpow, factor):
        out = {}
        scale = row.magnitude()
        for j, c in enumerate(row.coeffs):
            if scalar_is_zero(c, scale):
                continue
            p = tpow - j
            out[p] = out.get(p, zero) + factor * c
        return out

    def merge(*ds):
        out = {}
        for d in ds:
            for p, c in d.items():
                out[p] = out.get(p, zero) + c
        return out

    one, m1 = _G(1), _G(-1)
    if e.order == 3:
        a, b, c, d = rows
        new = [laurent(a, 6, one),
               merge(laurent(a, 5, _G(6)), laurent(b, 4, m1)),
               merge(laurent(a, 4, _G(6)), laurent(b, 3, _G(-2)), laurent(c, 2, one)),
               laurent(d, 0, m1)]
    else:
        a, b, c = rows
        new = [laurent(a, 4, one),
               merge(laurent(a, 3, _G(2)), laurent(b, 2, m1)),
               laurent(c, 0, one)]
    lo = min((min(d) for d in new if d), default=0)
    hi = max((max(d) for d in new if d), default=0)
    scale = max((abs(to_complex(v)) for d in new for v in d.values()), default=1.0)
    out = []
    for d in new:
        coeffs = [zero] * (hi - lo + 1)
        for p, v in d.items():
            if not scalar_is_zero(v, scale):
                coeffs[p - lo] = v
        out.append([to_complex(v) for v in coeffs] if any(isinstance(v, complex) for v in coeffs)
                   else coeffs)
    return out


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


_entry = st.one_of(st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=4))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.lists(_entry, min_size=1, max_size=6), min_size=n + 1, max_size=n + 1)),
    st.booleans(), st.sampled_from([6, 8, 12]))
@example(_INVERSE, True, 8)
@example(_INVERSE, False, 8)
@example([[0, 0], [Fraction(3)], [0], [0]], False, 6)  # a float row with an exact-zero gap
def test_infinity_matches_the_laurent_reference(rows, exact, N):
    if not any(rows[0]):
        rows[0][-1] = 1
    conv = (lambda c: _G(c)) if exact else (lambda c: complex(float(c)))
    e = Ode(len(rows) - 1, tuple(Series([conv(c) for c in r], trunc=N) for r in rows))
    ref = _reference_infinity(e)
    got = transform_to_infinity(e)
    assert got.chart == "infinity"
    # the reference lifts by the lowest power met, even where its terms cancelled
    k = min(next((i for i, c in enumerate(r) if c), len(r)) for r in ref)
    if k == 0:
        T = len(ref[0]) - 1
        assert [repr(r) for r in got.coeffs] == [repr(Series(r, trunc=max(T, N))) for r in ref]
    else:
        assert [repr(_trimmed(r.coeffs)) for r in got.coeffs] == [repr(_trimmed(r[k:])) for r in ref]
