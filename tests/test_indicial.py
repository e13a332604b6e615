"""Indicial polynomials, exact roots and exceptional-case tags."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobode.indicial import (
    _ordered,
    CaseTag,
    analyze,
    classify_case,
    congruence_classes,
    indicial_polynomial,
    integer_difference,
    solve_roots,
)
from frobode.ode import Ode, to_frobenius_form
from frobode.scalars import (NEWTON_TOL, GaussianRational, poly_derivative, poly_eval, poly_mul,
                             to_complex)


def _form(rows, trunc=10):
    return to_frobenius_form(Ode.from_rows(rows, trunc=trunc))


def test_polynomial_with_complex_roots():
    # x^3 y''' + x^2 y'' + x y' + x^3 y: q(r) = r(r^2 - 2r + 2)
    f = _form([[0, 0, 0, 1], [0, 0, 1], [0, 1], [0, 0, 0, 1]])
    ind = analyze(f)
    assert [str(c) for c in ind.poly] == ["0", "2", "-2", "1"]
    assert ind.exact
    assert ind.roots == (
        GaussianRational(1, 1),
        GaussianRational(1, -1),
        GaussianRational(0),
    )
    assert ind.case.tag == "non_exceptional"


def test_triple_root():
    # x^3 y''' + 3x^2 y'' + x y' + x^3 y: q(r) = r^3
    f = _form([[0, 0, 0, 1], [0, 0, 3], [0, 1], [0, 0, 0, 1]])
    ind = analyze(f)
    assert ind.roots == (GaussianRational(0),) * 3
    assert ind.case.tag == "case_i"


def test_double_root_above_integer_gap():
    # x^3 y''' + x^2 y'' + x^2 y' + x y: roots 1, 1, 0
    f = _form([[0, 0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 1]])
    ind = analyze(f)
    assert ind.roots == (GaussianRational(1), GaussianRational(1), GaussianRational(0))
    assert str(ind.case) == "case_ii(1)"


def test_two_integer_gaps():
    # x^3 y''' + x^3 y'' + x^2 y' - x y: q(r) = r(r-1)(r-2)
    f = _form([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1], [0, -1]])
    ind = analyze(f)
    assert ind.roots == (GaussianRational(2), GaussianRational(1), GaussianRational(0))
    assert str(ind.case) == "case_iv(1, 1)"


def test_order2_cases():
    assert classify_case([GaussianRational(2), GaussianRational(2)]).tag == "o2_equal"
    assert str(classify_case([GaussianRational(3), GaussianRational(1)])) == "o2_integer_diff(2)"
    half = GaussianRational(Fraction(1, 2))
    assert classify_case([half, GaussianRational(0)]).tag == "non_exceptional"


def test_case_iii_and_mixed():
    r = GaussianRational
    assert str(classify_case([r(2), r(0), r(0)])) == "case_iii(2)"
    assert classify_case([r(1), r(1), half_i()]).tag == "mixed"


def _ladder(roots):
    """The case tag from the integer gaps of the root pairs (r1, r2),
    (r2, r3) and (r1, r3), the way `classify_case` once decided it: an
    oracle for the tag that `classify_case` reads from the congruence
    classes."""
    if len(roots) == 2:
        d = integer_difference(roots[0], roots[1])
        if d == 0:
            return CaseTag("o2_equal")
        if d is not None and d > 0:
            return CaseTag("o2_integer_diff", m=d)
        return CaseTag("non_exceptional")
    r1, r2, r3 = roots
    d12 = integer_difference(r1, r2)
    d23 = integer_difference(r2, r3)
    d13 = integer_difference(r1, r3)
    if d12 == 0 and d23 == 0:
        return CaseTag("case_i")
    if d12 == 0 and d23 is not None and d23 > 0:
        return CaseTag("case_ii", m=d23)
    if d23 == 0 and d12 is not None and d12 > 0:
        return CaseTag("case_iii", m=d12)
    if d12 is not None and d12 > 0 and d23 is not None and d23 > 0:
        return CaseTag("case_iv", m=d12, p=d23)
    if d12 == 0:
        return CaseTag("mixed", detail="r1=r2, r3 non-congruent")
    if d23 == 0:
        return CaseTag("mixed", detail="r2=r3, r1 non-congruent")
    if d12 is not None and d12 > 0:
        return CaseTag("mixed", m=d12, detail="r1-r2 integer, r3 non-congruent")
    if d23 is not None and d23 > 0:
        return CaseTag("mixed", m=d23, detail="r2-r3 integer, r1 non-congruent")
    if d13 is not None and d13 > 0:
        return CaseTag("mixed", m=d13, detail="r1-r3 integer, r2 non-congruent")
    return CaseTag("non_exceptional")


_PART = st.fractions(-3, 3, max_denominator=4)


@st.composite
def _exact_roots(draw):
    """Two or three Gaussian-rational roots, each after the first equal to
    an earlier one, an integer 1 to 3 away from one, or drawn afresh; in the
    order of `solve_roots`."""
    roots = [GaussianRational(draw(_PART), draw(_PART))]
    for _ in range(draw(st.integers(1, 2))):
        prev = draw(st.sampled_from(roots))
        how = draw(st.sampled_from(["equal", "gap", "fresh"]))
        if how == "equal":
            roots.append(prev)
        elif how == "gap":
            roots.append(prev + draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
        else:
            roots.append(GaussianRational(draw(_PART), draw(_PART)))
    return list(_ordered(roots))


@settings(max_examples=300)
@given(_exact_roots())
def test_case_tag_from_the_classes_matches_the_pairwise_ladder(roots):
    assert classify_case(roots) == _ladder(roots)


def half_i():
    return GaussianRational(Fraction(1, 2), Fraction(1, 2))


def test_root_ordering_breaks_ties_by_imaginary_part():
    roots, exact = solve_roots(
        [GaussianRational(4), GaussianRational(0), GaussianRational(1)]
    )  # r^2 + 4 = 0
    assert exact
    assert roots == (GaussianRational(0, 2), GaussianRational(0, -2))
    assert to_complex(roots[0]).imag > to_complex(roots[1]).imag


def test_integer_difference():
    assert integer_difference(GaussianRational(3), GaussianRational(1)) == 2
    assert integer_difference(GaussianRational(1, 1), GaussianRational(0, 1)) == 1
    assert integer_difference(GaussianRational(1, 1), GaussianRational(0)) is None
    assert integer_difference(2.0000000001 + 0j, 1.0 + 0j) == 1


def test_root_order_is_total_at_the_integer_tolerance():
    """Three float roots whose real parts lie 8e-9, 1.0e-8 and 2.7e-9 apart,
    two of them near-equal: every input order gives one output order, the
    exact roots' order (1/2, 1/2, 1/2 - i), with the near-equal pair adjacent."""
    roots = (0.5000000000542526 - 3.7e-11j, 0.5000000080175202 - 0.99999990619957j,
             0.4999999977872904 + 5.7e-10j)
    orders = {_ordered(p) for p in itertools.permutations(roots)}
    assert len(orders) == 1
    (order,) = orders
    assert classify_case(order) == CaseTag("mixed", detail="r1=r2, r3 non-congruent")


def test_near_equal_float_triples_are_one_member():
    """Three float roots within 1e-8 of 1/2, each within INT_TOL of the top
    one, are one group of equal roots, and `_classes` merges by those groups:
    every such draw reads case_i, one member of multiplicity 3.  Merging by
    the gap from a member's first root alone read 836 of them as mixed."""
    rnd, n = random.Random(2), 0
    for _ in range(20000):
        roots = [complex(0.5 + rnd.uniform(-1e-8, 1e-8), rnd.uniform(-1e-8, 1e-8)) for _ in range(3)]
        top = max(roots, key=lambda r: r.real)
        if all(integer_difference(r, top) == 0 for r in roots):
            n += 1
            order = _ordered(roots)
            assert classify_case(order) == CaseTag("case_i")
            assert [[(m, k) for _, m, k in cls] for cls in congruence_classes(order)] == [[(3, 0)]]
    assert n == 5788


def _exact_classes(roots):
    """The classes of exact roots, where an integer difference is an equivalence:
    (value, multiplicity, offset from the class's first root), in root order."""
    classes = []
    for r in roots:
        cls = next((c for c in classes if integer_difference(r, c[0][0]) is not None), None)
        if cls is None:
            classes.append([[r, 1, 0]])
        elif cls[-1][0] == r:
            cls[-1][1] += 1
        else:
            cls.append([r, 1, integer_difference(r, cls[0][0])])
    return [[tuple(m) for m in cls] for cls in classes]


@settings(max_examples=300)
@given(_exact_roots())
def test_exact_classes_are_the_equal_roots_and_integer_gaps(roots):
    assert congruence_classes(roots) == _exact_classes(roots)


def test_congruence_classes_group_and_merge():
    r = GaussianRational
    classes = congruence_classes([r(2), r(1, 1), r(0), r(0, 1)])
    assert len(classes) == 2
    first = classes[0]
    assert first[0] == (r(2), 1, 0) and first[1] == (r(0), 1, -2)


@settings(max_examples=60)
@given(
    st.lists(
        st.complex_numbers(
            min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False
        ),
        min_size=3,
        max_size=3,
    )
)
def test_float_roots_reconstruct_polynomial(rs):
    """solve_roots on the expanded monic cubic recovers the roots."""
    c0 = -rs[0] * rs[1] * rs[2]
    c1 = rs[0] * rs[1] + rs[0] * rs[2] + rs[1] * rs[2]
    c2 = -(rs[0] + rs[1] + rs[2])
    got, _ = solve_roots([c0, c1, c2, 1.0 + 0j])
    for z in rs:
        # repeated float roots are only recoverable to ~eps^(1/multiplicity)
        assert min(abs(to_complex(g) - z) for g in got) < 1e-4


def test_exact_rational_roots():
    # (r - 1/2)(r + 2)(r - 3) = r^3 - 3/2 r^2 - 11/2 r + 3
    poly = [
        GaussianRational(Fraction(3)),
        GaussianRational(Fraction(-11, 2)),
        GaussianRational(Fraction(-3, 2)),
        GaussianRational(1),
    ]
    roots, exact = solve_roots(poly)
    assert exact
    assert set(str(r) for r in roots) == {"3", "1/2", "-2"}


def _monic_cubic(rs):
    a, b, c = (Fraction(r) for r in rs)
    return [GaussianRational(v) for v in (-a * b * c, a * b + a * c + b * c, -(a + b + c), 1)]


@pytest.mark.parametrize(
    "rs",
    [
        ("1/1000000007", "2/1000000009", "-3/1000000021"),
        ("1/4", "1/4", "1/4"),
        ("1/4", "1/4", "0"),
        ("1/4", "1/4", "5/3"),
        ("7/3", "-7/3", "1/1000000000039"),
    ],
)
def test_exact_roots_with_large_denominators_and_repeats(rs):
    # trial division over the divisors of c_0 took longer than 8 s on the
    # first cubic; repeated roots come from the exact discriminant
    t0 = time.perf_counter()
    roots, exact = solve_roots(_monic_cubic(rs))
    assert time.perf_counter() - t0 < 1.0
    assert exact
    assert sorted(roots, key=str) == sorted((GaussianRational(Fraction(r)) for r in rs), key=str)


def test_irrational_cubic_falls_back_to_float_roots():
    # r^3 - 2 and r^3 + r/3 + 1/(10^10 + 7) have no rational root
    for poly in ([-2, 0, 0, 1], [Fraction(1, 10**10 + 7), Fraction(1, 3), 0, 1]):
        roots, exact = solve_roots([GaussianRational(c) for c in poly])
        assert not exact
        for r in roots:
            assert abs(sum(complex(c) * to_complex(r) ** k for k, c in enumerate(poly))) < 1e-9


def test_rational_root_beside_an_irrational_pair_stays_exact():
    # (r - 1)(r^2 - 2): the rational root is kept, the float roots are those of r^2 - 2 only
    roots, exact = solve_roots([GaussianRational(c) for c in (2, -2, -1, 1)])
    assert not exact
    assert roots[1] == GaussianRational(1) and str(roots[1]) == "1"
    assert abs(roots[0] - 2 ** 0.5) < 1e-15 and abs(roots[2] + 2 ** 0.5) < 1e-15


def test_gaussian_roots_of_a_complex_cubic_are_exact():
    # (r - i)(r - 1 - i)(r - 2) = r^3 - (3 + 2i) r^2 + (1 + 5i) r + 2 - 2i
    g = GaussianRational
    roots, exact = solve_roots([g(2, -2), g(1, 5), g(-3, -2), g(1)])
    assert exact
    assert roots == (g(2), g(1, 1), g(0, 1))


def test_exact_repeated_gaussian_roots():
    # (r - i)^2 (r + 1 - i) = r^3 + (1 - 3i) r^2 - (3 + 2i) r - 1 + i
    g = GaussianRational
    roots, exact = solve_roots([g(-1, 1), g(-3, -2), g(1, -3), g(1)])
    assert exact
    assert roots == (g(0, 1), g(0, 1), g(-1, 1))


def test_float_dyadic_double_root_is_exact():
    # r^2 + r + 1/4 (x^2 y'' + 2x y' + y/4) and r^3 - 3r^2 + 4 = (r - 2)^2 (r + 1)
    assert solve_roots([0.25 + 0j, 1 + 0j, 1 + 0j]) == ((-0.5, -0.5), False)
    assert solve_roots([4 + 0j, 0j, -3 + 0j, 1 + 0j]) == ((2.0, 2.0, -1.0), False)


def _oracle_roots(poly):
    """The roots of a polynomial (low power first) to 50 digits, by mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return mpmath.polyroots([mpmath.mpc(c) for c in reversed(poly)], maxsteps=200,
                                extraprec=200)


def test_non_dyadic_float_cluster_roots_are_near_the_oracle():
    """A near-triple root whose float coefficients are not those of a
    repeated root: the exact discriminant is not zero, and the three float
    roots lie within 5e-8 of the 50-digit roots (numpy's companion-matrix
    roots, after the same two Newton steps, are up to 3.8e-8 off them)."""
    poly = [0.015624999999999997, 0.1875000000000009, 0.7499999999999991, 1]
    roots, exact = solve_roots(poly)
    assert not exact
    assert len(set(roots)) == 3
    want = _oracle_roots(poly)
    assert all(min(abs(w - r) for w in want) <= 5e-8 for r in roots)


def test_float_roots_of_random_cubics_are_the_companion_matrix_roots():
    """On 3,000 random monic cubics, real and complex, each root is within 4
    ulp x max(1, |r|) of a root of numpy's companion matrix after the same
    two Newton steps, or nearer than it to the 50-digit root."""
    np = pytest.importorskip("numpy")
    rng = random.Random(27)
    for k in range(3000):
        poly = [complex(rng.uniform(-1, 1), k % 2 and rng.uniform(-1, 1)) for _ in range(3)]
        poly.append(1 + 0j)
        roots, exact = solve_roots(poly)
        assert not exact
        dp, ref = poly_derivative(poly), []
        for z in map(complex, np.roots(poly[::-1])):
            for _ in range(2):
                if abs(d := poly_eval(dp, z)) > NEWTON_TOL:
                    z -= poly_eval(poly, z) / d
            ref.append(z)
        for r in roots:
            w = min(ref, key=lambda w: abs(w - r))
            if abs(w - r) > 4 * math.ulp(1.0) * max(1.0, abs(w)):
                true = min(_oracle_roots(poly), key=lambda t: abs(t - r))
                assert abs(true - r) <= abs(true - w), (poly, r, w)


_GAUSS = st.builds(GaussianRational, st.fractions(-4, 4, max_denominator=12),
                   st.fractions(-4, 4, max_denominator=12))


@settings(max_examples=60)
@given(_GAUSS, _GAUSS)
def test_exact_cubic_with_a_repeated_gaussian_root_comes_back_exactly(d, s):
    one = GaussianRational(1)
    poly = poly_mul(poly_mul([-d, one], [-d, one]), [-s, one])
    roots, exact = solve_roots(poly)
    assert exact
    assert sorted(roots, key=repr) == sorted([d, d, s], key=repr)


_RAT = st.fractions(-10**6, 10**6, max_denominator=10**6)
_Q_I = st.builds(GaussianRational, _RAT, st.one_of(st.just(0), _RAT))
_SMALL = st.builds(GaussianRational, _PART, st.one_of(st.just(0), _PART))


@st.composite
def _exact_cubics(draw):
    """Monic cubics over Q(i), low power first: three planted roots, two of
    them 10^-12 apart or not, a planted root times a random quadratic, or
    random coefficients."""
    one = GaussianRational(1)
    kind = draw(st.sampled_from(["planted", "cluster", "quadratic", "random"]))
    if kind == "random":
        return [draw(_SMALL) for _ in range(3)] + [one]
    r = draw(_Q_I)
    if kind == "quadratic":
        rest = [draw(_SMALL), draw(_SMALL), one]
    else:
        s = r + Fraction(1, 10**12) * draw(st.sampled_from([one, GaussianRational(0, 1)]))
        rest = poly_mul([-(s if kind == "cluster" else draw(_Q_I)), one], [-draw(_Q_I), one])
    return poly_mul([-r, one], rest)


@settings(max_examples=100, deadline=None)
@given(_exact_cubics())
def test_exact_roots_are_those_that_sympy_finds_in_q_i(poly):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def sym(c):
        return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator)

    want = []
    for f, k in sympy.factor_list(sum(sym(c) * x**n for n, c in enumerate(poly)), x,
                                  extension=sympy.I)[1]:
        if sympy.degree(f, x) == 1:
            a, b = sympy.Poly(f, x).all_coeffs()
            re, im = (Fraction(int(v.p), int(v.q)) for v in sympy.expand(-b / a).as_real_imag())
            want += [GaussianRational(re, im)] * k
    roots, exact = solve_roots(poly)
    got = [r for r in roots if isinstance(r, GaussianRational)]
    assert sorted(got, key=repr) == sorted(want, key=repr)
    assert exact == (len(want) == 3)
