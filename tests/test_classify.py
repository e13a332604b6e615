"""Singular-point classification and Euler-pattern detection."""

from hypothesis import given, settings, strategies as st

from frobode.classify import classify_infinity, classify_point, euler_characterize
from frobode.ode import Ode
from frobode.scalars import GaussianRational
from frobode.series import Series, series_div


def test_ordinary_point():
    e = Ode.from_rows([[1], [0], [1]], trunc=8)
    assert classify_point(e).tag == "ordinary"


def test_regular_singular_point():
    e = Ode.from_rows([[0, 0, 1], [0, 2], [1]], trunc=8)
    assert classify_point(e).tag == "regular_singular"


def test_irregular_examples():
    # x^3 y'' - x^2 y' - y and x^3 y'' - x y' - y
    e1 = Ode.from_rows([[0, 0, 0, 1], [0, 0, -1], [-1]], trunc=8)
    e2 = Ode.from_rows([[0, 0, 0, 1], [0, -1], [-1]], trunc=8)
    assert classify_point(e1).tag == "irregular_singular"
    assert classify_point(e2).tag == "irregular_singular"
    # x^2 y'' - y' - y/2
    e3 = Ode.from_rows([[0, 0, 1], [-1], ["-1/2"]], trunc=8)
    assert classify_point(e3).tag == "irregular_singular"


def test_third_order_irregular_example():
    e = Ode.from_rows([[0, 0, 0, 1], [0, 0, -1], [-1], [["-1/2", "0"]]], trunc=8)
    assert classify_point(e).tag == "irregular_singular"
    assert classify_infinity(e).tag == "regular_singular"


def test_euler_regular_at_both_ends():
    e = Ode.from_rows([[0, 0, 1], [0, 2], [1]], trunc=8)
    assert classify_point(e).tag == "regular_singular"
    assert classify_infinity(e).tag == "regular_singular"
    flags = euler_characterize(e)
    assert flags["is_euler"]
    e3 = Ode.from_rows([[0, 0, 0, 2], [0, 0, 1], [0, -1], [3]], trunc=8)
    assert euler_characterize(e3)["is_euler"]


def test_non_euler_pattern():
    e = Ode.from_rows([[0, 0, 1], [0, 2, 1], [1]], trunc=8)
    assert not euler_characterize(e)["is_euler"]


def test_both_ends_regular_window():
    # a = x(1 - x): deg a = k + 2 with k = 0; b, c within the window
    e = Ode.from_rows([[0, 1, -1], [2], [0]], trunc=8)
    flags = euler_characterize(e)
    assert flags["both_ends_regular"]
    assert flags["pattern_k"] == 0
    assert classify_point(e).tag == "regular_singular"
    assert classify_infinity(e).tag in ("regular_singular", "ordinary")


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=7))
def test_classification_invariant_under_row_scaling(k):
    """Multiplying every row by the same nonzero constant changes nothing."""
    e = Ode.from_rows([[0, 0, 1], [0, 1, 2], [3, 1]], trunc=8)
    scaled = Ode(
        2,
        tuple(r.scale(GaussianRational(k)) for r in e.coeffs),
        GaussianRational(0),
        None,
    )
    assert classify_point(e).tag == classify_point(scaled).tag
    assert euler_characterize(e) == euler_characterize(scaled)


def _laurent_ratio(num, den):
    """num/den as x^shift times a unit series, through the order both know."""
    vn, vd = num.valuation(), den.valuation()
    if vn is None:
        return 0, Series([0], trunc=num.trunc)
    v = max(vn, vd)
    return vn - vd, series_div(num.window(vn, num.trunc + 1 - v), den.window(vd, den.trunc + 1 - v))


def _classify_by_laurent_ratio(e):
    """The pole orders measured on the quotients A_i / A_lead themselves."""
    lead = e.coeffs[0]
    orders = {}
    for i, row in enumerate(e.coeffs[1:], start=1):
        shift, unit = _laurent_ratio(row, lead)
        assert unit.valuation() in (None, 0)
        orders[i] = None if unit.valuation() is None else -shift
    if all(o is None or o <= 0 for o in orders.values()):
        tag = "ordinary" if lead.valuation() == 0 else "regular_singular"
    elif all(o is None or o <= i for i, o in orders.items()):
        tag = "regular_singular"
    else:
        tag = "irregular_singular"
    return tag, {f"ratio_{i}": o for i, o in orders.items()}


_FRACTION = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def _exact_rows(draw):
    order = draw(st.sampled_from([2, 3]))
    rows = []
    for i in range(order + 1):
        if i and draw(st.booleans()) and draw(st.booleans()):
            rows.append([0])  # a zero row
            continue
        v = draw(st.integers(0, 4))
        head = draw(_FRACTION.filter(bool))
        tail = draw(st.lists(_FRACTION, max_size=3))
        rows.append([0] * v + [head] + tail)
    return Ode.from_rows(rows, trunc=8)


@settings(max_examples=60, deadline=None)
@given(_exact_rows())
def test_pole_orders_from_valuations_match_the_laurent_quotients(e):
    got = classify_point(e)
    assert (got.tag, got.witness) == _classify_by_laurent_ratio(e)
