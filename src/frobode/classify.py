"""Singular-point taxonomy and Euler/both-ends-regular detection."""

from __future__ import annotations

from dataclasses import dataclass

from .ode import Ode, poly_degree, transform_to_infinity
from .scalars import scalar_is_zero

__all__ = ["SingularityClass", "classify_point", "classify_infinity", "euler_characterize"]

ORDINARY = "ordinary"
REGULAR_SINGULAR = "regular_singular"
IRREGULAR_SINGULAR = "irregular_singular"


@dataclass(frozen=True)
class SingularityClass:
    tag: str
    witness: dict  # pole orders of the coefficient ratios, highest derivative first
    decided_through: int  # truncation order the decision is based on

    def __str__(self) -> str:
        return self.tag


def classify_point(e: Ode) -> SingularityClass:
    """Classify the chart origin of e as ordinary / regular / irregular singular.

    Pole orders of the ratios A_i / A_lead are differences of valuations, so
    leading rows like x^k * unit are fine.
    """
    vlead = e.coeffs[0].valuation()
    if vlead is None:
        raise ValueError("leading coefficient identically zero through trunc")
    # ratio of the coefficient of y^(order-i) must have pole order <= i; its pole
    # order is v(A_lead) - v(A_i) (negative means a zero), None for a zero row
    orders = {i: None if (v := row.valuation()) is None else vlead - v
              for i, row in enumerate(e.coeffs[1:], start=1)}
    if any(o is not None and o > i for i, o in orders.items()):
        tag = IRREGULAR_SINGULAR  # Fuchs' criterion fails: deg P_0 < order
    else:  # a unit leading row leaves every ratio analytic
        tag = ORDINARY if vlead == 0 else REGULAR_SINGULAR
    return SingularityClass(tag, {f"ratio_{i}": o for i, o in orders.items()}, e.trunc)


def classify_infinity(e: Ode) -> SingularityClass:
    """Classification at infinity via the x = 1/t transform."""
    return classify_point(transform_to_infinity(e))


def euler_characterize(e: Ode) -> dict:
    """Euler-pattern and both-ends-regular degree-window detection.

    is_euler: rows match const * x^(order), const * x^(order-1), ..., const.
    both_ends_regular: the degree windows of the paper's characterization,
    with the extreme coefficients nonzero; reports the window parameter k.
    """
    rows = e.coeffs
    n = e.order
    scale = max(1.0, max(r.magnitude() for r in rows))

    def entry(row, j):
        c = row[j]
        return not scalar_is_zero(c, scale)

    # Euler: row i (coefficient of y^(n-i)) = const * x^(n-i), leading const nonzero
    is_euler = entry(rows[0], n)
    for i, row in enumerate(rows):
        want = n - i
        for j in range(row.trunc + 1):
            if j != want and entry(row, j):
                is_euler = False
    # both-ends-regular degree window
    both = False
    pattern_k = None
    a = rows[0]
    if not entry(a, 0) and entry(a, 1):
        k = poly_degree(a) - n  # deg a = k + n  (n=2: k+2, n=3: k+3)
        if k >= 0 and entry(a, k + n):
            ok = True
            for i, row in enumerate(rows[1:], start=1):
                # coefficient of y^(n-i) may have degree at most k + n - i
                if poly_degree(row) > k + n - i and row.valuation() is not None:
                    ok = False
            if ok:
                both = True
                pattern_k = k
    return {"is_euler": is_euler, "both_ends_regular": both, "pattern_k": pattern_k}
