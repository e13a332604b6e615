"""Non-homogeneous machinery: variation of parameters, reduction of order,
and completing a fundamental system from two known solutions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frobenius import (FundamentalSystem, residual, residual_valuation, wronskian,
                        wronskian_of_system, wronskian_ode_solution)
from .ode import Ode
from .scalars import GaussianRational, integer_difference
from .series import (
    GeneralizedSeries,
    Series,
    gs_differentiate,
    gs_div_single,
    gs_from_series,
    gs_integrate,
)

__all__ = [
    "ParticularSolution",
    "variation_of_parameters",
    "reduce_order",
    "third_from_two",
]

_ZERO = GaussianRational(0)


@dataclass(frozen=True)
class ParticularSolution:
    y_p: GeneralizedSeries
    c_primes: tuple  # the integrand GeneralizedSeries C'_i


def variation_of_parameters(e: Ode, fs: FundamentalSystem) -> ParticularSolution:
    """Cramer solve of the variation-of-parameters system, then termwise
    integration (integration constants zero)."""
    if e.rhs is None:
        raise ValueError("equation has no right-hand side")
    sols = list(fs.solutions)
    n = len(sols)
    if n != e.order:
        raise ValueError("fundamental system size must match the order")
    W = wronskian(e, sols)
    if W.is_zero():
        raise ValueError("degenerate fundamental system (zero wronskian)")
    g = gs_div_single(gs_from_series(e.rhs), gs_from_series(e.coeffs[0]))
    # the cofactor of row n - 1, column i of the wronskian matrix is
    # (-1)^(n - 1 + i) times the wronskian of the other solutions
    c_primes = [gs_div_single(wronskian_of_system(sols[:i] + sols[i + 1:]) * g, W)
                .scale(GaussianRational((-1) ** (n - 1 + i))) for i in range(n)]
    y_p = None
    for cp, s in zip(c_primes, sols):
        term = gs_integrate(cp) * s
        y_p = term if y_p is None else y_p + term
    return ParticularSolution(y_p, tuple(c_primes))


def reduce_order(e: Ode, phi: GeneralizedSeries) -> Ode:
    """Order-2 equation for v = u' where the full solution is psi = mu * phi.

    Coefficients a0*phi, 3*a0*phi' + a1*phi, 3*a0*phi'' + 2*a1*phi' + a2*phi,
    re-expanded to Series after stripping the common x^rho factor.
    """
    if e.order != 3:
        raise ValueError("reduce_order starts from an order-3 equation")
    _require_solution(e, phi)
    a0 = gs_from_series(e.coeffs[0])
    a1 = gs_from_series(e.coeffs[1])
    a2 = gs_from_series(e.coeffs[2])
    dphi = gs_differentiate(phi)
    ddphi = gs_differentiate(dphi)
    three = GaussianRational(3)
    two = GaussianRational(2)
    rows_gs = [
        a0 * phi,
        (a0 * dphi).scale(three) + a1 * phi,
        (a0 * ddphi).scale(three) + (a1 * dphi).scale(two) + a2 * phi,
    ]
    return Ode(2, _gs_rows_to_series(rows_gs), GaussianRational(0), None)


def _gs_rows_to_series(rows_gs: list[GeneralizedSeries]) -> tuple:
    """Strip a common exponent so all rows become plain Series."""
    for r in rows_gs:
        if not r.log_free():
            raise ValueError("logarithmic coefficient rows are out of scope")
    nonzero = [r for r in rows_gs if r.terms]
    if not nonzero:
        raise ValueError("all coefficient rows vanished")
    rep = nonzero[0].terms[0].exponent
    offsets = []
    for r in rows_gs:
        if not r.terms:
            offsets.append(None)
            continue
        if len(r.terms) != 1:
            raise ValueError("coefficient row spans several exponent classes")
        off = integer_difference(r.terms[0].exponent, rep)
        if off is None:
            raise ValueError("coefficient rows are not exponent-congruent")
        offsets.append(off)
    kmin = min(o for o in offsets if o is not None)
    trunc = min(r.trunc for r in nonzero)
    out = []
    for r, off in zip(rows_gs, offsets):
        if off is None:
            out.append(Series([_ZERO], trunc=trunc))
        else:
            out.append(r.terms[0].body.truncate(trunc).shift(off - kmin))
    return tuple(out)


def third_from_two(e: Ode, y1: GeneralizedSeries, y2: GeneralizedSeries) -> GeneralizedSeries:
    """Complete {y1, y2} to a fundamental system:
    y3 = y2 * int(y1 W / W12^2) - y1 * int(y2 W / W12^2),
    with W = exp(-int a1/a0) the order-3 wronskian solution."""
    if e.order != 3:
        raise ValueError("third_from_two starts from an order-3 equation")
    _require_solution(e, y1)
    _require_solution(e, y2)
    # a ValueError when a1/a0 has a pole of order >= 2
    Ws = wronskian_ode_solution(e).as_generalized_series()
    W12 = wronskian_of_system([y1, y2])
    if W12.is_zero():
        raise ValueError("W12 degenerate: y1, y2 dependent through trunc")
    W12sq = W12 * W12
    f1 = gs_integrate(gs_div_single(y1 * Ws, W12sq))
    f2 = gs_integrate(gs_div_single(y2 * Ws, W12sq))
    return y2 * f1 - y1 * f2


def _require_solution(e: Ode, g: GeneralizedSeries) -> None:
    """Raise unless g passes the solver's certificate, as `cli._certify` judges it."""
    res = residual(Ode(e.order, e.coeffs, e.chart, None), g)
    scale = max(1.0, max(r.magnitude() for r in e.coeffs)) * max(1.0, g.magnitude())
    if residual_valuation(res, _ZERO, scale) < math.inf:
        raise ValueError("the supplied series is not a solution: its residual does not vanish")
