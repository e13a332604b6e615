"""Riccati model of a second-order equation, path continuation, holonomy,
and the Liouvillian solution formulas.

Setting t = u'/u in a(z)u'' + b(z)u' + c(z)u = 0 gives the Riccati equation
dt/dz = -(a t^2 + b t + c)/a.  Its solutions live on the projective line, so
continuation works in a two-chart atlas (t and w = 1/t), and continuing around
loops avoiding the ramification set yields Moebius maps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .classify import classify_infinity
from .ode import Ode, poly_degree
from .scalars import poly_derivative, poly_eval, to_complex

__all__ = [
    "RiccatiModel",
    "MoebiusMap",
    "ProjectivePoint",
    "Circle",
    "Polyline",
    "riccati_model",
    "continue_along_path",
    "global_holonomy",
    "liouvillian_solution",
]

INFINITY = "infinity"

#: relative and absolute error per Dormand-Prince step
_RTOL, _ATOL = 1e-10, 1e-12
#: nearest distance a continuation path may pass to a ramification point
_CLEARANCE = 1e-3
#: relative Riccati residual within which a rational gamma is accepted
_GAMMA_TOL = 1e-8


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of the projective line as a pair (num, den) ~ num/den."""

    num: complex
    den: complex

    @staticmethod
    def of(value) -> "ProjectivePoint":
        if value == INFINITY or (isinstance(value, float) and math.isinf(value)):
            return ProjectivePoint(1.0 + 0j, 0j)
        return ProjectivePoint(complex(value), 1.0 + 0j)

    def as_complex(self) -> complex:
        if abs(self.den) <= 1e-300 * abs(self.num):
            return complex(math.inf, 0.0)
        return self.num / self.den

    def chordal_distance(self, other: "ProjectivePoint") -> float:
        """Fubini-Study chordal metric; bounded, infinity-safe."""
        n1 = math.hypot(abs(self.num), abs(self.den))
        n2 = math.hypot(abs(other.num), abs(other.den))
        cross = self.num * other.den - self.den * other.num
        return abs(cross) / (n1 * n2)


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float
    turns: int = 1  # positive = counterclockwise

    def point(self, s: float) -> complex:
        return self.center + self.radius * cmath.exp(2j * math.pi * self.turns * s)

    def velocity(self, s: float) -> complex:
        return (
            2j * math.pi * self.turns * self.radius
            * cmath.exp(2j * math.pi * self.turns * s)
        )


@dataclass(frozen=True)
class Polyline:
    points: tuple

    def point(self, s: float) -> complex:
        pts = self.points
        nseg = len(pts) - 1
        u = min(max(s, 0.0), 1.0) * nseg
        i = min(int(u), nseg - 1)
        f = u - i
        return pts[i] * (1 - f) + pts[i + 1] * f

    def velocity(self, s: float) -> complex:
        pts = self.points
        nseg = len(pts) - 1
        u = min(max(s, 0.0), 1.0 - 1e-12) * nseg
        i = min(int(u), nseg - 1)
        return (pts[i + 1] - pts[i]) * nseg


@dataclass(frozen=True)
class RiccatiModel:
    """dt/dz = -(a t^2 + b t + c)/a with polynomial a, b, c."""

    a: tuple  # complex polynomial coefficients, low power first
    b: tuple
    c: tuple
    ramification: tuple  # finite sigma values, possibly plus the string "infinity"

    def rhs_t(self, z: complex, t: complex) -> complex:
        az = poly_eval(self.a, z)
        return -(az * t * t + poly_eval(self.b, z) * t + poly_eval(self.c, z)) / az

    def rhs_w(self, z: complex, w: complex) -> complex:
        # w = 1/t:  dw/dz = (a + b w + c w^2)/a
        az = poly_eval(self.a, z)
        return (az + poly_eval(self.b, z) * w + poly_eval(self.c, z) * w * w) / az


def riccati_model(e: Ode) -> RiccatiModel:
    """Riccati model of an order-2 polynomial-coefficient equation."""
    if e.order != 2:
        raise ValueError("riccati_model applies to order 2")
    rows = []
    for r in e.coeffs:
        deg = poly_degree(r)
        rows.append(tuple(to_complex(c) for c in r.coeffs[: deg + 1]))
    a, b, c = rows
    sigma: list = []
    if len(a) > 1:
        for z in np.roots(list(reversed(a))):
            z = complex(z)
            if all(abs(z - s) > 1e-9 for s in sigma):
                sigma.append(z)
    if classify_infinity(e).tag != "ordinary":
        sigma.append(INFINITY)
    return RiccatiModel(a, b, c, tuple(sigma))


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4) continuation with chart switching
# ---------------------------------------------------------------------------

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
    -92097 / 339200, 187 / 2100, 1 / 40,
)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


def continue_along_path(m: RiccatiModel, t0, path) -> ProjectivePoint:
    """Continue the Riccati solution with initial value t0 (complex or
    "infinity") along the path; returns the endpoint as a projective point."""
    for s in np.linspace(0.0, 1.0, 257):
        z = path.point(float(s))
        for sig in m.ramification:
            if sig != INFINITY and abs(z - sig) < _CLEARANCE:
                raise ValueError(
                    f"path passes within clearance {_CLEARANCE} of sigma point {sig}"
                )
    if t0 == INFINITY or (isinstance(t0, float) and math.isinf(t0)):
        chart, val = "w", 0j
    else:
        chart, val = "t", complex(t0)
        if abs(val) > 1.0:
            chart, val = "w", 1.0 / val

    def f(s: float, y: complex, ch: str) -> complex:
        z = path.point(s)
        dz = path.velocity(s)
        return (m.rhs_t(z, y) if ch == "t" else m.rhs_w(z, y)) * dz

    s, h = 0.0, 1e-3
    min_h = 1e-13
    while s < 1.0:
        h = min(h, 1.0 - s)
        k = []
        for i in range(7):
            yi = val
            for j, aij in enumerate(_DP_A[i]):
                yi = yi + h * aij * k[j]
            k.append(f(s + _DP_C[i] * h, yi, chart))
        y5 = val + h * sum(b * ki for b, ki in zip(_DP_B5, k))
        y4 = val + h * sum(b * ki for b, ki in zip(_DP_B4, k))
        err = abs(y5 - y4)
        tol = _ATOL + _RTOL * max(abs(val), abs(y5))
        if err <= tol:
            s += h
            val = y5
            if abs(val) > 1.0:
                val = 1.0 / val
                chart = "w" if chart == "t" else "t"
        elif h <= min_h:
            raise ArithmeticError("step size underflow during continuation")
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        h = max(min_h, h * min(5.0, max(0.2, factor)))
    if chart == "t":
        return ProjectivePoint(val, 1.0 + 0j)
    return ProjectivePoint(1.0 + 0j, val)


# ---------------------------------------------------------------------------
# Moebius maps and holonomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MoebiusMap:
    """z -> (a1 z + a2)/(a3 z + a4), stored with det normalized to 1."""

    a1: complex
    a2: complex
    a3: complex
    a4: complex

    @staticmethod
    def from_matrix(a1, a2, a3, a4) -> "MoebiusMap":
        det = a1 * a4 - a2 * a3
        if det == 0:
            raise ValueError("degenerate Moebius matrix")
        s = cmath.sqrt(det)
        return MoebiusMap(a1 / s, a2 / s, a3 / s, a4 / s)

    def apply(self, p: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint(
            self.a1 * p.num + self.a2 * p.den,
            self.a3 * p.num + self.a4 * p.den,
        )

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other."""
        return MoebiusMap.from_matrix(
            self.a1 * other.a1 + self.a2 * other.a3,
            self.a1 * other.a2 + self.a2 * other.a4,
            self.a3 * other.a1 + self.a4 * other.a3,
            self.a3 * other.a2 + self.a4 * other.a4,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap.from_matrix(self.a4, -self.a2, -self.a3, self.a1)

    def multipliers(self) -> tuple[complex, complex]:
        """Fixed-point multipliers (lambda, 1/lambda)."""
        ev = np.linalg.eigvals(
            np.array([[self.a1, self.a2], [self.a3, self.a4]], dtype=complex)
        )
        lam = (ev[0] / ev[1]) if ev[1] != 0 else complex(math.inf)
        return complex(lam), complex(1.0 / lam)

    def identity_defect(self) -> float:
        """How far from the identity, scale-invariantly."""
        n = max(abs(self.a1), abs(self.a2), abs(self.a3), abs(self.a4))
        # compare against a1 * I
        return max(
            abs(self.a2), abs(self.a3), abs(self.a1 - self.a4)
        ) / max(n, 1e-300)


def _moebius_through(p1: ProjectivePoint, p2: ProjectivePoint, p3: ProjectivePoint) -> MoebiusMap:
    """The map sending (p1, p2, p3) to (0, 1, infinity)."""
    alpha = p2.num * p3.den - p3.num * p2.den
    beta = p2.num * p1.den - p1.num * p2.den
    return MoebiusMap.from_matrix(
        p1.den * alpha, -p1.num * alpha, p3.den * beta, -p3.num * beta
    )


def holonomy_of_loop(m: RiccatiModel, path, verify_tol: float = 1e-6) -> MoebiusMap:
    """Continue t in {0, 1, infinity}, fit the Moebius map, verify on t = -1
    (or t = i when -1 is too close to the probe set)."""
    probes = [0j, 1.0 + 0j, INFINITY]
    ins = [ProjectivePoint.of(p) for p in probes]
    outs = [continue_along_path(m, p, path) for p in probes]
    fit = _moebius_through(outs[0], outs[1], outs[2]).inverse().compose(
        _moebius_through(ins[0], ins[1], ins[2])
    )
    fourth = -1.0 + 0j
    got = continue_along_path(m, fourth, path)
    want = fit.apply(ProjectivePoint.of(fourth))
    defect = got.chordal_distance(want)
    if defect > verify_tol:
        raise ArithmeticError(
            f"fourth-trajectory verification failed: defect {defect:.3e}"
        )
    return fit


def global_holonomy(m: RiccatiModel, loops: Sequence) -> list[MoebiusMap]:
    """One Moebius map per loop (loops as Circle/Polyline, each through its
    own basepoint)."""
    return [holonomy_of_loop(m, loop) for loop in loops]


# ---------------------------------------------------------------------------
# Liouvillian solution formulas
# ---------------------------------------------------------------------------


def _gauss_nodes(n: int = 32):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


_GL_X, _GL_W = _gauss_nodes(16)


def _segment_integral(f: Callable[[complex], complex], z0: complex, z1: complex,
                      panels: int = 2) -> complex:
    """Composite Gauss-Legendre along the straight segment z0 -> z1."""
    total = 0j
    for p in range(panels):
        a = z0 + (z1 - z0) * (p / panels)
        b = z0 + (z1 - z0) * ((p + 1) / panels)
        mid, half = (a + b) / 2, (b - a) / 2
        total += half * sum(
            w * f(mid + half * x) for x, w in zip(_GL_X, _GL_W)
        )
    return total


def liouvillian_solution(
    e: Ode,
    gamma: tuple[Sequence[complex], Sequence[complex]] | None,
    anchor: complex = 0j,
    grid: Sequence[complex] = (),
) -> Callable[..., complex]:
    """Closed-form-by-quadrature evaluator from a rational Riccati solution.

    With gamma = P/Q solving dt/dz = -(a t^2 + b t + c)/a, returns

        u(z) = exp(int gamma) * [ ell + k * int exp(-int b/a) exp(-2 int gamma) ]

    and, when c is identically zero (gamma not needed):

        u(z) = ell + k * int exp(-int b/a).

    All integrals run from `anchor` along straight segments.
    """
    rows = []
    for r in e.coeffs:
        deg = poly_degree(r)
        rows.append(tuple(to_complex(cc) for cc in r.coeffs[: deg + 1]))
    a, b, c = rows
    c_is_zero = all(abs(x) < 1e-14 for x in c)

    def ba(z: complex) -> complex:
        az = poly_eval(a, z)
        if abs(az) < 1e-12:
            raise ValueError("quadrature path hits a zero of the leading coefficient")
        return poly_eval(b, z) / az

    if c_is_zero:
        def u0(z: complex, k: complex = 1.0, ell: complex = 0.0) -> complex:
            def g(eta: complex) -> complex:
                return cmath.exp(-_segment_integral(ba, anchor, eta))
            return ell + k * _segment_integral(g, anchor, z)
        return u0

    if gamma is None:
        raise ValueError("gamma required unless c is identically zero")
    P, Q = [tuple(complex(x) for x in p) for p in gamma]
    dP, dQ = poly_derivative(P), poly_derivative(Q)

    def gam(z: complex) -> complex:
        qz = poly_eval(Q, z)
        if abs(qz) < 1e-12:
            raise ValueError("quadrature path hits a pole of gamma")
        return poly_eval(P, z) / qz

    def dgam(z: complex) -> complex:
        qz = poly_eval(Q, z)
        return (poly_eval(dP, z) * qz - poly_eval(P, z) * poly_eval(dQ, z)) / (qz * qz)

    # residual check: gamma' + (a gamma^2 + b gamma + c)/a must vanish
    check = list(grid) or [anchor + 0.13 + 0.07j * i for i in range(1, 6)]
    for z in check:
        az = poly_eval(a, z)
        g = gam(z)
        res = dgam(z) + (az * g * g + poly_eval(b, z) * g + poly_eval(c, z)) / az
        if abs(res) > _GAMMA_TOL * max(1.0, abs(g)):
            raise ValueError(
                f"gamma fails the Riccati residual check at z={z}: {abs(res):.3e}"
            )

    def u(z: complex, k: complex = 1.0, ell: complex = 0.0) -> complex:
        def inner(eta: complex) -> complex:
            return cmath.exp(
                -_segment_integral(ba, anchor, eta)
                - 2.0 * _segment_integral(gam, anchor, eta)
            )
        head = cmath.exp(_segment_integral(gam, anchor, z))
        return head * (ell + k * _segment_integral(inner, anchor, z))

    return u
