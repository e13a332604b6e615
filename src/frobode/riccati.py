"""Riccati model of a second-order equation, path continuation, holonomy,
and the Liouvillian solution formulas.

Setting t = u'/u in a(z)u'' + b(z)u' + c(z)u = 0 gives the Riccati equation
dt/dz = -(a t^2 + b t + c)/a.  A path carries (u, u') by a linear transition
matrix T, built from Taylor steps, so t moves by the Moebius map of T; the map
of a loop avoiding the ramification set is its holonomy, certified by Abel's
identity on det T.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .classify import classify_infinity
from .ode import Ode, poly_degree
from .indicial import _poly_gcd
from .scalars import (as_exact, is_exact, poly_derivative, poly_divide_linear, poly_eval,
                      to_complex)

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

#: nearest distance a continuation path may pass to a ramification point
_CLEARANCE = 1e-3
#: step length, in z, along a path where a has no finite root
_FREE_STEP = 0.5
#: most terms one Taylor step sums before it gives up
_TERM_CAP = 400
#: most Taylor steps one path takes before it gives up
_STEP_CAP = 10_000
#: relative size of the last terms at which a Taylor step stops
_EPS = 2.0 ** -53
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


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float
    turns: int = 1  # positive = counterclockwise

    def point(self, s: float) -> complex:
        return self.center + self.radius * cmath.exp(2j * math.pi * self.turns * s)

    def velocity(self, s: float) -> complex:
        return 2j * math.pi * self.turns * (self.point(s) - self.center)


@dataclass(frozen=True)
class Polyline:
    points: tuple

    def _locate(self, s: float) -> tuple[int, float, int]:
        nseg = len(self.points) - 1
        u = min(max(s, 0.0), 1.0) * nseg
        i = min(int(u), nseg - 1)
        return i, u - i, nseg

    def point(self, s: float) -> complex:
        i, f, _ = self._locate(s)
        return self.points[i] * (1 - f) + self.points[i + 1] * f

    def velocity(self, s: float) -> complex:
        i, _, nseg = self._locate(s)
        return (self.points[i + 1] - self.points[i]) * nseg


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
    rows = [r.coeffs[: poly_degree(r) + 1] for r in e.coeffs]
    a, b, c = (tuple(to_complex(x) for x in row) for row in rows)
    # the distinct roots of a are those of a / gcd(a, a'), the gcd taken over
    # Q(i): a float coefficient is a dyadic rational and converts exactly
    exact = [as_exact(x if is_exact(x) else (x.real, x.imag)) for x in rows[0]]
    g = _poly_gcd(exact, poly_derivative(exact))
    free = np.polydiv(a[::-1], [to_complex(x) for x in g[::-1]])[0]
    sigma: list = [complex(z) for z in np.roots(free)]
    if classify_infinity(e).tag != "ordinary":
        sigma.append(INFINITY)
    return RiccatiModel(a, b, c, tuple(sigma))


# ---------------------------------------------------------------------------
# transition matrices by Taylor steps
# ---------------------------------------------------------------------------


def _shift(p: Sequence, z0: complex) -> list:
    """Coefficients of p(z0 + h) in h, low power first: the remainders of
    repeated synthetic division by h - z0."""
    out = []
    while p:
        p, r = poly_divide_linear(p, z0)
        out.append(r)
    return out


def _taylor_step(m: RiccatiModel, z0: complex, h: complex):
    """(T, I) over the straight step z0 -> z0 + h: T maps (u, u') at z0 to
    (u, u') at z0 + h, and I is the integral of b/a, both summed from the
    Taylor series at z0.  The terms are kept scaled, v_n = u_n h^n, so that
    |h| <= rho/2 makes them fall at least like 2^-n."""
    if h == 0:
        return np.eye(2, dtype=complex), 0j
    sa, sb, sc = (_shift(p, z0) for p in (m.a, m.b, m.c))
    # al_0 t(t-1) v_t = -sum_j (al_j s(s-1) + be_j s + ga_j) v_s over s = t - j,
    # j = 1..w, where al_j, be_j, ga_j are a_j, b_(j-1), c_(j-2) times h^j;
    # q_t = (b/a)_t h^(t+1) solves al_0 q_t = be_(t+1) - sum_j al_j q_(t-j)
    w = max(len(sa) - 1, len(sb), len(sc) + 1)
    al = [sa[j] * h ** j if j < len(sa) else 0j for j in range(w + 1)]
    be = [sb[j - 1] * h ** j if 0 < j <= len(sb) else 0j for j in range(w + 1)]
    ga = [sc[j - 2] * h ** j if 1 < j < len(sc) + 2 else 0j for j in range(w + 1)]
    u, p, q, rel = [1 + 0j, 0j], [0j, 1 + 0j], [], []  # u, p: columns (1, 0), (0, 1)
    su = du = sp = dp = integral = 0j
    for t in range(_TERM_CAP):
        cu = cp = cq = 0j
        for j in range(1, min(w, t) + 1):
            k = al[j] * (t - j) * (t - j - 1) + be[j] * (t - j) + ga[j]
            cu, cp, cq = cu + k * u[t - j], cp + k * p[t - j], cq + al[j] * q[t - j]
        if t >= 2:
            d = -al[0] * t * (t - 1)
            u.append(cu / d)
            p.append(cp / d)
        q.append(((be[t + 1] if t < w else 0j) - cq) / al[0])
        su, du, sp, dp = su + u[t], du + t * u[t], sp + p[t], dp + t * p[t]
        integral += q[t] / (t + 1)
        # how far the term moves the sums; w small terms in a row end the series
        scale = max(abs(su), abs(du), abs(sp), abs(dp))
        rel.append(max(max(abs(u[t]), abs(p[t])) * max(t, 1) / scale,
                       abs(q[t]) / (t + 1) / max(1.0, abs(integral))))
        if t >= w and max(rel[-w:]) <= _EPS:
            break
    else:
        raise ArithmeticError(f"Taylor step at z = {z0} did not converge in {_TERM_CAP} terms")
    return np.array([[su, h * sp], [du / h, dp]]), integral


def _transition(m: RiccatiModel, path):
    """(T, I) along the path: T maps (u, u') at its start to (u, u') at its
    end, and I is the integral of b/a along it.  A step from z0 covers at most
    rho/2 of arc length (rho the distance to the nearest root of a, else
    _FREE_STEP), |a/c|^(1/2) and |a/b| at z0, at the speed at z0: exact on a
    circle and on each segment of a polyline; a path that needs more than
    _STEP_CAP steps raises ArithmeticError.  k turns of a circle are the
    one-turn matrix to the k-th power."""
    if isinstance(path, Circle) and path.turns != 1:
        one, i1 = _transition(m, Circle(path.center, path.radius))
        with np.errstate(all="ignore"):  # an overflow fails Abel's identity
            return np.linalg.matrix_power(one, path.turns), path.turns * i1
    pieces = ([Polyline(seg) for seg in zip(path.points, path.points[1:])]
              if isinstance(path, Polyline) else [path])
    roots = [sig for sig in m.ramification if sig != INFINITY]
    T, integral, steps = np.eye(2, dtype=complex), 0j, 0
    for piece in pieces:
        s = 0.0
        while s < 1.0:
            steps += 1
            if steps > _STEP_CAP:
                raise ArithmeticError(f"path needs more than {_STEP_CAP} Taylor steps")
            z0 = piece.point(s)
            reach = _FREE_STEP
            if roots:
                near = min(roots, key=lambda r: abs(z0 - r))
                if abs(z0 - near) < _CLEARANCE:
                    raise ValueError(
                        f"path passes within clearance {_CLEARANCE} of sigma point {near}"
                    )
                reach = abs(z0 - near) / 2
            az, bz, cz = (abs(poly_eval(p, z0)) for p in (m.a, m.b, m.c))
            if bz:
                reach = min(reach, az / bz)
            if cz:
                reach = min(reach, math.sqrt(az / cz))
            s1 = min(1.0, s + reach / max(abs(piece.velocity(s)), 1e-300))
            if s1 == s:
                raise ArithmeticError(f"path too long to resolve a step at z = {z0}")
            step, di = _taylor_step(m, z0, piece.point(s1) - z0)
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails Abel's identity
                T, integral, s = step @ T, integral + di, s1
    return T, integral


def continue_along_path(m: RiccatiModel, t0, path) -> ProjectivePoint:
    """Continue the Riccati solution with initial value t0 (complex or
    "infinity") along the path; t = u'/u moves by the transition matrix."""
    (t11, t12), (t21, t22) = _transition(m, path)[0].tolist()
    return MoebiusMap.from_matrix(t22, t21, t12, t11).apply(ProjectivePoint.of(t0))


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


def holonomy_of_loop(m: RiccatiModel, path, verify_tol: float = 1e-6) -> MoebiusMap:
    """The loop's map t -> (T22 t + T21)/(T12 t + T11) from its transition
    matrix T, checked by Abel's identity det T = exp(-(integral of b/a))."""
    T, integral = _transition(m, path)
    with np.errstate(all="ignore"):  # an overflow makes the defect inf or nan
        defect = abs(np.linalg.det(T) * np.exp(integral) - 1)
    if not defect <= verify_tol:
        raise ArithmeticError(f"Abel's identity fails on the loop: defect {defect:.3e}")
    (t11, t12), (t21, t22) = T.tolist()
    return MoebiusMap.from_matrix(t22, t21, t12, t11)


def global_holonomy(m: RiccatiModel, loops: Sequence) -> list[MoebiusMap]:
    """One Moebius map per loop (loops as Circle/Polyline, each through its
    own basepoint)."""
    return [holonomy_of_loop(m, loop) for loop in loops]


# ---------------------------------------------------------------------------
# Liouvillian solution formulas
# ---------------------------------------------------------------------------


def liouvillian_solution(
    e: Ode,
    gamma: tuple[Sequence[complex], Sequence[complex]] | None,
    anchor: complex = 0j,
    grid: Sequence[complex] = (),
) -> Callable[..., complex]:
    """Evaluator of the solution given by a rational Riccati solution.

    With gamma = P/Q solving dt/dz = -(a t^2 + b t + c)/a, returns

        u(z) = exp(int gamma) * [ ell + k * int exp(-int b/a) exp(-2 int gamma) ]

    and, when c is identically zero (gamma not needed, taken as 0):

        u(z) = ell + k * int exp(-int b/a),

    all integrals from `anchor`.  This u has u = ell, u' = gamma(anchor) ell + k at
    the anchor, so u(z) = E ell + T12 k for T the transition matrix of the segment
    anchor -> z and E = exp(int gamma) = T11 + gamma(anchor) T12.  E, which may be
    far smaller than T, is exp(integral of b/a) of the model with b/a = gamma; if
    the segment meets a pole of gamma, E is read from T, and ArithmeticError is
    raised if that cancels half its digits.
    """
    m = riccati_model(e)
    g0, mg = 0j, None
    if not all(abs(x) < 1e-14 for x in m.c):
        if gamma is None:
            raise ValueError("gamma required unless c is identically zero")
        P, Q = [tuple(complex(x) for x in p) for p in gamma]
        dP, dQ = poly_derivative(P), poly_derivative(Q)
        pts = [anchor, *(list(grid) or [anchor + 0.13 + 0.07j * i for i in range(1, 6)])]
        qs = [poly_eval(Q, z) for z in pts]
        if min(map(abs, qs)) < 1e-12:
            raise ValueError("gamma has a pole at the anchor or a grid point")
        gs = [poly_eval(P, z) / q for z, q in zip(pts, qs)]
        g0 = gs[0]
        mg = RiccatiModel(Q, P, (0j,), tuple(map(complex, np.roots(Q[::-1]))))
        # residual check at the grid: gamma' - rhs_t(z, gamma) must vanish
        for z, q, g in zip(pts[1:], qs[1:], gs[1:]):
            res = (poly_eval(dP, z) - g * poly_eval(dQ, z)) / q - m.rhs_t(z, g)
            if abs(res) > _GAMMA_TOL * max(1.0, abs(g)):
                raise ValueError(f"gamma fails the Riccati residual at z={z}: {abs(res):.3e}")

    def u(z: complex, k: complex = 1.0, ell: complex = 0.0) -> complex:
        (t11, t12), _ = _transition(m, Polyline((anchor, z)))[0].tolist()
        try:
            eg = cmath.exp(_transition(mg, Polyline((anchor, z)))[1]) if mg else 1.0
        except ValueError:  # a pole of gamma, a zero of E, on the segment
            eg = t11 + g0 * t12
            if abs(eg) < math.sqrt(_EPS) * (abs(t11) + abs(g0 * t12)):
                raise ArithmeticError(f"exp(int gamma) loses half its digits at z = {z}")
        return eg * ell + t12 * k

    return u
