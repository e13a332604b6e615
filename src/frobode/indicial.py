"""Indicial polynomial, root extraction and exceptional-case taxonomy."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm, prod
from typing import Optional, Sequence

from .ode import FrobeniusForm
from .scalars import (INT_TOL, NEWTON_TOL, GaussianRational, Scalar, as_exact, gr_sqrt,
                      integer_difference, is_exact, poly_derivative, poly_divide_linear,
                      poly_eval, to_complex)

__all__ = [
    "IndicialData",
    "CaseTag",
    "indicial_polynomial",
    "solve_roots",
    "classify_case",
    "integer_difference",
    "congruence_classes",
]

#: most exact Newton steps from one seed that fail to shrink the step by a
#: quarter; a converging start, or one sliding into a cluster, spends none
_NEWTON_STEPS = 8
#: most sweeps of the Weierstrass iteration for the seeds, and the relative move that ends it
_SWEEPS, _SETTLED = 64, 2.0 ** -46
#: a prime p = 5 (mod 8), so 2 is not a square and _I^2 = -1 (mod p):
#: a + bi -> a + b _I maps the dyadic Gaussian rationals, every float among
#: them, to Z/p as a ring, and a discriminant with a non-zero image is not 0
_P = 2 ** 64 - 59
_I = pow(2, (_P - 1) // 4, _P)

_ONE = GaussianRational(1)


@dataclass(frozen=True)
class CaseTag:
    """Exceptional-case tag: which equalities / integer gaps the roots exhibit."""

    tag: str  # non_exceptional | o2_equal | o2_integer_diff | case_i .. case_iv | mixed
    m: Optional[int] = None
    p: Optional[int] = None
    detail: str = ""

    def __str__(self) -> str:
        args = [str(v) for v in (self.m, self.p) if v is not None]
        return self.tag + (f"({', '.join(args)})" if args else "")


@dataclass(frozen=True)
class IndicialData:
    poly: tuple  # scalar coefficients of q(r), low power first, monic
    roots: tuple  # ordered Re(r1) >= Re(r2) [>= Re(r3)], ties by decreasing Im (`_ordered`)
    case: CaseTag
    exact: bool  # whether the roots are exact Gaussian rationals


def indicial_polynomial(f: FrobeniusForm) -> tuple:
    """q(r) = P_0(r) / lead_0, the form's row 0 made monic, low power first."""
    c0, b0, *rest = (col[0] for col in f.columns())
    if rest[-1] != 1:
        inv = 1 / rest[-1]
        c0, b0, *rest = (x * inv for x in (c0, b0, *rest))
    if f.order == 2:
        # r(r-1) + b0 r + c0
        return (c0, b0 - 1, _ONE)
    a0 = rest[0]
    # r(r-1)(r-2) + a0 r(r-1) + b0 r + c0
    return (c0, GaussianRational(2) - a0 + b0, a0 - GaussianRational(3), _ONE)


def _discriminant(p: Sequence):
    """A multiple of the discriminant of a monic quadratic or cubic (low
    power first): zero exactly when a root repeats."""
    if len(p) == 3:
        return p[1] * p[1] - 4 * p[0]
    c, b, a, _ = p
    aa = a * a  # a^2 b^2 - 4b^3 - 4a^3 c - 27c^2 + 18abc
    return b * b * (aa - 4 * b) + c * (18 * a * b - 4 * aa * a - 27 * c)


def _image(z: complex) -> int:
    """z in Z/_P, its parts read as dyadic rationals and i as _I."""
    (n, d), (m, e) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    return n * pow(d, -1, _P) + _I * m * pow(e, -1, _P)


def _cubic_root(poly: Sequence[GaussianRational]) -> Optional[GaussianRational]:
    """A root in Q(i) of a monic cubic r^3 + ar^2 + br + c, or None.

    A repeated root is (9c - ab) / 2(a^2 - 3b), or -a/3 when a^2 = 3b (a
    triple root).  For a square-free cubic, let D be the lcm of the
    denominators of the coefficients' parts: D r is then a root of a monic
    cubic over Z[i], which is integrally closed, so every root in Q(i) lies
    on the lattice (1/D) Z[i] (on (1/D) Z for real coefficients).  Exact
    Newton steps from each `_seeds` root, the most nearly real first (its real
    part for real coefficients), are rounded to a grid finer than 1/(4 D^2),
    which bounds their size, and the lattice point nearest to an iterate is
    accepted once P vanishes there.  Steps that shrink linearly, into a cluster
    the floats do not resolve, are not counted against _NEWTON_STEPS.
    """
    c, b, a, _ = poly
    if not _discriminant(poly):
        w = a * a - 3 * b
        return (9 * c - a * b) / (2 * w) if w else -a / 3
    if not c:
        return GaussianRational(0)
    real = not any(x.im for x in poly)
    p = [x.re for x in poly] if real else poly  # real parts: Fraction steps are cheaper
    dp = poly_derivative(p)
    lead = lcm(*(f.denominator for x in poly for f in (x.re, x.im)))
    grid = 1 << (2 * lead.bit_length() + 2)
    for z in sorted(_seeds([complex(x) for x in poly]), key=lambda z: abs(z.imag)):
        x, step, slow = Fraction(z.real) if real else GaussianRational(z.real, z.imag), inf, 0
        while slow < _NEWTON_STEPS:
            if not poly_eval(p, cand := _snap(x, lead)):
                return as_exact(cand)
            if not (d := poly_eval(dp, x)):
                break
            x, last = _snap(x - poly_eval(p, x) / d, grid), x
            if x == last:  # settled on the grid, away from the lattice
                break
            size = abs(x - last) if real else abs((x - last).re) + abs((x - last).im)
            slow, step = slow + (4 * size > 3 * step), size
    return None


def _seeds(p: Sequence[complex]) -> list[complex]:
    """Float approximations to the roots of a monic polynomial (low power
    first): Weierstrass (Durand-Kerner) sweeps, each root updated in turn, from
    a spiral inside Fujiwara's bound 2 max |p_k|^(1/(n-k)), until none moves."""
    n = len(p) - 1
    bound = 2 * max(abs(c) ** (1 / (n - k)) for k, c in enumerate(p[:-1])) or 1.0
    z = [bound * (0.4 + 0.9j) ** k for k in range(n)]
    for _ in range(_SWEEPS):
        old = z[:]
        for k, x in enumerate(z):
            if d := prod(x - y for j, y in enumerate(z) if j != k):
                z[k] = x - poly_eval(p, x) / d
        if all(abs(a - b) <= _SETTLED * abs(a) for a, b in zip(z, old)):
            break
    return z


def _snap(x, g: int):
    """x rounded to the lattice (1/g) Z, or (1/g) Z[i] for a Gaussian rational."""
    if isinstance(x, GaussianRational):
        return GaussianRational(_snap(x.re, g), _snap(x.im, g))
    return Fraction(round(x * g), g)


def _key(r: Scalar) -> tuple:
    return (-r.re, -r.im) if is_exact(r) else (-r.real, -r.imag)


def _groups(roots: Sequence[Scalar]) -> list[list]:
    """Groups of equal roots (`integer_difference` 0 from a group's first root), one
    relation for the order and the classes; roots are taken by decreasing (Re, Im)."""
    groups: list[list] = []
    for r in sorted(roots, key=_key):
        if g := next((g for g in groups if integer_difference(r, g[0]) == 0), None):
            g.append(r)
        else:
            groups.append([r])
    return groups


def _ordered(roots: Sequence[Scalar]) -> tuple:
    """The roots in one total order, whatever their order: groups (`_groups`) in
    bands by real part (within INT_TOL of the band's last group unless both are
    exact), a band's groups and a group's roots by decreasing Im."""
    bands: list[list[list]] = []
    for g in _groups(roots):
        last = bands[-1][-1][0] if bands else g[0]
        tol = 0 if is_exact(g[0]) and is_exact(last) else INT_TOL
        if bands and _key(g[0])[0] - _key(last)[0] <= tol:
            bands[-1].append(g)
        else:
            bands.append([g])
    return tuple(r for b in bands for g in sorted(b, key=lambda g: _key(g[0])[1])
                 for r in sorted(g, key=lambda r: _key(r)[1]))


def solve_roots(poly: Sequence[Scalar]) -> tuple[tuple, bool]:
    """All roots of a degree-2/3 monic polynomial, ordered by decreasing real
    part (ties: decreasing imaginary part).  Returns (roots, exact_flag).

    A root repeats exactly when the discriminant is zero, and every root then
    lies in Q(i).  Float input is read exactly (a float is a dyadic rational)
    unless the discriminant's image mod `_P` is non-zero.  The roots found in
    Q(i), by `_cubic_root` and from a quadratic's discriminant, are kept, and
    numpy, loaded on first use, with two Newton steps takes the rest."""
    poly = list(poly)
    exact_in = all(is_exact(c) for c in poly)
    work = poly if exact_in else [to_complex(c) for c in poly]
    if not exact_in and _discriminant(list(map(_image, work))) % _P == 0:
        work = [GaussianRational(z.real, z.imag) for z in work]
    roots: list[Scalar] = []
    if is_exact(work[0]):
        if len(work) == 4 and (r := _cubic_root(work)) is not None:
            roots, work = [r], poly_divide_linear(work, r)[0]
        if len(work) == 3 and (s := gr_sqrt(_discriminant(work))) is not None:
            roots, work = roots + [(s - work[1]) / 2, (-s - work[1]) / 2], work[2:]
        work = [to_complex(c) for c in work]
    # the rest: companion matrix + two Newton polish steps
    if len(work) > 1:
        import numpy as np
        dpoly = poly_derivative(work)
        for z in np.roots(list(reversed(work))):
            z = complex(z)
            for _ in range(2):
                dp = poly_eval(dpoly, z)
                if abs(dp) > NEWTON_TOL:
                    z = z - poly_eval(work, z) / dp
            roots.append(z)
    roots = roots if exact_in else [complex(r) for r in roots]
    return _ordered(roots), exact_in and all(map(is_exact, roots))


def classify_case(roots: Sequence[Scalar]) -> CaseTag:
    """The case tag of the ordered roots, read from their congruence classes:
    which roots are equal and which differ by integers."""
    classes = _classes(roots)
    if len(classes) == len(roots):
        return CaseTag("non_exceptional")
    cls = max(classes, key=lambda c: sum(len(pos) for _, pos in c))  # two or more roots
    gaps = [a - b for (a, _), (b, _) in zip(cls, cls[1:])]
    if len(classes) == 1:
        return CaseTag(_TAGS[tuple(len(pos) for _, pos in cls)], *gaps)
    i, j = sorted(1 + p for _, pos in cls for p in pos)
    rest = f"r{6 - i - j} non-congruent"
    if gaps:
        return CaseTag("mixed", m=gaps[0], detail=f"r{i}-r{j} integer, {rest}")
    return CaseTag("mixed", detail=f"r{i}=r{j}, {rest}")


#: the case of one class of all the roots, by the multiplicities of its members
_TAGS = {(2,): "o2_equal", (1, 1): "o2_integer_diff", (3,): "case_i", (2, 1): "case_ii",
         (1, 2): "case_iii", (1, 1, 1): "case_iv"}


def _classes(roots: Sequence[Scalar]) -> list[list[tuple[int, list[int]]]]:
    """The positions of the ordered roots, grouped into integer-difference
    classes.

    Each class is a list of members (offset, positions), in the order of the
    roots: the roots of one member are one group of equal roots (`_groups`),
    near-equal floating roots included, and the offset is their integer
    difference from the class's first root.
    """
    exact = all(map(is_exact, roots))  # exact roots: a group is one value
    group = {} if exact else {id(r): k for k, g in enumerate(_groups(roots)) for r in g}
    classes: list[list[tuple[int, list[int]]]] = []
    for i, r in enumerate(roots):
        for cls in classes:
            last = roots[cls[-1][1][0]]
            if (r == last) if exact else group[id(r)] == group[id(last)]:
                cls[-1][1].append(i)
            elif (k := integer_difference(r, roots[cls[0][1][0]])) is not None:
                cls.append((k, [i]))
            else:
                continue
            break
        else:
            classes.append([(0, [i])])
    return classes


def congruence_classes(roots: Sequence[Scalar]) -> list[list[tuple[Scalar, int, int]]]:
    """The ordered roots grouped into integer-difference classes, each a list of
    (value, multiplicity, offset from the class's first root) in the order of
    the roots, with near-equal floating roots merged into one multiplicity."""
    return [[(roots[pos[0]], len(pos), k) for k, pos in cls] for cls in _classes(roots)]


def analyze(f: FrobeniusForm) -> IndicialData:
    """Full indicial pipeline: polynomial, roots, case tag."""
    poly = indicial_polynomial(f)
    roots, exact = solve_roots(poly)
    return IndicialData(tuple(poly), roots, classify_case(roots), exact)
