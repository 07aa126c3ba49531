"""Exact lattice-point enumerators for all body kinds.

Everything is counted in lattice coefficient coordinates, so counting over
an arbitrary lattice is counting integer vectors.  Linear membership is
compiled to integer thresholds per constraint (a rational or single-radical
right-hand side rounds to the exact integer cutoff).  One row sweep,
``_rows``, yields each non-empty row along x_0 with its exact 1D slab of
x_0; counting sums the slabs, and ``harness.boundary_layer_audit`` walks
the same rows for P, for its interior layer and for its facet prisms.  The
sweep visits only the rows the body's shadow reaches: Fourier-Motzkin
elimination of x_0 (Schrijver, Theory of Linear and Integer Programming,
12.2) from chosen pairs of constraints gives, per (x_1, .., x_{n-2}), one
interval of x_{n-1}.  Each eliminated pair is a valid inequality, so any
set of pairs is sound; a polytope's ridge pairs are its exact shadow.
``_walk`` visits the groups (x_1, .., x_{n-2}) level by level and keeps
each constraint's residual r = t - c.x over the coordinates fixed so far,
starting from r = t at x_0 = 0 (only 2D, with no such level, walks x_0's
slot [0, 0]): an outer level x_k folds r - c_k x_k once per value, for the
shadow rows and for the constraints on x_0 alike.  The last level,
x_{n-2}, solves each group's shadow in place, one multiply-subtract and
one floor division per shadow row, for its interval of x_{n-1}.  A
non-empty group folds the constraints on x_0 once more, and the one solver
left, ``_group_rows``, gives every row's slab of x_0 with one
multiply-subtract and one floor division per such constraint.  No dot
product is left in the sweep.  A ball is an ellipsoid in coefficients,
counted by ``lattice.enum_ellipsoid``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, prod
from operator import mul
from typing import NamedTuple

from blichfeldt import linalg
from blichfeldt.interval import root_ends
from blichfeldt.lattice import DEFAULT_BUDGET, EnumerationBudgetError, Lattice, enum_ellipsoid
from blichfeldt.polytope import LatticePolytope


class Body(NamedTuple):
    """Tagged union of countable bodies over an ambient lattice."""

    kind: str                 # polytope | translated_polytope | halfopen_parallelepiped | ball
    lattice: Lattice
    polytope: LatticePolytope | None = None
    translate: tuple | None = None      # ambient rational vector
    generators: tuple | None = None     # lattice coefficient vectors
    anchor: tuple | None = None         # ambient rational vector
    center: tuple | None = None         # ambient rational vector
    radius_sq: Fraction | None = None

    @staticmethod
    def from_polytope(poly: LatticePolytope) -> "Body":
        return Body(kind="polytope", lattice=poly.lattice, polytope=poly)

    @staticmethod
    def translated(t, poly: LatticePolytope) -> "Body":
        return Body(
            kind="translated_polytope",
            lattice=poly.lattice,
            polytope=poly,
            translate=tuple(Fraction(x) for x in t),
        )

    @staticmethod
    def parallelepiped(generators, anchor=None, lattice: Lattice | None = None) -> "Body":
        gens = tuple(tuple(int(x) for x in g) for g in generators)
        if lattice is None:
            lattice = Lattice.standard(len(gens[0]))
        if anchor is None:
            anchor = (Fraction(0),) * lattice.dim
        if linalg.det_bareiss([list(g) for g in gens]) == 0:
            raise ValueError("degenerate parallelepiped")
        return Body(
            kind="halfopen_parallelepiped",
            lattice=lattice,
            generators=gens,
            anchor=tuple(Fraction(x) for x in anchor),
        )

    @staticmethod
    def ball(center, radius_sq, lattice: Lattice | None = None) -> "Body":
        center = tuple(Fraction(x) for x in center)
        if lattice is None:
            lattice = Lattice.standard(len(center))
        radius_sq = Fraction(radius_sq)
        if radius_sq <= 0:
            raise ValueError("radius_sq must be positive")
        return Body(kind="ball", lattice=lattice, center=center, radius_sq=radius_sq)

    @property
    def dim(self) -> int:
        return self.lattice.dim


class CountResult(NamedTuple):
    count: int


def ceil_sqrt_fraction(r) -> int:
    """Smallest integer >= sqrt(r) for a non-negative rational r."""
    r = Fraction(r)
    # ceil(ceil(sqrt(r) q) / q) = ceil(sqrt(r))
    return -(-root_ends(r.numerator, r.denominator, 2, 0)[1] // r.denominator)


def _shadow(constraints, pairs):
    """Fourier-Motzkin elimination of x_0.

    Keeps the constraints free of x_0 and, for each index pair (i, j) whose
    x_0 coefficients differ in sign, their positive combination free of x_0;
    a row 0.x <= t stays only when t < 0, where it empties the body.  Each
    row is implied by the constraints, so any set of pairs bounds the real
    projection from outside, and all pairs give it exactly.
    """
    rows = [(c, t) for c, t in constraints if not c[0]]
    for i, j in pairs:
        (c, t), (d, s) = constraints[i], constraints[j]
        if c[0] * d[0] < 0:
            p, q = abs(d[0]), abs(c[0])
            rows.append((tuple(p * x + q * y for x, y in zip(c, d)), p * t + q * s))
    return [(c, t) for c, t in rows if t < 0 or any(c)]


def _walk(shadow, bounds, head, levels, ylo, yhi, lb, ub):
    """The non-empty rows of the groups that extend ``head``, in order.

    ``head`` fixes x_0 = 0, x_1, .., x_{k-1} and ``levels`` holds the ranges
    of x_k .. x_{n-2} (in 2D the one level is x_0's slot, [0, 0]).  Each
    pair (c, r) of the shadow and of the bounds on x_0 (the constraints
    with c_0 != 0) carries its residual r = t - c.head.  An outer level
    folds r - c_k x_k once per value of x_k.  The last level, x_{n-2},
    solves each group's shadow in place, with no list per group: one
    multiply-subtract and one floor division per shadow row give the
    group's interval of x_{n-1} within [ylo, yhi].  A non-empty group folds
    the bounds once more and hands them to ``_group_rows``.
    """
    k = len(head)
    (lo, hi), *levels = levels
    if levels:
        for x in range(lo, hi + 1):
            yield from _walk([(c, r - c[k] * x) for c, r in shadow],
                             [(c, r - c[k] * x) for c, r in bounds],
                             head + (x,), levels, ylo, yhi, lb, ub)
        return
    shadow = [(c[k], c[-1], r) for c, r in shadow]
    bounds = [(c[k], c[-1], c[0], r) for c, r in bounds]
    for z in range(lo, hi + 1):
        y0, y1 = ylo, yhi
        for cz, cy, r in shadow:
            rem = r - cz * z
            if cy > 0:
                q = rem // cy
                if q < y1:
                    y1 = q
                    if y0 > y1:
                        break
            elif cy < 0:
                q = -(rem // -cy)   # ceil(rem / cy)
                if q > y0:
                    y0 = q
                    if y0 > y1:
                        break
            elif rem < 0:
                break
        else:
            yield from _group_rows([(cy, c0, r - cz * z) for cz, cy, c0, r in bounds],
                                   head + (z,), y0, y1, lb, ub)


def _group_rows(folded, head, ylo, yhi, lb, ub):
    """The non-empty rows (head + (y,), lb', ub') for ylo <= y <= yhi.

    ``head`` is (0, x_1, .., x_{n-2}) and each (c_{n-1}, c_0, r) of
    ``folded`` is a constraint with c_0 != 0 and its residual
    r = t - c.head; the caller's y interval already satisfies the
    constraints free of x_0.  The row at x_{n-1} = y keeps lb <= x_0 <= ub
    with c_0 x_0 <= r - c_{n-1} y: one multiply-subtract and one floor
    division per constraint, in the constraints' order and with an early
    exit.  In 1D the one row is the empty head at y = 0.
    """
    for y in range(ylo, yhi + 1):
        lo, hi = lb, ub
        for cy, c0, r in folded:
            rem = r - cy * y
            if c0 > 0:
                q = rem // c0
                if q < hi:
                    hi = q
                    if lo > hi:
                        break
            else:
                q = -(rem // -c0)   # ceil(rem / c0)
                if q > lo:
                    lo = q
                    if lo > hi:
                        break
        else:
            yield head + (y,), lo, hi


def _rows(constraints, box, budget, pairs):
    """The non-empty rows (base, lb, ub) of the box's points with c.x <= t.

    A row is the line base + x_0 e_0, base = (0, x_1, .., x_{n-1}), and its
    points are lb <= x_0 <= ub.  Only the rows that the shadow of ``pairs``
    (index pairs into the constraints, see ``_shadow``) reaches are solved:
    ``_walk`` visits each group (x_1, .., x_{n-2}) level by level and
    solves the rows of the one x_{n-1} interval the shadow leaves it.  The
    walk starts at head (0,) on x_1's level, x_0 = 0 leaving every residual
    t; in 2D it walks x_0's slot [0, 0] from the empty head, its one group.
    A skipped row meets no real point of the body, so it holds no integer
    one.  In 1D there is no shadow, and the constraints free of x_0,
    0 <= t, are tested once.  Raises ``EnumerationBudgetError`` when the
    box holds more cells than the budget allows.
    """
    (lo0, *los), (hi0, *his) = box
    cells = prod(max(0, hi - lo + 1) for lo, hi in zip(*box))
    if cells > budget:
        raise EnumerationBudgetError(budget)
    if not cells:
        return
    bounds = [(c, t) for c, t in constraints if c[0]]
    if not los:
        if all(t >= 0 for c, t in constraints if not c[0]):
            yield from _group_rows([(0, c[0], t) for c, t in bounds], (), 0, 0, lo0, hi0)
        return
    *levels, (ylo, yhi) = zip(los, his)
    head, levels = ((0,), levels) if levels else ((), [(0, 0)])
    yield from _walk(_shadow(constraints, pairs), bounds, head, levels, ylo, yhi, lo0, hi0)


def _enumerate_linear(constraints, box, budget, pairs) -> int:
    """Number of integer points of the box with c.x <= t for all (c, t).

    The innermost coordinate is solved as an exact 1D slab per row, so
    memory is O(1) in the count.
    """
    return sum(ub - lb + 1 for _, lb, ub in _rows(constraints, box, budget, pairs))


def _polytope_system(poly: LatticePolytope, t_coeff=None):
    """Integer constraints and integer box of (t + P) in coefficient space."""
    cons = [(f.normal, f.offset) for f in poly.facets]
    cols = list(zip(*poly.vertices))
    if t_coeff is not None:
        cons = [(a, (b + sum(map(mul, a, t_coeff))).__floor__()) for a, b in cons]
        cols = [[x + t for x in col] for col, t in zip(cols, t_coeff)]
    return cons, ([min(col).__ceil__() for col in cols], [max(col).__floor__() for col in cols])


def count(body: Body, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Exact number of lattice points of the body."""
    if body.kind in ("polytope", "translated_polytope"):
        t_coeff = body.lattice.to_coeff(body.translate) if body.translate else None
        cons, box = _polytope_system(body.polytope, t_coeff)
        return CountResult(_enumerate_linear(cons, box, budget, body.polytope.ridges))
    if body.kind == "halfopen_parallelepiped":
        return count_halfopen_parallelepiped(body, budget)
    if body.kind == "ball":
        # |x B - c|^2 = (x - cB^-1) G (x - cB^-1)^T in coefficients x
        lat = body.lattice
        found, _ = enum_ellipsoid(lat, lat.to_coeff(body.center), body.radius_sq, budget)
        return CountResult(found)
    raise ValueError(f"unknown body kind {body.kind!r}")


def count_halfopen_parallelepiped(body: Body, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Both methods: exact half-open enumeration and |det|; they must agree."""
    gens = [list(g) for g in body.generators]
    n = len(gens)
    det = linalg.det_bareiss(gens)
    if det == 0:
        raise ValueError("degenerate parallelepiped")
    t_coeff = body.lattice.to_coeff(body.anchor)
    # column i of gens^-1 = adj / det gives rho_i; ci / denom is it in lowest terms
    adj = linalg.adjugate(gens)
    sign = 1 if det > 0 else -1
    cons = []
    for i in range(n):
        col = [adj[j][i] for j in range(n)]
        g = gcd(det, *col)
        denom = abs(det) // g
        ci = [sign * c // g for c in col]
        shift = sum(Fraction(c) * t for c, t in zip(ci, t_coeff))
        # 0 <= rho_i:   -ci . x <= -shift        (closed)
        # rho_i < 1:     ci . x <  denom + shift (strict)
        cons.append((tuple(-c for c in ci), (-shift).__floor__()))
        cons.append((tuple(ci), (denom + shift).__ceil__() - 1))
    # the box of the 2^n corners, from the generators' signs
    cols = list(zip(*gens))
    los = [(t + sum(min(0, g) for g in col)).__ceil__() for t, col in zip(t_coeff, cols)]
    his = [(t + sum(max(0, g) for g in col)).__floor__() for t, col in zip(t_coeff, cols)]
    cnt = _enumerate_linear(cons, (los, his), budget, itertools.combinations(range(len(cons)), 2))
    if cnt != abs(det):
        raise ArithmeticError(
            f"parallelepiped count {cnt} disagrees with |det| = {abs(det)}"
        )
    return CountResult(cnt)


def inner_parallel_thresholds(poly: LatticePolytope, rho_sq):
    """Integer facet cutoffs for {z : a_i.z <= b_i - rho*||a_i||}.

    Each comparison is a rational against a single square root, so the
    cutoff is exact: t_i = b_i - ceil(sqrt(rho_sq * ||a_i||^2)).
    """
    rho_sq = Fraction(rho_sq)
    cons = []
    for f, asq in zip(poly.facets, poly.facet_norms_sq):
        cons.append((f.normal, f.offset - ceil_sqrt_fraction(rho_sq * asq)))
    return cons


def count_inner_parallel(
    poly: LatticePolytope, rho_sq, budget: int = DEFAULT_BUDGET
) -> CountResult:
    """Exact count of lattice points of the inner parallel body P - rho*B."""
    cons = inner_parallel_thresholds(poly, rho_sq)
    _, box = _polytope_system(poly)
    return CountResult(_enumerate_linear(cons, box, budget, poly.ridges))
