"""Independent oracles that the tests hold the program's results against.

Each computes a quantity the package also computes, by a second route that
shares none of the code under test: determinants, inverses and ranks by
Gaussian elimination on Fractions, a simplex's normal from the cofactors of its
edges (the hull's kernel before ``linalg.cross``), the volume from a reversed placing
triangulation and from signed cones, facet sublattices from an explicit
unimodular kernel basis, the sublattice determinant behind det(L) lambda_1(L*),
Pick's identity in 2D, a 3D polytope's edges as the facet pairs sharing
two vertices, the greedy facet key of the hull's earlier placing order,
the Ehrhart polynomial through a polytope's dilate counts, whether a real
line along x_0 meets a polytope, in
rationals, the row sweep that solves each row's x_0 slab by a full dot
product (the package's earlier sweep, which shares only
``counting._shadow`` with the code under test), roots by Newton's iteration into ``Interval``s of
``Fraction``s and by search loops on ``Fraction``s (the package's earlier
root code, which ``interval.root_ends`` replaced), and the Fraction
Fincke-Pohst enumerator on a Fraction LDL^T with its closed-form
floor(a + sqrt(t)) bounds (the package's earlier ``enum_ellipsoid``, which
the integer one replaced).  ``width`` is the
tests' gauge of an enclosure's precision, and ``reciprocal`` lets the
reference formulas divide by an ``Interval``, which has no division.
Nothing in ``src/`` calls these.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd, isqrt, prod
from operator import mul

from blichfeldt import linalg
from blichfeldt.counting import Body, _shadow, count
from blichfeldt.interval import Interval, root_ends
from blichfeldt.lattice import DEFAULT_BUDGET, EnumerationBudgetError, Lattice
from blichfeldt.linalg import DegenerateBasisError
from blichfeldt.polytope import LatticePolytope, convex_hull_facets


def width(iv: Interval) -> Fraction:
    return iv.hi - iv.lo


def reciprocal(iv: Interval) -> Interval:
    """The enclosure 1 / iv of an Interval that excludes 0."""
    if iv.lo <= 0 <= iv.hi:
        raise ZeroDivisionError("reciprocal of an interval containing zero")
    return Interval(1 / iv.hi, 1 / iv.lo)


# ---------------------------------------------------------------------------
# rational matrices by Gaussian elimination on Fractions


def frac_vec_mat(v, m):
    return [sum((v[i] * m[i][j] for i in range(len(v))), Fraction(0)) for j in range(len(m[0]))]


def frac_det(m) -> Fraction:
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] * inv
            if f:
                a[i] = [a[i][j] - f * a[k][j] for j in range(n)]
    return det


def frac_rank(m) -> int:
    """Rank of a rational matrix, by Gauss-Jordan elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def frac_inv(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        piv = None
        for i in range(k, n):
            if a[i][k] != 0:
                piv = i
                break
        if piv is None:
            raise DegenerateBasisError("singular matrix")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [a[i][j] - f * a[k][j] for j in range(2 * n)]
    return [row[n:] for row in a]


def simplex_normal(simplex):
    """Generalized cross product N of the edges of d points in Z^d.

    N.(x - simplex[0]) is the determinant of the edges and x - simplex[0],
    so N is normal to their hyperplane and |N| is (d-1)! times their volume.
    The minors go through ``frac_det``: ``linalg.det_bareiss`` itself calls
    ``linalg.cross`` up to 3x3.
    """
    base = simplex[0]
    d = len(base)
    rows = [[x - y for x, y in zip(p, base)] for p in simplex[1:]]
    return [
        (-1) ** (d - 1 + j) * int(frac_det([r[:j] + r[j + 1:] for r in rows]))
        for j in range(d)
    ]


# ---------------------------------------------------------------------------
# integer kernels


def _xgcd(a, b):
    """Extended gcd: returns (g, x, y) with a*x + b*y = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def unimodular_for_primitive(c):
    """Unimodular U with U @ c == e_1, for a primitive integer vector c.

    Rows 2..n of U form a basis of the integer kernel lattice {u : u.c = 0}.
    """
    n = len(c)
    u = linalg.identity(n)
    vals = list(c)
    for i in range(1, n):
        if vals[i] == 0:
            continue
        g, x, y = _xgcd(vals[0], vals[i])
        p = vals[0] // g
        q = vals[i] // g
        r0, ri = u[0], u[i]
        u[0] = [x * r0[j] + y * ri[j] for j in range(n)]
        u[i] = [-q * r0[j] + p * ri[j] for j in range(n)]
        vals[0], vals[i] = g, 0
    if vals[0] == -1:
        u[0] = [-x for x in u[0]]
        vals[0] = 1
    if vals[0] != 1:
        raise ValueError("vector is not primitive")
    return u


def kernel_basis(c):
    """Integer basis of the saturated kernel lattice of a primitive vector c."""
    u = unimodular_for_primitive(c)
    return u[1:]


# ---------------------------------------------------------------------------
# facet order


def placing_key(points, on):
    """The key that ordered a hull's facets before they came in id order.

    ``on`` is a facet's sorted point ids.  The key is ``on[0]``, then the
    ids of ``on[1:]`` whose differences from ``points[0]`` (not from the
    facet's first point), scanned in order, extend a linearly independent
    set: d - 1 of them, the greedy choice.  Sorting by ids never orders two
    facets against this key.
    """
    d = len(points[0])
    key, diffs = [on[0]], []
    for i in on[1:]:
        if len(key) == d:
            break
        v = [x - y for x, y in zip(points[i], points[0])]
        if frac_rank(diffs + [v]) > len(diffs):
            diffs.append(v)
            key.append(i)
    return tuple(key)


# ---------------------------------------------------------------------------
# volume


def normalized_volume_reversed(poly: LatticePolytope) -> Fraction:
    """``polytope.normalized_volume`` from the vertices placed in reverse
    order: a second, different placing triangulation."""
    dets = convex_hull_facets(poly.vertices[::-1])[1]
    return Fraction(dets, factorial(poly.dim))


def volume_by_signed_cones(poly: LatticePolytope) -> Fraction:
    """Independent volume computation: signed cones from the coeff origin.

    Each facet's vertices are hulled afresh, projected along a coordinate j
    where its normal a is nonzero (injective on the facet's hyperplane), so
    no measure of ``poly``'s own hull is used.  The projection has (n-1)!
    times its volume in ``dets_f``, and the cone over the facet has n! times
    its signed volume in offset * dets_f / |a_j|.
    """
    d = poly.dim
    total = Fraction(0)
    for f in poly.facets:
        vs = [poly.vertices[i] for i in f.vertex_ids]
        j = max(range(d), key=lambda j: abs(f.normal[j]))
        dets_f = convex_hull_facets([v[:j] + v[j + 1:] for v in vs])[1] if d > 1 else 1
        total += Fraction(f.offset * dets_f, abs(f.normal[j]))
    return total / factorial(d) * poly.lattice.determinant


# ---------------------------------------------------------------------------
# facet lattice data


def facet_lattice_coords(poly: LatticePolytope, i: int):
    """Integer coordinates of facet i's vertices in the facet sublattice.

    The primitive normal is extended to a unimodular transform; the kernel
    rows give an explicit basis of {u : normal.u = 0}, so the facet lives
    in Z^(n-1) and its lattice-normalized volume is purely rational.
    """
    f = poly.facets[i]
    u = unimodular_for_primitive(list(f.normal))
    uinv = frac_inv(u)
    ys = []
    for vid in f.vertex_ids:
        z = frac_vec_mat([Fraction(x) for x in poly.vertices[vid]], uinv)
        assert z[0] == f.offset
        ys.append(tuple(int(x) for x in z[1:]))
    kernel = u[1:]
    return ys, kernel


def hyperplane_sublattice_det_sq(lat: Lattice, dual_coeff) -> Fraction:
    """Squared determinant of {u in L : a.u = 0} for a primitive dual vector.

    The dual vector is given by its (primitive, gcd 1) coefficients in the
    dual basis; the sublattice determinant is computed directly from an
    explicit kernel basis, independent of the polar-lattice identity.
    """
    kernel = kernel_basis(list(dual_coeff))
    rows = [lat.to_ambient(k) for k in kernel]
    m = len(rows)
    gram = [
        [sum(rows[i][k] * rows[j][k] for k in range(lat.dim)) for j in range(m)]
        for i in range(m)
    ]
    return frac_det(gram)


# ---------------------------------------------------------------------------
# counting


def pick_quantities(poly: LatticePolytope, budget: int = DEFAULT_BUDGET):
    """(area, boundary count, interior count) of a lattice polygon.

    Pick's identity G = A + B/2 + 1 ties these together; used as a joint
    2D oracle for counting and volume.
    """
    if poly.dim != 2:
        raise ValueError("dimension unsupported")
    area = poly.volume
    boundary = 0
    for f in poly.facets:
        a, b = (poly.vertices[i] for i in (f.vertex_ids[0], f.vertex_ids[-1]))
        boundary += gcd(abs(a[0] - b[0]), abs(a[1] - b[1]))
    g = count(Body.from_polytope(poly), budget).count
    return area, boundary, g - boundary


def interpolate(values):
    """Coefficients c_0, .., c_m of the degree-m polynomial through
    (k, values[k - 1]) for k = 1..m+1, exact: the Vandermonde system solved
    on Fractions.  With a lattice polytope's counts of its first n + 1
    dilates, m = n, it is the Ehrhart polynomial."""
    m = len(values)
    inv = frac_inv([[k ** j for j in range(m)] for k in range(1, m + 1)])
    return [sum(map(mul, row, values)) for row in inv]


def polytope_edges(poly: LatticePolytope):
    """Edges as (vertex pair, adjacent facet pair); 3D polytopes only."""
    edges = []
    m = len(poly.facets)
    for i in range(m):
        for j in range(i + 1, m):
            common = sorted(
                set(poly.facets[i].vertex_ids) & set(poly.facets[j].vertex_ids)
            )
            if len(common) == 2:
                edges.append(((common[0], common[1]), (i, j)))
    return edges


def real_row_meets(constraints, base):
    """True when the real line base + x_0 e_0 meets {c.x <= t}, in Fraction."""
    lo = hi = None
    for c, t in constraints:
        rem = Fraction(t - sum(map(mul, c, base)), c[0] or 1)
        if c[0] > 0:
            hi = rem if hi is None else min(hi, rem)
        elif c[0] < 0:
            lo = rem if lo is None else max(lo, rem)
        elif rem < 0:
            return False
    return lo is None or hi is None or lo <= hi


# ---------------------------------------------------------------------------
# the row sweep that solves every row by full dot products (the package's
# earlier ``counting._row_interval`` and ``counting._rows``, before a
# group's residuals were folded); it eliminates x_0 by ``counting._shadow``


def row_interval(constraints, base, lb, ub):
    """The x_0 range [lb', ub'] of the row base + x_0 e_0 inside [lb, ub].

    ``base`` has x_0 = 0; the points kept satisfy c.x <= t for every
    integer pair (c, t).  The row is empty when lb' > ub'.
    """
    for c, t in constraints:
        rem = t - sum(map(mul, c, base))
        c0 = c[0]
        if c0 > 0:
            ub = min(ub, rem // c0)
        elif c0 < 0:
            lb = max(lb, -(rem // (-c0)))  # ceil(rem / c0)
        elif rem < 0:
            return lb, lb - 1
        if lb > ub:
            break
    return lb, ub


def sweep_rows(constraints, box, budget, pairs):
    """The non-empty rows (base, lb, ub) of the box's points with c.x <= t.

    A row is the line base + x_0 e_0, base = (0, x_1, .., x_{n-1}), and its
    points are lb <= x_0 <= ub.  Only the rows that the shadow of ``pairs``
    (index pairs into the constraints, see ``_shadow``) reaches are solved:
    for each (x_1, .., x_{n-2}) the one x_{n-1} interval it leaves.  A
    skipped row meets no real point of the body, so it holds no integer
    one.  Raises ``EnumerationBudgetError`` when the box holds more cells
    than the budget allows.
    """
    (lo0, *los), (hi0, *his) = box
    cells = prod(max(0, hi - lo + 1) for lo, hi in zip(*box))
    if cells > budget:
        raise EnumerationBudgetError(budget)
    if not cells:
        return
    bases = [(0,)]
    if los:
        # x_{n-1} first, the coordinate row_interval solves
        shadow = [(c[-1:] + c[1:-1], t) for c, t in _shadow(constraints, pairs)]
        *heads, last = [range(lo, hi + 1) for lo, hi in zip(los, his)]
        bases = (base + (x,) for base in ((0,) + head for head in itertools.product(*heads))
                 for lo, hi in [row_interval(shadow, base, last[0], last[-1])]
                 for x in range(lo, hi + 1))
    for base in bases:
        lb, ub = row_interval(constraints, base, lo0, hi0)
        if lb <= ub:
            yield base, lb, ub


# ---------------------------------------------------------------------------
# roots by Newton's iteration and by search, into Intervals and Fractions


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a non-negative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def root_fraction(x, k: int, bits: int) -> Interval:
    """Enclosure of x**(1/k) for a non-negative rational x."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    # (p/q)^(1/k) = (p*q^(k-1))^(1/k) / q
    p, q = x.numerator, x.denominator
    num = p * q ** (k - 1) << k * bits
    s = isqrt(num) if k == 2 else iroot(num, k)
    return Interval(Fraction(s, q << bits), Fraction(s if s ** k == num else s + 1, q << bits))


def root_interval(iv: Interval, k: int, bits: int) -> Interval:
    return Interval(root_fraction(iv.lo, k, bits).lo, root_fraction(iv.hi, k, bits).hi)


def sqrt_fraction(x, bits: int) -> Interval:
    return root_fraction(x, 2, bits)


def sqrt_interval(iv: Interval, bits: int) -> Interval:
    return root_interval(iv, 2, bits)


def ceil_sqrt_by_search(r) -> int:
    """Smallest integer >= sqrt(r) for a non-negative rational r."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("negative radicand")
    p, q = r.numerator, r.denominator
    m = isqrt(p // q)
    while m * m * q < p:
        m += 1
    return m


def floor_plus_sqrt_by_search(a: Fraction, t: Fraction) -> int:
    """floor(a + sqrt(t)) for rationals, t >= 0, computed exactly."""
    p, q = t.numerator, t.denominator
    hi = Fraction(isqrt(p * q) + 1, q)  # upper bound on sqrt(t)
    m = (a + hi).__floor__() + 1
    while True:
        diff = m - a
        if diff <= 0 or diff * diff <= t:
            return m
        m -= 1


# ---------------------------------------------------------------------------
# ellipsoid enumeration in Fractions (the package's earlier enumerator)


def _ldl(gram):
    """G = L D L^T with unit lower-triangular L and positive diagonal D."""
    n = len(gram)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        D[j] = gram[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if D[j] <= 0:
            raise ValueError("Gram matrix not positive definite")
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            L[i][j] = (gram[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
    return L, D


def floor_plus_sqrt(a: Fraction, t: Fraction) -> int:
    """floor(a + sqrt(t)) for rationals, t >= 0, computed exactly: with
    a = u/v and t = p/q it is (u q + floor(sqrt(v^2 p q))) // (v q)."""
    u, v, p, q = a.numerator, a.denominator, t.numerator, t.denominator
    return (u * q + root_ends(v * v * p, q, 2, 0)[0]) // (v * q)


def ceil_minus_sqrt(a: Fraction, t: Fraction) -> int:
    return -floor_plus_sqrt(-a, t)


def enum_ellipsoid_fractions(lat: Lattice, center, radius_sq, budget: int = DEFAULT_BUDGET,
                             points: bool = False):
    """``lattice.enum_ellipsoid`` on a Fraction LDL^T of the Gram matrix:
    every level's centre, remaining radius and bound is a ``Fraction``."""
    n = lat.dim
    d2 = lat.den ** 2
    L, D = _ldl([[Fraction(x, d2) for x in row] for row in lat.gram_B])
    # level j is centred at shift[j] - sum_{i>j} L[i][j] x_i
    shift = [center[j] + sum(L[i][j] * center[i] for i in range(j + 1, n)) for j in range(n)]
    radius_sq = Fraction(radius_sq)
    out = []
    x = [0] * n
    found = nodes = 0

    def rec(j, remaining):
        nonlocal found, nodes
        a = shift[j] - sum(L[i][j] * x[i] for i in range(j + 1, n))
        bound = remaining / D[j]
        lo, hi = ceil_minus_sqrt(a, bound), floor_plus_sqrt(a, bound)
        if lo > hi:
            return
        nodes += hi - lo + 1
        if nodes > budget:
            raise EnumerationBudgetError(budget)
        if j == 0 and not points:
            found += hi - lo + 1
            return
        for xj in range(lo, hi + 1):
            x[j] = xj
            left = remaining - D[j] * (xj - a) ** 2
            if j == 0:
                out.append((tuple(x), radius_sq - left))
            else:
                rec(j - 1, left)

    rec(n - 1, radius_sq)
    return (out if points else found), nodes
