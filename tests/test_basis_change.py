"""Basis-change invariance: one ambient body, two bases of its lattice.

A body over the basis B and the same ambient body over U B, for a
unimodular U, are one set of points in one lattice.  So the count, the
volume, the surface area and every general-lattice verdict must agree
exactly, whatever the program does with the basis inside.  The second
side's coefficient vertices are X U^-1, computed with the Fraction oracle.
"""

from operator import mul

import pytest

from blichfeldt import counting as ct
from blichfeldt import harness as hz
from blichfeldt import polytope as pt
from blichfeldt import witnesses as wt
from blichfeldt.counting import Body
from blichfeldt.harness import InequalityId as I
from blichfeldt.lattice import Lattice
from blichfeldt.rng import Rng
from oracles import frac_inv

IDS = (I.GENERAL_1_3_i, I.GENERAL_1_3_ii, I.CONJECTURE_1_4, I.GENERAL_THM_4_1)


def _mat_mul(a, b):
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def _unimodular(rng, n):
    """A product of two row additions, a swap and a sign change.

    More row additions skew U B further, and the Voronoi cell behind
    GENERAL_THM_4_1 is enumerated on the unreduced basis: with three, one
    3D cell took seconds.
    """
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2):
        i, j = rng.randrange(n), rng.randrange(n - 1)
        j += j >= i
        k = rng.randint(-2, 2)
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    i = rng.randrange(n)
    u[0], u[i] = u[i], u[0]
    u[-1] = [-x for x in u[-1]]
    return u


def _two_bases(seed, n):
    """The same hull over B and over U B, B a rational basis."""
    rng = Rng(seed, stream=n)
    base = wt.random_lattice(rng, n, 4).basis
    basis = [[x / d for x in row] for row, d in zip(base, (1 + rng.randrange(3) for _ in base))]
    u = _unimodular(rng, n)
    poly = wt.random_hull(rng, n, n + 3, 3, lattice=Lattice(basis))
    u_inv = frac_inv(u)
    moved = [tuple(int(x) for x in row) for row in _mat_mul(poly.vertices, u_inv)]
    other = pt.hull(moved, lattice=Lattice(_mat_mul(u, basis)))
    return poly, other


def _outcome(body):
    reports = [hz.check(i, body) for i in IDS]
    return (ct.count(body).count, body.polytope.volume, body.polytope.surface_area,
            [(r.verdict, r.lhs, r.rhs) for r in reports])


@pytest.mark.parametrize("translated", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_same_body_over_two_bases(n, translated):
    for seed in range(4):
        poly, other = _two_bases(seed, n)
        assert poly.lattice.basis != other.lattice.basis
        assert other.lattice.determinant == poly.lattice.determinant
        ambient = {poly.lattice.to_ambient(v) for v in poly.vertices}
        assert {other.lattice.to_ambient(v) for v in other.vertices} == ambient
        if translated:
            # half the first basis vector of B: an ambient translate off the lattice
            t = tuple(x / 2 for x in poly.lattice.basis[0])
            bodies = wt.half_translate(poly, t), wt.half_translate(other, t)
        else:
            bodies = Body.from_polytope(poly), Body.from_polytope(other)
        assert _outcome(bodies[0]) == _outcome(bodies[1])
