"""Canonical sums of square roots and certified comparison.

A ``RadicalSum`` is sum(q_i * sqrt(d_i)) with rational q_i and distinct
integer radicands d_i (d = 1 carries the rational part), canonical by
construction.  ``RadicalSum.sqrt`` is the one place a radicand is
factored: trial division up to 10^6 splits it and the cofactor left is
kept whole, so d is squarefree unless that cofactor is at least 10^18 and
has a repeated prime factor above 10^6.  Every other operation keeps the
form without factoring: sums merge equal radicands, and a product needs
only g = gcd(d1, d2), since sqrt(d1) * sqrt(d2) = g * sqrt((d1/g)(d2/g))
for any integers and (d1/g)(d2/g) is squarefree when d1 and d2 are.

Sums of square roots over distinct squarefree radicands are linearly
independent over the rationals (Besicovitch), so a canonical nonzero
value really is nonzero.  ``certified_compare`` decides <, =, > for
rationals, radical sums and adaptive enclosures, returning Inconclusive
(with the precision reached) instead of ever guessing.  Two exact values
are compared through their canonical difference: with at most one term
the sign is its coefficient's, with more it comes from the same
enclosure-refinement loop as closures.  A radicand that keeps a square
factor changes no value: equality still comes only from identical terms
and signs only from a coefficient or an enclosure, so the worst it can
cause is Inconclusive, never a wrong verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from blichfeldt.interval import Interval, sqrt_fraction

DEFAULT_BITS = 128
MAX_BITS = 4096

_TRIAL_LIMIT = 10 ** 6


def squarefree_decompose(n: int) -> tuple[int, int]:
    """n = s^2 * d for n >= 0; returns (s, d).

    Trial division by 2 and the odd numbers up to ``_TRIAL_LIMIT`` splits
    off the small primes; the cofactor left over is taken whole, into s
    when it is a perfect square and into d otherwise.  d is squarefree
    whenever that cofactor is squarefree or below ``_TRIAL_LIMIT`` cubed
    (it is then 1, p, p^2 or pq), so only a cofactor of at least 10^18 with
    a repeated prime factor above 10^6 leaves a square factor in d.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    # cheap exit for perfect squares before trial division
    r = isqrt(n)
    if r * r == n:
        return r, 1
    s, d = 1, 1
    p = 2
    while p * p <= n and p <= _TRIAL_LIMIT:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    r = isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n


class RadicalSum:
    """Exact value sum(q_i * sqrt(d_i)), canonical by construction."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """From canonical terms {d: q}; zero coefficients are dropped."""
        self.terms = tuple((c, d) for d, c in sorted(dict(terms).items()) if c)

    @staticmethod
    def rational(x) -> "RadicalSum":
        return RadicalSum({1: Fraction(x)})

    @staticmethod
    def sqrt(x) -> "RadicalSum":
        """Exact sqrt of a non-negative rational: sqrt(p/q) = sqrt(p*q)/q."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative radicand")
        s, d = squarefree_decompose(x.numerator * x.denominator)
        return RadicalSum({d: Fraction(s, x.denominator)})

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_rational(self) -> bool:
        return all(d == 1 for _, d in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError("not a rational value")
        return self.terms[0][0]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _as_radical(other)
        if other is NotImplemented:
            return NotImplemented
        merged = {d: c for c, d in self.terms}
        for c, d in other.terms:
            merged[d] = merged.get(d, 0) + c
        return RadicalSum(merged)

    __radd__ = __add__

    def __neg__(self):
        return RadicalSum({d: -c for c, d in self.terms})

    def __sub__(self, other):
        other = _as_radical(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_radical(other) - self

    def __mul__(self, other):
        other = _as_radical(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for c1, d1 in self.terms:
            for c2, d2 in other.terms:
                # sqrt(d1) * sqrt(d2) = g * sqrt((d1/g) * (d2/g))
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                out[d] = out.get(d, 0) + c1 * c2 * g
        return RadicalSum(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_radical(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError
        if len(other.terms) != 1:
            raise ValueError("division only by a single-term radical")
        c, d = other.terms[0]
        # 1/(c*sqrt(d)) = sqrt(d)/(c*d)
        return self * RadicalSum({d: 1 / (c * d)})

    def __eq__(self, other):
        other = _as_radical(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if not self.terms:
            return "RadicalSum(0)"
        parts = []
        for c, d in self.terms:
            parts.append(str(c) if d == 1 else f"{c}*sqrt({d})")
        return "RadicalSum(" + " + ".join(parts) + ")"

    # -- evaluation ----------------------------------------------------

    def enclosure(self, bits: int = DEFAULT_BITS) -> Interval:
        total = Interval.point(0)
        for c, d in self.terms:
            if d == 1:
                total = total + Interval.point(c)
            else:
                total = total + c * sqrt_fraction(Fraction(d), bits)
        return total.round_out(bits)


def _as_radical(x):
    if isinstance(x, RadicalSum):
        return x
    if isinstance(x, (int, Fraction)):
        return RadicalSum.rational(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# certified comparison


class Cmp(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


@dataclass(frozen=True)
class Inconclusive:
    precision_bits: int


def enclose(x, bits: int = DEFAULT_BITS) -> Interval:
    """Enclosure of an int, Fraction, RadicalSum or adaptive closure
    (bits -> Interval) at ``bits``."""
    if isinstance(x, (int, Fraction)):
        return Interval.point(x)
    if isinstance(x, RadicalSum):
        return x.enclosure(bits)
    return x(bits)


def certified_compare(x, y, max_bits: int = MAX_BITS):
    """Certified three-way comparison.

    Accepts ints, Fractions, RadicalSums, or callables mapping a bit count
    to an Interval.  Returns a Cmp verdict, or Inconclusive(bits) with the
    last precision tried when the enclosures never separate within the
    cap.  Two exact values are compared through their canonical
    difference: with at most one term its coefficient's sign decides
    (zero is EQUAL), with more the difference is refined against 0 in the
    same loop as closures.  Equality is only reported from identical
    canonical exact values, never from overlapping enclosures.
    """
    ex, ey = _as_radical(x), _as_radical(y)
    if ex is not NotImplemented and ey is not NotImplemented:
        diff = ex - ey
        if len(diff.terms) <= 1:
            c = diff.terms[0][0] if diff.terms else 0
            return Cmp.GREATER if c > 0 else Cmp.LESS if c < 0 else Cmp.EQUAL
        x, y = diff, 0
    bits = DEFAULT_BITS
    while True:
        ix = enclose(x, bits)
        iy = enclose(y, bits)
        if ix.strictly_less(iy):
            return Cmp.LESS
        if iy.strictly_less(ix):
            return Cmp.GREATER
        if bits >= max_bits:
            return Inconclusive(bits)
        bits *= 2
