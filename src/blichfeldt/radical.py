"""Canonical sums of square roots and certified comparison.

A ``RadicalSum`` is sum(q_i * sqrt(d_i)) with rational q_i and distinct
integer radicands d_i (d = 1 carries the rational part).  Radicands are
split by trial division up to 10^6 and the cofactor left is kept whole, so
d_i is squarefree unless that cofactor is at least 10^18 and has a repeated
prime factor above 10^6.  Sums of square roots over distinct squarefree
radicands are linearly independent over the rationals, so a canonical
nonzero value really is nonzero and its sign is decidable by refining an
enclosure.  A radicand that keeps a square factor changes no value:
equality still comes only from identical terms and signs only from
enclosures, so the worst it can cause is Inconclusive, never a wrong
verdict.

``certified_compare`` decides <, =, > for rationals, radical sums and
adaptive enclosures, returning Inconclusive (with the precision reached)
instead of ever guessing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

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
    """Canonical exact value sum(q_i * sqrt(d_i))."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[int, Fraction] = {}
        for coeff, rad in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            s, d = squarefree_decompose(rad)
            merged[d] = merged.get(d, Fraction(0)) + coeff * s
        self.terms = tuple(sorted(
            ((c, d) for d, c in merged.items() if c != 0), key=lambda t: t[1]
        ))

    @staticmethod
    def rational(x) -> "RadicalSum":
        return RadicalSum([(Fraction(x), 1)])

    @staticmethod
    def sqrt(x) -> "RadicalSum":
        """Exact sqrt of a non-negative rational: sqrt(p/q) = sqrt(p*q)/q."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("negative radicand")
        return RadicalSum([(Fraction(1, x.denominator), x.numerator * x.denominator)])

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
        return RadicalSum(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return RadicalSum([(-c, d) for c, d in self.terms])

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
        out = []
        for c1, d1 in self.terms:
            for c2, d2 in other.terms:
                out.append((c1 * c2, d1 * d2))
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
        return self * RadicalSum([(1 / (c * d), d)])

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

    def sign(self, max_bits: int = MAX_BITS) -> int:
        """Exact sign; guaranteed to terminate on canonical values."""
        if not self.terms:
            return 0
        if self.is_rational:
            c = self.terms[0][0]
            return (c > 0) - (c < 0)
        if len(self.terms) == 1:
            c = self.terms[0][0]
            return (c > 0) - (c < 0)
        bits = 64
        while bits <= max_bits:
            enc = self.enclosure(bits)
            if enc.lo > 0:
                return 1
            if enc.hi < 0:
                return -1
            bits *= 2
        raise ArithmeticError("sign of radical sum did not separate")


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
    """Enclosure of an int, Fraction, RadicalSum, fixed Interval, or
    adaptive closure (bits -> Interval) at ``bits``."""
    if isinstance(x, Interval):
        return x
    if isinstance(x, (int, Fraction)):
        return Interval.point(x)
    if isinstance(x, RadicalSum):
        return x.enclosure(bits)
    return x(bits)


def certified_compare(x, y, max_bits: int = MAX_BITS):
    """Certified three-way comparison.

    Accepts ints, Fractions, RadicalSums, fixed Intervals, or callables
    mapping a bit count to an Interval.  Returns a Cmp verdict, or
    Inconclusive(bits) when the enclosures never separate within the
    precision cap.  Equality is only reported from identical canonical
    exact values, never from overlapping enclosures.
    """
    ex, ey = _as_radical(x), _as_radical(y)
    if ex is not NotImplemented and ey is not NotImplemented:
        diff = ex - ey
        if diff.is_zero:
            return Cmp.EQUAL
        try:
            s = diff.sign(max_bits)
        except ArithmeticError:
            return Inconclusive(max_bits)
        return Cmp.GREATER if s > 0 else Cmp.LESS
    bits = DEFAULT_BITS
    while True:
        ix = enclose(x, bits)
        iy = enclose(y, bits)
        if ix.strictly_less(iy):
            return Cmp.LESS
        if iy.strictly_less(ix):
            return Cmp.GREATER
        fixed = isinstance(x, Interval) and isinstance(y, Interval)
        if bits >= max_bits or fixed:
            return Inconclusive(bits)
        bits *= 2
