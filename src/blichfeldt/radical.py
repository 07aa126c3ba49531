"""Canonical sums of square roots and certified comparison.

A ``RadicalSum`` is sum(q_i * sqrt(d_i)) with rational q_i and distinct
integer radicands d_i (d = 1 carries the rational part), canonical by
construction.  ``RadicalSum.sqrt`` is the one place a radicand is
factored: the primes below 10^6 that divide it are split off and the
cofactor left is kept whole, so d is squarefree unless that cofactor is
at least 10^18 and has a repeated prime factor above 10^6.  Every other
operation keeps the form without factoring: sums merge equal radicands,
and a product needs only g = gcd(d1, d2), since sqrt(d1) * sqrt(d2) =
g * sqrt((d1/g)(d2/g)) for any integers and (d1/g)(d2/g) is squarefree
when d1 and d2 are.

Sums of square roots over distinct squarefree radicands are linearly
independent over the rationals (Besicovitch), so a canonical nonzero
value really is nonzero, and ``certified_compare`` never guesses.  A
radicand that keeps a square factor changes no value: equality still
comes only from identical terms, so the worst it can cause is
Inconclusive, never a wrong verdict.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from blichfeldt.interval import Interval, dyadic, root_ends

DEFAULT_BITS = 128
MAX_BITS = 4096

_TRIAL_LIMIT = 10 ** 6
_RUN = 1 << 11      # trial primes are taken a range of this width at a time


@functools.cache
def _sieve(limit: int) -> bytearray:
    flags = bytearray(b"\0\0" + b"\1" * (limit - 2))     # 1 at the primes
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return flags


@functools.cache
def _prime_product(lo: int) -> int:
    """Product of the primes in [lo, lo + _RUN) below ``_TRIAL_LIMIT``."""
    flags = _sieve(_RUN if lo == 0 else _TRIAL_LIMIT)
    return prod(compress(range(lo, lo + _RUN), flags[lo:lo + _RUN]))


def squarefree_decompose(n: int) -> tuple[int, int]:
    """n = s^2 * d for n >= 0, as (s, d): the trial primes that a gcd with
    their range's product shows are divided out, the cofactor taken whole."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    s, d = 1, 1
    for lo in range(0, _TRIAL_LIMIT, _RUN):
        if lo * lo > n:     # no prime factor below lo: n is 1 or prime
            break
        g = gcd(n, _prime_product(lo))
        for p in range(max(lo, 2), lo + _RUN):
            if g == 1 or p * p > n:
                break
            if g % p == 0:  # p is prime: its factors left g before it
                g //= p
                while n % (p * p) == 0:
                    n, s = n // (p * p), s * p
                if n % p == 0:
                    n, d = n // p, d * p
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
        """The exact interval sum rounded out to 2^-bits, as one integer sum
        over den * 2^bits (den = lcm of the denominators): numerator times
        the floor or ceiling of sqrt(d) 2^bits, as the sign needs it."""
        den = lcm(*(c.denominator for c, _ in self.terms))
        lo = hi = 0
        for c, d in self.terms:
            p = c.numerator * (den // c.denominator)
            s, up = root_ends(d, 1, 2, bits)
            lo += p * (s if p > 0 else up)
            hi += p * (up if p > 0 else s)
        return dyadic(lo, hi, den << bits, bits)


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


class Inconclusive(NamedTuple):
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
