"""Certified enclosures of real numbers with rational endpoints.

An ``Interval`` always contains the exact value of the expression it was
built from.  Rational operations are exact; square roots, pi, arctangent
and k-th roots round outward to a requested number of bits.  Alternating
series with bracketing partial sums provide the transcendental enclosures,
so no step ever relies on floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


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


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @staticmethod
    def point(x) -> "Interval":
        f = Fraction(x)
        return Interval(f, f)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other):
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by interval containing zero")
        return self * Interval(1 / other.hi, 1 / other.lo)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def strictly_less(self, other) -> bool:
        return self.hi < _coerce(other).lo

    def round_out(self, bits: int) -> "Interval":
        """Outward rounding to dyadic endpoints with the given precision."""
        scale = 1 << bits
        lo = Fraction((self.lo * scale).__floor__(), scale)
        hi = Fraction(-((-self.hi * scale).__floor__()), scale)
        return Interval(lo, hi)


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(x)


def sqrt_fraction(x, bits: int) -> Interval:
    """Enclosure of sqrt(x) for a non-negative rational x."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Interval.point(0)
    p, q = x.numerator, x.denominator
    # sqrt(p/q) = sqrt(p*q)/q
    num = p * q
    s = isqrt(num << (2 * bits))
    den = q << bits
    lo = Fraction(s, den)
    hi = lo if s * s == num << (2 * bits) else Fraction(s + 1, den)
    return Interval(lo, hi)


def sqrt_interval(iv: Interval, bits: int) -> Interval:
    if iv.lo < 0:
        raise ValueError("negative radicand")
    return Interval(sqrt_fraction(iv.lo, bits).lo, sqrt_fraction(iv.hi, bits).hi)


def root_fraction(x, k: int, bits: int) -> Interval:
    """Enclosure of x**(1/k) for a non-negative rational x."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Interval.point(0)
    p, q = x.numerator, x.denominator
    # (p/q)^(1/k) = (p*q^(k-1))^(1/k) / q
    num = p * q ** (k - 1)
    s = iroot(num << (k * bits), k)
    den = q << bits
    lo = Fraction(s, den)
    hi = lo if s ** k == num << (k * bits) else Fraction(s + 1, den)
    return Interval(lo, hi)


def root_interval(iv: Interval, k: int, bits: int) -> Interval:
    return Interval(root_fraction(iv.lo, k, bits).lo, root_fraction(iv.hi, k, bits).hi)


_PI_CACHE: dict[int, Interval] = {}


def _atan_inv(x: int, bits: int) -> Interval:
    """Enclosure of atan(1/x) for an integer x >= 2."""
    return _atan_series(Fraction(1, x), bits)


def pi(bits: int) -> Interval:
    """Machin's formula: pi = 16*atan(1/5) - 4*atan(1/239)."""
    if bits not in _PI_CACHE:
        val = 16 * _atan_inv(5, bits + 8) - 4 * _atan_inv(239, bits + 8)
        _PI_CACHE[bits] = val.round_out(bits)
    return _PI_CACHE[bits]


def _atan_series(t: Fraction, bits: int) -> Interval:
    """atan for |t| <= 1/2 via the alternating Taylor series.

    The terms are (-1)^k t^(2k+1)/(2k+1); the series stops at the first
    term N below 2^-(bits+8), and the partial sums S_N and S_(N-1) bracket
    the limit (S_(-1) = 0).  With t = a/b both sums are kept as integer
    numerators over the common denominator lcm(1, 3, .., 2k+1) * b^(2k+1),
    so the loop does no gcd work; only the two endpoints are reduced.
    """
    if t == 0:
        return Interval.point(0)
    a, b = t.numerator, t.denominator
    asq, bsq = a * a, b * b
    apow, bpow = a, b           # a^(2k+1), b^(2k+1)
    den_lcm = 1                 # lcm(1, 3, .., 2k+1)
    num = 0                     # S_k * den_lcm * b^(2k+1)
    k = 0
    while True:
        d = 2 * k + 1
        step = d // gcd(den_lcm, d)
        den_lcm *= step
        term = den_lcm // d * apow
        if k % 2:
            term = -term
        num = num * step * bsq + term
        # |t^d / d| < 2^-(bits+8), cross-multiplied
        if abs(apow) << (bits + 8) < d * bpow:
            den = den_lcm * bpow
            s, prev = Fraction(num, den), Fraction(num - term, den)
            return Interval(min(s, prev), max(s, prev))
        apow *= asq
        bpow *= bsq
        k += 1


def _atan_fraction(t: Fraction, bits: int) -> Interval:
    if t < 0:
        return -_atan_fraction(-t, bits)
    if t > 1:
        return pi(bits) / 2 - _atan_fraction(1 / t, bits)
    if t == 1:
        return pi(bits) / 4
    if t > Fraction(1, 2):
        # atan(t) = pi/4 + atan((t-1)/(1+t)); argument lands in (-1/3, 0]
        return pi(bits) / 4 + _atan_series((t - 1) / (1 + t), bits)
    return _atan_series(t, bits)


def atan_interval(iv: Interval, bits: int) -> Interval:
    iv = iv.round_out(bits + 16)
    return Interval(
        _atan_fraction(iv.lo, bits).lo, _atan_fraction(iv.hi, bits).hi
    ).round_out(bits)


def acos_interval(c: Interval, bits: int) -> Interval:
    """Enclosure of arccos(c) for c strictly inside (-1, 1).

    Uses acos(c) = pi/2 - atan(c / sqrt(1 - c^2)), valid on all of (-1, 1).
    """
    if c.lo <= -1 or c.hi >= 1:
        raise ValueError("cosine enclosure must lie strictly inside (-1, 1)")
    s = sqrt_interval((1 - c * c).round_out(bits + 16), bits + 16)
    return (pi(bits) / 2 - atan_interval(c / s, bits)).round_out(bits)
