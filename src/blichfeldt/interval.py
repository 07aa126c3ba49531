"""Certified enclosures of real numbers with rational endpoints.

An ``Interval`` always contains the exact value of the expression it was
built from.  Rational operations are exact; square roots, pi, arctangent
and k-th roots round outward to a requested number of bits.  Alternating
series with bracketing partial sums provide the transcendental enclosures,
so no step ever relies on floating point.

The kernels sum on integers and floor once (``dyadic``).  An arctangent
series is rounded out to 2^-(bits+8) and shifted by a multiple m of
pi(bits)/4, on the 2^-(bits+2) grid, before the 2^-bits rounding; as
floor_b(m + floor_w(y)) = floor_b(m + y) for m on the 2^-w grid, w >= b,
and likewise for ceilings, atan and acos keep the exact sums' endpoints.
"""

from __future__ import annotations

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


class Interval:
    """[lo, hi] with lo <= hi; a value, not a tuple: no concatenation, no order."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("empty interval")
        self.lo, self.hi = lo, hi

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    @staticmethod
    def point(x) -> "Interval":
        f = Fraction(x)
        return Interval(f, f)

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


def dyadic(lo: int, hi: int, den: int, bits: int) -> Interval:
    """[lo/den, hi/den], den > 0, rounded out to 2^-bits: two divisions."""
    scale = 1 << bits
    return Interval(Fraction((lo << bits) // den, scale),
                    Fraction(-((-hi << bits) // den), scale))


_PI_CACHE: dict[int, Interval] = {}


def pi(bits: int) -> Interval:
    """Machin's formula: pi = 16*atan(1/5) - 4*atan(1/239), floored once."""
    if bits not in _PI_CACHE:
        lo5, hi5, d5 = _atan_sums(Fraction(1, 5), bits + 8)
        lo239, hi239, d239 = _atan_sums(Fraction(1, 239), bits + 8)
        _PI_CACHE[bits] = dyadic(16 * lo5 * d239 - 4 * hi239 * d5,
                                 16 * hi5 * d239 - 4 * lo239 * d5, d5 * d239, bits)
    return _PI_CACHE[bits]


def _atan_sums(t: Fraction, bits: int) -> tuple[int, int, int]:
    """atan for |t| <= 1/2 via the alternating Taylor series.

    The terms are (-1)^k t^(2k+1)/(2k+1); the series stops at the first
    term N below 2^-(bits+8), and the partial sums S_N and S_(N-1) bracket
    the limit (S_(-1) = 0).  With t = a/b they are returned as (lower,
    upper, denominator): integer numerators, ordered by the last term's
    sign, over lcm(1, 3, .., 2N+1) * b^(2N+1), so the loop needs no gcd.
    """
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
            prev = num - term
            return (prev, num, den_lcm * bpow) if term > 0 else (num, prev, den_lcm * bpow)
        apow *= asq
        bpow *= bsq
        k += 1


def _atan_series(t: Fraction, bits: int) -> Interval:
    """The bracket of ``_atan_sums`` rounded out to 2^-(bits+8)."""
    return dyadic(*_atan_sums(t, bits), bits + 8)


def _atan_fraction(t: Fraction, bits: int) -> Interval:
    if t < 0:
        return -_atan_fraction(-t, bits)
    if t > 1:
        return pi(bits) / 2 - _atan_fraction(1 / t, bits)
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
