"""Certified enclosures of real numbers with rational endpoints.

An ``Interval`` always contains the exact value of the expression it was
built from.  Rational operations are exact; square roots, pi, arctangent
and k-th roots round outward to a requested number of bits.  Alternating
series with bracketing partial sums provide the transcendental enclosures,
so no step ever relies on floating point.

Every root in the package is ``root_ends(p, q, k, bits)``: the floor and
ceiling of (p/q)^(1/k) q 2^bits, the k-th root of p/q rounded outward on
the 1/(q 2^bits) grid.  That grid depends on the pair (p, q), not only on
the value p/q, so the caller picks it by the pair it passes: acos passes
the integer Q R of its cotangent (``acos_interval``) over q = 1, and
``harness`` each end of 3/(4 pi), in lowest terms.

The kernels sum on integers and floor once (``dyadic``).  An arctangent
series is rounded out to 2^-(bits+8) and shifted by a multiple m of
pi(bits)/4, on the 2^-(bits+2) grid, before the 2^-bits rounding; as
floor_b(m + floor_w(y)) = floor_b(m + y) for m on the 2^-w grid, w >= b,
and likewise for ceilings, atan and acos keep the exact sums' endpoints.

``_atan_series`` sums in fixed point on the 2^-(w+g) grid, w = bits + 8,
g = ``_GUARD``: each power of t is one product with t^2 and a shift, each
term a floor quotient, all truncating down.  For |t| <= 1/2 a power is
short by less than 2 units, so a term is too, and S_k lies within 2(k+1)
units of the exact partial sum.  The carried power decides the stop test
|t|^(2k+1)/(2k+1) < 2^-w except within its error of the threshold, where
the cross-multiplied test does, so N is exact.  Ziv's rounding test (ACM
TOMS 17, 1991): where S - error and S + error floor (ceil, for the upper
end) to one point of the 2^-w grid, so does the exact sum; elsewhere,
about once in 2^g / 4N calls, ``_atan_sums`` gives it.  So the endpoints
are the exact sums' at every precision.  The V1 kernels pass integers:
``_atan_sums`` and ``_atan_series`` take t = a/b as (a, b), b > 0, and
return numerators; their stop tests and floors read only the value a/b,
so (a, b) need not be in lowest terms.  Around the series, each exact
rational step of acos and V1 (the cotangent dn sqrt(Q R) / R, pi/4 + or
pi/2 - an arctangent, length * angle summed and divided by 2 pi) and the
rounding after it is one integer floor division, giving the endpoint
interval arithmetic gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# the precision range of a certified comparison: its first and its last step
DEFAULT_BITS = 128
MAX_BITS = 4096


def root_ends(p: int, q: int, k: int, bits: int) -> tuple[int, int]:
    """Floor and ceiling of (p/q)^(1/k) * q * 2^bits, p >= 0, q > 0: the
    k-th root of p/q rounded outward on the 1/(q 2^bits) grid."""
    if p < 0:
        raise ValueError("negative radicand")
    # (p/q)^(1/k) q = (p q^(k-1))^(1/k)
    n = p * q ** (k - 1) << k * bits
    if k == 2:
        s = isqrt(n)
    else:
        # Newton's iteration from above stops at the floor
        s = n and 1 << n.bit_length() // k + 1
        while s and (y := ((k - 1) * s + n // s ** (k - 1)) // k) < s:
            s = y
    return s, s if s ** k == n else s + 1


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


def numerators(iv: Interval, den: int) -> tuple[int, int]:
    """floor(iv.lo * den) and ceil(iv.hi * den): exact for a den that both
    endpoints' denominators divide."""
    return ((iv.lo.numerator * den) // iv.lo.denominator,
            -((-iv.hi.numerator * den) // iv.hi.denominator))


def on_grid(lo: int, hi: int, bits: int) -> Interval:
    """[lo * 2^-bits, hi * 2^-bits]."""
    return Interval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


def dyadic(lo: int, hi: int, den: int, bits: int) -> Interval:
    """[lo/den, hi/den], den > 0, rounded out to 2^-bits: two divisions."""
    return on_grid((lo << bits) // den, -((-hi << bits) // den), bits)


_PI_CACHE: dict[int, Interval] = {}
_GUARD = 64     # guard bits of the fixed-point arctangent sum


def pi(bits: int) -> Interval:
    """Machin's formula: pi = 16*atan(1/5) - 4*atan(1/239), floored once."""
    if bits not in _PI_CACHE:
        lo5, hi5, d5 = _atan_sums(1, 5, bits + 8)
        lo239, hi239, d239 = _atan_sums(1, 239, bits + 8)
        _PI_CACHE[bits] = dyadic(16 * lo5 * d239 - 4 * hi239 * d5,
                                 16 * hi5 * d239 - 4 * lo239 * d5, d5 * d239, bits)
    return _PI_CACHE[bits]


def _atan_sums(a: int, b: int, bits: int) -> tuple[int, int, int]:
    """atan(a/b) for |a/b| <= 1/2, b > 0, via the alternating Taylor series.

    The terms are (-1)^k t^(2k+1)/(2k+1); the series stops at the first
    term N below 2^-(bits+8), and the partial sums S_N and S_(N-1) bracket
    the limit (S_(-1) = 0).  They are returned as (lower, upper,
    denominator): integer numerators, ordered by the last term's sign,
    over lcm(1, 3, .., 2N+1) * b^(2N+1), so the loop needs no gcd.
    """
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


def _atan_series(a: int, b: int, bits: int) -> tuple[int, int]:
    """The bracket of ``_atan_sums`` as numerators rounded out to 2^-w,
    w = bits + 8.

    Summed in fixed point on the 2^-(w+g) grid; ``_atan_sums`` decides only
    where the rounding test cannot (module docstring).  |a/b| <= 1/2, b > 0;
    atan(0) is (0, 0), where the test could not decide.
    """
    if not a:
        return 0, 0
    w = bits + 8
    scale = w + _GUARD
    neg, a = a < 0, abs(a)
    p = (a << scale) // b              # |t|^d 2^scale, short by less than 2
    tsq = (a * a << scale) // (b * b)  # t^2 2^scale, short by less than 1
    prev = s = k = 0                   # S_(k-1) and S_k times 2^scale
    while True:
        d = 2 * k + 1
        term = p // d                  # short by less than 2
        prev, s = s, s - term if k % 2 else s + term
        # the exact stop test where p lies within its error of the threshold
        if p + 2 <= d << _GUARD or (p < d << _GUARD and a ** d << w < d * b ** d):
            break
        p = p * tsq >> scale
        k += 1
    # S_k lies within 2(k + 1) units of the exact partial sum
    lo, hi, elo, ehi = (s, prev, 2 * k + 2, 2 * k) if k % 2 else (prev, s, 2 * k, 2 * k + 2)
    lo_w, hi_w = lo - elo >> _GUARD, -(-hi - ehi >> _GUARD)
    if lo_w != lo + elo >> _GUARD or hi_w != -(ehi - hi >> _GUARD):
        lo, hi, den = _atan_sums(a, b, bits)
        lo_w, hi_w = (lo << w) // den, -((-hi << w) // den)
    return (-hi_w, -lo_w) if neg else (lo_w, hi_w)


def _atan_fraction(a: int, b: int, bits: int) -> tuple[int, int]:
    """atan(a/b), b > 0, as numerators over 2^(bits+8): the series, pi/4
    plus it, or pi/2 minus atan(b/a), each exact on that grid."""
    if a < 0:
        lo, hi = _atan_fraction(-a, b, bits)
        return -hi, -lo
    if a > b:
        # atan(t) = pi/2 - atan(1/t)
        lo, hi = _atan_fraction(b, a, bits)
        p_lo, p_hi = numerators(pi(bits), 1 << bits + 7)
        return p_lo - hi, p_hi - lo
    if 2 * a <= b:
        return _atan_series(a, b, bits)
    # atan(t) = pi/4 + atan((t-1)/(1+t)); argument lands in (-1/3, 0]
    p_lo, p_hi = numerators(pi(bits), 1 << bits + 6)
    s_lo, s_hi = _atan_series(a - b, a + b, bits)
    return p_lo + s_lo, p_hi + s_hi


def acos_interval(dot, nn, bits: int) -> Interval:
    """Enclosure of arccos(dot / sqrt(nn)) for rationals dot, nn with dot^2 < nn.

    Uses acos = pi/2 - atan(cot), cot = dot / sqrt(nn - dot^2) by Lagrange's
    identity.  For dot = dn/dd and nn = P/Q, cot = dn sqrt(Q R) / R with the
    integer R = P dd^2 - dn^2 Q > 0: one square root, on the 2^-(bits+16)
    grid, and the cotangent's ends rounded out to that grid; atan of them on
    2^-(bits+8), the result rounded out to 2^-bits.
    """
    dn, dd, p, q = dot.numerator, dot.denominator, nn.numerator, nn.denominator
    r = p * dd * dd - dn * dn * q
    if r <= 0:
        raise ValueError("need dot^2 < nn")
    w = bits + 16
    s_lo, s_hi = root_ends(q * r, 1, 2, w)
    if dn < 0:
        s_lo, s_hi = s_hi, s_lo
    lo = _atan_fraction(dn * s_lo // r, 1 << w, bits)[0]
    hi = _atan_fraction(-(-dn * s_hi // r), 1 << w, bits)[1]
    a_lo, a_hi = lo >> 8, -(-hi >> 8)
    p_lo, p_hi = numerators(pi(bits), 1 << bits)
    # atan rounded out to 2^-bits; pi/2 - it on the 2^-(bits+1) grid, rounded out to 2^-bits
    return on_grid(p_lo - 2 * a_hi >> 1, -(2 * a_lo - p_hi >> 1), bits)
