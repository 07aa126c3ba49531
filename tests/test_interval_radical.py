"""Dyadic interval enclosures and exact radical-sum arithmetic."""

import functools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from blichfeldt import interval, polytope as pt, radical, witnesses as wt
from blichfeldt.interval import (
    Interval,
    _atan_fraction,
    _atan_series,
    _atan_sums,
    acos_interval,
    numerators,
    on_grid,
    pi,
    root_ends,
)
from blichfeldt.radical import (
    Cmp,
    Inconclusive,
    RadicalSum,
    certified_compare,
    squarefree_decompose,
)
from blichfeldt.lattice import Lattice, dual_inner, dual_norm_sq
from oracles import (
    iroot,
    polytope_edges,
    reciprocal,
    root_fraction,
    sqrt_fraction,
    sqrt_interval,
    width,
)


def _root(x, k: int, bits: int) -> Interval:
    """``root_ends`` on x in lowest terms, as an Interval."""
    x = Fraction(x)
    lo, hi = root_ends(x.numerator, x.denominator, k, bits)
    return Interval(Fraction(lo, x.denominator << bits), Fraction(hi, x.denominator << bits))


class TestIroot:
    def test_small(self):
        assert iroot(0, 2) == 0
        assert iroot(8, 2) == 2
        assert iroot(9, 2) == 3
        assert iroot(26, 3) == 2
        assert iroot(27, 3) == 3

    @given(st.integers(0, 10**18), st.integers(2, 5))
    def test_floor_root_property(self, n, k):
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k


class TestRootEnds:
    """``root_ends`` against the Newton iteration and ``root_fraction`` it
    replaced, kept verbatim in tests/oracles.py."""

    @given(st.integers(2, 4), st.one_of(st.just(0), st.integers(1, 10**60)),
           st.integers(1, 10**30), st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_matches_root_fraction(self, k, p, q, bits):
        got, want = _root(Fraction(p, q), k, bits), root_fraction(Fraction(p, q), k, bits)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    @given(st.integers(2, 4), st.integers(0, 10**20), st.integers(1, 10**10), st.integers(0, 200))
    def test_exact_powers(self, k, m, r, bits):
        # (m^k / r^k)^(1/k) r^k 2^bits = m r^(k-1) 2^bits, on any grid
        assert root_ends(m ** k, r ** k, k, bits) == (m * r ** (k - 1) << bits,) * 2

    @given(st.integers(2, 4), st.integers(0, 10**60), st.integers(1, 10**30),
           st.sampled_from((1, 2, 3, 2**40, 10**9 + 7)), st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_outward_on_the_grid_of_the_pair(self, k, p, q, g, bits):
        # an unreduced pair rounds on its own grid, 1/(q g 2^bits)
        n = p * g * (q * g) ** (k - 1) << k * bits
        lo, hi = root_ends(p * g, q * g, k, bits)
        assert lo ** k <= n <= hi ** k and hi - lo == (lo ** k != n)

    @given(st.integers(0, 10**40), st.integers(2, 4))
    def test_floor_matches_newton(self, n, k):
        r = iroot(n, k)
        assert root_ends(n, 1, k, 0) == (r, r + (r ** k != n))

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            root_ends(-1, 1, 2, 0)


class TestInterval:
    def test_arithmetic_contains(self):
        a = Interval(Fraction(1), Fraction(2))
        b = Interval(Fraction(-1), Fraction(1))
        assert (a + b).lo <= Fraction(3, 2) <= (a + b).hi
        assert (a - b).lo <= 2 <= (a - b).hi
        assert (a * b).lo == -2 and (a * b).hi == 2

    def test_strictly_less(self):
        assert Interval(Fraction(0), Fraction(1)).strictly_less(
            Interval(Fraction(2), Fraction(3))
        )
        assert not Interval(Fraction(0), Fraction(2)).strictly_less(
            Interval(Fraction(2), Fraction(3))
        )

    @given(st.fractions(min_value=0, max_value=10**6), st.integers(8, 256))
    @settings(max_examples=80)
    def test_sqrt_enclosure(self, x, bits):
        iv = _root(x, 2, bits)
        assert iv.lo**2 <= x <= iv.hi**2
        assert width(iv) <= Fraction(1, 2 ** (bits - 2))

    def test_sqrt_exact_square(self):
        iv = _root(Fraction(9, 4), 2, 64)
        assert iv.lo <= Fraction(3, 2) <= iv.hi

    @given(st.fractions(min_value=Fraction(1, 100), max_value=100),
           st.integers(2, 4))
    @settings(max_examples=50)
    def test_root_enclosure(self, x, k):
        iv = _root(x, k, 96)
        assert iv.lo**k <= x <= iv.hi**k

    def test_sqrt_interval_monotone(self):
        iv = Interval(_root(4, 2, 64).lo, _root(9, 2, 64).hi)
        assert iv.lo <= 2 and 3 <= iv.hi

    def test_value_semantics(self):
        # a value with a checked constructor, not a tuple: no concatenation,
        # no order; equality by endpoints, and the repr records print
        with pytest.raises(ValueError):
            Interval(Fraction(2), Fraction(1))
        a = Interval(Fraction(1, 2), Fraction(1))
        assert not isinstance(a, tuple)
        with pytest.raises(TypeError):
            a < Interval(Fraction(2), Fraction(3))
        assert a == Interval(Fraction(1, 2), Fraction(1)) and a != (a.lo, a.hi)
        assert a != Interval(Fraction(1, 2), Fraction(2))
        assert hash(a) == hash((Fraction(1, 2), Fraction(1)))
        assert repr(a) == "Interval(lo=Fraction(1, 2), hi=Fraction(1, 1))"


class TestPi:
    def test_known_digits(self):
        iv = pi(128)
        # 3.14159265358979323846... to 20 places
        lo = Fraction(314159265358979323846, 10**20)
        hi = Fraction(314159265358979323847, 10**20)
        assert iv.lo <= hi and iv.hi >= lo
        trunc = Fraction(314159265358979323846264, 10**23)
        assert trunc < iv.hi and iv.lo < trunc + Fraction(1, 10**23)

    def test_width_shrinks(self):
        assert width(pi(256)) < width(pi(64))
        assert width(pi(256)) < Fraction(1, 2**200)


class TestTrig:
    def test_atan_one(self):
        # atan(1) = pi/4
        iv = on_grid(*_atan_fraction(1, 1, 96), 104)
        quarter_pi = pi(96) * Fraction(1, 4)
        assert iv.lo <= quarter_pi.hi and quarter_pi.lo <= iv.hi

    def test_atan_odd(self):
        a = on_grid(*_atan_fraction(3, 7, 80), 88)
        b = on_grid(*_atan_fraction(-3, 7, 80), 88)
        assert (a + b).lo <= 0 <= (a + b).hi

    def test_acos_zero_is_half_pi(self):
        half_pi = pi(96) * Fraction(1, 2)
        iv = acos_interval(Fraction(0), Fraction(3), 96)
        assert iv.lo <= half_pi.hi and half_pi.lo <= iv.hi

    def test_acos_rejects_endpoints(self):
        # the cosine dot / sqrt(nn) must lie strictly inside (-1, 1): dot^2 < nn
        for dot, nn in [(1, 1), (-1, 1), (2, 3), (Fraction(-3, 2), 2), (0, 0)]:
            with pytest.raises(ValueError):
                acos_interval(Fraction(dot), Fraction(nn), 96)

    def test_acos_complement(self):
        # acos(c) + acos(-c) = pi, for c = 5/13 and c = 5/sqrt(171)
        p = pi(96)
        for nn in (Fraction(169), Fraction(171)):
            total = acos_interval(Fraction(5), nn, 96) + acos_interval(Fraction(-5), nn, 96)
            assert total.lo <= p.hi and p.lo <= total.hi


def _atan_series_fraction(t: Fraction, bits: int) -> Interval:
    """Reference: the same alternating series summed in Fractions.

    Stops at the first term below 2^-(bits+8) and returns the last two
    partial sums, exactly as the integer kernel must.
    """
    if t == 0:
        return Interval.point(0)
    s = Fraction(0)
    k = 0
    prev = None
    tsq = t * t
    power = t
    while True:
        term = power / (2 * k + 1)
        s += term
        if abs(term) < Fraction(1, 1 << (bits + 8)):
            if prev is None:
                prev = s - term
            return Interval(min(s, prev), max(s, prev))
        prev = s
        power = -power * tsq
        k += 1


SERIES_BITS = (64, 128, 144, 160, 256)


@functools.cache
def _pi_fraction(bits: int) -> Interval:
    """Reference pi: Machin's formula on the exact Fraction sums, rounded
    out once."""
    return (16 * _atan_series_fraction(Fraction(1, 5), bits + 8)
            - 4 * _atan_series_fraction(Fraction(1, 239), bits + 8)).round_out(bits)


def _exact_series(t: Fraction, bits: int) -> Interval:
    """The kernel's exact partial sums as Fractions, unrounded.  Their
    values are pinned to ``_atan_series_fraction`` by the random-rational
    test; summing long Fraction series is too slow at 528 bits."""
    lo, hi, den = _atan_sums(t.numerator, t.denominator, bits)
    return Interval(Fraction(lo, den), Fraction(hi, den))


def _series(t: Fraction, bits: int) -> Interval:
    """``_atan_series`` on t, its numerators over 2^(bits+8)."""
    return on_grid(*_atan_series(t.numerator, t.denominator, bits), bits + 8)


def _atan_fraction_reference(t: Fraction, bits: int) -> Interval:
    """The branches of ``interval._atan_fraction`` on the exact sums."""
    if t < 0:
        return -_atan_fraction_reference(-t, bits)
    if t > 1:
        return _pi_fraction(bits) * Fraction(1, 2) - _atan_fraction_reference(1 / t, bits)
    if t == 1:
        return _pi_fraction(bits) * Fraction(1, 4)
    if t > Fraction(1, 2):
        return _pi_fraction(bits) * Fraction(1, 4) + _exact_series((t - 1) / (1 + t), bits)
    return _exact_series(t, bits)


def _atan_reference(iv: Interval, bits: int) -> Interval:
    iv = iv.round_out(bits + 16)
    return Interval(_atan_fraction_reference(iv.lo, bits).lo,
                    _atan_fraction_reference(iv.hi, bits).hi).round_out(bits)


def _acos_reference(c: Interval, bits: int) -> Interval:
    s = sqrt_interval((1 - c * c).round_out(bits + 16), bits + 16)
    return (_pi_fraction(bits) * Fraction(1, 2)
            - _atan_reference(c * reciprocal(s), bits)).round_out(bits)


def _cot_reference(dot: Fraction, nn: Fraction, bits: int) -> Interval:
    """dot / sqrt(nn - dot^2) on Fractions, rounded out to 2^-(bits+16).

    With dot = dn/dd and nn = P/Q in lowest terms, m = (Q dd)^2 (nn - dot^2)
    is an integer and the cotangent is dot sqrt(m) / (Q dd (nn - dot^2)),
    sqrt(m) rounded out to 2^-(bits+16) as well.
    """
    e, g = bits + 16, nn.denominator * dot.denominator
    r = nn - dot * dot
    m = g * g * r
    assert m.denominator == 1
    return (dot * sqrt_fraction(m, e) * (1 / (g * r))).round_out(e)


def _acos_exact_reference(dot: Fraction, nn: Fraction, bits: int) -> Interval:
    """pi/2 - atan(dot / sqrt(nn - dot^2)) on Fractions."""
    return (_pi_fraction(bits) * Fraction(1, 2)
            - _atan_reference(_cot_reference(dot, nn, bits), bits)
            ).round_out(bits)


def _v1_reference(poly, bits: int) -> Interval:
    """V1 = sum of edge length * exterior angle / (2 pi) on Intervals, over
    the exact path's arccos and pi."""
    work, lat, facets = bits + 16, poly.lattice, poly.facets
    total = Interval.point(0)
    for (va, vb), (fi, fj) in polytope_edges(poly):
        edge = [x - y for x, y in zip(poly.vertices[va], poly.vertices[vb])]
        dot = dual_inner(lat, facets[fi].normal, facets[fj].normal)
        nn = dual_norm_sq(lat, facets[fi].normal) * dual_norm_sq(lat, facets[fj].normal)
        angle = (_pi_fraction(work) * Fraction(1, 2) if dot == 0 else
                 _acos_reference(dot * reciprocal(sqrt_fraction(nn, work)), work))
        total = total + sqrt_fraction(lat.norm_sq_of_coeff(edge), work) * angle
    return (total * reciprocal(2 * _pi_fraction(work))).round_out(bits)


def _counted(fn, calls: list):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    return wrapper


def _outer_calls(fn, calls: list):
    """As ``_counted``, but a call that fn makes of itself is not recorded."""
    depth = [0]

    def wrapper(*args):
        if not depth[0]:
            calls.append(args)
        depth[0] += 1
        try:
            return fn(*args)
        finally:
            depth[0] -= 1
    return wrapper


def _in(lo, hi):
    """Fractions strictly between lo and hi."""
    return st.fractions(min_value=lo, max_value=hi, max_denominator=2**64).filter(
        lambda t: lo < t < hi)


KERNEL_BITS = (128, 144, 160, 272, 528)
# arguments of _atan_fraction in each of its branches
ATAN_BRANCHES = {
    "negative": _in(-40, 0),
    "series": st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=2**64),
    "shifted": _in(Fraction(1, 2), 1),
    "one": st.just(Fraction(1)),
    "reciprocal": _in(1, 40),
}
# cosines whose cotangent c/sqrt(1 - c^2) falls in each branch
ACOS_BRANCHES = {
    "negative": _in(-1, 0),
    "series": st.fractions(min_value=0, max_value=Fraction(2, 5), max_denominator=2**64),
    "shifted": _in(Fraction(1, 2), Fraction(7, 10)),
    "reciprocal": _in(Fraction(3, 4), 1),
}


def _dot_near(c: Fraction, nn: Fraction) -> Fraction:
    """c sqrt(nn) truncated toward 0 to 2^-40: a dot whose cosine
    dot / sqrt(nn) lies within 2^-40 / sqrt(nn) of c, with dot^2 < nn."""
    x = c * c * nn * 4**40
    return (1 if c > 0 else -1) * Fraction(isqrt(x.numerator // x.denominator), 2**40)


PI_BITS = tuple(b for k in range(6) for b in (128 << k, (128 << k) + 16, (128 << k) + 32))
# 3D hulls with acute and obtuse dihedral angles: the benchmark's fixed hull,
# and one over a sheared lattice whose arctangents take every branch
V1_HULLS = {
    "bench": ([(1, 2, 2), (2, 2, 5), (3, 0, 1), (4, 0, 4), (4, 1, 4)], None),
    "skew3": ([(0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 1), (1, -1, 2)],
              [[1, 0, 0], [Fraction(1, 2), 1, 0], [Fraction(1, 3), Fraction(1, 2), 1]]),
}


def _check_acos(dot: Fraction, nn: Fraction, bits: int) -> Interval:
    """``acos_interval``, checked: it has the reference's endpoints, and it
    passes the reference's cotangent ends to ``_atan_fraction`` (the final
    rounding hides most errors of a unit in those ends)."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interval, "_atan_fraction", _outer_calls(_atan_fraction, calls))
        got = acos_interval(dot, nn, bits)
    want, cot = _acos_exact_reference(dot, nn, bits), _cot_reference(dot, nn, bits)
    assert (got.lo, got.hi) == (want.lo, want.hi)
    assert [Fraction(a, b) for a, b, _ in calls] == [cot.lo, cot.hi]
    return got


class TestAtanSeriesOracle:
    """The integer kernels give the endpoints of the exact Fraction path."""

    @given(
        st.fractions(
            min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
            max_denominator=2**160,
        ),
        st.sampled_from(SERIES_BITS),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_rationals(self, t, bits):
        got = _series(t, bits)
        want = _atan_series_fraction(t, bits).round_out(bits + 8)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    @pytest.mark.parametrize("x", (5, 239))
    @pytest.mark.parametrize("bits", SERIES_BITS)
    def test_machin_arguments(self, x, bits):
        got = _series(Fraction(1, x), bits)
        want = _atan_series_fraction(Fraction(1, x), bits).round_out(bits + 8)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    @pytest.mark.parametrize("bits", PI_BITS)
    def test_pi(self, bits, monkeypatch):
        monkeypatch.setattr(interval, "_PI_CACHE", {})
        got, want = pi(bits), _pi_fraction(bits)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    @pytest.mark.parametrize("branch", ATAN_BRANCHES)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_atan_interval(self, branch, data):
        t = data.draw(ATAN_BRANCHES[branch])
        width = data.draw(st.sampled_from((0, Fraction(1, 2**40))))
        bits = data.draw(st.sampled_from(KERNEL_BITS))
        # each end of the argument rounded out to 2^-(bits+16), as acos_interval
        # passes it; the result on the 2^-(bits+8) grid
        e = bits + 16
        m_lo, m_hi = numerators(Interval(t, t + width), 1 << e)
        got = on_grid(_atan_fraction(m_lo, 1 << e, bits)[0],
                      _atan_fraction(m_hi, 1 << e, bits)[1], bits + 8)
        want = Interval(_atan_fraction_reference(Fraction(m_lo, 1 << e), bits).lo,
                        _atan_fraction_reference(Fraction(m_hi, 1 << e), bits).hi)
        want = want.round_out(bits + 8)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    @pytest.mark.parametrize("branch", ACOS_BRANCHES)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_acos_interval(self, branch, data):
        c = data.draw(ACOS_BRANCHES[branch])
        # an exact cosine c, or dot / sqrt(nn) next to c with nn not a square
        nn = Fraction(data.draw(st.sampled_from((1, Fraction(1, 3), 2, Fraction(7, 5),
                                                 10**9 + 7))))
        bits = data.draw(st.sampled_from(KERNEL_BITS))
        _check_acos(c if nn == 1 else _dot_near(c, nn), nn, bits)

    @pytest.mark.parametrize("bits", (144, 160))
    def test_acos_interval_small_integers(self, bits):
        # the cosines of adjacent facets over Z^3 with short normals: the
        # radicand Q R is small, so a unit of its root moves the cotangent
        for nn in range(1, 40):
            for dn in range(-isqrt(nn - 1), isqrt(nn - 1) + 1):
                _check_acos(Fraction(dn), Fraction(nn), bits)

    @pytest.mark.parametrize("lo, hi", [(Fraction(-1, 3), Fraction(1, 5)),
                                        (Fraction(-1, 5), Fraction(1, 3)),
                                        (Fraction(-2, 7), Fraction(2, 7))])
    @pytest.mark.parametrize("bits", (128, 272))
    def test_acos_interval_straddling_zero(self, lo, hi, bits):
        # cosines on both sides of 0 and 0 itself, exact and over sqrt(2):
        # each matches the reference, and their arccos are disjoint, in order
        for nn in (Fraction(1), Fraction(2)):
            ivs = []
            for c in (lo, Fraction(0), hi):
                ivs.append(_check_acos(c if nn == 1 else _dot_near(c, nn), nn, bits))
            assert ivs[2].hi < ivs[1].lo <= ivs[1].hi < ivs[0].lo

    @pytest.mark.parametrize("t", (Fraction(1, 5), Fraction(1, 239), Fraction(-5**68, 2**160)),
                             ids=("1/5", "1/239", "2^-160"))
    @pytest.mark.parametrize("bits", (1040, 2064))
    def test_fixed_arguments_at_high_precision(self, t, bits):
        got, want = _series(t, bits), _exact_series(t, bits).round_out(bits + 8)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    @pytest.mark.parametrize("a", (3763504725918222510864622, 3763504725918222510864641,
                                   3763504725918222510864643), ids=("stop", "go-on", "on-it"))
    def test_stop_index_next_to_the_threshold(self, a):
        # at 128 bits the carried power of a/b at k = 50 lands on the last unit
        # below the stop threshold, where the exact test stops or goes on, or on it
        t = Fraction(a, 9143132648213408697548801)
        got, want = _series(t, 128), _exact_series(t, 128).round_out(136)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    @pytest.mark.parametrize("guard", (64, 1))
    def test_unreduced_arguments_give_the_same_endpoints(self, guard, monkeypatch):
        # the stop tests and floors read only the value a/b; with one guard
        # bit the exact sums decide some of the ends
        monkeypatch.setattr(interval, "_GUARD", guard)
        rng = random.Random(5)
        for _ in range(40):
            b = rng.randrange(1, 2**64)
            a, c = rng.randrange(-(b // 2), b // 2 + 1), rng.randrange(-4 * b, 4 * b)
            g = rng.choice((2, 3, 2**40, 10**9 + 7))
            bits = rng.choice(KERNEL_BITS)
            assert _atan_series(a * g, b * g, bits) == _atan_series(a, b, bits)
            lo, hi, den = _atan_sums(a, b, bits)
            g_lo, g_hi, g_den = _atan_sums(a * g, b * g, bits)
            assert (Fraction(g_lo, g_den), Fraction(g_hi, g_den)) == (Fraction(lo, den),
                                                                      Fraction(hi, den))
            assert _atan_fraction(c * g, b * g, bits) == _atan_fraction(c, b, bits)

    def test_exact_sums_decide_where_the_rounding_test_cannot(self, monkeypatch):
        # with one guard bit the fixed-point sum's error often straddles a
        # grid point, and the exact sums give the endpoints instead
        monkeypatch.setattr(interval, "_GUARD", 1)
        calls = []
        monkeypatch.setattr(interval, "_atan_sums", _counted(_atan_sums, calls))
        rng = random.Random(11)
        for _ in range(40):
            t = Fraction(rng.randrange(-2**159, 2**159), 2**160 - rng.randrange(2**100))
            bits = rng.choice(KERNEL_BITS)
            got, want = _series(t, bits), _exact_series(t, bits).round_out(bits + 8)
            assert (got.lo, got.hi) == (want.lo, want.hi)
        assert calls
        for _ in range(10):
            dot = Fraction(rng.randrange(-2**64 + 1, 2**64), 2**64)
            nn = Fraction(rng.randrange(2**64, 2**66), 2**64)
            _check_acos(dot, nn, rng.choice(KERNEL_BITS))

    @pytest.mark.parametrize("bits", KERNEL_BITS)
    def test_zero_argument_needs_no_fallback(self, bits, monkeypatch):
        # atan(0) = 0 exactly, directly and as the shifted branch's argument
        # (t - 1)/(1 + t) for t = 1, where the rounding test could not decide
        calls = []
        monkeypatch.setattr(interval, "_atan_sums", _counted(_atan_sums, calls))
        for b in (1, 10, 2**(bits + 16)):
            assert _atan_series(0, b, bits) == (0, 0)
            assert _atan_fraction(b, b, bits) == numerators(pi(bits), 1 << bits + 6)
        assert calls == []

    def test_corpus_arguments_need_no_fallback(self, monkeypatch):
        spec = wt.CorpusSpec(seed=20260824, dimensions=(3,), num_random_hulls=60,
                             k_values=(1, 2, 3), m_values=(1, 2), num_random_lattices=3)
        v1s = [e.body.polytope.intrinsic_volumes.v1 for e in wt.build_corpus(spec)
               if e.body.kind == "polytope"]
        pi(144)
        series, sums = [], []
        monkeypatch.setattr(interval, "_atan_series", _counted(_atan_series, series))
        monkeypatch.setattr(interval, "_atan_sums", _counted(_atan_sums, sums))
        for v1 in v1s:
            if callable(v1):
                v1(128)
        assert len(series) > 100 and sums == []

    @pytest.mark.parametrize("hull, bits", [
        ("bench", 128), ("bench", 256), ("bench", 512), ("skew3", 128), ("skew3", 256)])
    def test_v1(self, hull, bits):
        corners, basis = V1_HULLS[hull]
        poly = pt.hull(corners, lattice=Lattice(basis) if basis else None)
        got, want = poly.intrinsic_volumes.v1(bits), _v1_reference(poly, bits)
        assert (got.lo, got.hi) == (want.lo, want.hi)

    def test_flat_pyramid_v1_is_narrow(self):
        # apex (N, N, 1) over the square [0, 2N]^2, N = 2^75: at the base edges
        # 1 - cos^2 = 1/(N^2 + 1); the exact cosine keeps V1 at its precision
        n = 2**75
        poly = pt.hull([(0, 0, 0), (2 * n, 0, 0), (0, 2 * n, 0), (2 * n, 2 * n, 0), (n, n, 1)])
        got, want = poly.intrinsic_volumes.v1(128), _v1_reference(poly, 128)
        assert got.hi - got.lo < Fraction(1, 2**60)
        assert want.lo < got.lo and got.hi < want.hi

    @given(
        st.dictionaries(
            st.one_of(st.just(1), st.integers(2, 10**6),
                      st.sampled_from((4, 9, 10**12, 2**61 - 1, 780175892429))),
            st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
            max_size=5,
        ),
        st.integers(1, 600),
    )
    @settings(max_examples=80, deadline=None)
    def test_radical_sum_enclosure(self, terms, bits):
        x = RadicalSum(terms)
        want = Interval.point(0)
        for c, d in x.terms:
            want = want + c * (Interval.point(1) if d == 1 else sqrt_fraction(d, bits))
        want = want.round_out(bits)
        got = x.enclosure(bits)
        assert (got.lo, got.hi) == (want.lo, want.hi)


def _squarefree_reference(n: int) -> tuple[int, int]:
    """The trial division by 2 and the odd numbers up to 10^6 that
    ``squarefree_decompose`` replaced."""
    if n == 0:
        return 0, 1
    r = isqrt(n)
    if r * r == n:
        return r, 1
    s, d = 1, 1
    p = 2
    while p * p <= n and p <= 10**6:
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


# primes around the ends of the trial ranges (2048 wide) and of the trial
# limit, and above it
_TRIAL_PRIMES = (2, 3, 5, 7, 2039, 2053, 4093, 4099, 999983, 1000003, 2**61 - 1)


class TestSquarefree:
    @given(st.lists(st.tuples(st.sampled_from(_TRIAL_PRIMES), st.integers(1, 3)), max_size=4),
           st.integers(0, 10**7))
    @settings(max_examples=30, deadline=None)
    def test_matches_trial_division(self, factors, m):
        n = m * prod(p**e for p, e in factors)
        assert squarefree_decompose(n) == _squarefree_reference(n)

    def test_examples(self):
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(8) == (2, 2)
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(49) == (7, 1)

    def test_prime_factors_above_trial_limit(self):
        m61 = 2**61 - 1  # prime
        assert squarefree_decompose(9 * m61) == (3, m61)
        assert squarefree_decompose(1000003**2 * 7) == (1000003, 7)
        assert squarefree_decompose(1000003 * 1000033) == (1, 1000003 * 1000033)
        assert squarefree_decompose(4 * 1000003**2 * 1000033**2) == (2 * 1000003 * 1000033, 1)

    @given(st.integers(1, 10**6))
    @settings(max_examples=100)
    def test_reconstruction(self, n):
        outer, inner = squarefree_decompose(n)
        assert outer**2 * inner == n
        # inner is squarefree: no prime square divides it
        for p in (2, 3, 5, 7, 11, 13):
            assert inner % (p * p) != 0


class TestRadicalSum:
    def test_canonicalization(self):
        # sqrt(8) = 2*sqrt(2), sqrt(9) = 3
        assert RadicalSum.sqrt(8) == RadicalSum.rational(2) * RadicalSum.sqrt(2)
        assert RadicalSum.sqrt(9) == RadicalSum.rational(3)
        assert RadicalSum.sqrt(Fraction(1, 2)) == RadicalSum.sqrt(2) / 2

    def test_arithmetic(self):
        a = RadicalSum.sqrt(2) + RadicalSum.sqrt(3)
        sq = a * a  # 5 + 2*sqrt(6)
        assert sq == RadicalSum.rational(5) + RadicalSum.rational(2) * RadicalSum.sqrt(6)
        assert (a - a).is_zero

    def test_division(self):
        a = RadicalSum.sqrt(2)
        assert (a / a) == RadicalSum.rational(1)
        b = RadicalSum.rational(1) + RadicalSum.sqrt(2)
        assert b / 2 == RadicalSum.rational(Fraction(1, 2)) + RadicalSum.sqrt(2) / 2
        with pytest.raises(ValueError):
            b / b  # only single-term divisors are supported

    def test_sign(self):
        assert certified_compare(RadicalSum.sqrt(2), 0) is Cmp.GREATER
        assert certified_compare(-RadicalSum.sqrt(2), 0) is Cmp.LESS
        assert certified_compare(RadicalSum.sqrt(2) - RadicalSum.sqrt(2), 0) is Cmp.EQUAL
        # sqrt(2) + sqrt(3) - sqrt(10) < 0 (3.146... < 3.162...)
        x = RadicalSum.sqrt(2) + RadicalSum.sqrt(3) - RadicalSum.sqrt(10)
        assert certified_compare(x, 0) is Cmp.LESS
        # one term: its coefficient's sign, however close to 0; no
        # enclosure capped at 4096 bits separates these from 0
        tiny = Fraction(1, 2**5000)
        assert certified_compare(tiny, 0) is Cmp.GREATER
        assert certified_compare(RadicalSum.sqrt(2) * tiny, 0) is Cmp.GREATER
        # near-tie: 70 * sqrt(2) = 98.9949... < 99
        assert certified_compare(70 * RadicalSum.sqrt(2), 99) is Cmp.LESS

    def test_enclosure(self):
        x = RadicalSum.rational(1) + RadicalSum.sqrt(2)
        iv = x.enclosure(128)
        trunc = Fraction(24142135, 10**7)  # 1 + sqrt(2) = 2.4142135...
        assert trunc < iv.hi and iv.lo < trunc + Fraction(1, 10**7)
        assert width(iv) < Fraction(1, 2**100)

    def test_as_fraction(self):
        assert (RadicalSum.sqrt(4) + RadicalSum.rational(1)).as_fraction() == 3
        with pytest.raises(ValueError):
            RadicalSum.sqrt(2).as_fraction()


# Radicands of the invariant tests: small primes and two 40-bit primes,
# whose product is the 80-bit radicand of the large-prime triangle.
_P, _Q = 780175892429, 849767860033
_PRIMES = (2, 3, 5, 7, 11, 13, _P, _Q)
_RADICANDS = (
    1, 2, 3, 6, 8, 12, 45, Fraction(1, 2), Fraction(3, 8), Fraction(50, 7),
    Fraction(143, 4), _P, _Q, _P * _Q, 2 * _P, Fraction(_Q, 3),
    Fraction(12, _P), 5 * _P**2 * _Q**2, Fraction(_P * _Q, 98),
)


@functools.cache
def _sqrt(x):
    """RadicalSum.sqrt(x), once per radicand: a 40-bit prime factor costs
    a full trial division."""
    return RadicalSum.sqrt(x)


def _reference_canonical(pairs):
    """The factor-every-term canonicalizer: split every radicand again and
    merge like ones.  The trial division runs over the primes the
    radicands are built from, which factors them completely."""
    merged = {}
    for c, rad in pairs:
        s, d = 1, 1
        for p in _PRIMES:
            e = 0
            while rad % p == 0:
                rad //= p
                e += 1
            s *= p ** (e // 2)
            d *= p ** (e % 2)
        assert rad == 1
        merged[d] = merged.get(d, Fraction(0)) + Fraction(c) * s
    return tuple(sorted(((c, d) for d, c in merged.items() if c != 0), key=lambda t: t[1]))


def _reference_product(a, b):
    return _reference_canonical([(c1 * c2, d1 * d2) for c1, d1 in a for c2, d2 in b])


_COEFFS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_SUMS = st.lists(st.tuples(_COEFFS, st.sampled_from(_RADICANDS)), min_size=1, max_size=3)


def _build(sum_spec):
    """A sum of RadicalSum.sqrt leaves and its reference terms."""
    value, pairs = RadicalSum(), []
    for c, x in sum_spec:
        x = Fraction(x)
        value = value + c * _sqrt(x)
        pairs.append((c / x.denominator, x.numerator * x.denominator))
    return value, _reference_canonical(pairs)


class TestCanonicalInvariant:
    @given(_SUMS, _SUMS, st.builds(Fraction, st.integers(1, 3), st.integers(1, 3)),
           st.sampled_from(_RADICANDS), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_factor_every_term(self, a_spec, b_spec, c, x, negate):
        a, ref_a = _build(a_spec)
        b, ref_b = _build(b_spec)
        assert a.terms == ref_a and b.terms == ref_b
        assert (a + b).terms == _reference_canonical(ref_a + ref_b)
        assert (a - b).terms == _reference_canonical(ref_a + tuple((-q, d) for q, d in ref_b))
        assert (a * b).terms == _reference_product(ref_a, ref_b)
        divisor, (ref_div,) = _build([(-c if negate else c, x)])
        q, d = ref_div
        assert (a / divisor).terms == _reference_product(ref_a, ((1 / (q * d), d),))

    def test_only_sqrt_factors(self, monkeypatch):
        calls = []
        factor = radical.squarefree_decompose

        def counted(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(radical, "squarefree_decompose", counted)
        n = _P * _Q
        root = RadicalSum.sqrt(n)
        assert calls == [n]
        assert (root + 1).terms == ((1, 1), (1, n))
        assert (root * 2).terms == ((2, n),)
        assert root * root == RadicalSum.rational(n)
        assert root / root == RadicalSum.rational(1)
        assert calls == [n]


class TestCertifiedCompare:
    def test_exact_radical_paths(self):
        assert certified_compare(RadicalSum.sqrt(2) + 1, Fraction(2)) is Cmp.GREATER
        assert certified_compare(
            (RadicalSum.rational(3) + RadicalSum.sqrt(3)) / 2, Fraction(9, 4)
        ) is Cmp.GREATER
        assert certified_compare(
            RadicalSum.rational(2) * RadicalSum.sqrt(2), RadicalSum.sqrt(8)
        ) is Cmp.EQUAL
        assert certified_compare(Fraction(1, 3), Fraction(1, 2)) is Cmp.LESS

    def test_enclosure_refinement(self):
        # Callables are refined until the enclosures separate.
        lhs = lambda bits: pi(bits)
        assert certified_compare(lhs, Fraction(22, 7)) is Cmp.LESS
        assert certified_compare(lhs, Fraction(314159, 100000)) is Cmp.GREATER

    def test_inconclusive_on_touching_enclosures(self):
        # A fixed-width interval straddling the other value can never separate.
        stuck = lambda bits: Interval(Fraction(0), Fraction(1))
        result = certified_compare(stuck, Fraction(1, 2), max_bits=512)
        assert isinstance(result, Inconclusive)
        assert result.precision_bits >= 512

    def test_v1_tie_reaches_the_cap_within_seconds(self):
        # a V1 against itself never separates, so every precision up to
        # MAX_BITS is tried on the arccos of each non-right dihedral angle
        code = ("from blichfeldt import polytope as pt; "
                "from blichfeldt.radical import certified_compare; "
                f"iv = pt.hull({V1_HULLS['bench'][0]}).intrinsic_volumes; "
                "print(certified_compare(iv.v1, iv.v1))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(interval.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=10, check=False)
        assert proc.stdout.strip() == repr(Inconclusive(radical.MAX_BITS))

    def test_square_factor_left_in_a_radicand_is_inconclusive(self):
        # sqrt(4) kept as a radicand, as a cofactor with a repeated prime
        # above the trial limit would be, equals 2 but is not merged with
        # it: the difference never separates from 0 and is never EQUAL
        x = RadicalSum({4: Fraction(1)}) - 2
        assert certified_compare(x, 0, max_bits=512) == Inconclusive(512)
