"""Integer/rational linear algebra: determinants, kernels, rational routines."""

from fractions import Fraction
from operator import mul

from hypothesis import given, settings, strategies as st

from blichfeldt import linalg
from oracles import kernel_basis, unimodular_for_primitive


def _frac_det_oracle(m):
    return linalg.frac_det([[Fraction(x) for x in row] for row in m])


small_matrix = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


class TestDeterminant:
    def test_known_values(self):
        assert linalg.det_bareiss([[2, 0], [1, 2]]) == 4
        assert linalg.det_bareiss([[1, 2], [3, 4]]) == -2
        assert linalg.det_bareiss([[0, 1], [1, 0]]) == -1
        assert linalg.det_bareiss([[3]]) == 3

    @given(small_matrix)
    @settings(max_examples=150)
    def test_matches_fraction_elimination(self, m):
        assert linalg.det_bareiss([row[:] for row in m]) == _frac_det_oracle(m)

    @given(small_matrix)
    def test_transpose_invariant(self, m):
        assert linalg.det_bareiss([row[:] for row in m]) == linalg.det_bareiss(
            [list(col) for col in zip(*m)]
        )


class TestKernel:
    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=4))
    def test_unimodular_for_primitive(self, v):
        from math import gcd
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 0:
            return
        c = [x // g for x in v]
        u = unimodular_for_primitive(c)
        assert abs(linalg.det_bareiss([row[:] for row in u])) == 1
        assert [sum(map(mul, row, c)) for row in u] == [1] + [0] * (len(c) - 1)

    def test_kernel_vectors_annihilate(self):
        c = [2, 3, 5]
        for k in kernel_basis(c):
            assert sum(a * b for a, b in zip(k, c)) == 0


class TestRationalRoutines:
    def test_inverse_roundtrip(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
        inv = linalg.frac_inv(m)
        assert [[sum(map(mul, row, col)) for col in zip(*inv)] for row in m] == [
            [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]
        ]
