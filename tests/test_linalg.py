"""Integer linear algebra: determinants, cross products, adjugates and
kernels, held against Gaussian elimination on Fractions."""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from blichfeldt import linalg
from blichfeldt.lattice import Lattice
from blichfeldt.linalg import DegenerateBasisError
from oracles import (
    frac_det, frac_inv, frac_vec_mat, kernel_basis, simplex_normal, unimodular_for_primitive,
)


def _frac_det_oracle(m):
    return frac_det([[Fraction(x) for x in row] for row in m])


def _square(size, entries):
    return size.flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


small_matrix = _square(st.integers(2, 4), st.integers(-6, 6))
# entries in {-1, 0, 1} make singular matrices common
adjugate_matrix = _square(st.integers(1, 6), st.integers(-6, 6) | st.integers(-1, 1))
rational_basis = _square(st.integers(1, 4), st.fractions(-4, 4, max_denominator=6))
# small entries make zero pivots and dependent rows common; large ones test
# that nothing rounds
wide_entries = st.integers(-1, 1) | st.integers(-6, 6) | st.integers(-2**100, 2**100)


@st.composite
def _cross_rows(draw):
    """d-1 rows in Z^d for d = 2..8, and a point x; one row may be replaced
    by an integer combination of two rows, often making them dependent."""
    d = draw(st.integers(2, 8))
    row = st.lists(wide_entries, min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=d - 1, max_size=d - 1))
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, d - 2)) for _ in range(3))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    return rows, draw(row)


class TestDeterminant:
    def test_known_values(self):
        assert linalg.det_bareiss([[2, 0], [1, 2]]) == 4
        assert linalg.det_bareiss([[1, 2], [3, 4]]) == -2
        assert linalg.det_bareiss([[0, 1], [1, 0]]) == -1
        assert linalg.det_bareiss([[3]]) == 3
        assert linalg.det_bareiss([]) == 1

    @given(small_matrix)
    @settings(max_examples=150)
    def test_matches_fraction_elimination(self, m):
        assert linalg.det_bareiss([row[:] for row in m]) == _frac_det_oracle(m)

    @given(_square(st.integers(0, 3), wide_entries))
    @settings(max_examples=300)
    def test_closed_forms_match_fraction_elimination(self, m):
        assert linalg.det_bareiss(m) == _frac_det_oracle(m)

    @pytest.mark.parametrize("m", [
        [[0, 1], [1, 0]], [[0, 2], [0, 3]], [[0, 1, 2], [3, 4, 5], [6, 7, 9]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 1, 1], [0, 2, 3], [0, 4, 5]],
    ])
    def test_closed_forms_with_zero_leading_pivot(self, m):
        assert linalg.det_bareiss(m) == _frac_det_oracle(m)

    @pytest.mark.parametrize("m", [
        [[]], [[1, 2]], [[1], [2]], [[1, 2], [3]], [[1, 2, 3], [4, 5, 6]],
        [[1, 2], [3, 4], [5, 6]], [[1, 2, 3], [4, 5, 6], [7, 8]],
    ])
    def test_non_square_rejected(self, m):
        with pytest.raises(ValueError, match="not square"):
            linalg.det_bareiss(m)

    @given(small_matrix)
    def test_transpose_invariant(self, m):
        assert linalg.det_bareiss([row[:] for row in m]) == linalg.det_bareiss(
            [list(col) for col in zip(*m)]
        )


class TestCross:
    def test_known_values(self):
        assert linalg.cross([]) == [1]
        assert linalg.cross([[3, 5]]) == [-5, 3]
        assert linalg.cross([[1, 0, 0], [0, 1, 0]]) == [0, 0, 1]
        assert linalg.cross([[1, 2, 3], [2, 4, 6]]) == [0, 0, 0]
        assert linalg.cross([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]) == [0, 0, 0, 1]
        # rows e_i + c_i e_(i+1): N_d = 1 and N_i = -c_i N_(i+1)
        assert linalg.cross([[1, 2, 0, 0, 0], [0, 1, 3, 0, 0], [0, 0, 1, 4, 0],
                             [0, 0, 0, 1, 5]]) == [120, -60, 20, -5, 1]
        assert linalg.cross([[1, 2, 0, 0, 0, 0], [0, 1, 3, 0, 0, 0], [0, 0, 1, 4, 0, 0],
                             [0, 0, 0, 1, 5, 0], [0, 0, 0, 0, 1, 6]]) == [-720, 360, -120, 30, -6, 1]

    @given(_cross_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_cofactor_oracle(self, case):
        rows, x = case
        n = linalg.cross(rows)
        assert n == simplex_normal([[0] * len(x)] + rows)
        assert sum(map(mul, n, x)) == _frac_det_oracle(rows + [x])


class TestAdjugate:
    def test_known_values(self):
        assert linalg.adjugate([[5]]) == [[1]]     # the empty minor is 1
        assert linalg.adjugate([[1, 2], [3, 4]]) == [[4, -2], [-3, 1]]
        assert linalg.adjugate([[1, 2], [2, 4]]) == [[4, -2], [-2, 1]]

    @given(adjugate_matrix)
    @settings(max_examples=200)
    def test_times_matrix_is_det_identity(self, m):
        n = len(m)
        adj = linalg.adjugate(m)
        d = linalg.det_bareiss(m)
        assert d == _frac_det_oracle(m)
        expected = [[d * (i == j) for j in range(n)] for i in range(n)]
        assert [[sum(map(mul, row, col)) for col in zip(*adj)] for row in m] == expected
        assert [[sum(map(mul, row, col)) for col in zip(*m)] for row in adj] == expected

    @given(rational_basis)
    @settings(max_examples=150)
    def test_lattice_data_match_fraction_elimination(self, basis):
        # the lattice's integer route and the Fraction route give the same
        # exact rationals: det, coefficients, dual Gram and polar basis
        det = frac_det(basis)
        try:
            lat = Lattice(basis)
        except DegenerateBasisError:
            assert det == 0
            return
        n = len(basis)
        inv = frac_inv(basis)
        dual = [[inv[i][j] for i in range(n)] for j in range(n)]
        assert lat.determinant == abs(det)
        point = [Fraction(k + 1, 3) for k in range(n)]
        assert lat.to_coeff(point) == tuple(frac_vec_mat(point, inv))
        assert lat.to_ambient(lat.to_coeff(point)) == tuple(point)
        assert lat.dual_gram == tuple(
            tuple(sum(map(mul, d, e)) for e in dual) for d in dual)
        assert lat.polar.basis == tuple(map(tuple, dual))


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
        inv = frac_inv(m)
        assert [[sum(map(mul, row, col)) for col in zip(*inv)] for row in m] == [
            [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]
        ]
