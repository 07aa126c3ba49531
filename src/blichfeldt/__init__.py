"""Exact lattice-point counting and certified inequality checking.

Everything here is exact: rationals via ``fractions.Fraction``, sums of
square roots as canonical ``RadicalSum`` values, and irrational quantities
(pi, angles, cube roots) as adaptive-precision dyadic enclosures.  No
floating point ever decides a verdict.
"""
