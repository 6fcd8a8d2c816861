"""Binomials mod 2 as series_shift reads them.

An odd shift sends u^(-r) to (u - 1)^(-r), the sum over k of
C(r+k-1, k) u^(-r-k), so the shift of a series with one coefficient, at
u^(-r), has the same coefficient at u^(-r-k) exactly where C(r+k-1, k)
is odd.
"""

import math

from hypothesis import given, strategies as st

from yangian2 import RTTAlgebra, Shape
from yangian2.series import series_of, series_shift

from oracles import pascal_table_mod2

ALG = RTTAlgebra(Shape(1, 1, 2))
X = ALG.gen(1, 1, 1)


def shift_row(r: int, shift: int, order: int) -> tuple:
    """The bits of the shift of X u^(-r), at u^(-r) .. u^(-order)."""
    shifted = series_shift(series_of(ALG, order, {r: X}), shift)
    return tuple(int(c == X) for c in shifted.coeffs[r:])


def binom(n: int, k: int) -> int:
    """C(n, k) mod 2 for 0 <= k <= n, read off shift_row at r = n - k + 1."""
    return shift_row(n - k + 1, 1, n + 1)[k]


def test_binom_examples():
    assert binom(3, 2) == 1  # 3 is odd
    assert binom(2, 1) == 0  # C(2,1) = 2
    for n in (0, 1, 5, 17, 64):
        assert binom(n, 0) == 1


def test_binom_against_pascal_triangle():
    table = pascal_table_mod2(64)
    for r in range(1, 66):
        row = shift_row(r, 1, 65)
        for k, bit in enumerate(row):
            assert bit == table[r + k - 1][k], (r + k - 1, k)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=500))
def test_binom_against_factorials(r, k):
    assert shift_row(r, 1, r + k)[k] == math.comb(r + k - 1, k) % 2


def test_shift_expansion_examples():
    assert shift_row(1, 1, 3) == (1, 1, 1)
    assert shift_row(2, 1, 4) == (1, 0, 1)
    assert shift_row(1, 0, 3) == (1, 0, 0)


def test_shift_expansion_against_factorials():
    for r in range(1, 6):
        for order in range(r, 9):
            for k, bit in enumerate(shift_row(r, 1, order)):
                assert bit == math.comb(r + k - 1, k) % 2


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=-50, max_value=50),
       st.integers(min_value=6, max_value=10))
def test_shift_parity_invariance(r, a, order):
    assert shift_row(r, a, order) == shift_row(r, a % 2, order)


def test_shift_even_is_identity_row():
    assert shift_row(3, 4, 8) == (1, 0, 0, 0, 0, 0)
