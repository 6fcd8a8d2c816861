import random

import pytest

from yangian2 import RTTAlgebra, Shape, gauss_decompose, t_matrix
from yangian2.errors import OrderCapError
from yangian2.rtt import word_degree
from yangian2.series import (YSeries, diagonal_matrix, matrix_mul, series_inv,
                             series_mul, series_of, series_one, series_shift,
                             series_zero)


@pytest.fixture(scope="module")
def alg():
    return RTTAlgebra(Shape(1, 1, 5))


def _unit_series(alg, order, rng, max_terms=2):
    """Random series with constant term 1 and degree-respecting coefficients."""
    coeffs = [alg.one()]
    for k in range(1, order + 1):
        words = set()
        for _ in range(rng.randint(0, max_terms)):
            word = []
            budget = k
            while budget > 0:
                r = rng.randint(1, budget)
                word.append((rng.randint(1, alg.shape.size),
                             rng.randint(1, alg.shape.size), r))
                budget -= r
            words.add(tuple(word))
        coeffs.append(alg.normal_form(words))
    return YSeries(alg, tuple(coeffs))


def test_mul_by_one(alg):
    a = series_of(alg, 3, {1: alg.gen(1, 2, 1), 3: alg.gen(2, 1, 2)})
    assert series_mul(a, series_one(alg, 3)) == a
    assert series_mul(series_one(alg, 3), a) == a


def test_square_cross_terms_cancel(alg):
    a = series_of(alg, 2, {0: alg.one(), 1: alg.gen(1, 1, 1)})
    sq = series_mul(a, a)
    assert sq.coeffs[0] == alg.one()
    assert not sq.coeffs[1]
    assert sq.coeffs[2] == alg.gen(1, 1, 1) * alg.gen(1, 1, 1)


def test_order_mismatch_rejected(alg):
    with pytest.raises(OrderCapError):
        series_mul(series_one(alg, 2), series_one(alg, 3))


def test_inv_of_one(alg):
    assert series_inv(series_one(alg, 4)) == series_one(alg, 4)


def test_inv_geometric(alg):
    a = alg.gen(1, 2, 1)
    s = series_of(alg, 3, {0: alg.one(), 1: a})
    inv = series_inv(s)
    assert inv.coeffs[1] == a
    assert inv.coeffs[2] == a * a
    assert inv.coeffs[3] == a * a * a


def test_inv_requires_unit(alg):
    with pytest.raises(ValueError):
        series_inv(series_of(alg, 2, {1: alg.gen(1, 1, 1)}))


def test_inv_two_sided_on_random_series(alg):
    rng = random.Random(42)
    one = series_one(alg, 4)
    for _ in range(50):
        s = _unit_series(alg, 4, rng)
        inv = series_inv(s)
        assert series_mul(s, inv) == one
        assert series_mul(inv, s) == one


def test_shift_zero_and_even(alg):
    rng = random.Random(3)
    s = _unit_series(alg, 4, rng)
    assert series_shift(s, 0) == s
    assert series_shift(s, 2) == s
    assert series_shift(s, -6) == s


def test_shift_example(alg):
    d1 = alg.gen(1, 1, 1)
    d2 = alg.gen(1, 1, 2)
    s = series_of(alg, 2, {0: alg.one(), 1: d1, 2: d2})
    shifted = series_shift(s, 1)
    assert shifted.coeffs[0] == alg.one()
    assert shifted.coeffs[1] == d1
    assert shifted.coeffs[2] == d1 + d2


def test_double_shift_is_identity(alg):
    rng = random.Random(5)
    for _ in range(20):
        s = _unit_series(alg, 4, rng)
        assert series_shift(series_shift(s, 1), 1) == s
        assert series_shift(s, 3) == series_shift(s, 1)


def test_t_matrix_entries(alg):
    t = t_matrix(alg, 3)
    assert t.entry(1, 1).coeffs[0] == alg.one()
    assert not t.entry(1, 2).coeffs[0]
    assert t.entry(2, 1).coeffs[3] == alg.gen(2, 1, 3)
    assert t.entry(2, 2).coeffs[2] == alg.gen(2, 2, 2)


def test_t_matrix_order_cap(alg):
    with pytest.raises(OrderCapError):
        t_matrix(alg, 6)


def test_gauss_2x2_against_formula(alg):
    """The 2x2 case written out longhand with series primitives."""
    order = 3
    t = t_matrix(alg, order)
    f_mat, diag, e_mat = gauss_decompose(t)
    t11, t12 = t.entry(1, 1), t.entry(1, 2)
    t21, t22 = t.entry(2, 1), t.entry(2, 2)
    inv11 = series_inv(t11)
    assert diag[0] == t11
    assert e_mat.entry(1, 2) == series_mul(inv11, t12)
    assert f_mat.entry(2, 1) == series_mul(t21, inv11)
    schur = t22 + series_mul(t21, series_mul(inv11, t12))
    assert diag[1] == schur


def test_gauss_frozen_coefficients(alg):
    """Spot values at order 2, from expanding the 2x2 recursion by hand."""
    t = t_matrix(alg, 2)
    f_mat, diag, e_mat = gauss_decompose(t)
    assert diag[0].coeffs[1] == alg.gen(1, 1, 1)
    assert diag[0].coeffs[2] == alg.gen(1, 1, 2)
    e12_2 = e_mat.entry(1, 2).coeffs[2]
    assert e12_2 == alg.gen(1, 2, 2) + alg.gen(1, 1, 1) * alg.gen(1, 2, 1)
    d2_2 = diag[1].coeffs[2]
    assert d2_2 == alg.gen(2, 2, 2) + alg.gen(2, 1, 1) * alg.gen(1, 2, 1)


@pytest.mark.parametrize("m,n,order", [(1, 1, 3), (2, 1, 2), (1, 2, 2), (2, 2, 3)])
def test_gauss_reconstruction(m, n, order):
    alg = RTTAlgebra(Shape(m, n, order))
    t = t_matrix(alg, order)
    f_mat, diag, e_mat = gauss_decompose(t)
    product = matrix_mul(f_mat, matrix_mul(diagonal_matrix(alg, diag), e_mat))
    assert product == t


@pytest.mark.parametrize("m,n,order", [(1, 1, 3), (2, 1, 2), (2, 2, 2)])
def test_gauss_pivot_inverses(m, n, order):
    alg = RTTAlgebra(Shape(m, n, order))
    inverses = []
    f_mat, diag, e_mat = gauss_decompose(t_matrix(alg, order), inverses)
    assert (f_mat, diag, e_mat) == gauss_decompose(t_matrix(alg, order))
    # the last pivot heads no row of E and no column of F: not inverted
    assert inverses == [series_inv(d) for d in diag[:-1]]


def test_gauss_triangular_structure():
    alg = RTTAlgebra(Shape(2, 1, 3))
    t = t_matrix(alg, 3)
    f_mat, diag, e_mat = gauss_decompose(t)
    one = series_one(alg, 3)
    zero = series_zero(alg, 3)
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                assert f_mat.entry(i, j) == one
                assert e_mat.entry(i, j) == one
            elif i < j:
                assert f_mat.entry(i, j) == zero
            else:
                assert e_mat.entry(i, j) == zero


def test_gauss_filtration_invariant():
    alg = RTTAlgebra(Shape(2, 1, 3))
    t = t_matrix(alg, 3)
    f_mat, diag, e_mat = gauss_decompose(t)
    series_list = [s for row in f_mat.entries for s in row]
    series_list += [s for row in e_mat.entries for s in row]
    series_list += diag
    for s in series_list:
        for k, coeff in enumerate(s.coeffs):
            for w in coeff.words:
                assert word_degree(w) <= k


def test_gauss_deterministic():
    alg = RTTAlgebra(Shape(2, 1, 2))
    first = gauss_decompose(t_matrix(alg, 2))
    second = gauss_decompose(t_matrix(alg, 2))
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_gauss_rejects_bad_constant_term(alg):
    bad = t_matrix(alg, 2)
    rows = list(list(row) for row in bad.entries)
    rows[0][1] = series_one(alg, 2)
    from yangian2.series import YMatrix
    with pytest.raises(ValueError):
        gauss_decompose(YMatrix(tuple(tuple(r) for r in rows)))


def _old_gauss(t):
    """The pivot recursion as it formed f_ip d_p by a product."""
    from yangian2 import series
    size = t.size
    alg = t.entries[0][0].alg
    order = t.entries[0][0].order
    lower = series.identity_matrix(alg, size, order)
    upper = series.identity_matrix(alg, size, order)
    diag = []
    work = [[t.entries[i][j] for j in range(size)] for i in range(size)]
    for p in range(size):
        d = work[p][p]
        diag.append(d)
        dinv = series_inv(d)
        for j in range(p + 1, size):
            upper[p][j] = series.series_mul(dinv, work[p][j])
            lower[j][p] = series.series_mul(work[j][p], dinv)
        for i in range(p + 1, size):
            fd = series.series_mul(lower[i][p], d)
            for j in range(p + 1, size):
                work[i][j] = work[i][j] + series.series_mul(fd, upper[p][j])
    return (series.YMatrix(tuple(tuple(row) for row in lower)), diag,
            series.YMatrix(tuple(tuple(row) for row in upper)))


@pytest.mark.parametrize("m,n,order", [(1, 1, 3), (2, 1, 3), (2, 2, 2),
                                       (3, 1, 2)])
def test_gauss_schur_update_reuses_t(monkeypatch, m, n, order):
    """The Schur update takes f_ip d_p = t_ip as is: the factors are those
    of the old recursion, with s(s-1)/2 fewer series products."""
    from yangian2 import series
    calls = []
    original = series.series_mul

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(series, "series_mul", counting)
    alg = RTTAlgebra(Shape(m, n, order))
    t = t_matrix(alg, order)
    new = gauss_decompose(t)
    new_calls = len(calls)
    calls.clear()
    assert new == _old_gauss(t)
    size = m + n
    assert len(calls) - new_calls == size * (size - 1) // 2
