"""Truncated power series in u^(-1) with Yangian coefficients.

A series holds coefficients c_0..c_K of u^0..u^(-K).  The generating
matrix T(u) has entries delta_ij + sum_r t[i,j,r] u^(-r); its u^(-k)
coefficient has canonical degree <= k, a bound preserved by every
operation here, which is what couples the series order K to the algebra
cap L (K <= L keeps all intermediate products in cap).

gauss_decompose factors T = F * D * E with F lower unitriangular, D
diagonal and E upper unitriangular by the pivot recursion

    d_1 = t_11,  e_1j = d_1^(-1) t_1j,  f_i1 = t_i1 d_1^(-1),
    t'_ij = t_ij + f_i1 d_1 e_1j = t_ij + t_i1 e_1j        (mod 2)

iterated on the Schur complement.  The Drinfeld relation suite is the
acceptance check that this convention produces the intended generators.
"""

from __future__ import annotations

from .errors import OrderCapError
from .report import Frozen
from .rtt import RTTAlgebra


class YSeries(Frozen):
    """Immutable coefficients c_0..c_K over alg, equal and hashed by them."""

    __slots__ = ("alg", "coeffs")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "YSeries") -> "YSeries":
        _check_compatible(self, other)
        return YSeries(self.alg, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "YSeries") -> "YSeries":
        return series_mul(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, YSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        parts = [f"({c.canonical()})u^-{k}" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


def _check_compatible(a: YSeries, b: YSeries) -> None:
    if a.order != b.order:
        raise OrderCapError(f"series orders differ: {a.order} vs {b.order}")
    if a.alg.shape != b.alg.shape:
        raise ValueError("series live over different shapes")


def series_zero(alg: RTTAlgebra, order: int) -> YSeries:
    return YSeries(alg, tuple(alg.zero() for _ in range(order + 1)))


def series_one(alg: RTTAlgebra, order: int) -> YSeries:
    return YSeries(alg, (alg.one(),) + tuple(alg.zero() for _ in range(order)))


def series_of(alg: RTTAlgebra, order: int, entries: dict) -> YSeries:
    """Series from a {exponent: Element} dict, zero elsewhere."""
    coeffs = [entries.get(k, alg.zero()) for k in range(order + 1)]
    return YSeries(alg, tuple(coeffs))


def series_mul(a: YSeries, b: YSeries) -> YSeries:
    _check_compatible(a, b)
    alg = a.alg
    out = []
    for k in range(a.order + 1):
        acc = alg.zero()
        for j in range(k + 1):
            ca, cb = a.coeffs[j], b.coeffs[k - j]
            if ca and cb:
                acc = acc + alg.multiply(ca, cb)
        out.append(acc)
    return YSeries(alg, tuple(out))


def series_inv(a: YSeries) -> YSeries:
    """Two-sided inverse of a series with unit constant term.

    Built as the left inverse, a'a = 1, by the convolution recursion
    c'_0 = 1, c'_r = sum_{t=1}^{r} c'_{r-t} c_t  (mod 2).  The mirrored
    recursion gives a a right inverse too, and in an associative algebra
    the two are equal, so this is the inverse.  Relation D1 checks the
    other side, aa' = 1, on the mirror images of the products formed here.
    """
    alg = a.alg
    if a.coeffs[0] != alg.one():
        raise ValueError("series_inv needs a unit constant term")
    inv = [alg.one()]
    for r in range(1, a.order + 1):
        acc = alg.zero()
        for t in range(1, r + 1):
            ct = a.coeffs[t]
            if ct and inv[r - t]:
                acc = acc + alg.multiply(inv[r - t], ct)
        inv.append(acc)
    return YSeries(alg, tuple(inv))


def series_shift(a: YSeries, shift: int) -> YSeries:
    """Substitute u -> u - shift; exact to the series order.

    Mod 2 only the shift parity matters, so even shifts are the identity
    and an odd one acts as u -> u - 1: (u - 1)^(-r) is the sum over k of
    C(r+k-1, k) u^(-r-k), and by Lucas C(n, k) is odd iff the bits of k
    lie in those of n.
    """
    if shift % 2 == 0:
        return a
    alg = a.alg
    order = a.order
    out = [alg.zero() for _ in range(order + 1)]
    out[0] = a.coeffs[0]
    for r in range(1, order + 1):
        c = a.coeffs[r]
        if not c:
            continue
        for k in range(order - r + 1):
            if k & (r + k - 1) == k:
                out[r + k] = out[r + k] + c
    return YSeries(alg, tuple(out))


class YMatrix(Frozen):
    """An immutable square matrix of series, rows of entries."""

    __slots__ = ("entries",)

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> YSeries:
        """1-based access, matching generator indexing."""
        return self.entries[i - 1][j - 1]


def t_matrix(alg: RTTAlgebra, order: int) -> YMatrix:
    """The generating matrix T(u) to the requested order."""
    if order > alg.shape.cap:
        raise OrderCapError(f"order {order} exceeds cap {alg.shape.cap}")
    size = alg.shape.size
    rows = []
    for i in range(1, size + 1):
        row = []
        for j in range(1, size + 1):
            entries = {r: alg.gen(i, j, r) for r in range(1, order + 1)}
            if i == j:
                entries[0] = alg.one()
            row.append(series_of(alg, order, entries))
        rows.append(tuple(row))
    return YMatrix(tuple(rows))


def matrix_mul(a: YMatrix, b: YMatrix) -> YMatrix:
    size = a.size
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = None
            for k in range(size):
                term = series_mul(a.entries[i][k], b.entries[k][j])
                acc = term if acc is None else acc + term
            row.append(acc)
        rows.append(tuple(row))
    return YMatrix(tuple(rows))


def diagonal_matrix(alg: RTTAlgebra, diag: list[YSeries]) -> YMatrix:
    order = diag[0].order
    size = len(diag)
    rows = []
    for i in range(size):
        row = [diag[i] if i == j else series_zero(alg, order) for j in range(size)]
        rows.append(tuple(row))
    return YMatrix(tuple(rows))


def identity_matrix(alg: RTTAlgebra, size: int, order: int) -> list[list[YSeries]]:
    return [[series_one(alg, order) if i == j else series_zero(alg, order)
             for j in range(size)] for i in range(size)]


def gauss_decompose(t: YMatrix, inverses: list | None = None
                    ) -> tuple[YMatrix, list[YSeries], YMatrix]:
    """Factor T = F * D * E over the noncommutative series ring.

    Requires unit diagonal and vanishing off-diagonal constant terms; both
    hold for t_matrix output and for every Schur complement it produces.
    Each pivot but the last is inverted once, for the row of E and the
    column of F it heads; the last pivot heads neither and is not inverted.
    When *inverses* is a list, those N - 1 inverses (the diagonal of
    D^(-1) without its last entry) are appended to it in pivot order.
    """
    size = t.size
    alg = t.entries[0][0].alg
    order = t.entries[0][0].order
    one = alg.one()
    zero = alg.zero()
    for i in range(size):
        for j in range(size):
            c0 = t.entries[i][j].coeffs[0]
            want = one if i == j else zero
            if c0 != want:
                raise ValueError("gauss_decompose needs a unitriangular-ready matrix")

    lower = identity_matrix(alg, size, order)
    upper = identity_matrix(alg, size, order)
    diag: list[YSeries] = []
    work = [[t.entries[i][j] for j in range(size)] for i in range(size)]

    for p in range(size):
        d = work[p][p]
        diag.append(d)
        if p + 1 == size:
            break
        dinv = series_inv(d)
        if inverses is not None:
            inverses.append(dinv)
        for j in range(p + 1, size):
            upper[p][j] = series_mul(dinv, work[p][j])
            lower[j][p] = series_mul(work[j][p], dinv)
        for i in range(p + 1, size):
            # f_ip d_p = t_ip d_p^(-1) d_p is the entry t_ip itself
            for j in range(p + 1, size):
                work[i][j] = work[i][j] + series_mul(work[i][p], upper[p][j])

    f_mat = YMatrix(tuple(tuple(row) for row in lower))
    e_mat = YMatrix(tuple(tuple(row) for row in upper))
    return f_mat, diag, e_mat
