"""Dense GF(2) linear algebra on integer bitmask rows.

Rows are Python ints; bit c is column c.  Echelon form keeps one row per
pivot column, the pivot being the lowest set bit, so reducing a vector by
pivots in increasing column order terminates (XOR never reintroduces a
cleared pivot bit).  A mask of the pivot columns lets reduction jump from
one pivot bit to the next without peeling off the residue bits between.
"""

from __future__ import annotations

from .errors import DegreeCapError


def low_bit(x: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (x & -x).bit_length() - 1


class BitEchelon:
    """Incremental row echelon basis over GF(2)."""

    def __init__(self) -> None:
        self.pivots: dict[int, int] = {}
        self.mask = 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: int) -> int:
        """Reduce row against the basis; install and return it if independent.

        Returns 0 when the row was already in the span.
        """
        while row:
            c = low_bit(row)
            held = self.pivots.get(c)
            if held is None:
                self.pivots[c] = row
                self.mask |= 1 << c
                return row
            row ^= held
        return 0

    def reduce(self, row: int) -> int:
        """Canonical residue of row modulo the span (pivot bits eliminated)."""
        pivots, mask = self.pivots, self.mask
        hit = row & mask
        while hit:
            row ^= pivots[low_bit(hit)]
            hit = row & mask
        return row


def words_row(words, index: dict, bound: int) -> int:
    """Bitmask row of a set of words over the columns in index.

    The columns are the monomials of degree <= bound; a word outside them
    raises DegreeCapError instead of being dropped.
    """
    row = 0
    for w in words:
        pos = index.get(w)
        if pos is None:
            raise DegreeCapError(f"element degree exceeds bound {bound}")
        row |= 1 << pos
    return row


def rank_of(rows) -> int:
    """GF(2) rank of an iterable of bitmask rows."""
    ech = BitEchelon()
    for row in rows:
        ech.add(row)
    return ech.rank
