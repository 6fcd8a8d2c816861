"""GF(2) linear algebra on integer bitmask rows, the package's one row
vocabulary: every rank it certifies turns words into rows through
BlockColumns.vector and ranks them in a BlockEchelon (or, for rows that
are bitmasks already, in a BitEchelon).  The dense reference, one row
over all columns, lives in tests/oracles.py.

Rows are Python ints; bit c is column c.  Echelon form keeps one row per
pivot column, the pivot being the lowest set bit, so reducing a vector by
pivots in increasing column order terminates (XOR never reintroduces a
cleared pivot bit).  A mask of the pivot columns lets reduction jump from
one pivot bit to the next without peeling off the residue bits between.

Graded rows are ranked by blocks.  BlockColumns splits the columns into
blocks (weights, in the package) and keeps each block's columns in their
global order; a vector is then a dict {block: row} whose rows are only as
wide as their blocks.  BlockEchelon holds one BitEchelon per block and
takes only homogeneous rows, one block each; a row that spans two blocks
raises and is never split.  This is exact.  A held row lies in one block,
so reducing a row of block b meets only pivots of block b, and the dense
echelon of the same rows in the same order is the direct sum of the block
echelons: the same rank, the same rows found dependent, and, because a
block's local order is the global order restricted to it, the same
pivots (the lowest global column of each held row) and the same residues,
block by block.
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


# a column's index value: its block above BLOCK_SHIFT, its local column below
BLOCK_SHIFT = 32
LOCAL_MASK = (1 << BLOCK_SHIFT) - 1


class BlockColumns:
    """Columns split into blocks, each block's columns in their global order.

    Built from one word list per block, each in the global order.  index
    maps a column's word to (block << BLOCK_SHIFT) | local, its block
    number and its place in the block, so a row is built without asking
    any of its words for its block again; words[block] is the block's list.
    """

    def __init__(self, blocks) -> None:
        self.index: dict = {}
        self.words: list[list] = []
        for block, col in enumerate(blocks):
            start = block << BLOCK_SHIFT
            self.index.update(zip(col, range(start, start + len(col))))
            self.words.append(col)

    @classmethod
    def by_key(cls, words, key) -> BlockColumns:
        """The columns words, in their order, split into blocks by key(word),
        which is asked once per word."""
        groups: dict = {}
        for w in words:
            group = groups.get(k := key(w))
            if group is None:
                groups[k] = [w]
            else:
                group.append(w)
        return cls(groups.values())

    def locate(self, word) -> tuple[int, int] | None:
        """(block, local column) of a column's word; None for any other."""
        pos = self.index.get(word)
        return None if pos is None else (pos >> BLOCK_SHIFT, pos & LOCAL_MASK)

    def vector(self, words, bound: int) -> dict:
        """The vector {block: row} of a set of words.

        The columns are the monomials of degree <= bound; a word outside
        them raises DegreeCapError instead of being dropped.
        """
        index = self.index
        rows: dict = {}
        for w in words:
            pos = index.get(w)
            if pos is None:
                raise DegreeCapError(f"element degree exceeds bound {bound}")
            block = pos >> BLOCK_SHIFT
            rows[block] = rows.get(block, 0) | 1 << (pos & LOCAL_MASK)
        return rows

    def words_of(self, vector: dict) -> set:
        """The words of a vector's set bits."""
        out = set()
        for block, row in vector.items():
            col = self.words[block]
            while row:
                low = row & -row
                out.add(col[low.bit_length() - 1])
                row ^= low
        return out


class BlockEchelon:
    """Incremental row echelon of homogeneous vectors, one BitEchelon per
    block, each made when its block's first row arrives."""

    def __init__(self) -> None:
        self.blocks: dict[int, BitEchelon] = {}

    @property
    def rank(self) -> int:
        return sum(ech.rank for ech in self.blocks.values())

    def add(self, vector: dict) -> int:
        """Reduce a homogeneous vector; install and return its row if it is
        independent, else 0.  ValueError when it spans two blocks."""
        if len(vector) > 1:
            raise ValueError(f"row spans blocks {sorted(vector)}")
        for block, row in vector.items():
            ech = self.blocks.get(block)
            if ech is None:
                ech = self.blocks[block] = BitEchelon()
            return ech.add(row)
        return 0

    def reduce(self, vector: dict) -> dict:
        """Canonical residue of any vector, every block reduced; the blocks
        whose residue vanishes are dropped."""
        out = {}
        for block, row in vector.items():
            ech = self.blocks.get(block)
            if ech is not None:
                row = ech.reduce(row)
            if row:
                out[block] = row
        return out

