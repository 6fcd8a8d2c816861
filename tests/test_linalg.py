import random

import pytest
from hypothesis import given, strategies as st

from yangian2.errors import DegreeCapError
from yangian2.linalg import BitEchelon, BlockColumns, BlockEchelon, low_bit

from oracles import rank_of, words_row


def test_low_bit():
    assert low_bit(1) == 0
    assert low_bit(0b1010100) == 2


def test_rank_small_cases():
    assert rank_of([]) == 0
    assert rank_of([0b1, 0b10, 0b11]) == 2
    assert rank_of([0b111, 0b101, 0b010]) == 2
    assert rank_of([0b1000]) == 1


def _slow_rank(rows, width):
    """Textbook elimination on explicit bit lists."""
    mat = [[(r >> c) & 1 for c in range(width)] for r in rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [(a + b) % 2 for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_rank_against_slow_elimination():
    rng = random.Random(11)
    for _ in range(50):
        width = rng.randint(1, 20)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 25))]
        assert rank_of(rows) == _slow_rank(rows, width)


@given(st.lists(st.integers(min_value=0, max_value=2**24 - 1), max_size=20))
def test_reduce_kills_members(rows):
    ech = BitEchelon()
    for r in rows:
        ech.add(r)
    for r in rows:
        assert ech.reduce(r) == 0
    assert ech.rank <= len(rows)


@given(st.lists(st.integers(min_value=0, max_value=2**24 - 1), max_size=20),
       st.integers(min_value=0, max_value=2**24 - 1))
def test_residue_avoids_pivot_columns(rows, probe):
    ech = BitEchelon()
    for r in rows:
        ech.add(r)
    residue = ech.reduce(probe)
    for col in ech.pivots:
        assert not (residue >> col) & 1
    # reducing is idempotent
    assert ech.reduce(residue) == residue


def _reduce_per_bit(ech, row):
    """Reference reduction: peel the lowest bit, XOR a pivot row or keep it."""
    residue = 0
    while row:
        c = low_bit(row)
        held = ech.pivots.get(c)
        if held is None:
            residue |= 1 << c
            row ^= 1 << c
        else:
            row ^= held
    return residue


# dense multi-limb ints and sparse ones, so that pivots can collide
_wide_rows = st.one_of(
    st.integers(min_value=0, max_value=2**300 - 1),
    st.sets(st.integers(min_value=0, max_value=299), max_size=6).map(
        lambda bits: sum(1 << b for b in bits)))


@given(st.lists(_wide_rows, max_size=30), st.lists(_wide_rows, max_size=10))
def test_mask_reduce_matches_per_bit_reference(rows, probes):
    ech = BitEchelon()
    for r in rows:
        ech.add(r)
    assert ech.mask == sum(1 << c for c in ech.pivots)
    for probe in rows + probes:
        assert ech.reduce(probe) == _reduce_per_bit(ech, probe)


def _random_blocks(rng):
    """Columns 0..width-1 in global order, each with a random block key,
    a BlockColumns over them, and the dense index (column c at bit c)."""
    width = rng.randint(1, 40)
    key = [rng.randrange(rng.randint(1, 5)) for _ in range(width)]
    return key, BlockColumns.by_key(range(width), key.__getitem__), {
        c: c for c in range(width)}


def _homogeneous_rows(rng, key, count):
    """Word sets each inside one block, some empty, some repeated."""
    by_key: dict = {}
    for c, k in enumerate(key):
        by_key.setdefault(k, []).append(c)
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.1:
            rows.append(rng.choice(rows))
            continue
        cols = rng.choice(list(by_key.values()))
        rows.append(set(rng.sample(cols, rng.randint(0, len(cols)))))
    return rows


def test_block_echelon_matches_one_dense_echelon():
    """On homogeneous rows the block echelon and one dense BitEchelon find
    the same rank, the same dependent rows, the same pivots (each local
    pivot mapped to its global column) and the same residues, also of
    vectors that span several blocks."""
    rng = random.Random(26)
    for _ in range(300):
        key, columns, index = _random_blocks(rng)
        width = len(key)
        blocks, dense = BlockEchelon(), BitEchelon()
        for words in _homogeneous_rows(rng, key, rng.randint(0, 30)):
            got = blocks.add(columns.vector(words, width))
            want = dense.add(words_row(words, index, width))
            assert (got == 0) == (want == 0)
        assert blocks.rank == dense.rank
        assert {columns.words[b][c] for b, held in blocks.blocks.items()
                for c in held.pivots} == set(dense.pivots)
        for _ in range(10):
            probe = set(rng.sample(range(width), rng.randint(0, width)))
            residue = blocks.reduce(columns.vector(probe, width))
            assert all(residue.values())
            assert words_row(columns.words_of(residue), index, width) == \
                dense.reduce(words_row(probe, index, width))


def test_block_columns_keep_the_global_order():
    """Each block lists its columns in the order they came, and locate
    finds a column's block and local column."""
    key = [0, 1, 0, 2, 1, 0, 1]
    columns = BlockColumns.by_key([5, 4, 3, 2, 1, 0, 6], key.__getitem__)
    assert columns.words == [[5, 2, 0], [4, 1, 6], [3]]
    assert columns.locate(6) == (1, 2) and columns.locate(7) is None
    assert columns.vector({4, 6, 0}, 9) == {1: 0b101, 0: 0b100}
    assert columns.words_of({1: 0b101, 2: 1}) == {4, 6, 3}
    with pytest.raises(DegreeCapError):
        columns.vector({7}, 9)


def test_block_echelon_refuses_rows_spanning_two_blocks():
    """An inhomogeneous row raises and leaves the echelon as it was; the
    zero vector is dependent."""
    ech = BlockEchelon()
    assert ech.add({0: 0b1}) == 0b1
    with pytest.raises(ValueError, match="spans blocks"):
        ech.add({0: 0b10, 1: 0b1})
    assert ech.rank == 1 and set(ech.blocks) == {0}
    assert ech.add({}) == 0
    assert ech.reduce({0: 0b11, 1: 0b1, 2: 0}) == {0: 0b10, 1: 0b1}
