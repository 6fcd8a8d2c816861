import random

from hypothesis import given, strategies as st

from yangian2.linalg import BitEchelon, low_bit, rank_of


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
