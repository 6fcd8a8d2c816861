import collections
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from yangian2 import RTTAlgebra, Shape, rtt
from yangian2.current import CurrentAlgebra
from yangian2.errors import DegreeCapError
from yangian2.rtt import (Element, bounded_words, certified_lie_generators,
                          pack, pbw_count, render_word, sort_word,
                          word_degree, word_letters, word_loop_degree,
                          word_weight)

from oracles import (count_full, count_super, gl_bracket_mod2, loop_degree,
                     naive_classical_normal_form, naive_normal_form, parity,
                     rank_of, rtt_rhs, triples)


def element_words_as_triples(x):
    return {triples(w) for w in x.words}


# -- shape and parity --------------------------------------------------------------


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape(0, 1, 3)
    with pytest.raises(ValueError):
        Shape(1, 1, 0)
    # packed fields are one byte wide
    assert Shape(1, 1, 255).cap == 255
    with pytest.raises(ValueError):
        Shape(1, 1, 256)
    with pytest.raises(ValueError):
        Shape(255, 1, 3)


def test_parity_examples():
    shape = Shape(1, 1, 3)
    assert shape.parity(1, 1) == 0
    assert shape.parity(1, 2) == 1
    assert shape.parity(2, 2) == 0
    with pytest.raises(ValueError):
        shape.parity(0, 1)
    with pytest.raises(ValueError):
        shape.parity(1, 3)


def test_parity_blocks_21():
    shape = Shape(2, 1, 3)
    assert shape.parity(1, 2) == 0
    assert shape.parity(1, 3) == 1
    assert shape.parity(3, 3) == 0


# -- the word codec ----------------------------------------------------------------

# a letter of any shape: every field one byte
RAW_WORDS = st.lists(st.tuples(*[st.integers(0, 255)] * 3), max_size=8).map(tuple)


def _packed(word):
    return b"".join(pack(*g) for g in word)


@given(st.lists(RAW_WORDS, min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_byte_order_is_the_tuple_order(words):
    """Sorted packed words come in the order of their tuples of (i, j, r)
    triples: letter by letter, each by (i, j, r), a proper prefix first."""
    assert sorted(map(_packed, words)) == [_packed(w) for w in sorted(words)]


@given(RAW_WORDS)
@settings(max_examples=200, deadline=None)
def test_codec_round_trips(word):
    """A packed word decodes to its triples, holds len(w) // 3 letters, and
    its readers read the fields they name."""
    packed = _packed(word)
    assert triples(packed) == word
    assert len(packed) // 3 == len(word_letters(packed)) == len(word)
    assert [triples(g) for g in word_letters(packed)] == [(g,) for g in word]
    assert word_degree(packed) == sum(r for _, _, r in word)
    assert word_loop_degree(packed) == sum(r - 1 for _, _, r in word)
    assert triples(sort_word(packed)) == tuple(sorted(word))
    assert render_word(packed) == (
        "*".join(f"t[{i},{j},{r}]" for i, j, r in word) or "1")


@given(RAW_WORDS, RAW_WORDS)
@settings(max_examples=200, deadline=None)
def test_word_weight_reads_the_index_bytes(a, b):
    """Two words of any shape have one word_weight exactly when their sums
    of e_i - e_j agree."""
    def coordinates(word):
        weight = collections.Counter()
        for i, j, _ in word:
            weight[i] += 1
            weight[j] -= 1
        return {i: c for i, c in weight.items() if c}

    assert (word_weight(_packed(a)) == word_weight(_packed(b))) == \
        (coordinates(a) == coordinates(b))
    assert word_weight(_packed(a + b)) == \
        word_weight(_packed(a)) + word_weight(_packed(b)) == \
        word_weight(_packed(b + a[::-1]))


@pytest.mark.parametrize("triple", [(256, 1, 1), (1, 256, 1), (1, 1, 256),
                                    (1, 1, -1)])
def test_pack_refuses_a_field_past_one_byte(triple):
    with pytest.raises(ValueError):
        pack(*triple)


# -- the defining bracket -----------------------------------------------------------


def test_commutator_examples(alg11):
    assert rtt_rhs(alg11, (1, 2, 1), (2, 1, 1)) == \
        alg11.gen(1, 1, 1) + alg11.gen(2, 2, 1)
    assert not rtt_rhs(alg11, (1, 1, 1), (1, 1, 2))
    assert rtt_rhs(alg11, (1, 1, 2), (1, 2, 1)) == alg11.gen(1, 2, 2)


def test_commutator_degree_bound(alg11, alg21):
    for alg in (alg11, alg21):
        size = alg.shape.size
        for i, j, k, l in itertools.product(range(1, size + 1), repeat=4):
            for r in (1, 2):
                for s in (1, 2):
                    el = rtt_rhs(alg, (i, j, r), (k, l, s))
                    assert el.degree() <= r + s - 1


def test_commutator_matches_naive_oracle(alg11, alg21):
    for alg in (alg11, alg21):
        size = alg.shape.size
        for i, j, k, l in itertools.product(range(1, size + 1), repeat=4):
            for r, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
                got = element_words_as_triples(
                    rtt_rhs(alg, (i, j, r), (k, l, s)))
                # the oracle straightens the raw display independently
                raw = []
                from oracles import naive_bracket_words
                for w, c in naive_bracket_words((i, j, r), (k, l, s)).items():
                    raw.extend([w] * c)
                assert got == naive_normal_form(raw)


def test_commutator_cap_violation(alg11):
    # degree r + s - 1 = 5 exceeds the cap of 4
    with pytest.raises(DegreeCapError):
        rtt_rhs(alg11, (1, 1, 3), (1, 2, 3))


# -- multiplication and normal form ----------------------------------------------


def test_multiply_identity(alg11):
    x = alg11.gen(1, 2, 1) + alg11.gen(2, 2, 2)
    assert alg11.multiply(alg11.one(), x) == x
    assert alg11.multiply(x, alg11.one()) == x


def test_multiply_straightening_example(alg11):
    got = alg11.gen(2, 1, 2) * alg11.gen(1, 2, 1)
    expected = alg11.normal_form([((1, 2, 1), (2, 1, 2))]) \
        + alg11.gen(1, 1, 2) + alg11.gen(2, 2, 2)
    assert got == expected
    assert got.canonical() == "t[1,1,2] + t[1,2,1]*t[2,1,2] + t[2,2,2]"


def _random_word(rng, alg, max_degree):
    word = []
    budget = max_degree
    while budget > 0 and rng.random() < 0.7:
        r = rng.randint(1, budget)
        word.append((rng.randint(1, alg.shape.size),
                     rng.randint(1, alg.shape.size), r))
        budget -= r
    return tuple(word)


@pytest.mark.parametrize("m,n,cap", [(1, 1, 4), (2, 1, 3)])
def test_multiply_against_naive_oracle(m, n, cap):
    alg = RTTAlgebra(Shape(m, n, cap))
    rng = random.Random(20240 + m * 10 + n)
    for _ in range(100):
        half = cap // 2
        wa = _random_word(rng, alg, half)
        wb = _random_word(rng, alg, cap - word_degree(b"".join(pack(*g) for g in wa)))
        got = alg.multiply(alg.normal_form([wa]), alg.normal_form([wb]))
        # oracle multiplies by straightening the raw concatenation
        expected = naive_normal_form([wa + wb])
        assert element_words_as_triples(got) == expected


def test_square_against_naive_oracle(alg11):
    rng = random.Random(7)
    for _ in range(100):
        wa = _random_word(rng, alg11, 2)
        wb = _random_word(rng, alg11, 2)
        x = alg11.normal_form([wa, wb])
        got = alg11.multiply(x, x)
        words = list(x.words)
        expected = naive_normal_form(
            [triples(u + v) for u in words for v in words])
        assert element_words_as_triples(got) == expected


# -- the append kernel of multiply -------------------------------------------------

KERNEL_ALGEBRAS = [lambda: RTTAlgebra(Shape(1, 1, 4)),
                   lambda: RTTAlgebra(Shape(2, 1, 3)),
                   lambda: CurrentAlgebra(2, 1, 3)]
KERNEL_IDS = ["rtt-1-1-L4", "rtt-2-1-L3", "current-2-1-T3"]


def _oracle_product(alg, x, y):
    """The oracle's normal form of every concatenation wa + wb."""
    words = [triples(wa + wb) for wa in x.words for wb in y.words]
    if isinstance(alg, CurrentAlgebra):
        return naive_classical_normal_form(words, alg.m, alg.trunc)
    return naive_normal_form(words)


def _random_factor(rng, alg, budget, terms):
    """The normal form of up to *terms* random words: of canonical degree
    <= budget in the Yangian, of <= budget letters classically."""
    if isinstance(alg, CurrentAlgebra):
        gens = alg.generators()
        words = [tuple(rng.choice(gens) for _ in range(rng.randint(0, budget)))
                 for _ in range(rng.randint(1, terms))]
    else:
        words = [_random_word(rng, alg, budget)
                 for _ in range(rng.randint(1, terms))]
    return alg.normal_form(words)


@pytest.mark.parametrize("make", KERNEL_ALGEBRAS, ids=KERNEL_IDS)
def test_multiply_many_word_factors_against_oracle(make):
    alg = make()
    rng = random.Random(34)
    cap = alg.shape.cap
    classical = isinstance(alg, CurrentAlgebra)
    nonzero = 0
    for _ in range(60):
        x = _random_factor(rng, alg, 3 if classical else cap // 2, 4)
        y = _random_factor(rng, alg, 3 if classical else cap - x.degree(), 4)
        got = alg.multiply(x, y)
        assert element_words_as_triples(got) == _oracle_product(alg, x, y)
        nonzero += bool(got)
    assert nonzero > 40


@pytest.mark.parametrize("make", KERNEL_ALGEBRAS, ids=KERNEL_IDS)
def test_multiply_by_one_and_zero(make):
    alg = make()
    rng = random.Random(35)
    one, zero = alg.one(), alg.zero()
    budget = 2 if isinstance(alg, CurrentAlgebra) else alg.shape.cap // 2
    for _ in range(10):
        x = _random_factor(rng, alg, budget, 4)
        assert alg.multiply(one, x) == x == alg.multiply(x, one)
        assert alg.multiply(zero, x) == zero == alg.multiply(x, zero)
        # 1 + x: the empty word beside the others in either factor
        y = x + one
        assert (element_words_as_triples(alg.multiply(y, x))
                == _oracle_product(alg, y, x))
        assert (element_words_as_triples(alg.multiply(x, y))
                == _oracle_product(alg, x, y))
    assert alg.multiply(one, one) == one


def test_classical_odd_letter_at_the_junction_vanishes():
    """An odd letter that ends x and starts y squares to 0 at the junction:
    the concatenation is ordered but for the repeat, and is not taken."""
    alg = CurrentAlgebra(2, 1, 3)
    odd = sorted(alg._odd)
    assert odd
    for g in odd:
        assert not alg.multiply(alg.gen(*g), alg.gen(*g))
        below = [h for h in alg.generators() if h < g]
        above = [h for h in alg.generators() if h > g]
        for u, v in itertools.product(below[:3], above[-3:]):
            x = alg.normal_form([u + g])
            y = alg.normal_form([g + v])
            assert x.words == {u + g} and y.words == {g + v}
            assert not alg.multiply(x, y)
            assert not _oracle_product(alg, x, y)
    # x * x with odd letters among its words, against the oracle
    rng = random.Random(36)
    for _ in range(30):
        x = alg.normal_form([(rng.choice(odd),)
                             + tuple(rng.choice(alg.generators())
                                     for _ in range(rng.randint(0, 2)))
                             for _ in range(rng.randint(1, 3))])
        assert (element_words_as_triples(alg.multiply(x, x))
                == _oracle_product(alg, x, x))


def test_multiply_running_sums_that_cancel():
    """x = t[1,2,1] + t[1,1,1] t[1,2,1] times t[1,1,1]: both words insert
    the letter, and their results share t[1,1,1] t[1,2,1], which cancels
    in the running sum before it meets the rest of y."""
    alg = RTTAlgebra(Shape(1, 1, 4))
    a, b = pack(1, 2, 1), pack(1, 1, 1)
    x = alg.normal_form([a, b + a])
    g = alg.gen(1, 1, 1)
    shared = (alg.multiply(alg.gen(1, 2, 1), g).words
              & alg.multiply(alg.normal_form([b + a]), g).words)
    assert shared == {b + a}
    rests = [alg.one(), alg.gen(1, 1, 1), alg.gen(2, 2, 1), alg.gen(1, 2, 1),
             alg.gen(2, 1, 1)]
    for rest in rests:
        y = alg.multiply(g, rest)
        assert (element_words_as_triples(alg.multiply(x, y))
                == _oracle_product(alg, x, y))
        # x y straightened word by word, as a sum of one-word products
        split = alg.zero()
        for wa in x.words:
            split = split + alg.multiply(alg.normal_form([wa]), y)
        assert alg.multiply(x, y) == split


def test_normal_form_fixpoint(alg11):
    word = ((1, 1, 1), (1, 2, 1), (2, 2, 2))
    x = alg11.normal_form([word])
    assert element_words_as_triples(x) == {word}
    again = alg11.normal_form(list(x.words))
    assert again == x


def test_normal_form_commuting_swap(alg11):
    got = alg11.normal_form([((2, 2, 1), (1, 1, 1))])
    assert element_words_as_triples(got) == {((1, 1, 1), (2, 2, 1))}


def test_normal_form_strategy_independence_example(alg11):
    word = ((2, 1, 1), (1, 2, 1), (1, 1, 1))
    got = alg11.normal_form([word])
    assert element_words_as_triples(got) == naive_normal_form([word])
    # 1024 inversions: straightening depth must follow the word length
    deep = RTTAlgebra(Shape(1, 1, 64))
    word = ((2, 2, 1),) * 32 + ((1, 2, 1),) * 32
    got = deep.normal_form([word])
    assert element_words_as_triples(got) == {tuple(sorted(word))}


def _all_words_up_to_degree(alg, bound):
    gens = [tuple(g) for g in alg.generators(bound)]
    words = [()]
    frontier = [()]
    while frontier:
        new_frontier = []
        for w in frontier:
            used = sum(g[2] for g in w)
            for g in gens:
                if used + g[2] <= bound:
                    new_frontier.append(w + (g,))
        words.extend(new_frontier)
        frontier = [w for w in new_frontier if sum(g[2] for g in w) < bound]
        if not any(len(w) < bound for w in frontier):
            frontier = [w for w in frontier if sum(g[2] for g in w) < bound]
    return set(words)


def test_strategy_independence_exhaustive_degree3(alg11, alg21):
    """Every word up to degree 3 at (1,1) and (2,1), and up to degree 4
    at (1,1), straightens as the rightmost-first oracle does."""
    for alg, bound, least in ((alg11, 3, 100), (alg21, 3, 999),
                              (alg11, 4, 600)):
        words = _all_words_up_to_degree(alg, bound)
        assert len(words) > least
        for w in words:
            assert element_words_as_triples(alg.normal_form([w])) == \
                naive_normal_form([w])


@pytest.mark.parametrize("m,n,trunc,length", [(1, 1, 3, 4), (2, 1, 2, 3),
                                              (1, 2, 2, 3)])
def test_classical_strategy_independence_exhaustive(m, n, trunc, length):
    """Every classical word up to *length* letters, odd squares included,
    straightens as the rightmost-first oracle does."""
    calg = CurrentAlgebra(m, n, trunc)
    letters = [tuple(g) for g in calg.generators()]
    assert calg._odd
    for k in range(length + 1):
        for w in itertools.product(letters, repeat=k):
            assert element_words_as_triples(calg.normal_form([w])) == \
                naive_classical_normal_form([w], m, trunc)


def test_deep_word_closed_form():
    """t[2,2,1]^48 t[1,2,1]^49 at (1,1,L=97): t[2,2,1] t[1,2,1] =
    t[1,2,1] (t[2,2,1] + 1), so moving the 49 letters t[1,2,1] left turns
    t[2,2,1] into t[2,2,1] + 49 = t[2,2,1] + 1, and (x + 1)^48 = x^48 +
    x^32 + x^16 + 1 mod 2.  97 letters and 2352 inversions, within the
    default recursion limit."""
    deep = RTTAlgebra(Shape(1, 1, 97))
    a, b = pack(2, 2, 1), pack(1, 2, 1)
    got = deep.normal_form([a * 48 + b * 49])
    assert got.words == {b * 49 + a * k for k in (48, 32, 16, 0)}


def _ordered(word, nilsquare):
    letters = word_letters(word)
    return all(a < b or (a == b and a not in nilsquare)
               for a, b in zip(letters, letters[1:]))


@pytest.mark.parametrize("make", [lambda: RTTAlgebra(Shape(2, 1, 8)),
                                  lambda: CurrentAlgebra(2, 1, 3)])
def test_memo_keys_are_ordered_or_one_letter_off_or_callers(make,
                                                            monkeypatch):
    """After multiply, commutator and normal_form on a fresh algebra every
    memo key is an ordered word, an ordered word but for its last letter,
    or a word that a caller passed to ``straighten``: a raw word of
    normal_form or a Leibniz word of ``commutator_words``."""
    called = set()
    depth = [0]
    real = rtt.straighten

    def recording(word, *args):
        if not depth[0]:
            called.add(word)
        depth[0] += 1
        try:
            return real(word, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(rtt, "straighten", recording)
    alg = make()
    rng = random.Random(41)
    # superscripts up to 2, so that some bracket words have two letters
    gens = alg.generators(2)
    xs = [alg.normal_form([tuple(rng.choice(gens)
                                 for _ in range(rng.randint(1, 2)))
                           for _ in range(rng.randint(1, 3))])
          for _ in range(6)]
    for x in xs:
        for y in xs:
            alg.multiply(x, y)
            alg.commutator(x, y)
    nil = alg._nilsquare
    kinds = collections.Counter(
        "ordered" if _ordered(key, nil)
        else "insertion" if _ordered(key[:-3], nil)
        else "caller" if key in called else "stray"
        for key in alg._nf_cache)
    assert not kinds["stray"]
    assert kinds["ordered"] and kinds["insertion"] and kinds["caller"]


@pytest.mark.parametrize("make", [lambda: RTTAlgebra(Shape(2, 1, 8)),
                                  lambda: CurrentAlgebra(2, 1, 3)],
                         ids=["rtt-2-1-L8", "current-2-1-T3"])
def test_multiply_stores_no_pair_word(make):
    """multiply appends letters to ordered words, so on a fresh memo it
    leaves only ordered keys and keys ordered but for their last letter,
    though many of its pair words wa + wb are neither."""
    alg = make()
    rng = random.Random(43)
    gens = alg.generators(2)
    xs = [alg.normal_form([tuple(rng.choice(gens)
                                 for _ in range(rng.randint(1, 2)))
                           for _ in range(rng.randint(1, 3))])
          for _ in range(6)]
    alg._nf_cache.clear()
    for x in xs:
        for y in xs:
            alg.multiply(x, y)
    nil = alg._nilsquare
    pairs = {wa + wb for x in xs for y in xs
             for wa in x.words for wb in y.words}
    assert sum(not _ordered(w, nil) and not _ordered(w[:-3], nil)
               for w in pairs) > 20
    assert alg._nf_cache
    assert all(_ordered(key, nil) or _ordered(key[:-3], nil)
               for key in alg._nf_cache)


def test_one_branch_results_share_the_child_tuple():
    """A result with one branch is its child's tuple, not a copy: an
    insertion with one word and no bracket terms, and a fold step on one
    word."""
    alg = RTTAlgebra(Shape(1, 1, 4))
    t11, t22, t22_2 = pack(1, 1, 1), pack(2, 2, 1), pack(2, 2, 2)
    assert not alg._bracket(t22, t11)
    alg.normal_form([t22 + t11, t22 + t11 + t22_2])
    cache = alg._nf_cache
    assert cache[t22 + t11] is cache[t11 + t22]
    assert cache[t22 + t11 + t22_2] is cache[t11 + t22 + t22_2]
    assert cache[t11 + t22] == (t11 + t22,)


def test_multiply_cap_violation_names_term(alg11):
    x = alg11.gen(1, 1, 3)
    y = alg11.gen(2, 2, 2)
    with pytest.raises(DegreeCapError) as err:
        alg11.multiply(x, y)
    assert "t[1,1,3]*t[2,2,2]" in str(err.value)


def test_operands_of_another_shape_are_rejected():
    big = RTTAlgebra(Shape(2, 1, 4))
    small = RTTAlgebra(Shape(1, 1, 4))
    x, y = big.gen(3, 3, 1), big.gen(1, 1, 1)
    for op in (small.multiply, small.commutator):
        with pytest.raises(ValueError, match="shape"):
            op(x, y)
        with pytest.raises(ValueError, match="shape"):
            op(small.gen(1, 1, 1), y)
    # another algebra of the same shape is fine
    twin = RTTAlgebra(Shape(2, 1, 4))
    assert twin.multiply(x, y) == big.multiply(x, y)
    assert twin.commutator(x, y) == big.commutator(x, y)


def test_normal_form_rejects_out_of_range_triples():
    """Triples pass gen's range check: 256 would alias into the index bits,
    and t[1,1,0] is not a generator."""
    alg = RTTAlgebra(Shape(1, 1, 5))
    for triple in ((1, 1, 256), (1, 1, 0), (3, 1, 1), (1, 0, 1)):
        with pytest.raises(ValueError, match="out of range"):
            alg.normal_form([(triple,)])
    assert alg.normal_form([((1, 1, 5),)]) == alg.gen(1, 1, 5)


@pytest.mark.parametrize("triple", [(1, 1, 0), (3, 1, 1)])
def test_normal_form_rejects_packed_ints_outside_the_generators(triple):
    """A packed letter is checked like a triple: t[1,1,0] is not a
    generator and index 3 is out of range at size 2."""
    alg = RTTAlgebra(Shape(1, 1, 5))
    with pytest.raises(ValueError) as from_gen:
        alg.gen(*triple)
    with pytest.raises(ValueError) as from_nf:
        alg.normal_form([(pack(*triple),)])
    assert str(from_nf.value) == str(from_gen.value)
    assert alg.normal_form([(pack(2, 1, 3), pack(1, 1, 1))]) == \
        alg.normal_form([((2, 1, 3), (1, 1, 1))])


# -- commutators against the two products ------------------------------------------


def _products_bracket(alg, x, y):
    return alg.multiply(x, y) + alg.multiply(y, x)


@pytest.mark.parametrize("m,n,cap", [(1, 1, 5), (2, 1, 4), (1, 2, 4),
                                     (2, 2, 3)])
def test_commutator_matches_products(m, n, cap):
    alg = RTTAlgebra(Shape(m, n, cap))
    rng = random.Random(100 * m + 10 * n + cap)
    nonzero = 0
    for _ in range(60):
        x = alg.random_element(rng, 2, 4)
        y = alg.random_element(rng, cap - 2, 4)
        for a, b in ((x, y), (y, x)):
            got = alg.commutator(a, b)
            assert got == _products_bracket(alg, a, b)
            nonzero += bool(got)
    assert nonzero >= 30


def test_commutator_edges(alg21):
    rng = random.Random(41)
    xs = [alg21.random_element(rng, 2, 4) for _ in range(8)]
    for x in xs:
        for special in (alg21.zero(), alg21.one()):
            assert not alg21.commutator(x, special)
            assert not alg21.commutator(special, x)
        assert not alg21.commutator(x, x)
    assert any(alg21.commutator(x, y) for x in xs for y in xs)


def test_commutator_expands_the_larger_operand(alg21, monkeypatch):
    """The operand with more letters, summed over its words, goes to
    commutator_words as the side the Leibniz rule expands, the first one
    on a tie; [x, x] is 0 without a call, after the cap check."""
    seen = []
    real = rtt.commutator_words

    def recording(xwords, ywords, *rest):
        seen.append((xwords, ywords))
        return real(xwords, ywords, *rest)

    def letters(z):
        return sum(map(len, z.words))

    monkeypatch.setattr(rtt, "commutator_words", recording)
    rng = random.Random(59)
    xs = [alg21.random_element(rng, 2, 4) for _ in range(12)]
    xs += [alg21.gen(1, 2, 1), alg21.gen(2, 1, 1)]
    swapped = ties = 0
    for x in xs:
        for y in xs:
            seen.clear()
            got = alg21.commutator(x, y)
            assert got == _products_bracket(alg21, x, y)
            if x.words == y.words:
                assert not got and not seen
                continue
            swapped += letters(y) > letters(x)
            ties += letters(y) == letters(x)
            big, small = (y, x) if letters(y) > letters(x) else (x, y)
            assert seen == [(big.words, small.words)]
    assert swapped and ties
    alg = RTTAlgebra(Shape(2, 1, 4))
    g = alg.gen(1, 1, 3)
    with pytest.raises(DegreeCapError) as err:
        alg.multiply(g, g)
    with pytest.raises(DegreeCapError) as again:
        alg.commutator(g, g)
    assert str(again.value) == str(err.value)


def test_commutator_cap_violation_matches_multiply():
    alg = RTTAlgebra(Shape(2, 1, 4))
    rng = random.Random(43)
    raised = 0
    for _ in range(40):
        x = alg.random_element(rng, 4, 4)
        y = alg.random_element(rng, 4, 4)
        try:
            alg.multiply(x, y)
        except DegreeCapError as err:
            raised += 1
            with pytest.raises(DegreeCapError) as again:
                alg.commutator(x, y)
            assert str(again.value) == str(err)
        else:
            assert alg.commutator(x, y) == _products_bracket(alg, x, y)
    assert raised
    # the Leibniz words of [t[1,1,3], t[2,2,2]] have degree 4 = cap
    with pytest.raises(DegreeCapError, match=r"t\[1,1,3\]\*t\[2,2,2\]"):
        alg.commutator(alg.gen(1, 1, 3), alg.gen(2, 2, 2))


def test_commutator_at_exactly_the_cap():
    """Operands whose top degrees sum to the cap pass the cap check; one
    degree more raises multiply's error."""
    alg = RTTAlgebra(Shape(2, 1, 4))
    x, y = alg.gen(1, 1, 2), alg.gen(2, 1, 1) * alg.gen(1, 2, 1)
    assert x.degree() + y.degree() == 4
    got = alg.commutator(x, y)
    assert got and got == _products_bracket(alg, x, y)
    rng = random.Random(47)
    landed = 0
    for _ in range(200):
        x = alg.random_element(rng, 3, 4)
        y = alg.random_element(rng, 4, 4)
        if x.degree() + y.degree() == 4:
            landed += 1
            assert alg.commutator(x, y) == _products_bracket(alg, x, y)
        elif x.degree() + y.degree() == 5:
            with pytest.raises(DegreeCapError) as err:
                alg.multiply(x, y)
            with pytest.raises(DegreeCapError) as again:
                alg.commutator(x, y)
            assert str(again.value) == str(err.value)
    assert landed >= 10


def test_letter_tables_outlive_the_call():
    """[a, y] is straightened once per letter a and word set of y, across
    calls and across distinct objects that hold the same words."""
    alg = RTTAlgebra(Shape(2, 1, 5))
    x = alg.gen(2, 1, 1) * alg.gen(1, 3, 2) + alg.gen(1, 1, 1)
    y = alg.gen(3, 2, 1) * alg.gen(1, 2, 1) + alg.gen(2, 2, 2)
    letters = {a for w in x.words for a in word_letters(w)}
    first = alg.commutator(x, y)
    assert first == _products_bracket(alg, x, y)
    assert set(alg._letter_cache) == {(a, y.words) for a in letters}
    twin = Element(alg, frozenset(set(y.words)))
    assert twin is not y and twin.words is not y.words
    assert alg.commutator(x, twin) == first
    assert len(alg._letter_cache) == len(letters)
    # the letters of x meet a new y: new tables, not the old ones
    other = alg.gen(1, 2, 2) + alg.gen(3, 1, 1)
    assert alg.commutator(x, other) == _products_bracket(alg, x, other)
    assert len(alg._letter_cache) == 2 * len(letters)
    # short-lived operands, whose storage Python reuses at once
    rng = random.Random(53)
    for _ in range(40):
        z = alg.random_element(rng, 2, 3)
        assert alg.commutator(x, z) == _products_bracket(alg, x, z)


# -- degree-1 closure and sign collapse -------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_degree_one_closure_matches_gl(m, n):
    alg = RTTAlgebra(Shape(m, n, 2))
    size = m + n
    for i, j, k, l in itertools.product(range(1, size + 1), repeat=4):
        got = element_words_as_triples(rtt_rhs(alg, (i, j, 1), (k, l, 1)))
        expected = {((a, b, 1),) for a, b in gl_bracket_mod2((i, j), (k, l))}
        assert got == expected


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_sign_collapse(m, n):
    alg = RTTAlgebra(Shape(m, n, 4))
    size = m + n
    pairs = [(i, j, r) for i in range(1, size + 1)
             for j in range(1, size + 1) for r in (1, 2, 3)]
    for g1 in pairs:
        for g2 in pairs:
            if g1[2] + g2[2] > 4:
                continue
            plain = rtt_rhs(alg, g1, g2, super_sign=False)
            supered = rtt_rhs(alg, g1, g2, super_sign=True)
            assert plain == supered
            # the supercommutator itself also collapses: xy + yx either way
            x, y = alg.gen(*g1), alg.gen(*g2)
            assert alg.commutator(x, y) == plain


# -- element algebra properties ----------------------------------------------------


def _elements(alg, max_degree=2, max_terms=2):
    gens = alg.generators(max_degree)
    words = st.lists(st.sampled_from(gens), max_size=2).map(b"".join).filter(
        lambda w: word_degree(w) <= max_degree)
    return st.frozensets(words, max_size=max_terms).map(
        lambda ws: alg.normal_form(list(ws)))


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_bracket_symmetric_and_alternating(alg11, data):
    x = data.draw(_elements(alg11))
    y = data.draw(_elements(alg11))
    assert alg11.commutator(x, y) == alg11.commutator(y, x)
    assert not alg11.commutator(x, x)
    assert not (x + x)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_multiplication_distributes(alg11, data):
    x = data.draw(_elements(alg11))
    y = data.draw(_elements(alg11))
    z = data.draw(_elements(alg11))
    assert alg11.multiply(x, y + z) == alg11.multiply(x, y) + alg11.multiply(x, z)
    assert alg11.multiply(x + y, z) == alg11.multiply(x, z) + alg11.multiply(y, z)


def test_degree_tags(alg11):
    x = alg11.normal_form([((1, 1, 2), (1, 2, 1)), ((2, 2, 1),)])
    assert x.degree() == 3
    assert loop_degree(x) == 1
    assert word_loop_degree(pack(1, 1, 3)) == 2


def test_parity_tag(alg11):
    assert parity(alg11.gen(1, 2, 1)) == 1
    assert parity(alg11.gen(1, 1, 2)) == 0
    mixed = alg11.gen(1, 2, 1) + alg11.gen(1, 1, 1)
    assert parity(mixed) is None
    assert parity(alg11.zero()) == 0


# -- PBW enumeration -----------------------------------------------------------------


def test_pbw_counts_11(alg11):
    assert len(alg11.pbw_monomials(0)) == 1
    assert alg11.pbw_monomials(0) == [b""]
    assert len(alg11.pbw_monomials(1)) == 5
    assert len(alg11.pbw_monomials(2)) == 19
    oracle = count_full(1, 1, 4)
    for bound in range(5):
        assert len(alg11.pbw_monomials(bound)) == oracle[bound]


def test_pbw_counts_21(alg21):
    oracle = count_full(2, 1, 3)
    for bound in range(4):
        assert len(alg21.pbw_monomials(bound)) == oracle[bound]


@pytest.mark.parametrize("m,n,bound", [(1, 1, 4), (2, 1, 3)])
def test_super_pbw_counts(m, n, bound):
    alg = RTTAlgebra(Shape(m, n, bound))
    oracle = count_super(m, n, bound)
    for b in range(bound + 1):
        monos = [w for w in alg.pbw_monomials(b)
                 if not rtt.repeats_nilsquare(w, alg._odd)]
        assert len(monos) == oracle[b]
        # super rule: no odd generator repeats
        for w in map(triples, monos):
            for g, mult in ((g, w.count(g)) for g in set(w)):
                i, j, _ = g
                if alg.shape.parity(i, j):
                    assert mult <= 1


@pytest.mark.parametrize("m, n, cap, top", [
    (1, 1, 4, 6), (1, 1, 12, 12), (2, 1, 8, 8), (1, 2, 5, 5), (2, 2, 6, 6),
    (3, 1, 4, 4), (2, 2, 3, 5)])
@pytest.mark.parametrize("super_only", [False, True])
def test_pbw_count_matches_the_enumeration(m, n, cap, top, super_only):
    """The generating-function count equals len(pbw_monomials) on a grid
    of shapes and bounds, bounds past the cap included."""
    alg = RTTAlgebra(Shape(m, n, cap))
    for bound in range(-1, top + 1):
        monos = alg.pbw_monomials(bound)
        if super_only:
            monos = [w for w in monos
                     if not rtt.repeats_nilsquare(w, alg._odd)]
        assert pbw_count(alg.shape, bound, super_only) == len(monos), bound


def test_pbw_count_past_the_ladder():
    """The counts the quotient certificate reads at (2,2,L=7) and
    (3,1,L=7): dim_full 860,677, and dim_full minus the supermonomials is
    the recorded ideal rank."""
    for m, n, ideal_rank in [(2, 2, 304_116), (3, 1, 235_459)]:
        shape = Shape(m, n, 7)
        assert pbw_count(shape, 7) == 860_677
        assert pbw_count(shape, 7) - pbw_count(shape, 7, True) == ideal_rank


@pytest.mark.parametrize("alg", [RTTAlgebra(Shape(2, 2, 4)),
                                 CurrentAlgebra(2, 1, 3)])
def test_word_weight_is_the_root_lattice_weight(alg):
    """word_weight partitions words exactly as their coefficient tuples
    of e_1..e_N in the sum of e_i - e_j over their letters do."""
    def coordinates(word):
        weight = [0] * alg.shape.size
        for i, j, _ in triples(word):
            weight[i - 1] += 1
            weight[j - 1] -= 1
        return tuple(weight)

    gens = alg.generators(2)
    words = [w for w, _ in bounded_words(gens, [1] * len(gens), 3, None,
                                         operator.add, b"")]
    pairs = {(coordinates(w), word_weight(w)) for w in words}
    assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
    assert word_weight(b"") == 0
    assert word_weight(pack(1, 2, 1) + pack(2, 1, 3)) == 0


def test_pbw_monomials_are_sorted_and_unique(alg11):
    monos = alg11.pbw_monomials(3)
    assert len(set(monos)) == len(monos)
    keys = [(word_degree(w), w) for w in monos]
    assert keys == sorted(keys)
    for w in map(triples, monos):
        assert tuple(sorted(w)) == w


def _old_bounded_words(items, weights, bound, max_mult=None):
    """The recursion that enumerated bounded words before bounded_words."""
    out = []

    def rec(k, remaining, word):
        if k == len(items):
            out.append(word)
            return
        top = remaining // weights[k]
        if max_mult is not None:
            top = min(top, max_mult[k])
        for mult in range(top + 1):
            rec(k + 1, remaining - mult * weights[k], word + (items[k],) * mult)

    rec(0, bound, ())
    return out


def test_bounded_words_matches_old_recursion():
    rng = random.Random(6)
    cases = [([], [], 0, None), ([], [], 4, None), (["x0"], [1], 0, None),
             (["x0", "x1"], [2, 1], 0, [1, 1])]
    for _ in range(300):
        size = rng.randint(0, 7)
        weights = [rng.randint(1, 4) for _ in range(size)]
        max_mult = (None if rng.random() < 0.3
                    else [rng.randint(0, 3) for _ in range(size)])
        cases.append(([f"x{k}" for k in range(size)], weights,
                      rng.randint(0, 9), max_mult))
    for items, weights, bound, max_mult in cases:
        weight = dict(zip(items, weights))
        assert (list(bounded_words([(x,) for x in items], weights, bound,
                                   max_mult, operator.add, ()))
                == [(w, sum(weight[x] for x in w))
                    for w in _old_bounded_words(items, weights, bound, max_mult)])


def test_bounded_words_edges():
    assert list(bounded_words([("x",)], [1], -1, None, operator.add, ())) == []
    assert list(bounded_words([("x",), ("y",)], [2, 1], 2, [0, 5],
                              operator.add, ())) == [
        ((), 0), (("y",), 1), (("y", "y"), 2)]
    with pytest.raises(ValueError):
        bounded_words([("x",)], [0], 3, None, operator.add, ())


@pytest.mark.parametrize("m,n,top", [(1, 1, 4), (2, 1, 3)])
def test_super_pbw_monomials_match_old_recursion(m, n, top):
    alg = RTTAlgebra(Shape(m, n, top))
    for bound in range(top + 1):
        gens = alg.generators(bound)
        caps = [1 if alg.shape.parity(g[0], g[1]) else bound for g in gens]
        old = [b"".join(w) for w in
               _old_bounded_words(gens, [g[2] for g in gens], bound, caps)]
        old.sort(key=lambda w: (word_degree(w), w))
        assert [w for w in alg.pbw_monomials(bound)
                if not rtt.repeats_nilsquare(w, alg._odd)] == old


# -- fuzzing -------------------------------------------------------------------------


def test_associativity_fuzz_small(alg11):
    report = alg11.associativity_fuzz(60, seed=5)
    assert report.ok
    assert len(report.checks) == 60


def test_associativity_fuzz_21():
    alg = RTTAlgebra(Shape(2, 1, 3))
    report = alg.associativity_fuzz(40, seed=9)
    assert report.ok


def test_cache_transparency():
    baseline = RTTAlgebra(Shape(1, 1, 4))
    x = baseline.gen(2, 1, 2) * baseline.gen(1, 2, 1) * baseline.gen(2, 2, 1)
    fresh = RTTAlgebra(Shape(1, 1, 4))
    fresh._nf_cache.clear()
    y = fresh.gen(2, 1, 2) * fresh.gen(1, 2, 1) * fresh.gen(2, 2, 1)
    assert x == y

    # warm results at (2,1,L=4) equal cold ones computed with every memo cleared
    alg = RTTAlgebra(Shape(2, 1, 4))
    rng = random.Random(23)
    xs = [alg.random_element(rng, 2) for _ in range(6)]
    raws = [_random_raw_word(rng, 3, 4) for _ in range(16)]
    pairs = [((i, j, r), (k, l, s))
             for i, j, k, l in itertools.product(range(1, 4), repeat=4)
             for r, s in ((1, 2), (2, 2))]

    def run():
        return ([alg.multiply(x, y) for x in xs for y in xs],
                [alg.normal_form([w]) for w in raws],
                [rtt_rhs(alg, g1, g2) for g1, g2 in pairs],
                [alg.commutator(x, y) for x in xs for y in xs])

    warm = run()
    assert run() == warm
    assert [element_words_as_triples(x) for x in warm[1]] == \
        [naive_normal_form([triples(w)]) for w in raws]
    assert alg._nf_cache and alg._pair_cache
    assert alg._letter_cache

    def cold(fn):
        alg._nf_cache.clear()
        alg._pair_cache.clear()
        alg._letter_cache.clear()
        return fn()

    assert [cold(lambda: alg.multiply(x, y))
            for x in xs for y in xs] == warm[0]
    assert [cold(lambda: alg.normal_form([w])) for w in raws] == warm[1]
    assert [cold(lambda: rtt_rhs(alg, g1, g2)) for g1, g2 in pairs] == warm[2]
    assert [cold(lambda: alg.commutator(x, y))
            for x in xs for y in xs] == warm[3]


def _random_raw_word(rng, size, budget):
    """A random word of canonical degree <= budget, in no particular order."""
    word = []
    while budget > 0 and rng.random() < 0.8:
        r = rng.randint(1, budget)
        word.append(pack(rng.randint(1, size), rng.randint(1, size), r))
        budget -= r
    return b"".join(word)


def _assert_memo_values(cache, nilsquare=frozenset()):
    assert cache
    for value in cache.values():
        assert type(value) is tuple
        # a repeated word would cancel itself under symmetric difference
        assert len(set(value)) == len(value)
        for w in value:
            assert type(w) is bytes
            letters = word_letters(w)
            assert all(a < b or (a == b and a not in nilsquare)
                       for a, b in zip(letters, letters[1:]))


def test_memo_values_are_tuples_of_distinct_ordered_words():
    rng = random.Random(31)
    alg = RTTAlgebra(Shape(2, 1, 5))
    xs = [alg.random_element(rng, 2) for _ in range(6)]
    for x in xs:
        for y in xs:
            alg.multiply(x, y)
    for _ in range(30):
        alg.normal_form([_random_raw_word(rng, 3, 5)])
    rtt_rhs(alg, (2, 1, 2), (1, 3, 3))
    _assert_memo_values(alg._nf_cache)

    calg = CurrentAlgebra(2, 1, 3)
    gens = calg.generators()
    for _ in range(40):
        calg.normal_form([tuple(rng.choice(gens)
                                for _ in range(rng.randint(2, 5)))])
    _assert_memo_values(calg._nf_cache, calg._odd)


# -- the transposition ---------------------------------------------------------


def _transposed_word(word):
    """tau on a raw word: reversed, with the indices of each letter swapped."""
    return b"".join(pack(j, i, r) for i, j, r in reversed(triples(word)))


@pytest.mark.parametrize("m, n, cap", [(2, 1, 6), (2, 2, 5)])
def test_transpose_maps_relations_into_the_ideal(m, n, cap):
    """The two halves of the proof that tau is well defined, over every
    pair of generators whose bracket fits the cap: tau of the raw bracket
    words is the raw bracket of the transposed letters, word for word, and
    the bracket is symmetric in normal form."""
    alg = RTTAlgebra(Shape(m, n, cap))
    gens = alg.generators()
    pairs = [(a, b) for a in gens for b in gens
             if a[2] + b[2] - 1 <= cap]
    for a, b in pairs:
        ta, tb = _transposed_word(a), _transposed_word(b)
        raw = alg._bracket(a, b)
        assert alg._bracket(ta, tb) == set(map(_transposed_word, raw))
        assert alg.normal_form(raw) == alg.normal_form(alg._bracket(b, a))
    assert len(pairs) == {(2, 1): 1701, (2, 2): 3840}[(m, n)]


@pytest.mark.parametrize("m, n, cap", [(1, 1, 6), (2, 1, 5), (1, 2, 5)])
def test_transpose_is_an_involutive_anti_automorphism(m, n, cap):
    alg = RTTAlgebra(Shape(m, n, cap))
    rng = random.Random(61 + 10 * m + n)
    tau = alg.transpose
    for _ in range(20):
        x = alg.random_element(rng, cap)
        assert tau(tau(x)) == x
        assert tau(x).degree() == x.degree()
        assert parity(tau(x)) == parity(x)
    products = 0
    for _ in range(40):
        x = alg.random_element(rng, cap // 2, 4)
        y = alg.random_element(rng, cap - x.degree(), 4)
        assert tau(x * y) == tau(y) * tau(x)
        assert tau(alg.commutator(x, y)) == alg.commutator(tau(x), tau(y))
        products += bool(x * y + y * x)
    assert products
    assert tau(alg.gen(1, 2, 2) * alg.gen(2, 1, 1)) == \
        alg.gen(1, 2, 1) * alg.gen(2, 1, 2)


def test_multiply_over_the_cap_straightens_nothing():
    """The cap is checked once, before any word is straightened."""
    alg = RTTAlgebra(Shape(1, 1, 4))
    x = alg.gen(2, 1, 1) + alg.gen(1, 1, 3)
    y = alg.gen(2, 2, 1) + alg.gen(2, 2, 2)
    with pytest.raises(DegreeCapError, match=r"t\[1,1,3\]\*t\[2,2,2\]"):
        alg.multiply(x, y)
    assert not alg._nf_cache
    assert x.degree() == 3 and y.degree() == 2


# -- centrality on a certified generating set ------------------------------------

YANGIAN_GENERATOR_SHAPES = [(1, 1, 6), (2, 1, 6), (2, 2, 5), (3, 1, 5)]


def _simple_roots(size, b):
    return ({pack(i, i + 1, b) for i in range(1, size)}
            | {pack(i + 1, i, b) for i in range(1, size)})


def _yangian_closure_rank(alg, gens, top):
    """Dimension of the span of the letters up to top reached from gens by
    commutators with their superscript-1 members, by a walk apart from the
    certificate's: Element commutators straightened by the engine (each
    [t[i,j,1], y] with deg y < cap fits it) and rank_of."""
    bit = {g: 1 << k for k, g in enumerate(alg.generators(top))}
    elems = [alg.gen(*g) for g in gens]
    ones = [s for s in elems if s.degree() == 1]
    span, frontier = list(elems), list(elems)
    while frontier:
        new = []
        for y in frontier:
            for s in ones:
                z = alg.commutator(s, y)
                assert z.is_lie()
                vecs = [sum(bit[h] for h in x.words) for x in span + [z]]
                if rank_of(vecs) > len(span):
                    span.append(z)
                    new.append(z)
        frontier = new
    return len(span)


@pytest.mark.parametrize("m, n, cap", YANGIAN_GENERATOR_SHAPES)
def test_yangian_lie_generators_span(m, n, cap):
    alg = RTTAlgebra(Shape(m, n, cap))
    size = m + n
    assert alg.lie_generators(0) == ()
    for top in range(1, cap):
        expected = {pack(1, 1, r) for r in range(1, top + 1)} | \
            _simple_roots(size, 1)
        gens = alg.lie_generators(top)
        assert gens == tuple(sorted(expected))
        assert len(gens) == 2 * (size - 1) + top
        assert _yangian_closure_rank(alg, gens, top) == len(alg.generators(top))
        assert alg.lie_generators(top) is gens
    # the classical limit's set at b = t^0 and top = T - 1 is the same shape
    cl = CurrentAlgebra(m, n, cap)
    assert cl.lie_generators() == cl.lie_generators(cap - 1) == tuple(sorted(
        {pack(1, 1, r) for r in range(cap)} | _simple_roots(size, 0)))


@pytest.mark.parametrize("m, n, cap", YANGIAN_GENERATOR_SHAPES)
def test_yangian_lie_generator_mutants_are_refused(m, n, cap):
    alg = RTTAlgebra(Shape(m, n, cap))
    for top in range(1, cap):
        gens = set(alg.lie_generators(top))
        with pytest.raises(RuntimeError, match="generate"):
            certified_lie_generators(alg, gens - {pack(1, 1, top)}, top)
        for root in _simple_roots(m + n, 1):
            with pytest.raises(RuntimeError, match="generate"):
                certified_lie_generators(alg, gens - {root}, top)


@pytest.mark.parametrize("m, n, cap", YANGIAN_GENERATOR_SHAPES)
def test_yangian_centrality_witness_matches_full_scan(m, n, cap):
    """first_noncentral names the letter that a scan of every t[i,j,s] in
    (s, i, j) order names first, including letters outside S_top and
    where the first failing letter of S_top is another one."""
    alg = RTTAlgebra(Shape(m, n, cap))
    size = m + n
    rng = random.Random(m + n + cap)
    c1 = alg.normal_form([((i, i, 1),) for i in range(1, size + 1)])
    xs = [alg.one(), c1, c1 * c1, alg.gen(1, 2, 1), alg.gen(2, 1, 2),
          # commutes with t[1,1,1] and t[1,2,1]; fails t[1,3,1] at three
          # or more rows, which is not in S
          alg.gen(size, size, 1),
          # fails t[1,1,2] first among S, but t[1,2,1] first in the scan
          alg.gen(2, 2, 2),
          c1 + alg.gen(size, 1, 1) * alg.gen(1, size, 1)]
    xs += [alg.gen(i, j, 1) * alg.gen(i, j, 1)
           for i in range(1, size + 1) for j in range(1, size + 1)
           if alg.shape.parity(i, j)]
    xs += [alg.random_element(rng, 3) for _ in range(6)]
    failing = outside = other_than_s = 0
    for x in xs:
        for top in sorted({cap - x.degree(), (cap - x.degree()) // 2}):
            bad = alg.first_noncentral(x, top)
            scan = [alg.gen(i, j, s) for s in range(1, top + 1)
                    for i in range(1, size + 1) for j in range(1, size + 1)]
            ref = next((g for g in scan if alg.commutator(x, g)), None)
            assert bad == ref, (x, top)
            if ref is None:
                continue
            failing += 1
            (word,) = ref.words
            outside += word not in alg.lie_generators(top)
            first_s = next(s for s in alg.lie_generators(top)
                           if alg.commutator(x, alg.gen(*s)))
            other_than_s += first_s != word
    assert failing >= 5
    assert other_than_s >= 1
    assert outside >= (1 if size >= 3 else 0)


def test_yangian_centrality_budget_zero_and_guard():
    alg = RTTAlgebra(Shape(2, 1, 3))
    x = alg.gen(1, 2, 3)
    assert alg.first_noncentral(x, 0) is None
    with pytest.raises(DegreeCapError, match="centrality budget 1"):
        alg.first_noncentral(x, 1)
