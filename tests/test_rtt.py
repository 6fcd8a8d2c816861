import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from yangian2 import RTTAlgebra, Shape
from yangian2.current import CurrentAlgebra
from yangian2.errors import DegreeCapError
from yangian2.rtt import (Element, bounded_words, pack, unpack, word_degree,
                          word_loop_degree)

from oracles import (count_full, count_super, gl_bracket_mod2,
                     naive_normal_form)


def to_triples(word):
    return tuple(unpack(g) for g in word)


def element_words_as_triples(x):
    return {to_triples(w) for w in x.words}


# -- shape and parity --------------------------------------------------------------


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape(0, 1, 3)
    with pytest.raises(ValueError):
        Shape(1, 1, 0)
    # packed fields are 8 bits wide
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


# -- the defining bracket -----------------------------------------------------------


def test_commutator_examples(alg11):
    assert alg11.rtt_rhs((1, 2, 1), (2, 1, 1)) == \
        alg11.gen(1, 1, 1) + alg11.gen(2, 2, 1)
    assert not alg11.rtt_rhs((1, 1, 1), (1, 1, 2))
    assert alg11.rtt_rhs((1, 1, 2), (1, 2, 1)) == alg11.gen(1, 2, 2)


def test_commutator_degree_bound(alg11, alg21):
    for alg in (alg11, alg21):
        size = alg.shape.size
        for i, j, k, l in itertools.product(range(1, size + 1), repeat=4):
            for r in (1, 2):
                for s in (1, 2):
                    el = alg.rtt_rhs((i, j, r), (k, l, s))
                    assert el.degree() <= r + s - 1


def test_commutator_matches_naive_oracle(alg11, alg21):
    for alg in (alg11, alg21):
        size = alg.shape.size
        for i, j, k, l in itertools.product(range(1, size + 1), repeat=4):
            for r, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
                got = element_words_as_triples(
                    alg.rtt_rhs((i, j, r), (k, l, s)))
                # the oracle straightens the raw display independently
                raw = []
                from oracles import naive_bracket_words
                for w, c in naive_bracket_words((i, j, r), (k, l, s)).items():
                    raw.extend([w] * c)
                assert got == naive_normal_form(raw)


def test_commutator_cap_violation(alg11):
    # degree r + s - 1 = 5 exceeds the cap of 4
    with pytest.raises(DegreeCapError):
        alg11.rtt_rhs((1, 1, 3), (1, 2, 3))


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
        wb = _random_word(rng, alg, cap - word_degree(tuple(pack(*g) for g in wa)))
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
            [to_triples(u + v) for u in words for v in words])
        assert element_words_as_triples(got) == expected


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
    gens = [unpack(g) for g in alg.generators(bound)]
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


def test_strategy_independence_exhaustive_degree3(alg11):
    words = _all_words_up_to_degree(alg11, 3)
    assert len(words) > 100
    for w in words:
        assert element_words_as_triples(alg11.normal_form([w])) == \
            naive_normal_form([w])


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
    """A packed int letter is checked like a triple: t[1,1,0] is not a
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
    letters = {a for w in x.words for a in w}
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
        got = element_words_as_triples(alg.rtt_rhs((i, j, 1), (k, l, 1)))
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
            plain = alg.rtt_rhs(g1, g2, super_sign=False)
            supered = alg.rtt_rhs(g1, g2, super_sign=True)
            assert plain == supered
            # the supercommutator itself also collapses: xy + yx either way
            x, y = alg.gen(*g1), alg.gen(*g2)
            assert alg.commutator(x, y) == plain


# -- element algebra properties ----------------------------------------------------


def _elements(alg, max_degree=2, max_terms=2):
    gens = alg.generators(max_degree)
    words = st.lists(st.sampled_from(gens), max_size=2).map(tuple).filter(
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
    assert x.loop_degree() == 1
    assert word_loop_degree((pack(1, 1, 3),)) == 2


def test_parity_tag(alg11):
    assert alg11.gen(1, 2, 1).parity() == 1
    assert alg11.gen(1, 1, 2).parity() == 0
    mixed = alg11.gen(1, 2, 1) + alg11.gen(1, 1, 1)
    assert mixed.parity() is None
    assert alg11.zero().parity() == 0


# -- PBW enumeration -----------------------------------------------------------------


def test_pbw_counts_11(alg11):
    assert len(alg11.pbw_monomials(0)) == 1
    assert alg11.pbw_monomials(0) == [()]
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
        monos = alg.pbw_monomials(b, super_only=True)
        assert len(monos) == oracle[b]
        # super rule: no odd generator repeats
        for w in monos:
            for g, mult in ((g, w.count(g)) for g in set(w)):
                i, j, _ = unpack(g)
                if alg.shape.parity(i, j):
                    assert mult <= 1


def test_pbw_monomials_are_sorted_and_unique(alg11):
    monos = alg11.pbw_monomials(3)
    assert len(set(monos)) == len(monos)
    keys = [(word_degree(w), w) for w in monos]
    assert keys == sorted(keys)
    for w in monos:
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
        assert (list(bounded_words(items, weights, bound, max_mult))
                == [(w, sum(weight[x] for x in w))
                    for w in _old_bounded_words(items, weights, bound, max_mult)])


def test_bounded_words_edges():
    assert list(bounded_words(["x"], [1], -1)) == []
    assert list(bounded_words(["x", "y"], [2, 1], 2, [0, 5])) == [
        ((), 0), (("y",), 1), (("y", "y"), 2)]
    with pytest.raises(ValueError):
        bounded_words(["x"], [0], 3)


@pytest.mark.parametrize("m,n,top", [(1, 1, 4), (2, 1, 3)])
def test_super_pbw_monomials_match_old_recursion(m, n, top):
    alg = RTTAlgebra(Shape(m, n, top))
    for bound in range(top + 1):
        gens = alg.generators(bound)
        caps = [1 if alg.shape.parity(*unpack(g)[:2]) else bound for g in gens]
        old = _old_bounded_words(gens, [g & 0xFF for g in gens], bound, caps)
        old.sort(key=lambda w: (word_degree(w), w))
        assert alg.pbw_monomials(bound, super_only=True) == old


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
                [alg.rtt_rhs(g1, g2) for g1, g2 in pairs],
                [alg.commutator(x, y) for x in xs for y in xs])

    warm = run()
    assert run() == warm
    assert [element_words_as_triples(x) for x in warm[1]] == \
        [naive_normal_form([to_triples(w)]) for w in raws]
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
    assert [cold(lambda: alg.rtt_rhs(g1, g2)) for g1, g2 in pairs] == warm[2]
    assert [cold(lambda: alg.commutator(x, y))
            for x in xs for y in xs] == warm[3]


def _random_raw_word(rng, size, budget):
    """A random word of canonical degree <= budget, in no particular order."""
    word = []
    while budget > 0 and rng.random() < 0.8:
        r = rng.randint(1, budget)
        word.append(pack(rng.randint(1, size), rng.randint(1, size), r))
        budget -= r
    return tuple(word)


def _assert_memo_values(cache, nilsquare=frozenset()):
    assert cache
    for value in cache.values():
        assert type(value) is tuple
        # a repeated word would cancel itself under symmetric difference
        assert len(set(value)) == len(value)
        for w in value:
            assert type(w) is tuple
            assert all(a < b or (a == b and a not in nilsquare)
                       for a, b in zip(w, w[1:]))


def test_memo_values_are_tuples_of_distinct_ordered_words():
    rng = random.Random(31)
    alg = RTTAlgebra(Shape(2, 1, 5))
    xs = [alg.random_element(rng, 2) for _ in range(6)]
    for x in xs:
        for y in xs:
            alg.multiply(x, y)
    for _ in range(30):
        alg.normal_form([_random_raw_word(rng, 3, 5)])
    alg.rtt_rhs((2, 1, 2), (1, 3, 3))
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
    return tuple(pack(j, i, r) for i, j, r in map(unpack, reversed(word)))


@pytest.mark.parametrize("m, n, cap", [(2, 1, 6), (2, 2, 5)])
def test_transpose_maps_relations_into_the_ideal(m, n, cap):
    """The two halves of the proof that tau is well defined, over every
    pair of generators whose bracket fits the cap: tau of the raw bracket
    words is the raw bracket of the transposed letters, word for word, and
    the bracket is symmetric in normal form."""
    alg = RTTAlgebra(Shape(m, n, cap))
    gens = alg.generators()
    pairs = [(a, b) for a in gens for b in gens
             if (a & 0xFF) + (b & 0xFF) - 1 <= cap]
    for a, b in pairs:
        (ta,), (tb,) = _transposed_word((a,)), _transposed_word((b,))
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
        assert tau(x).parity() == x.parity()
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
