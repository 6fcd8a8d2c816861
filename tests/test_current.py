import collections
import itertools
import random

import pytest

from yangian2 import cli, current
from yangian2.current import (CurrentAlgebra, adjoint_rows, adjoint_sites,
                              block_rank, certified_lie_generators,
                              classical_suite, first_noncentral,
                              invariants_dimension, jacobi_failures,
                              random_lie_element, s_adjoint, sample_triples,
                              word_grade)
from yangian2.linalg import BitEchelon, rank_of
from yangian2.rtt import (Element, RTTAlgebra, Shape, merge_product, pack,
                         unpack)


@pytest.fixture(scope="module")
def cl():
    return CurrentAlgebra(1, 1, 3)


@pytest.fixture(scope="module")
def cl21():
    return CurrentAlgebra(2, 1, 3)


def test_bracket_examples(cl):
    x = cl.bracket(cl.gen(1, 2, 1), cl.gen(2, 1, 1))
    assert x == cl.gen(1, 1, 2) + cl.gen(2, 2, 2)
    assert not cl.bracket(cl.gen(1, 1, 0), cl.gen(2, 2, 0))
    # t-degree overflow truncates to zero
    assert not cl.bracket(cl.gen(1, 2, 2), cl.gen(2, 1, 1))


def test_bracket_bilinear(cl):
    a, b, c = cl.gen(1, 2, 0), cl.gen(2, 1, 1), cl.gen(1, 1, 0)
    assert cl.bracket(a + b, c) == cl.bracket(a, c) + cl.bracket(b, c)


def test_jacobi_and_alternating_exhaustive(cl):
    gens = [Element(cl, frozenset({(g,)})) for g in cl.generators()]
    for x in gens:
        assert not cl.bracket(x, x)
    for a, b, c in itertools.product(gens, repeat=3):
        total = (cl.bracket(cl.bracket(a, b), c)
                 + cl.bracket(cl.bracket(b, c), a)
                 + cl.bracket(cl.bracket(c, a), b))
        assert not total


def test_p_map_examples(cl):
    assert not cl.p_map(cl.gen(1, 2, 1))
    assert cl.p_map(cl.gen(1, 1, 1)) == cl.gen(1, 1, 2)
    mixed = cl.gen(1, 2, 1) + cl.gen(2, 1, 1)
    assert cl.p_map(mixed) == cl.bracket(cl.gen(1, 2, 1), cl.gen(2, 1, 1))


def test_p_map_truncates(cl):
    assert not cl.p_map(cl.gen(1, 1, 2))  # exponent 4 leaves the truncation


def test_p_map_polarisation(cl):
    rng = random.Random(1)
    gens = cl.generators()
    for _ in range(50):
        x = cl.normal_form([(g,) for g in gens if rng.random() < 0.4])
        y = cl.normal_form([(g,) for g in gens if rng.random() < 0.4])
        lhs = cl.p_map(x + y) + cl.p_map(x) + cl.p_map(y)
        assert lhs == cl.bracket(x, y)


def test_quadratic_q(cl):
    assert not cl.quadratic_q(cl.gen(1, 2, 1))
    with pytest.raises(ValueError):
        cl.quadratic_q(cl.gen(1, 1, 0))
    rng = random.Random(2)
    odd = [g for g in cl.generators() if cl.gen_parity(g)]
    for _ in range(50):
        y1 = cl.normal_form([(g,) for g in odd if rng.random() < 0.5])
        y2 = cl.normal_form([(g,) for g in odd if rng.random() < 0.5])
        assert (cl.quadratic_q(y1 + y2) + cl.quadratic_q(y1)
                + cl.quadratic_q(y2)) == cl.bracket(y1, y2)
        x = cl.normal_form([(g,) for g in cl.generators() if rng.random() < 0.5])
        assert cl.bracket(cl.quadratic_q(y1), x) == \
            cl.bracket(y1, cl.bracket(y1, x))


def test_normal_form_examples(cl):
    got = cl.multiply(cl.gen(2, 2, 0), cl.gen(1, 1, 0))
    assert got == cl.normal_form([((1, 1, 0), (2, 2, 0))])
    # odd square vanishes in the super enveloping algebra
    assert not cl.multiply(cl.gen(1, 2, 1), cl.gen(1, 2, 1))
    got2 = cl.multiply(cl.gen(2, 1, 0), cl.gen(1, 2, 0))
    expected = cl.normal_form([((1, 2, 0), (2, 1, 0))]) \
        + cl.gen(1, 1, 0) + cl.gen(2, 2, 0)
    assert got2 == expected


def test_normal_form_strategy_and_idempotence(cl):
    words = [((2, 1, 0), (1, 2, 0), (1, 1, 0)),
             ((2, 2, 1), (1, 2, 0), (2, 1, 1))]
    x = cl.normal_form(words)
    assert cl.normal_form(list(x.words)) == x


def test_deep_word_straightens():
    """E[2,2]^40 E[1,1]^40 E[1,2]: 1640 inversions, but only 81 letters."""
    small = CurrentAlgebra(1, 1, 2)
    e11, e12, e22 = pack(1, 1, 0), pack(1, 2, 0), pack(2, 2, 0)
    word = (e22,) * 40 + (e11,) * 40 + (e12,)
    got = small.normal_form([word])
    # E22 E12 = E12 (E22 + 1), and (E22 + 1)^40 = E22^40 + E22^32 + E22^8 + 1
    assert got.words == {(e11,) * 40 + (e12,) + (e22,) * k for k in (40, 32, 8, 0)}
    # cut inside the E11 block so that both halves need straightening
    halves = small.normal_form([word[:41]]), small.normal_form([word[41:]])
    assert got == small.multiply(*halves)


def test_packing_width_limits():
    with pytest.raises(ValueError):
        CurrentAlgebra(1, 1, 256)
    with pytest.raises(ValueError):
        CurrentAlgebra(255, 1, 3)
    assert CurrentAlgebra(1, 1, 255).trunc == 255


def test_z_elements(cl):
    z0 = cl.z_element(0)
    assert z0 == cl.gen(1, 1, 0) + cl.gen(2, 2, 0)
    gens = [Element(cl, frozenset({(g,)})) for g in cl.generators()]
    for r in range(cl.trunc):
        z = cl.z_element(r)
        for g in gens:
            assert not cl.commutator(z, g)
    with pytest.raises(ValueError):
        cl.z_element(3)


def test_classical_p_center(cl):
    entries = cl.classical_p_center()
    labels = {(p["i"], p["j"], p["r"]) for p, _ in entries}
    # only even-parity positions appear, with doubled exponent in range
    assert (1, 2, 0) not in labels
    assert (1, 1, 0) in labels and (2, 2, 1) in labels
    gens = [Element(cl, frozenset({(g,)})) for g in cl.generators()]
    for params, xi in entries:
        for g in gens:
            assert not cl.commutator(xi, g)


def test_xi_diagonal_value(cl):
    xi = cl.xi(1, 1, 1)
    g = cl.gen(1, 1, 1)
    assert xi == cl.multiply(g, g) + cl.gen(1, 1, 2)


def test_supermonomial_count_matches_oracle(cl):
    # degree-graded count over 12 generators: evens free, odds exponent <= 1
    monos = cl.supermonomials(3)
    by_len = {}
    for w in monos:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    # independent count: multisets of generators with odd multiplicity <= 1
    import math
    evens = sum(1 for g in cl.generators() if not cl.gen_parity(g))
    odds = len(cl.generators()) - evens
    def count(length):
        total = 0
        for k_odd in range(min(length, odds) + 1):
            total += math.comb(odds, k_odd) * math.comb(
                evens + (length - k_odd) - 1, length - k_odd)
        return total
    for length in range(4):
        assert by_len[length] == count(length)


def test_pbw_rank_exhaustive(cl):
    """Every word of length <= 3 reduces into the supermonomial span."""
    gens = cl.generators()
    supers = cl.supermonomials(3)
    index = {w: k for k, w in enumerate(supers)}
    ech = BitEchelon()
    words = [()]
    for length in range(1, 4):
        words.extend(itertools.product(gens, repeat=length))
    for w in words:
        vec = 0
        for nf_word in cl.normal_form([w]).words:
            vec |= 1 << index[nf_word]
        ech.add(vec)
    assert ech.rank == len(supers)


def test_s_layer(cl):
    odd = next(g for g in cl.generators() if cl.gen_parity(g))
    even = next(g for g in cl.generators() if not cl.gen_parity(g))
    assert merge_product({(odd,)}, {(odd,)}, cl._odd) == frozenset()
    assert merge_product({(even,)}, {(even,)}, cl._odd) == {(even, even)}
    mono = tuple(sorted((even, odd)))
    image = s_adjoint(cl, pack(1, 2, 0), mono)
    assert isinstance(image, frozenset)


def test_invariants_dimension_degree0_and_1(cl):
    rep0 = invariants_dimension(cl, 0)
    dims0 = next(c for c in rep0.checks if c.check_id == "dimensions")
    assert dims0.params["invariant_dim"] == 1
    assert dims0.params["generated_dim"] == 1
    rep1 = invariants_dimension(cl, 1)
    dims1 = next(c for c in rep1.checks if c.check_id == "dimensions")
    assert dims1.params["invariant_dim"] == cl.trunc
    assert dims1.params["generated_dim"] == cl.trunc
    assert dims1.params["equal"]


def test_invariants_dimension_reports_both_sides():
    cl2 = CurrentAlgebra(1, 1, 2)
    rep = invariants_dimension(cl2, 2)
    assert rep.ok
    dims = next(c for c in rep.checks if c.check_id == "dimensions")
    assert dims.params["generated_dim"] <= dims.params["invariant_dim"]


def _degree_piece(alg, degree):
    """The S-supermonomials of exactly the given polynomial degree."""
    return [w for w in alg.supermonomials(degree) if len(w) == degree]


def test_s_supermonomials_enumeration(cl):
    d2 = _degree_piece(cl, 2)
    assert all(len(w) == 2 for w in d2)
    assert len(set(d2)) == len(d2)
    # odd letters never repeat inside one S-supermonomial
    for w in d2:
        if w[0] == w[1]:
            assert not cl.gen_parity(w[0])


def test_classical_suite_11(cl):
    report = classical_suite(cl, seed=3, samples=10, pbw_degree=2,
                             invariants_degree=1)
    assert report.ok


def test_classical_suite_21(cl21):
    report = classical_suite(cl21, seed=4, samples=5, pbw_degree=1,
                             invariants_degree=1)
    assert report.ok


def test_gen_validation(cl):
    with pytest.raises(ValueError):
        cl.gen(0, 1, 0)
    with pytest.raises(ValueError):
        cl.gen(1, 1, 3)


def _old_supermonomials(alg, max_len):
    """The former enumerator: one recursion over every generator, then a sort."""
    gens = alg.generators()
    out = []

    def rec(k, remaining, word):
        if k == len(gens):
            out.append(word)
            return
        g = gens[k]
        top = remaining if not alg.gen_parity(g) else min(remaining, 1)
        for mult in range(top + 1):
            rec(k + 1, remaining - mult, word + (g,) * mult)

    rec(0, max_len, ())
    out.sort(key=lambda w: (len(w), w))
    return out


@pytest.mark.parametrize("m,n,trunc,max_len",
                         [(1, 1, 3, 3), (2, 1, 3, 3), (2, 2, 6, 2), (1, 2, 4, 3)])
def test_supermonomials_match_old_recursion(m, n, trunc, max_len):
    alg = CurrentAlgebra(m, n, trunc)
    assert alg.supermonomials(max_len) == _old_supermonomials(alg, max_len)


def _dense_invariants(alg, degree):
    """Reference dimensions: the adjoint action as dense stacked columns,
    one per basis word, and the generated side from explicit factor lists."""
    basis = _degree_piece(alg, degree)
    index = {w: k for k, w in enumerate(basis)}
    gens = alg.generators()
    columns = []
    for w in basis:
        col = 0
        for gi, g in enumerate(gens):
            for out_word in s_adjoint(alg, g, w):
                col |= 1 << (gi * len(basis) + index[out_word])
        columns.append(col)
    invariant_dim = len(basis) - rank_of(columns)

    z = [{(pack(i, i, r),) for i in range(1, alg.size + 1)}
         for r in range(alg.trunc)]
    squares = [{(g, g)} for g in gens
               if not alg.gen_parity(g) and g >> 8 != pack(1, 1, 0) >> 8]
    factors = [(1, f) for f in z] + [(2, f) for f in squares]
    rows = []
    for k in range(degree + 1):
        for combo in itertools.combinations_with_replacement(factors, k):
            if sum(d for d, _ in combo) != degree:
                continue
            words = {()}
            for _, f in combo:
                prods = set()
                for wa in words:
                    for wb in f:
                        prod = tuple(sorted(wa + wb))
                        # odd squares vanish in S(g_0) tensor Lambda(g_1)
                        if not any(a == b and alg.gen_parity(a)
                                   for a, b in zip(prod, prod[1:])):
                            prods ^= {prod}
                words = prods
            row = 0
            for w in words:
                row ^= 1 << index[w]
            rows.append(row)
    return invariant_dim, rank_of(rows)


@pytest.mark.parametrize("m,n,trunc",
                         [(1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 1, 5),
                          (2, 1, 3), (2, 1, 4), (2, 2, 3)])
def test_invariants_rank_matches_dense_columns(m, n, trunc, monkeypatch):
    widths = []
    add = BitEchelon.add

    def recording_add(self, row):
        widths.append(row.bit_length())
        return add(self, row)

    monkeypatch.setattr(BitEchelon, "add", recording_add)
    alg = CurrentAlgebra(m, n, trunc)
    for degree in range(3):
        expected = _dense_invariants(alg, degree)
        widths.clear()
        dims = next(c for c in invariants_dimension(alg, degree).checks
                    if c.check_id == "dimensions").params
        assert (dims["invariant_dim"], dims["generated_dim"]) == expected
        # rows stay one basis wide: no dense gens * len(basis) layout
        assert widths
        assert max(widths) <= len(_degree_piece(alg, degree))


@pytest.mark.parametrize("m,n,trunc", [(1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 2)])
def test_invariants_rank_matches_dense_columns_degree3(m, n, trunc):
    # degree 3 has words with an even letter twice beside an odd letter
    alg = CurrentAlgebra(m, n, trunc)
    dims = next(c for c in invariants_dimension(alg, 3).checks
                if c.check_id == "dimensions").params
    assert (dims["invariant_dim"], dims["generated_dim"]) == \
        _dense_invariants(alg, 3)


def _reference_rows(alg, g, basis):
    """Rows of ad g built word by word from s_adjoint, zero rows dropped."""
    rows = {}
    for k, w in enumerate(basis):
        for out_word in s_adjoint(alg, g, w):
            rows[out_word] = rows.get(out_word, 0) ^ (1 << k)
    return {w: row for w, row in rows.items() if row}


ADJOINT_SHAPES = [(1, 1, 3, 3), (2, 1, 2, 3), (1, 2, 2, 3), (2, 2, 2, 2)]


@pytest.mark.parametrize("m,n,trunc,top", ADJOINT_SHAPES)
def test_adjoint_rows_match_s_adjoint(m, n, trunc, top):
    alg = CurrentAlgebra(m, n, trunc)
    for degree in range(top + 1):
        basis = _degree_piece(alg, degree)
        sites = adjoint_sites(basis)
        for g in alg.generators():
            assert adjoint_rows(alg, g, sites) == _reference_rows(alg, g, basis)


def _grade(word):
    """(weight, t-degree): the weight as the multiset sum of e_i - e_j."""
    weight = collections.Counter()
    for g in word:
        weight[g >> 16] += 1
        weight[(g >> 8) & 0xFF] -= 1
    return (frozenset((i, c) for i, c in weight.items() if c),
            sum(g & 0xFF for g in word))


@pytest.mark.parametrize("m,n,trunc,top", ADJOINT_SHAPES)
def test_adjoint_rows_are_graded(m, n, trunc, top):
    """ad g maps the block of grade (mu, d) into (mu + wt g, d + r): every
    row lies in one input block, the output word's grade minus g's."""
    alg = CurrentAlgebra(m, n, trunc)
    for degree in range(top + 1):
        basis = _degree_piece(alg, degree)
        sites = adjoint_sites(basis)
        for g in alg.generators():
            for out_word, row in adjoint_rows(alg, g, sites).items():
                inputs = [basis[k] for k in range(len(basis)) if row >> k & 1]
                assert len({_grade(w) for w in inputs}) == 1
                # grades add, so input + g has the output word's grade
                assert {_grade(w + (g,)) for w in inputs} == {_grade(out_word)}


def test_invariants_blocks_stop_when_full(monkeypatch):
    """Each grading block stops at a full echelon: at (2,2,T=6), degree 2,
    one echelon over the whole basis takes 149,127 rows for a rank of
    4,539; the blocks, acted on by the 12 Lie generators, take 6,881."""
    adds = [0]
    add = BitEchelon.add

    def counting_add(self, row):
        adds[0] += 1
        return add(self, row)

    monkeypatch.setattr(BitEchelon, "add", counting_add)
    dims = next(c for c in invariants_dimension(CurrentAlgebra(2, 2, 6), 2).checks
                if c.check_id == "dimensions").params
    assert dims["invariant_dim"] == 69
    assert adds[0] < 30_000


def _old_jacobi_triples(items, rng, limit):
    """The former sampling: materialise every triple, then sample the list."""
    triples = [(a, b, c) for a in items for b in items for c in items]
    if len(triples) > limit:
        triples = rng.sample(triples, limit)
    return triples


@pytest.mark.parametrize("trunc,seed", [(5, 0), (5, 11), (2, 3)])
def test_sample_triples_matches_list_sampling(trunc, seed):
    items = CurrentAlgebra(1, 1, trunc).generators()
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    got = sample_triples(items, new_rng, 4000)
    assert got == _old_jacobi_triples(items, old_rng, 4000)
    assert len(got) == min(4000, len(items) ** 3)
    assert new_rng.getstate() == old_rng.getstate()
    # the draws that follow the sample are the same too
    assert new_rng.random() == old_rng.random()


def test_caches_are_transparent():
    alg = CurrentAlgebra(2, 1, 3)
    rng = random.Random(5)
    xs = [random_lie_element(alg, rng) for _ in range(5)]
    xs.append(alg.multiply(xs[0], xs[1]))
    lie = [x for x in xs if x.is_lie()]

    def run():
        brackets = [alg.bracket(x, y).words for x in lie for y in lie]
        products = [alg.multiply(x, y).words for x in xs for y in xs]
        invariants = [invariants_dimension(alg, d).to_payload()
                      for d in range(3)]
        commutators = [alg.commutator(x, y).words for x in xs for y in xs]
        return brackets, products, invariants, commutators

    warm = run(), run()
    assert warm[0] == warm[1]
    assert 0 < len(alg._pair_cache) <= len(alg.generators()) ** 2
    assert alg._letter_cache

    def cold(fn):
        alg._pair_cache.clear()
        alg._nf_cache.clear()
        alg._letter_cache.clear()
        alg._partner_cache.clear()
        return fn()

    assert [cold(lambda: alg.bracket(x, y).words)
            for x in lie for y in lie] == warm[0][0]
    assert [cold(lambda: alg.multiply(x, y).words)
            for x in xs for y in xs] == warm[0][1]
    assert [cold(lambda: invariants_dimension(alg, d).to_payload())
            for d in range(3)] == warm[0][2]
    assert [cold(lambda: alg.commutator(x, y).words)
            for x in xs for y in xs] == warm[0][3]


def test_operands_of_another_truncation_are_rejected(cl):
    other = CurrentAlgebra(2, 1, 3)
    x, y = other.gen(1, 2, 0), other.gen(3, 3, 2)
    for op in (cl.multiply, cl.commutator, cl.bracket):
        with pytest.raises(ValueError, match="does not belong"):
            op(x, y)
        with pytest.raises(ValueError, match="does not belong"):
            op(cl.gen(1, 1, 1), y)
    # an equal truncation built apart is the same algebra
    twin = CurrentAlgebra(1, 1, 3)
    a, b = twin.gen(1, 2, 1), twin.gen(2, 1, 1)
    assert cl.multiply(a, b) == twin.multiply(a, b)
    assert cl.bracket(a, b) == twin.bracket(a, b)


def _random_word_element(alg, rng, odd_only=False):
    """A sum of up to four random words of up to three letters, straightened."""
    pool = sorted(alg._odd) if odd_only else alg.generators()
    return alg.normal_form([tuple(rng.choice(pool)
                                  for _ in range(rng.randint(0, 3)))
                            for _ in range(rng.randint(1, 4))])


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_commutator_matches_products(m, n):
    """The Leibniz commutator equals the old definition xy + yx, also on
    words of odd letters, whose squares vanish."""
    alg = CurrentAlgebra(m, n, 3)
    rng = random.Random(10 * m + n)
    nonzero = with_odd = 0
    for _ in range(40):
        x = _random_word_element(alg, rng)
        y = _random_word_element(alg, rng)
        z = _random_word_element(alg, rng, odd_only=True)
        for a, b in ((x, y), (y, x), (x, z), (z, x), (z, z)):
            got = alg.commutator(a, b)
            assert got == alg.multiply(a, b) + alg.multiply(b, a)
            nonzero += bool(got)
        with_odd += any(len(w) > 1 for w in z.words)
    assert nonzero >= 40 and with_odd >= 10


def test_normal_form_rejects_out_of_range_triples():
    cl3 = CurrentAlgebra(1, 1, 3)
    for triple in ((1, 1, 7), (1, 1, 3), (5, 1, 1), (1, 1, 256), (1, 1, -1)):
        with pytest.raises(ValueError, match="out of range"):
            cl3.normal_form([(triple,)])
    assert cl3.normal_form([((1, 1, 2), (2, 2, 0))]) == \
        cl3.gen(1, 1, 2) * cl3.gen(2, 2, 0)


def test_normal_form_rejects_packed_ints_past_the_truncation():
    cl3 = CurrentAlgebra(1, 1, 3)
    with pytest.raises(ValueError) as from_gen:
        cl3.gen(1, 1, 7)
    with pytest.raises(ValueError) as from_nf:
        cl3.normal_form([(pack(1, 1, 7),)])
    assert str(from_nf.value) == str(from_gen.value)
    assert cl3.normal_form([(pack(1, 1, 2), pack(2, 2, 0))]) == \
        cl3.gen(1, 1, 2) * cl3.gen(2, 2, 0)


def test_yangian_and_classical_words_do_not_mix(cl):
    """t[1,1,1] and E[1,1]t^1 have the same packed word but different algebras."""
    yangian = RTTAlgebra(Shape(1, 1, 3))
    t, e = yangian.gen(1, 1, 1), cl.gen(1, 1, 1)
    assert t.words == e.words == {(0x010101,)}
    assert t != e and e != t
    assert (t.canonical(), e.canonical()) == ("t[1,1,1]", "E[1,1]t^1")
    for op in (lambda: t + e, lambda: e + t,
               lambda: yangian.multiply(t, e), lambda: yangian.multiply(e, t),
               lambda: cl.multiply(e, t), lambda: cl.multiply(t, e),
               lambda: yangian.commutator(t, e), lambda: cl.commutator(e, t)):
        with pytest.raises(ValueError, match="does not belong"):
            op()
    # an equal truncation built apart is the same algebra
    twin = CurrentAlgebra(1, 1, 3)
    assert twin.gen(1, 1, 1) == e
    assert twin.gen(1, 1, 1) + e == cl.zero()


LIE_GENERATOR_SHAPES = [(1, 1, t) for t in range(1, 7)] + [
    (2, 1, 3), (1, 2, 3), (3, 1, 3), (2, 2, 6), (3, 2, 2)]


def _closure_rank(alg, gens):
    """Dimension of the Lie subalgebra generated by gens, by a walk apart
    from the certificate's: it is spanned by the left-normed brackets
    [s1, [s2, ... [sk-1, sk]]], so close the span under ad s for s in gens
    alone, with Element brackets and rank_of."""
    bit = {g: 1 << k for k, g in enumerate(alg.generators())}
    elems = [alg.gen(*unpack(g)) for g in gens]
    span, frontier = list(elems), list(elems)
    while frontier:
        new = []
        for y in frontier:
            for s in elems:
                z = alg.bracket(s, y)
                vecs = [sum(bit[h] for (h,) in x.words) for x in span + [z]]
                if rank_of(vecs) > len(span):
                    span.append(z)
                    new.append(z)
        frontier = new
    return len(span)


@pytest.mark.parametrize("m,n,trunc", LIE_GENERATOR_SHAPES)
def test_lie_generators_span(m, n, trunc):
    alg = CurrentAlgebra(m, n, trunc)
    size = m + n
    expected = ({pack(1, 1, r) for r in range(trunc)}
                | {pack(i, i + 1, 0) for i in range(1, size)}
                | {pack(i + 1, i, 0) for i in range(1, size)})
    gens = alg.lie_generators()
    assert gens == tuple(sorted(expected))
    assert len(gens) == 2 * (size - 1) + trunc
    assert _closure_rank(alg, gens) == len(alg.generators())


def test_lie_generators_certified_lazily_once(monkeypatch):
    calls = []
    real = current.certified_lie_generators

    def spy(alg, gens):
        calls.append(alg)
        return real(alg, gens)

    monkeypatch.setattr(current, "certified_lie_generators", spy)
    alg = CurrentAlgebra(2, 2, 6)
    assert alg._lie_generators is None and not calls
    first = alg.lie_generators()
    for d in range(3):
        invariants_dimension(alg, d)
    assert alg.lie_generators() is first
    assert calls == [alg]


@pytest.mark.parametrize("m,n,trunc", [(1, 1, 1), (1, 1, 4), (2, 1, 3),
                                       (1, 2, 3), (2, 2, 6), (3, 2, 2)])
def test_lie_generator_mutants_are_refused(m, n, trunc):
    alg = CurrentAlgebra(m, n, trunc)
    gens = set(alg.lie_generators())
    # the top t-degree has trace, which no bracket has
    with pytest.raises(RuntimeError, match="generate a Lie subalgebra"):
        certified_lie_generators(alg, gens - {pack(1, 1, trunc - 1)})
    for i in range(1, m + n):
        for root in (pack(i, i + 1, 0), pack(i + 1, i, 0)):
            with pytest.raises(RuntimeError, match="generate a Lie subalgebra"):
                certified_lie_generators(alg, gens - {root})
    # any superset still certifies, and comes back sorted
    assert certified_lie_generators(alg, alg.generators()[::-1]) == \
        tuple(alg.generators())


def test_short_generating_set_exits_3(monkeypatch, tmp_path, capsys):
    real = current.certified_lie_generators
    monkeypatch.setattr(
        current, "certified_lie_generators",
        lambda alg, gens: real(alg, set(gens) - {pack(1, 1, alg.trunc - 1)}))
    out = tmp_path / "c.json"
    code = cli.main(["--m", "1", "--n", "1", "-L", "2", "-T", "3",
                     "--out", str(out), "verify", "classical"])
    assert code == 3
    assert not out.exists()
    assert "generate a Lie subalgebra" in capsys.readouterr().err


def _full_scan(alg, x, gen_elems):
    return next((g for g in gen_elems if alg.commutator(x, g)), None)


@pytest.mark.parametrize("m,n,trunc", [(1, 1, 3), (2, 1, 3), (2, 2, 4)])
def test_centrality_witness_matches_full_scan(m, n, trunc):
    alg = CurrentAlgebra(m, n, trunc)
    gen_elems = [alg.gen(*unpack(g)) for g in alg.generators()]
    rng = random.Random(m + n + trunc)
    xs = [alg.z_element(0) + alg.gen(1, 2, 0),
          alg.z_element(trunc - 1) + alg.gen(m + n, 1, 1),
          alg.gen(2, 2, 1) * alg.gen(1, 1, 0),
          # commutes with every E[1,j]t^r before E[1,m+n]t^0, which at
          # three or more rows is not a generator
          alg.gen(m + n, m + n, 1)]
    xs += [alg.z_element(r) for r in range(trunc)]
    xs += [xi for _, xi in alg.classical_p_center()]
    xs += [random_lie_element(alg, rng) for _ in range(5)]
    failing = 0
    for x in xs:
        bad = first_noncentral(alg, x, gen_elems)
        ref = _full_scan(alg, x, gen_elems)
        assert bad == ref
        if ref is not None:
            failing += 1
            assert alg.commutator(x, bad) == alg.commutator(x, ref)
    assert failing >= 3


def test_failing_centrality_payload_matches_full_scan(monkeypatch):
    """With z_r broken, the suite names the witnesses of a scan of every
    letter: the payload equals the one with every letter as generator.
    The first letter that z_r + E[3,3]t^1 fails to commute with is
    E[1,3]t^0, which is not a generator."""
    real_z = CurrentAlgebra.z_element
    monkeypatch.setattr(CurrentAlgebra, "z_element",
                        lambda self, r: real_z(self, r) + self.gen(3, 3, 1))

    def payload(every_letter):
        alg = CurrentAlgebra(2, 1, 3)
        if every_letter:
            alg._lie_generators = tuple(alg.generators())
        return classical_suite(alg, seed=4, samples=3, pbw_degree=1,
                               invariants_degree=1).to_payload()

    got = payload(False)
    assert got == payload(True)
    assert got["totals"]["by_id"]["central-z"]["failures"] == 3


def _jacobi_by_elements(alg, triples):
    """The former Jacobi count, through CurrentAlgebra.bracket."""
    fails = 0
    for a, b, c in ([Element(alg, frozenset({(g,)})) for g in t]
                    for t in triples):
        fails += bool(alg.bracket(alg.bracket(a, b), c)
                      + alg.bracket(alg.bracket(b, c), a)
                      + alg.bracket(alg.bracket(c, a), b))
    return fails


@pytest.mark.parametrize("m,n,trunc", [(1, 1, 3), (2, 1, 2)])
def test_jacobi_failures_match_element_brackets(m, n, trunc):
    alg = CurrentAlgebra(m, n, trunc)
    triples = list(itertools.product(alg.generators(), repeat=3))
    assert jacobi_failures(alg, triples) == 0
    # a broken table: [E[1,1]t^0, b] gains a spurious E[1,2]t^0
    broken = CurrentAlgebra(m, n, trunc)
    real = broken._bracket
    e11, e12 = pack(1, 1, 0), pack(1, 2, 0)

    def spurious(a, b):
        words = real(a, b)
        return words ^ {(e12,)} if a == e11 and words else words

    broken._bracket = spurious
    fails = jacobi_failures(broken, triples)
    assert fails > 0
    assert fails == _jacobi_by_elements(broken, triples)


def test_suite_jacobi_keeps_the_draw():
    """The letter triples are the former Element triples, and the draws
    after them are unchanged."""
    alg = CurrentAlgebra(2, 2, 2)
    gens = alg.generators()
    new_rng, old_rng = random.Random(7), random.Random(7)
    letters = sample_triples(gens, new_rng, 4000)
    elems = sample_triples([alg.gen(*unpack(g)) for g in gens],
                           old_rng, 4000)
    assert [tuple(x.words for x in t) for t in elems] == \
        [tuple(frozenset({(g,)}) for g in t) for t in letters]
    assert new_rng.getstate() == old_rng.getstate()


@pytest.mark.parametrize("m,n,trunc,top",
                         [(1, 1, 3, 2), (2, 1, 3, 2), (2, 2, 3, 2),
                          (1, 1, 2, 3), (2, 1, 2, 3), (1, 2, 2, 3)])
def test_invariants_over_lie_generators_match_all_letters(m, n, trunc, top):
    alg = CurrentAlgebra(m, n, trunc)
    lie = alg.lie_generators()
    for degree in range(top + 1):
        basis = _degree_piece(alg, degree)
        blocks = collections.defaultdict(list)
        for w in basis:
            blocks[word_grade(w, alg.size)].append(w)
        for block in blocks.values():
            assert block_rank(alg, lie, block) == \
                block_rank(alg, alg.generators(), block)
        # the payload is the one of every letter as generator
        every = CurrentAlgebra(m, n, trunc)
        every._lie_generators = tuple(every.generators())
        assert invariants_dimension(alg, degree).to_payload() == \
            invariants_dimension(every, degree).to_payload()


@pytest.mark.parametrize("m,n,trunc", [(1, 1, 3), (2, 1, 2), (2, 2, 2)])
def test_bracket_partners(m, n, trunc):
    alg = CurrentAlgebra(m, n, trunc)
    for g in alg.generators():
        expected = tuple((b, alg._bracket(g, b))
                         for b in alg.generators() if alg._bracket(g, b))
        assert alg.bracket_partners(g) == expected
        assert alg.bracket_partners(g) is alg.bracket_partners(g)
