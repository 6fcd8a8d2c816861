import functools
import random

import pytest

from yangian2 import RTTAlgebra, Shape, build_table
from yangian2 import centers
from yangian2.centers import (b_series, build_center_table, build_quotient,
                              c_series, centrality_report,
                              freeness_shadow_report, gr_bridge_report,
                              gr_leading_term, leading_word, p_center_squares, quotient_report)
from yangian2.current import CurrentAlgebra
from yangian2.errors import DegreeCapError
from yangian2.linalg import BitEchelon, BlockColumns, BlockEchelon
from yangian2.rtt import (Element, bounded_words, product_rank,
                          repeats_nilsquare, word_degree, word_weight)

from oracles import (count_full, count_super, full_independence_check, parity,
                     rank_of, replaced, rtt_rhs, triples, words_row)


@pytest.fixture(scope="module")
def setup11():
    alg = RTTAlgebra(Shape(1, 1, 5))
    tab = build_table(alg, 4)
    return alg, tab


@pytest.fixture(scope="module")
def setup21():
    alg = RTTAlgebra(Shape(2, 1, 4))
    tab = build_table(alg, 3)
    return alg, tab


def test_c_series_low_coefficients(setup11):
    alg, tab = setup11
    c = c_series(tab)
    assert c.coeffs[0] == alg.one()
    assert c.coeffs[1] == alg.gen(1, 1, 1) + alg.gen(2, 2, 1)


def test_c_series_low_coefficients_21(setup21):
    alg, tab = setup21
    c = c_series(tab)
    assert c.coeffs[1] == alg.gen(1, 1, 1) + alg.gen(2, 2, 1) + alg.gen(3, 3, 1)


def test_c2_assembled_from_table(setup11):
    alg, tab = setup11
    c = c_series(tab)
    # d_1(u) d_2(u-1) coefficient of u^-2, written out with table entries
    expected = (tab.d[1][2] + alg.multiply(tab.d[1][1], tab.d[2][1])
                + tab.d[2][1] + tab.d[2][2])
    assert c.coeffs[2] == expected


def test_b_series_values(setup11):
    alg, tab = setup11
    b1 = b_series(tab, 1)
    assert not b1.coeffs[1]
    t11 = alg.gen(1, 1, 1)
    assert b1.coeffs[2] == t11 + t11 * t11
    b2 = b_series(tab, 2)
    assert not b2.coeffs[1]


def test_is_central_trivial_and_frozen_failure(setup11):
    alg, tab = setup11
    assert alg.first_noncentral(alg.one(), 3) is None
    assert alg.first_noncentral(alg.one(), 0) is None
    x = alg.gen(1, 2, 1)
    # the first failing letter in (s, i, j) order
    assert alg.first_noncentral(x, 2) == alg.gen(1, 1, 1)
    assert alg.commutator(x, alg.gen(2, 1, 1)).canonical() == \
        "t[1,1,1] + t[2,2,1]"


def test_is_central_c2(setup11):
    alg, tab = setup11
    c2 = c_series(tab).coeffs[2]
    assert alg.first_noncentral(c2, 3) is None


def test_is_central_budget_guard(setup11):
    alg, tab = setup11
    with pytest.raises(DegreeCapError, match="centrality budget 4"):
        alg.first_noncentral(c_series(tab).coeffs[2], 4)


def test_p_center_squares_parities(setup11, setup21):
    alg, tab = setup11
    squares = p_center_squares(tab, 4)
    by_label = {sq.label: sq for sq in squares}
    e1 = by_label["(e[1,2]^(1))^2"]
    assert e1.parity == 1
    t12 = alg.gen(1, 2, 1)
    assert e1.element == t12 * t12

    alg21, tab21 = setup21
    squares21 = p_center_squares(tab21, 2)
    tagged = {(sq.kind, sq.i, sq.j): sq.parity for sq in squares21}
    assert tagged[("e", 1, 2)] == 0
    assert tagged[("e", 1, 3)] == 1
    assert tagged[("e", 2, 3)] == 1
    assert tagged[("f", 2, 1)] == 0
    for sq in squares21:
        assert alg21.first_noncentral(sq.element, 2) is None


def test_columns_are_classified_once(setup11, monkeypatch):
    """build_quotient asks once of each column whether it repeats an odd
    letter and lays each block out as its non-super words, split[block] of
    them, then its super words in descending (degree, word) order; the
    pivot check and the leading-word certificate read the split and ask no
    word again."""
    alg, tab = setup11
    real, asked = centers.repeats_nilsquare, []

    def counting(word, odd):
        asked.append(word)
        return real(word, odd)

    monkeypatch.setattr(centers, "repeats_nilsquare", counting)
    q = build_quotient(alg, 4, tab)
    assert sorted(asked) == sorted(alg.pbw_monomials(4))
    assert len(q.split) == len(q.columns.words)
    for block, cut in zip(q.columns.words, q.split):
        assert all(real(w, alg._odd) for w in block[:cut])
        assert not any(real(w, alg._odd) for w in block[cut:])
        keys = [(word_degree(w), w) for w in block]
        assert keys[:cut] == sorted(keys[:cut])
        assert keys[cut:] == sorted(keys[cut:], reverse=True)
    asked.clear()
    certify, counted = centers.graded_basis_count, []
    monkeypatch.setattr(centers, "graded_basis_count",
                        lambda quotient, factors: counted.append(
                            certify(quotient, factors)) or counted[-1])
    assert freeness_shadow_report(build_center_table(tab), q, "p-center").ok
    assert counted == [q.dim_super] and not asked


def test_build_quotient_dimensions(setup11):
    alg, tab = setup11
    q0 = build_quotient(alg, 0, tab)
    assert (q0.dim_full, q0.ideal_rank, q0.dim_super) == (1, 0, 1)
    q1 = build_quotient(alg, 1, tab)
    assert (q1.dim_full, q1.ideal_rank, q1.dim_super) == (5, 0, 5)
    q2 = build_quotient(alg, 2, tab)
    assert (q2.dim_full, q2.ideal_rank, q2.dim_super) == (19, 2, 17)
    assert q2.certificate_ok
    rep = quotient_report(q2)
    assert rep.ok
    dims = rep.checks[0].params
    assert dims == {"dim_full": 19, "ideal_rank": 2, "dim_super": 17,
                    "expected": 17}


def test_quotient_matches_oracles(setup11):
    alg, tab = setup11
    for bound in range(5):
        q = build_quotient(alg, bound, tab)
        assert q.dim_full == count_full(1, 1, bound)[bound]
        assert q.dim_super == count_super(1, 1, bound)[bound]
        assert q.certificate_ok


def test_quotient_21(setup21):
    alg, tab = setup21
    for bound in range(4):
        q = build_quotient(alg, bound, tab)
        assert q.dim_full == count_full(2, 1, bound)[bound]
        assert q.dim_super == count_super(2, 1, bound)[bound]
        assert q.certificate_ok


def _direct_rows(alg, tab, bound, two_sided):
    """The ideal rows straightened from scratch: multiply(mono(a), z), then
    times mono(b) for the two-sided rows a * z * b that span J_bound by
    definition, in build_quotient's order."""
    monos = alg.pbw_monomials(bound)
    upto = {d: [w for w in monos if word_degree(w) <= d]
            for d in range(bound + 1)}

    def mono(w):
        return Element(alg, frozenset({w}))

    rows = []
    for sq in p_center_squares(tab, bound):
        if sq.parity != 1:
            continue
        z = sq.element
        room = bound - z.degree()
        for wa in upto[room]:
            left = alg.multiply(mono(wa), z)
            if not two_sided:
                rows.append(left)
                continue
            rows += [alg.multiply(left, mono(wb))
                     for wb in upto[room - word_degree(wa)]]
    return rows


def _dense_index(alg, bound):
    """The one global column order that the weight blocks refine: the
    non-super words ascending, then the super words descending."""
    monos = alg.pbw_monomials(bound)
    nil = [w for w in monos if repeats_nilsquare(w, alg._odd)]
    sup = [w for w in monos if not repeats_nilsquare(w, alg._odd)]
    return {w: k for k, w in enumerate(nil + sup[::-1])}


def _global_pivots(q, index):
    """The quotient's pivots, each local pivot mapped to its global column."""
    return {index[q.columns.words[block][c]]
            for block, held in q.echelon.blocks.items() for c in held.pivots}


def _dense_row(q, index, vector):
    """A block vector of q as one row over the global columns."""
    return words_row(q.columns.words_of(vector), index, q.bound)


def _two_sided_echelon(alg, tab, bound, index):
    """The reference echelon of J_bound, from the two-sided rows."""
    ech = BitEchelon()
    for row in _direct_rows(alg, tab, bound, two_sided=True):
        ech.add(words_row(row.words, index, bound))
    return ech


@pytest.mark.parametrize("fixture, top", [("setup11", 5), ("setup21", 4)])
def test_one_sided_ideal_matches_two_sided(request, fixture, top):
    """The one-sided quotient reduces every element as the two-sided
    reference echelon does: one span, one set of pivots."""
    alg, tab = request.getfixturevalue(fixture)
    rng = random.Random(top)
    # odd squares start at degree 2; below that the ideal has no rows at all
    for bound in range(2, top + 1):
        q = build_quotient(alg, bound, tab)
        index = _dense_index(alg, bound)
        ref = _two_sided_echelon(alg, tab, bound, index)
        assert q.certificate_ok and q.noncentral is None
        assert q.ideal_rank == ref.rank
        assert _global_pivots(q, index) == set(ref.pivots)
        squares = [sq.element for sq in p_center_squares(tab, bound)]
        samples = [alg.random_element(rng, bound) for _ in range(20)]
        samples += [alg.multiply(z, alg.gen(i, j, bound - z.degree()))
                    for z in squares if z.degree() < bound
                    for i in range(1, alg.shape.size + 1)
                    for j in range(1, alg.shape.size + 1)]
        for x in samples:
            assert _dense_row(q, index, q.residue(x)) == ref.reduce(
                words_row(x.words, index, bound))


def _broken_squares(monkeypatch, kind, r, extra):
    """p_center_squares with extra added to the square of kind[1,2]^(r)."""
    real = centers.p_center_squares

    def broken(tab, bound):
        squares = real(tab, bound)
        for k, sq in enumerate(squares):
            if (sq.kind, sq.i, sq.j, sq.r) == (kind, 1, 2, r):
                squares[k] = replaced(sq, element=sq.element + extra)
        return squares

    monkeypatch.setattr(centers, "p_center_squares", broken)


def test_noncentral_odd_square_fails_the_certificate(monkeypatch):
    """An odd square that is not central fails certificate_ok even where
    the dimension count matches, and the dimension check names it.  The
    square (e[1,2]^(2))^2 gains t[1,2,1] t[1,2,2], a lower-degree word of
    its own weight, so every row stays homogeneous."""
    alg = RTTAlgebra(Shape(1, 1, 6))
    tab = build_table(alg, 3)
    extra = alg.multiply(alg.gen(1, 2, 1), alg.gen(1, 2, 2))
    _broken_squares(monkeypatch, "e", 2, extra)
    (square,) = [sq for sq in centers.p_center_squares(tab, 4)
                 if (sq.kind, sq.r) == ("e", 2)]
    assert len({word_weight(w) for w in square.element.words}) == 1
    # at bound 4 the squares fill the bound and nothing is left to test
    assert build_quotient(alg, 4, tab).certificate_ok
    for bound in (5, 6):
        q = build_quotient(alg, bound, tab)
        assert q.dim_super == q.expected_super
        assert not q.certificate_ok
        assert q.noncentral == "(e[1,2]^(2))^2"
        (check,) = quotient_report(q).checks
        assert not check.ok
        assert check.witness == "(e[1,2]^(2))^2 is not central"


def test_super_pivot_alone_fails_the_certificate(setup11, monkeypatch):
    """A block's largest word laid out as super, at the block's split,
    becomes a pivot there: the rank and the expected count still match, so
    only the pivot check can fail the certificate."""
    alg, tab = setup11
    real = centers.repeats_nilsquare
    tops = {}
    for w in alg.pbw_monomials(4):
        k = word_weight(w)
        tops[k] = max(tops.get(k, w), w, key=lambda v: (word_degree(v), v))
    moved = next(w for w in tops.values() if real(w, alg._odd))
    monkeypatch.setattr(centers, "repeats_nilsquare",
                        lambda word, odd: word != moved and real(word, odd))
    q = build_quotient(alg, 4, tab)
    block, col = q.columns.locate(moved)
    assert col == q.split[block] and col in q.echelon.blocks[block].pivots
    assert q.noncentral is None and q.dim_super == q.expected_super
    assert not q.certificate_ok


def test_inhomogeneous_odd_square_raises(setup11, monkeypatch):
    """A square whose words span two weights gives rows that span two
    blocks: build_quotient raises rather than split them."""
    alg, tab = setup11
    _broken_squares(monkeypatch, "e", 1, alg.gen(1, 2, 1))
    for bound in (2, 3, 4):
        with pytest.raises(ValueError, match="spans blocks"):
            build_quotient(alg, bound, tab)


def test_failing_centrality_names_the_full_scan_witness():
    """With c^(r) broken by t[3,3,1], centrality_report names the witnesses
    of a scan of every t[i,j,s] in (s, i, j) order: the payload equals the
    one with every letter as the generating set.  The first letter that
    t[3,3,1] fails to commute with is t[1,3,1], which is not in S."""
    def payload(every_letter):
        alg = RTTAlgebra(Shape(2, 1, 4))
        table = build_center_table(build_table(alg, 4))
        table.c = [c + alg.gen(3, 3, 1) if r else c
                   for r, c in enumerate(table.c)]
        if every_letter:
            for top in range(5):
                alg._lie_generators[top] = tuple(alg.generators(top))
        return centrality_report(table, 4, 4, 4).to_payload()

    got = payload(False)
    assert got == payload(True)
    # c^(4) + t[3,3,1] has degree 4 and leaves no budget to test
    assert got["totals"]["by_id"]["central-c"]["failures"] == 3


def _logged_build(monkeypatch, alg, tab, bound):
    """build_quotient with every row handed to its echelon recorded."""
    logged = []

    class Logged(BlockEchelon):
        def add(self, vector):
            logged.append(vector)
            return super().add(vector)

    monkeypatch.setattr(centers, "BlockEchelon", Logged)
    q = build_quotient(alg, bound, tab)
    monkeypatch.setattr(centers, "BlockEchelon", BlockEchelon)
    return q, logged


@pytest.mark.parametrize("m, n, cap, order, bounds, two_sided", [
    (1, 1, 7, 3, range(2, 8), False),
    (1, 1, 7, 3, range(2, 8), True),
    (2, 1, 5, 2, range(2, 6), False),
    (2, 1, 5, 2, range(2, 6), True),
])
def test_tree_rows_match_direct_products(monkeypatch, m, n, cap, order,
                                         bounds, two_sided):
    """Each row a * z built as g * (a' * z) along the PBW order is the
    product multiply(mono(a), z) straightened from scratch, row for row;
    and those rows span the two-sided rows a * z * b."""
    alg = RTTAlgebra(Shape(m, n, cap))
    tab = build_table(alg, order)
    for bound in bounds:
        q, logged = _logged_build(monkeypatch, alg, tab, bound)
        want = [q.to_vector(row)
                for row in _direct_rows(alg, tab, bound, two_sided)]
        if two_sided:
            index = _dense_index(alg, bound)
            assert rank_of(_dense_row(q, index, v) for v in want) == \
                q.ideal_rank, bound
            assert not any(map(q.echelon.reduce, want)), bound
        else:
            assert logged == want, bound


@pytest.mark.parametrize("m, n, cap", [(1, 1, 6), (2, 1, 5), (1, 2, 4),
                                        (2, 2, 4)])
def test_weight_blocks_match_one_dense_echelon(monkeypatch, m, n, cap):
    """The quotient's rows, ranked in one dense BitEchelon over the global
    columns in the same order, give the same rank, rows found dependent,
    pivots and residues, the latter on elements of mixed weight; every
    pivot is a non-super column exactly when the certificate says so."""
    alg = RTTAlgebra(Shape(m, n, cap))
    tab = build_table(alg, cap // 2)
    rng = random.Random(cap)
    for bound in range(2, cap + 1):
        q, logged = _logged_build(monkeypatch, alg, tab, bound)
        index = _dense_index(alg, bound)
        dense, check = BitEchelon(), BlockEchelon()
        for vector in logged:
            assert (check.add(vector) == 0) == \
                (dense.add(_dense_row(q, index, vector)) == 0)
        assert q.ideal_rank == dense.rank
        assert _global_pivots(q, index) == set(dense.pivots)
        assert q.expected_super == sum(not repeats_nilsquare(w, alg._odd)
                                       for w in alg.pbw_monomials(bound))
        non_super = q.dim_full - q.expected_super
        assert q.certificate_ok == all(c < non_super for c in dense.pivots)
        samples = [alg.random_element(rng, bound) for _ in range(20)]
        assert any(len(q.to_vector(x)) > 1 for x in samples)
        for x in samples:
            assert _dense_row(q, index, q.residue(x)) == dense.reduce(
                words_row(x.words, index, bound))


@pytest.mark.parametrize("super_only", [False, True])
def test_product_rank_by_weight_matches_one_block(super_only):
    """rtt.product_rank finds the same count, rank and dependent products
    with the columns split by weight as with all of them in one block,
    which is the dense echelon; dependent products included."""
    alg = RTTAlgebra(Shape(2, 1, 5))
    tab = build_table(alg, 4)
    gens = list(tab.generators(4))
    values = [g[4] for g in gens] + [gens[0][4]]    # d_1^(1) twice
    degrees = [g[3] for g in gens] + [gens[0][3]]
    caps = [1 if super_only and alg.shape.parity(a, b) else 4
            for _, a, b, _, _ in gens] + [4]
    monos = alg.pbw_monomials(4)
    results = []
    for key in (word_weight, lambda w: 0):
        columns = BlockColumns.by_key(monos, key)
        results.append(product_rank(
            alg, values, degrees, 4,
            lambda x: columns.vector(x.words, 4), caps))
    assert results[0] == results[1]
    count, rank, dependent = results[0]
    assert dependent and rank < count


def test_product_rank_refuses_an_inhomogeneous_product(setup11):
    alg, _ = setup11
    monos = alg.pbw_monomials(3)
    columns = BlockColumns.by_key(monos, word_weight)
    mixed = alg.gen(1, 1, 1) + alg.gen(1, 2, 1)
    with pytest.raises(ValueError, match="spans blocks"):
        product_rank(alg, [mixed], [1], 3,
                     lambda x: columns.vector(x.words, 3))


def test_tree_rows_straighten_less():
    """On fresh algebras the tree build, centrality certificate included,
    leaves fewer straightening cache entries than the direct products."""
    entries = []
    for tree in (True, False):
        alg = RTTAlgebra(Shape(1, 1, 7))
        tab = build_table(alg, 3)
        before = len(alg._nf_cache)
        if tree:
            build_quotient(alg, 7, tab)
        else:
            _direct_rows(alg, tab, 7, two_sided=False)
        entries.append(len(alg._nf_cache) - before)
    assert 0 < entries[0] < entries[1]


def test_super_normal_form_examples(setup11):
    alg, tab = setup11
    q = build_quotient(alg, 4, tab)
    e1 = tab.e_simple(1, 1)
    assert not q.reduce(alg.multiply(e1, e1))
    mono = alg.gen(1, 1, 1) * alg.gen(2, 2, 2)
    assert q.reduce(mono) == mono
    bracket = alg.commutator(tab.e_simple(1, 1), tab.e_simple(1, 2))
    assert not q.reduce(bracket)
    # linearity through lift-and-reduce
    x = alg.gen(1, 2, 1)
    y = alg.gen(2, 1, 1) * alg.gen(1, 2, 1)
    assert q.reduce(x + y) == q.reduce(x) + q.reduce(y)
    again = q.reduce(q.reduce(x + y))
    assert again == q.reduce(x + y)


def test_quotient_ideal_closure(setup11):
    alg, tab = setup11
    q = build_quotient(alg, 4, tab)
    e1sq = alg.multiply(tab.e_simple(1, 1), tab.e_simple(1, 1))
    for i in (1, 2):
        for j in (1, 2):
            g = alg.gen(i, j, 1)
            assert not q.reduce(alg.multiply(g, e1sq))
            assert not q.reduce(alg.multiply(e1sq, g))
            two_sided = alg.multiply(g, alg.multiply(e1sq, g))
            assert not q.reduce(two_sided)


def test_quotient_reduction_well_defined(setup11):
    """Adding any in-bound ideal element never moves the coset representative."""
    import random
    alg, tab = setup11
    q = build_quotient(alg, 4, tab)
    odd_squares = [sq.element for sq in p_center_squares(tab, 4)
                   if sq.parity == 1]
    monos = alg.pbw_monomials(2)
    rng = random.Random(31)
    from yangian2.rtt import Element, word_degree
    for _ in range(40):
        x = alg.normal_form([rng.choice(monos), rng.choice(monos)])
        z = rng.choice(odd_squares)
        room = 4 - z.degree()
        a = rng.choice([w for w in monos if word_degree(w) <= room])
        b = rng.choice([w for w in monos
                        if word_degree(w) <= room - word_degree(a)])
        j = functools.reduce(alg.multiply,
                             [Element(alg, frozenset({a})), z,
                              Element(alg, frozenset({b}))], alg.one())
        assert q.reduce(x + j) == q.reduce(x)


def test_quotient_reduction_preserves_parity(setup21):
    """The ideal is generated by even elements, so cosets stay homogeneous."""
    alg, tab = setup21
    q = build_quotient(alg, 3, tab)
    probes = [alg.gen(1, 3, 1) * alg.gen(3, 2, 2),
              alg.gen(1, 3, 1) * alg.gen(3, 1, 1) * alg.gen(2, 2, 1),
              alg.commutator(tab.e_simple(2, 1), tab.e_simple(2, 2))]
    for x in probes:
        assert parity(x) is not None
        image = q.reduce(x)
        if image:
            assert parity(image) == parity(x)


def test_quotient_order_guard():
    """A table too short for the odd squares with 2r <= bound would drop
    them and fail the dimension check falsely; it is refused instead."""
    alg = RTTAlgebra(Shape(1, 1, 6))
    with pytest.raises(DegreeCapError, match="order >= 3"):
        build_quotient(alg, 6, build_table(alg, 2))
    assert build_quotient(alg, 6, build_table(alg, 3)).certificate_ok


def test_center_table_order_guard():
    """The squares with r = 3 need a table of order 3 at bound 6; a shorter
    table is refused, not a centrality report that never tests them."""
    alg = RTTAlgebra(Shape(1, 1, 6))
    short = build_table(alg, 2)
    with pytest.raises(DegreeCapError, match="order >= 3, got 2"):
        build_center_table(short)
    with pytest.raises(DegreeCapError, match="order >= 3, got 2"):
        p_center_squares(short, 7)
    assert len(p_center_squares(short, 5)) == 4
    table = build_center_table(build_table(alg, 3))
    assert max(sq.r for sq in table.squares) == 3
    report = centrality_report(table, 2, 2, square_bound=6)
    assert report.ok
    assert report.counts_by_id()["central-square"]["instances"] == 6


@pytest.mark.parametrize("m, n, cap", [
    (1, 1, 7), (2, 1, 5), (1, 2, 5), (2, 2, 4), (3, 1, 5), (1, 1, 12),
])
def test_half_order_table_gives_the_same_squares(m, n, cap):
    """The squares with 2r <= L read no coefficient past u^(-L/2)."""
    def squares(order):
        alg = RTTAlgebra(Shape(m, n, cap))
        return [(sq.kind, sq.i, sq.j, sq.r, sq.parity, sq.element.words)
                for sq in p_center_squares(build_table(alg, order), cap)]
    assert squares(cap // 2) == squares(cap)


def test_quotient_degree_guard(setup11):
    alg, tab = setup11
    q = build_quotient(alg, 2, tab)
    with pytest.raises(DegreeCapError):
        q.reduce(alg.gen(1, 1, 3))


@pytest.mark.parametrize("fixture,bound", [("setup11", 4), ("setup21", 3)])
def test_quotient_residue_matches_reduce(request, fixture, bound):
    """residue(x) is the row of reduce(x), bit for bit."""
    alg, tab = request.getfixturevalue(fixture)
    q = build_quotient(alg, bound, tab)
    rng = random.Random(bound)
    samples = [Element(alg, frozenset({w})) for w in alg.pbw_monomials(bound)]
    for _ in range(40):
        split = rng.randint(1, bound - 1)
        samples.append(alg.multiply(alg.random_element(rng, split),
                                    alg.random_element(rng, bound - split)))
    assert any(q.residue(x) != q.to_vector(x) for x in samples)
    for x in samples:
        assert q.residue(x) == q.to_vector(q.reduce(x))


def test_gr_leading_term_examples(setup11):
    alg, tab = setup11
    classical = CurrentAlgebra(1, 1, 5)
    assert gr_leading_term(alg.gen(1, 2, 1), 0, classical) == classical.gen(1, 2, 0)
    c = c_series(tab)
    assert gr_leading_term(c.coeffs[1], 0, classical) == classical.z_element(0)
    assert gr_leading_term(c.coeffs[2], 1, classical) == classical.z_element(1)
    b1 = b_series(tab, 1)
    g0 = classical.gen(1, 1, 0)
    assert gr_leading_term(b1.coeffs[2], 0, classical) == \
        classical.multiply(g0, g0) + g0
    g1 = classical.gen(1, 1, 1)
    assert gr_leading_term(b1.coeffs[4], 2, classical) == \
        classical.multiply(g1, g1) + classical.gen(1, 1, 2)


def test_gr_leading_term_degree_guard(setup11):
    alg, tab = setup11
    classical = CurrentAlgebra(1, 1, 5)
    with pytest.raises(ValueError):
        gr_leading_term(alg.gen(1, 1, 3), 1, classical)


def test_gr_bridge_report(setup11):
    alg, tab = setup11
    table = build_center_table(tab)
    classical = CurrentAlgebra(1, 1, 6)
    report = gr_bridge_report(tab, table, classical, max_r=4)
    assert report.ok
    ids = {c.check_id for c in report.checks}
    assert ids == {"gr-d", "gr-e", "gr-f", "gr-c", "gr-b"}


def test_gr_bridge_report_21(setup21):
    alg, tab = setup21
    table = build_center_table(tab)
    classical = CurrentAlgebra(2, 1, 5)
    report = gr_bridge_report(tab, table, classical, max_r=3)
    assert report.ok
    # higher-root entries are covered too
    assert any(c.check_id == "gr-e" and c.params.get("j") == 3
               for c in report.checks)


def test_independence_examples(setup11):
    alg, tab = setup11
    c = c_series(tab)
    rep = full_independence_check([("c1", c.coeffs[1]),
                                   ("c2", c.coeffs[2])], 3)
    assert rep.ok
    assert rep.checks[0].params == {"products": 6, "rank": 6}
    b1 = b_series(tab, 1)
    rep2 = full_independence_check([("c1", c.coeffs[1]), ("c2", c.coeffs[2]),
                                    ("b1_2", b1.coeffs[2])], 3)
    assert rep2.ok
    assert rep2.checks[0].params == {"products": 8, "rank": 8}
    single = full_independence_check([("c1", c.coeffs[1])], 2)
    assert single.ok


def test_independence_detects_dependence(setup11):
    alg, tab = setup11
    c1 = c_series(tab).coeffs[1]
    rep = full_independence_check([("a", c1), ("b", c1)], 2)
    assert not rep.ok


def test_independence_witness_order(setup11):
    """A repeated generator fails with the dependent exponent vectors in the
    order the products are enumerated: first generator slowest, ascending."""
    alg, tab = setup11
    d1, d2 = tab.d[1][1], tab.d[1][2]
    rep = full_independence_check([("a", d1), ("b", d1), ("c", d2)], 4)
    assert not rep.ok
    assert rep.checks[0].params == {"products": 22, "rank": 9}
    assert rep.checks[0].witness == ("dependent exponents: [(1, 0, 0), "
                                     "(1, 0, 1), (1, 1, 0), (1, 1, 1), (1, 2, 0)]")


def test_gr_bracket_compatibility(setup21):
    """Leading terms turn Yangian brackets into classical brackets whenever
    the loop degrees add without truncation."""
    alg, tab = setup21
    classical = CurrentAlgebra(2, 1, 4)
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                for l in range(1, 4):
                    for r, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
                        bracket = rtt_rhs(alg, (i, j, r), (k, l, s))
                        got = gr_leading_term(bracket, r + s - 2, classical)
                        want = classical.bracket(classical.gen(i, j, r - 1),
                                                 classical.gen(k, l, s - 1))
                        assert got == want, (i, j, k, l, r, s)


@pytest.mark.parametrize("flavour", ["p-center", "full-center"])
def test_freeness_shadow_11(setup11, flavour):
    alg, tab = setup11
    table = build_center_table(tab)
    for bound in (2, 3, 4):
        q = build_quotient(alg, bound, tab)
        rep = freeness_shadow_report(table, q, flavour)
        assert rep.ok, (bound, flavour, rep.checks[0].params)


@pytest.mark.parametrize("flavour", ["p-center", "full-center"])
def test_freeness_shadow_21(setup21, flavour):
    # cap 4 so the superscript-3 higher roots exist for the bound-3 span
    alg, tab = setup21
    table = build_center_table(tab)
    for bound in (2, 3):
        q = build_quotient(alg, bound, tab)
        rep = freeness_shadow_report(table, q, flavour)
        assert rep.ok, (bound, flavour, rep.checks[0].params)
        params = rep.checks[0].params
        assert params["products"] == params["dim_super"]


def test_centrality_report(setup11):
    alg, tab = setup11
    table = build_center_table(tab)
    report = centrality_report(table, c_max=3, b_max=3, square_bound=2)
    assert report.ok
    ids = {c.check_id for c in report.checks}
    assert "b1-vanishes" in ids and "central-c" in ids
    assert "central-square" in ids
    # odd b coefficients are recorded as data, never asserted
    recorded = [c for c in report.checks if c.check_id == "b-odd-recorded"]
    assert recorded and all(c.ok and c.value is not None for c in recorded)


def test_independence_zero_generator(setup11):
    alg, tab = setup11
    rep = full_independence_check([("zero", alg.zero())], 2)
    assert not rep.ok
    assert "zero generators" in rep.checks[0].witness


# -- the graded certificate of the freeness shadow ------------------------------


def _shadow_pair(monkeypatch, table, q):
    """Both flavours' payloads by the default path and by the forced exact
    walk, and what the graded certificate returned on the default path."""
    certify, seen = centers.graded_basis_count, []

    def spy(quotient, factors):
        seen.append(certify(quotient, factors))
        return seen[-1]

    def payloads():
        return [freeness_shadow_report(table, q, flavour).to_payload()
                for flavour in ("p-center", "full-center")]

    monkeypatch.setattr(centers, "graded_basis_count", spy)
    graded = payloads()
    # a declining certificate forces the straightened walk
    monkeypatch.setattr(centers, "graded_basis_count",
                        lambda quotient, factors: None)
    exact = payloads()
    monkeypatch.undo()
    return graded, exact, seen


@pytest.mark.parametrize("m, n, cap, order, bounds", [
    (1, 1, 7, 6, range(2, 7)),
    (2, 1, 5, 4, range(2, 5)),
    (1, 2, 5, 4, [4]),
    (2, 2, 4, 3, [3]),
    (3, 1, 4, 3, [3]),
])
def test_graded_shadow_matches_exact(monkeypatch, m, n, cap, order, bounds):
    alg = RTTAlgebra(Shape(m, n, cap))
    tab = build_table(alg, order)
    table = build_center_table(tab)
    for bound in bounds:
        q = build_quotient(alg, bound, tab)
        graded, exact, seen = _shadow_pair(monkeypatch, table, q)
        assert graded == exact, bound
        # the certificate holds here, so the graded path wrote the report
        assert seen == [q.dim_super] * 2, bound


def test_graded_shadow_fallback(monkeypatch):
    """At cap 3 the superscript-3 higher roots of (2,1) are missing, the
    count falls short of dim_super and the exact walk writes the report."""
    alg = RTTAlgebra(Shape(2, 1, 3))
    tab = build_table(alg, 3)
    q = build_quotient(alg, 3, tab)
    graded, exact, seen = _shadow_pair(monkeypatch, build_center_table(tab), q)
    assert seen == [None, None]
    assert graded == exact
    for payload in graded:
        (check,) = payload["instances"]
        assert check["params"]["products"] == check["params"]["rank"] == 277
        assert check["params"]["dim_super"] == 279
        assert check["witness"] == "0 dependent products"


def _with_odd_square_factor(setup11):
    """(1,1) at bound 4 with b_2^(2) swapped for the odd square (e^(1))^2:
    same degrees and count, but every product through it lies in the ideal."""
    alg, tab = setup11
    table = build_center_table(tab)
    odd = next(sq.element for sq in table.squares
               if sq.parity == 1 and sq.r == 1)
    b2 = list(table.b[2])
    b2[2] = odd
    swapped = replaced(table, b={**table.b, 2: b2})
    return swapped, build_quotient(alg, 4, tab)


def test_graded_shadow_declines_on_dependent_products(setup11, monkeypatch):
    table, q = _with_odd_square_factor(setup11)
    graded, exact, seen = _shadow_pair(monkeypatch, table, q)
    assert seen == [None, None]
    assert graded == exact
    (check,) = graded[0]["instances"]
    assert not check["pass"]
    assert check["params"]["rank"] < check["params"]["products"]


def test_graded_shadow_declines_without_full_ideal_span(setup11, monkeypatch):
    """(2): without an odd square led by (t, t) for each odd t that fits,
    the leads of gr(J) are not known to be the non-super words, so super
    product leads alone must not certify the basis."""
    table, q = _with_odd_square_factor(setup11)
    blind = replaced(q, odd_squares=())
    graded, exact, seen = _shadow_pair(monkeypatch, table, blind)
    assert seen == [None, None]
    assert graded == exact
    assert not graded[0]["instances"][0]["pass"]


def test_graded_shadow_needs_the_quotient_certificate(setup11, monkeypatch):
    """(1): without certificate_ok, ideal_rank need not count the non-super
    words, and the certificate must decline."""
    alg, tab = setup11
    q = build_quotient(alg, 4, tab)
    unproved = replaced(q, certificate_ok=False)
    graded, exact, seen = _shadow_pair(monkeypatch, build_center_table(tab),
                                       unproved)
    assert seen == [None, None]
    assert graded == exact


def test_graded_shadow_needs_every_square_lead(setup11, monkeypatch):
    """(2): one odd letter without its square's lead, here the last one,
    with 2r = bound, leaves the products of a genuine table uncertified."""
    alg, tab = setup11
    q = build_quotient(alg, 4, tab)
    assert q.odd_squares[-1].degree() == q.bound
    short = replaced(q, odd_squares=q.odd_squares[:-1])
    graded, exact, seen = _shadow_pair(monkeypatch, build_center_table(tab),
                                       short)
    assert seen == [None, None]
    assert graded == exact
    assert graded[0]["instances"][0]["pass"]


def test_graded_count_declines_a_last_nonsuper_lead():
    """(5) at the last non-super column of a block.  At bound 2 the
    products of the letters, each at most once, and of the even squares
    t[i,i,1]^2 are the square-free words and those squares: every super
    word once, so they certify.  t[1,2,1]^2 or t[2,1,1]^2, each the one
    non-super word of its block, in place of one square must not."""
    alg = RTTAlgebra(Shape(1, 1, 2))
    q = build_quotient(alg, 2, build_table(alg, 1))

    def count(words):
        return centers.graded_basis_count(q, [
            (Element(alg, frozenset({w})), word_degree(w), 1) for w in words])

    letters = alg.generators(2)
    even_squares = [g + g for g in letters if g[2] == 1 and g not in alg._odd]
    assert count(letters + even_squares) == q.dim_super
    for g in letters:
        if g[2] == 1 and g in alg._odd:
            block, col = q.columns.locate(g + g)
            assert col == q.split[block] - 1
            assert count(letters + even_squares[1:] + [g + g]) is None


def _p_center_factors(tab, q, monkeypatch):
    """The factors freeness_shadow_report hands the graded certificate for
    the p-center flavour, checked to certify as they are."""
    calls = []
    monkeypatch.setattr(centers, "graded_basis_count",
                        lambda quotient, factors: calls.append(factors))
    freeness_shadow_report(build_center_table(tab), q, "p-center")
    monkeypatch.undo()
    factors = list(calls[0])
    assert centers.graded_basis_count(q, factors) == q.dim_super
    return factors


def test_graded_count_declines_off_nominal_degree(setup11, monkeypatch):
    """(3): d_1^(1) and d_1^(2) trading nominal degrees keep the count and
    leave the product leads distinct and super, yet the walk would place
    them at the wrong degrees, so the certificate must decline."""
    alg, tab = setup11
    q = build_quotient(alg, 4, tab)
    factors = _p_center_factors(tab, q, monkeypatch)
    k1, k2 = (factors.index((tab.d[1][r], r, 1)) for r in (1, 2))
    factors[k1], factors[k2] = (tab.d[1][1], 2, 1), (tab.d[1][2], 1, 1)
    assert centers.graded_basis_count(q, factors) is None


def test_graded_count_declines_on_repeated_leads(setup11, monkeypatch):
    """(4): d_2^(1) swapped for a second d_1^(1) keeps the count and every
    lead super, but products through both copies lead with t[1,1,1]^2, as
    does b_1^(2), so two leads meet one column and the count must decline."""
    alg, tab = setup11
    q = build_quotient(alg, 4, tab)
    factors = _p_center_factors(tab, q, monkeypatch)
    factors[factors.index((tab.d[2][1], 1, 1))] = (tab.d[1][1], 1, 1)
    assert centers.graded_basis_count(q, factors) is None


@pytest.mark.parametrize("m, n, cap", [(1, 1, 6), (2, 1, 5), (2, 2, 4),
                                       (1, 2, 4)])
def test_leading_words(m, n, cap):
    """Each walked generator leads with its own letter, c^(r) with
    t[1,1,r], b_i^(2r) with t[i,i,r]^2 and every square x^2 with x's
    letter twice."""
    alg = RTTAlgebra(Shape(m, n, cap))
    tab = build_table(alg, cap)
    for kind, a, b, r, x in tab.generators(cap):
        assert triples(leading_word(x)) == ((a, b, r),), (kind, a, b, r)
    table = build_center_table(tab)
    for r in range(1, cap + 1):
        assert triples(leading_word(table.c[r])) == ((1, 1, r),), r
    for i, coeffs in table.b.items():
        for r in range(1, cap // 2 + 1):
            assert triples(leading_word(coeffs[2 * r])) == ((i, i, r),) * 2, \
                (i, r)
    assert table.squares
    for sq in table.squares:
        t = (sq.i, sq.j, sq.r)
        assert triples(leading_word(sq.element)) == (t, t), sq.label


def test_graded_shadow_declines_below_nominal_degree(setup11, monkeypatch):
    """A factor whose top part sits below its nominal degree has no symbol
    there; the certificate must decline rather than misplace it."""
    alg, tab = setup11
    d1 = dict(tab.d[1])
    d1[2] = tab.d[1][1]
    low = replaced(tab, d={**tab.d, 1: d1})
    table = replaced(build_center_table(tab), tab=low)
    q = build_quotient(alg, 4, tab)
    graded, exact, seen = _shadow_pair(monkeypatch, table, q)
    assert seen[0] is None
    assert graded == exact


def test_product_walk_matches_full_recursion():
    """Cutting dead branches keeps every product and the emission order."""
    def full(factors, bound):
        out = []

        def rec(k, remaining, prod):
            if k == len(factors):
                out.append((prod, bound - remaining))
                return
            value, deg, top = factors[k]
            mult = 0
            while True:
                rec(k + 1, remaining - mult * deg, prod)
                mult += 1
                if mult * deg > remaining or (top is not None and mult > top):
                    break
                prod = prod + (value,)
        rec(0, bound, ())
        return out

    rng = random.Random(7)
    for _ in range(200):
        factors = [(k, rng.randint(1, 4), rng.choice([None, 1, 2]))
                   for k in range(rng.randint(0, 6))]
        bound = rng.randint(0, 9)
        got = bounded_words([v for v, _, _ in factors],
                            [deg for _, deg, _ in factors], bound,
                            [bound if top is None else top
                             for _, _, top in factors],
                            lambda p, v: p + (v,), ())
        assert list(got) == full(factors, bound)
