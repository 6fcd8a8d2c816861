import pytest

from yangian2 import RTTAlgebra, Shape, build_table
from yangian2.centers import build_quotient, leading_word
from yangian2 import drinfeld
from yangian2.drinfeld import (ALL_FAMILIES, RELATION_TEXT, TWINS,
                               _relation_instances, drinfeld_generators,
                               drinfeld_pbw_check, higher_roots,
                               transposed_table, verify_drinfeld_relations)
from yangian2.report import Report
from yangian2.rtt import Element

from oracles import (ascending_pbw_rank, loop_degree, parity, replaced,
                     triples, verify_odd_square_relations)


@pytest.fixture(scope="module")
def tab11():
    alg = RTTAlgebra(Shape(1, 1, 5))
    return build_table(alg, 4)


@pytest.fixture(scope="module")
def tab21():
    alg = RTTAlgebra(Shape(2, 1, 4))
    return build_table(alg, 3)


def test_relation_catalogue_is_complete():
    assert len(ALL_FAMILIES) == 17
    assert ALL_FAMILIES[0] == "D1" and ALL_FAMILIES[-1] == "D17"
    assert all(RELATION_TEXT[f] for f in ALL_FAMILIES)


def test_table_examples(tab11):
    alg = tab11.alg
    assert tab11.d[1][0] == alg.one()
    assert tab11.d[1][1] == alg.gen(1, 1, 1)
    assert tab11.e[(1, 2)][1] == alg.gen(1, 2, 1)
    assert tab11.f[(2, 1)][1] == alg.gen(2, 1, 1)
    assert tab11.dprime[1][1] == alg.gen(1, 1, 1)


def test_dprime_convolution(tab11):
    alg = tab11.alg
    for i in (1, 2):
        for r in range(tab11.order + 1):
            forward = alg.zero()
            backward = alg.zero()
            for t in range(r + 1):
                forward = forward + alg.multiply(tab11.d[i][t],
                                                 tab11.dprime[i][r - t])
                backward = backward + alg.multiply(tab11.dprime[i][t],
                                                   tab11.d[i][r - t])
            expected = alg.one() if r == 0 else alg.zero()
            assert forward == expected
            assert backward == expected


def test_d1_checks_the_side_the_inverse_was_not_built_on(monkeypatch):
    """series_inv builds d'_N as the left inverse, from products
    d'^(s) d^(t); D1 sums d^(t) d'^(s).  So D1's products at i = N with
    neither factor 1 are the mirrors of products the inverse formed, and,
    but for the square d^(1) d'^(1) = (d^(1))^2, none of them was formed."""
    alg = RTTAlgebra(Shape(2, 1, 6))
    tab = drinfeld_generators(alg, 6)
    size = alg.shape.size
    formed = []
    real = alg.multiply

    def spy(x, y):
        formed.append((x.words, y.words))
        return real(x, y)

    monkeypatch.setattr(alg, "multiply", spy)
    tab.dprime[size]
    built = set(formed)
    one = alg.one().words
    checked = set()
    for params, residual in _relation_instances(tab, "D1", tab.order):
        if params["i"] == size:
            assert not residual
            checked |= {(x, y) for x, y in formed if one not in (x, y)}
        formed.clear()
    assert len(checked) == sum(r - 1 for r in range(2, tab.order + 1))
    assert {(y, x) for x, y in checked} <= built
    assert {(x, y) for x, y in checked & built} == {
        (tab.d[size][1].words, tab.dprime[size][1].words)}
    assert tab.d[size][1] == tab.dprime[size][1]


def _count_series_inv(monkeypatch):
    """Route every binding of series_inv through a spy; the list of the
    series it was called on, and the original."""
    from yangian2 import series
    calls = []
    original = series.series_inv

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(series, "series_inv", counting)
    monkeypatch.setattr(drinfeld, "series_inv", counting)
    return calls, original


def test_one_series_inverse_per_pivot(monkeypatch):
    """d' reuses the N - 1 Gauss pivot inverses that F and E use; d'_N
    inverts the last pivot on its first read, once."""
    calls, original = _count_series_inv(monkeypatch)
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        calls.clear()
        alg = RTTAlgebra(Shape(m, n, 4))
        size = alg.shape.size
        tab = drinfeld_generators(alg, 3)
        assert len(calls) == size - 1
        assert list(tab.dprime) == [*range(1, size + 1)]
        for i in range(1, size):
            tab.dprime[i]
        assert len(calls) == size - 1
        first = tab.dprime[size]
        assert len(calls) == size and calls[-1] == tab.d_series(size)
        assert tab.dprime[size] is first
        assert len(calls) == size
        for i in range(1, size + 1):
            dinv = original(tab.d_series(i))
            assert tab.dprime[i] == dict(enumerate(dinv.coeffs))
        with pytest.raises(KeyError):
            tab.dprime[size + 1]


@pytest.mark.parametrize("command", [
    ["-K", "4", "verify", "centers"], ["-K", "4", "pbw"], ["quotient-dim"]])
def test_commands_without_dprime_skip_the_last_pivot(monkeypatch, tmp_path,
                                                     command):
    """verify centers, pbw and quotient-dim read no d'_N, so the last pivot
    is never inverted: N - 1 inversions, none of them of d_N."""
    from yangian2 import cli
    calls, _ = _count_series_inv(monkeypatch)
    built = []
    real = drinfeld.drinfeld_generators

    def keep(alg, order):
        built.append(real(alg, order))
        return built[-1]

    monkeypatch.setattr(drinfeld, "drinfeld_generators", keep)
    code = cli.main(["--m", "2", "--n", "1", "-L", "4",
                     "--out", str(tmp_path / "report.json"), *command])
    assert code == 0
    (tab,) = built
    size = tab.alg.shape.size
    assert len(calls) == size - 1
    assert tab.d_series(size) not in calls


def test_higher_roots_11_unchanged(tab11):
    assert sorted(tab11.e) == [(1, 2)]
    assert sorted(tab11.f) == [(2, 1)]


def test_higher_roots_21_brackets(tab21):
    alg = tab21.alg
    got = tab21.e[(1, 3)][1]
    expected = alg.commutator(tab21.e[(1, 2)][1], tab21.e[(2, 3)][1])
    assert got == expected
    got_f = tab21.f[(3, 1)][1]
    expected_f = alg.commutator(tab21.f[(3, 2)][1], tab21.f[(2, 1)][1])
    assert got_f == expected_f


def test_higher_roots_leading_letter(tab21):
    # top loop-degree part of e_(1,3)^(r) is the single letter t[1,3,r]
    for r in (1, 2):
        el = tab21.e[(1, 3)][r]
        top = {triples(w) for w in el.words
               if sum(s - 1 for _, _, s in triples(w)) == r - 1}
        assert top == {((1, 3, r),)}


def test_parity_coherence(tab21):
    alg = tab21.alg
    for i in tab21.d:
        for r in range(1, tab21.order + 1):
            assert parity(tab21.d[i][r]) == 0
    for (i, j), by_r in tab21.e.items():
        for r, el in by_r.items():
            assert parity(el) == alg.shape.parity(i, j)
    for (j, i), by_r in tab21.f.items():
        for r, el in by_r.items():
            assert parity(el) == alg.shape.parity(j, i)


def test_loop_degree_tags(tab21):
    for i in tab21.d:
        for r in range(1, tab21.order + 1):
            assert loop_degree(tab21.d[i][r]) == r - 1
            assert tab21.d[i][r].degree() <= r
    for by_r in list(tab21.e.values()) + list(tab21.f.values()):
        for r, el in by_r.items():
            assert loop_degree(el) == r - 1


def test_relations_11(tab11):
    report = verify_drinfeld_relations(tab11, 4)
    assert report.ok
    counts = report.counts_by_id()
    for family in ALL_FAMILIES:
        assert family in counts
    # at one-one blocks every family beyond the simple-root ones is vacuous
    for family in ("D8", "D9", "D10", "D11", "D12", "D13", "D14", "D15",
                   "D16", "D17"):
        assert counts[family]["instances"] == 0
        assert counts[family]["vacuous"]
    for family in ("D1", "D2", "D3", "D4", "D5", "D6", "D7"):
        assert counts[family]["instances"] > 0


def test_relations_21(tab21):
    report = verify_drinfeld_relations(tab21, 3)
    assert report.ok
    counts = report.counts_by_id()
    assert counts["D8"]["instances"] > 0
    assert counts["D12"]["instances"] > 0
    assert counts["D16"]["vacuous"]


def test_relation_d5_example(tab11):
    alg = tab11.alg
    lhs = alg.commutator(tab11.e_simple(1, 1), tab11.f_simple(1, 1))
    rhs = tab11.d[2][1] + tab11.dprime[1][1]
    assert lhs == rhs


def test_family_filter(tab11):
    report = verify_drinfeld_relations(tab11, 3, families=["D2", "D6"])
    seen = {c.check_id for c in report.checks}
    assert seen == {"D2", "D6"}


def test_quartic_nonvacuous_at_22():
    alg = RTTAlgebra(Shape(2, 2, 4))
    tab = build_table(alg, 2)
    report = verify_drinfeld_relations(tab, 4, families=["D16", "D17"])
    assert report.ok
    counts = report.counts_by_id()
    assert counts["D16"]["instances"] == 1
    assert counts["D17"]["instances"] == 1


def test_every_family_nonvacuous_at_22():
    """Four blocks make even the distant and quartic families bite."""
    alg = RTTAlgebra(Shape(2, 2, 4))
    tab = build_table(alg, 3)
    report = verify_drinfeld_relations(tab, 4)
    assert report.ok, report.failures[:3]
    counts = report.counts_by_id()
    for family in ALL_FAMILIES:
        assert counts[family]["instances"] > 0, family
    assert counts["D10"]["instances"] == 12
    assert counts["D16"]["instances"] == 1


def test_budget_guard():
    from yangian2.errors import DegreeCapError
    alg = RTTAlgebra(Shape(2, 1, 4))
    shallow = build_table(alg, 2)
    with pytest.raises(DegreeCapError) as err:
        verify_drinfeld_relations(shallow, 5)
    assert "cap" in str(err.value)
    with pytest.raises(DegreeCapError) as err2:
        verify_drinfeld_relations(shallow, 4)
    assert "order" in str(err2.value)
    # quartic families reach only superscript budget-3, so order 2 suffices
    report = verify_drinfeld_relations(shallow, 4, families=["D16", "D17"])
    assert report.ok  # vacuous at (2,1), still well-defined


def test_relations_budget6_11():
    alg = RTTAlgebra(Shape(1, 1, 6))
    tab = build_table(alg, 6)
    report = verify_drinfeld_relations(tab, 6)
    assert report.ok, report.failures[:3]
    assert report.counts_by_id()["D1"]["instances"] == 14


def test_relations_31():
    alg = RTTAlgebra(Shape(3, 1, 4))
    tab = build_table(alg, 3)
    report = verify_drinfeld_relations(tab, 4)
    assert report.ok, report.failures[:3]
    counts = report.counts_by_id()
    assert counts["D10"]["instances"] > 0
    assert counts["D16"]["instances"] == 1


def test_odd_square_relations_in_quotient(tab11):
    alg = tab11.alg
    quotient = build_quotient(alg, 5, tab11)
    report = verify_odd_square_relations(tab11, 4, quotient)
    assert report.ok
    pairs = {(c.params["r"], c.params["s"]) for c in report.checks}
    assert (1, 2) in pairs and (1, 3) in pairs
    # sanity: the bracket is nonzero upstairs for r != s
    upstairs = alg.commutator(tab11.e_simple(1, 1), tab11.e_simple(1, 2))
    assert upstairs


def test_pbw_check_small(tab11):
    r0 = drinfeld_pbw_check(tab11, 0)
    assert r0.ok
    assert r0.checks[0].params["rank"] == 1
    r1 = drinfeld_pbw_check(tab11, 1)
    assert r1.ok
    assert r1.checks[0].params["rank"] == 5
    r2 = drinfeld_pbw_check(tab11, 2)
    assert r2.ok
    assert r2.checks[0].params["rank"] == 19


def test_pbw_check_super(tab11):
    report = drinfeld_pbw_check(tab11, 2, super_only=True)
    assert report.ok
    assert report.checks[0].params["monomials"] == 17
    assert report.checks[0].params["rank"] == 17


def test_pbw_check_21_full_rank(tab21):
    # cap 4, order 3: every root family reaches superscript 3
    report = drinfeld_pbw_check(tab21, 3)
    assert report.ok
    assert report.checks[0].params["rank"] == 319
    assert report.checks[0].params["dim_full"] == 319


@pytest.mark.parametrize("m, n, cap, bound, super_only, monomials", [
    (1, 1, 6, 6, False, 990),
    (2, 1, 5, 4, True, 1100),
])
def test_pbw_check_multiplies_along_shared_prefixes(monkeypatch, m, n, cap,
                                                    bound, super_only,
                                                    monomials):
    """Each non-empty monomial costs one multiply: its product is the
    product of its prefix times its last generator."""
    alg = RTTAlgebra(Shape(m, n, cap))
    tab = build_table(alg, cap)
    calls = []
    multiply = alg.multiply

    def counted(x, y):
        calls.append(1)
        return multiply(x, y)

    monkeypatch.setattr(alg, "multiply", counted)
    report = drinfeld_pbw_check(tab, bound, super_only=super_only)
    assert report.ok
    assert report.checks[0].params["monomials"] == monomials
    assert len(calls) == monomials - 1


def test_pbw_check_dependence_witness(tab11, monkeypatch):
    """A forced dependence names the first dependent monomials, each as its
    generator symbols in enumeration order."""
    alg = tab11.alg
    monkeypatch.setitem(tab11.d[1], 2, alg.multiply(tab11.d[1][1], tab11.d[1][1]))
    report = drinfeld_pbw_check(tab11, 3)
    assert not report.ok
    assert report.checks[0].params == {"monomials": 59, "rank": 54,
                                       "dim_full": 59}
    assert report.checks[0].witness == (
        "dependent: [(('d', 1, 1, 1), ('d', 1, 1, 1)), "
        "(('d', 1, 1, 1), ('d', 1, 1, 1), ('f', 2, 1, 1)), "
        "(('d', 1, 1, 1), ('d', 1, 1, 1), ('e', 1, 2, 1))]")


@pytest.mark.parametrize("super_only", [False, True])
@pytest.mark.parametrize("m, n, cap, bound, corrupt", [
    (1, 1, 5, 4, False), (2, 1, 4, 3, False), (1, 2, 4, 3, False),
    (2, 2, 3, 2, False), (1, 1, 5, 4, True), (2, 1, 4, 3, True),
])
def test_pbw_check_lead_order_keeps_the_certificate(monkeypatch, m, n, cap,
                                                    bound, corrupt,
                                                    super_only):
    """The PBW check lays its columns out in leading_word's order, so each
    generator's pivot is its lead; the count, the rank and every
    dependent product are those of the ascending column order."""
    tab = build_table(RTTAlgebra(Shape(m, n, cap)), cap)
    if corrupt:     # d_1^(2) := (d_1^(1))^2, so that products depend
        d11 = tab.d[1][1]
        tab = replaced(tab, d={**tab.d, 1: {**tab.d[1],
                                             2: tab.alg.multiply(d11, d11)}})
    seen = []
    real = drinfeld.product_rank

    def recorded(alg, values, degrees, bound, vector, max_mult):
        for x in values:
            low = {block: row & -row for block, row in vector(x).items()}
            assert low == vector(Element(alg, frozenset([leading_word(x)])))
        seen.append(real(alg, values, degrees, bound, vector, max_mult))
        return seen[-1]

    monkeypatch.setattr(drinfeld, "product_rank", recorded)
    report = drinfeld_pbw_check(tab, bound, super_only=super_only)
    count, rank, dependent = ascending_pbw_rank(tab, bound, super_only)
    assert seen == [(count, rank, dependent)]
    assert report.checks[0].params["rank"] == rank
    assert report.ok == (not corrupt) and bool(dependent) == corrupt


def test_pbw_check_needs_complete_roots():
    from yangian2.errors import DegreeCapError
    # higher roots stop at superscript cap - 1: 2 at cap 3, none at cap 1
    for cap, bound in ((3, 3), (1, 1)):
        tab = build_table(RTTAlgebra(Shape(2, 1, cap)), cap)
        assert tab.root_top == cap - 1
        with pytest.raises(DegreeCapError, match="every root family"):
            drinfeld_pbw_check(tab, bound)


def test_extraction_matches_gauss_convention():
    # e coefficients come from inv(d) * t, f from t * inv(d)
    alg = RTTAlgebra(Shape(1, 1, 3))
    tab = drinfeld_generators(alg, 2)
    e2 = tab.e[(1, 2)][2]
    assert e2 == alg.gen(1, 2, 2) + alg.gen(1, 1, 1) * alg.gen(1, 2, 1)
    f2 = tab.f[(2, 1)][2]
    assert f2 == alg.gen(2, 1, 2) + alg.gen(2, 1, 1) * alg.gen(1, 1, 1)


def test_commutators_straighten_less():
    """On fresh algebras the Leibniz commutators of a Drinfeld table leave
    fewer straightening cache entries than the two products would."""
    entries, results = [], []
    for leibniz in (True, False):
        alg = RTTAlgebra(Shape(2, 1, 6))
        tab = build_table(alg, 5)
        gens = [x for j in (1, 2) for r in (1, 2, 3)
                for x in (tab.e_simple(j, r), tab.f_simple(j, r))]
        gens += [tab.d[i][r] for i in (1, 2, 3) for r in (1, 2)]
        before = len(alg._nf_cache)
        if leibniz:
            results.append([alg.commutator(x, y) for x in gens for y in gens])
        else:
            results.append([alg.multiply(x, y) + alg.multiply(y, x)
                            for x in gens for y in gens])
        entries.append(len(alg._nf_cache) - before)
    assert results[0] == results[1]
    assert any(results[0])
    assert 0 < entries[0] < entries[1]


def test_family_brackets_computed_once(monkeypatch):
    """Within a family no commutator is formed twice for the same pair;
    the nested families and D8/D9 would repeat some without the memo."""
    alg = RTTAlgebra(Shape(2, 1, 6))
    tab = build_table(alg, 5)
    calls = []
    original = alg.commutator

    def counting(x, y):
        calls.append((x.words, y.words))
        return original(x, y)

    monkeypatch.setattr(alg, "commutator", counting)
    for family in ("D8", "D9", "D12", "D13", "D14", "D15"):
        calls.clear()
        report = verify_drinfeld_relations(tab, 6, families=[family])
        assert report.ok and calls, family
        assert len(set(calls)) == len(calls), family


def _direct_instances(tab, family, budget):
    """Every family's instances with each bracket and each right-hand sum
    formed directly, term by term, as the relations display them."""
    alg = tab.alg
    size = alg.shape.size
    n_ef = size - 1
    com, mul = alg.commutator, alg.multiply
    pairs = [(r, s) for r in range(1, budget) for s in range(1, budget - r + 1)]
    if family == "D1":
        for i in range(1, size + 1):
            for r in range(0, min(budget, tab.order) + 1):
                acc = alg.one() if r == 0 else alg.zero()
                for t in range(r + 1):
                    acc = acc + mul(tab.d[i][t], tab.dprime[i][r - t])
                yield {"i": i, "r": r}, acc
    elif family == "D2":
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                for r, s in pairs:
                    yield ({"i": i, "j": j, "r": r, "s": s},
                           com(tab.d[i][r], tab.d[j][s]))
    elif family in ("D3", "D4"):
        for i in range(1, size + 1):
            for j in range(1, n_ef + 1):
                for r, s in pairs:
                    if family == "D3":
                        res = com(tab.d[i][r], tab.e_simple(j, s))
                    else:
                        res = com(tab.d[i][r], tab.f_simple(j, s))
                    if i == j or i == j + 1:
                        for t in range(r):
                            if family == "D3":
                                res = res + mul(tab.d[i][t],
                                                tab.e_simple(j, r + s - 1 - t))
                            else:
                                res = res + mul(tab.f_simple(j, r + s - 1 - t),
                                                tab.d[i][t])
                    yield {"i": i, "j": j, "r": r, "s": s}, res
    elif family == "D5":
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                for r, s in pairs:
                    res = com(tab.e_simple(i, r), tab.f_simple(j, s))
                    if i == j:
                        for t in range(r + s):
                            res = res + mul(tab.dprime[i][t],
                                            tab.d[i + 1][r + s - 1 - t])
                    yield {"i": i, "j": j, "r": r, "s": s}, res
    elif family in ("D6", "D7"):
        pick = tab.e_simple if family == "D6" else tab.f_simple
        for j in range(1, n_ef + 1):
            for r, s in pairs:
                res = com(pick(j, r), pick(j, s))
                for t in list(range(1, s)) + list(range(1, r)):
                    res = res + mul(pick(j, t), pick(j, r + s - 1 - t))
                yield {"j": j, "r": r, "s": s}, res
    elif family in ("D8", "D9"):
        pick = tab.e_simple if family == "D8" else tab.f_simple
        for j in range(1, n_ef):
            for r in range(1, budget):
                for s in range(1, budget - r):
                    res = (com(pick(j, r + 1), pick(j + 1, s))
                           + com(pick(j, r), pick(j + 1, s + 1)))
                    if family == "D8":
                        res = res + mul(pick(j, r), pick(j + 1, s))
                    else:
                        res = res + mul(pick(j + 1, s), pick(j, r))
                    yield {"j": j, "r": r, "s": s}, res
    elif family in ("D10", "D11"):
        pick = tab.e_simple if family == "D10" else tab.f_simple
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                if abs(i - j) > 1:
                    for r, s in pairs:
                        yield ({"i": i, "j": j, "r": r, "s": s},
                               com(pick(i, r), pick(j, s)))
    elif family in ("D12", "D13"):
        pick = tab.e_simple if family == "D12" else tab.f_simple
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                if abs(i - j) != 1:
                    continue
                for r in range(1, budget - 1):
                    for s in range(1, budget - r):
                        for t in range(1, budget - r - s + 1):
                            yield ({"i": i, "j": j, "r": r, "s": s, "t": t},
                                   com(com(pick(i, r), pick(j, s)), pick(j, t))
                                   + com(com(pick(i, r), pick(j, t)),
                                         pick(j, s)))
    elif family in ("D14", "D15"):
        pick = tab.e_simple if family == "D14" else tab.f_simple
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                if abs(i - j) != 1:
                    continue
                for t in range(1, (budget - 1) // 2 + 1):
                    for r in range(1, budget - 2 * t + 1):
                        yield ({"i": i, "j": j, "r": r, "t": t},
                               com(com(pick(i, r), pick(j, t)), pick(j, t)))
    else:
        pick = tab.e_simple if family == "D16" else tab.f_simple
        for i in range(2, n_ef):
            for r in range(1, budget - 2):
                for s in range(1, budget - r - 1):
                    yield ({"i": i, "r": r, "s": s},
                           com(com(pick(i - 1, r), pick(i, 1)),
                               com(pick(i, 1), pick(i + 1, s))))


@pytest.fixture(scope="module")
def tab21_l6():
    return build_table(RTTAlgebra(Shape(2, 1, 6)), 5)


def _direct_report(tab, budget, families):
    """The checks verify_drinfeld_relations should write, from
    _direct_instances: every family, the f side too, formed directly."""
    report = Report("drinfeld-relations")
    for family in families:
        count = 0
        for params, residual in _direct_instances(tab, family, budget):
            count += 1
            report.add(family, params, not residual,
                       witness=residual.canonical() if residual else None)
        if count == 0:
            report.add(family, {"instances": 0}, True, value="vacuous")
    return report


@pytest.mark.parametrize("m, n, cap, families", [
    (2, 1, 6, ALL_FAMILIES),
    (1, 2, 6, ALL_FAMILIES),
    (2, 2, 5, ("D12", "D16", "D17")),
])
def test_instances_match_direct_sums(m, n, cap, families):
    """Memoised brackets and running sums give every e-side family the
    stream of (params, residual) pairs that direct evaluation gives; an
    f-side family has no instances of its own, and its report is the
    direct one."""
    tab, budget = build_table(RTTAlgebra(Shape(m, n, cap)), cap - 1), cap
    for family in families:
        if family in TWINS:
            with pytest.raises(ValueError, match=family):
                next(_relation_instances(tab, family, budget))
            report = verify_drinfeld_relations(tab, budget, [family])
            assert (report.checks
                    == _direct_report(tab, budget, [family]).checks), family
        else:
            got = list(_relation_instances(tab, family, budget))
            assert got == list(_direct_instances(tab, family, budget)), family


def test_letter_tables_once_per_letter_and_operand():
    """Over a whole relation run, each (letter, operand) pair met by a
    commutator builds one letter table.  The letters are those of the
    operand that the Leibniz rule expands, the one with more letters (x on
    a tie), and [x, x] expands nothing."""
    alg = RTTAlgebra(Shape(2, 1, 6))
    tab = build_table(alg, 5)
    alg._letter_cache.clear()
    pairs, original = set(), alg.commutator

    def letters(z):
        return sum(map(len, z.words))

    def recording(x, y):
        if x.words != y.words:
            if letters(y) > letters(x):
                x, y = y, x
            pairs.update((a, y.words) for w in x.words for a in triples(w))
        return original(x, y)

    alg.commutator = recording
    report = verify_drinfeld_relations(tab, 6)
    assert report.ok
    assert len(pairs) > 100
    assert len(alg._letter_cache) == len(pairs)


def test_d2_brackets_each_unordered_pair_once(tab21_l6, monkeypatch):
    alg = tab21_l6.alg
    calls, original = [], alg.commutator

    def counting(x, y):
        calls.append(frozenset((x.words, y.words)))
        return original(x, y)

    monkeypatch.setattr(alg, "commutator", counting)
    instances = list(_relation_instances(tab21_l6, "D2", 6))
    wanted = {frozenset((tab21_l6.d[p["i"]][p["r"]].words,
                         tab21_l6.d[p["j"]][p["s"]].words))
              for p, _ in instances}
    assert len(instances) > len(wanted)
    assert len(calls) == len(set(calls)) and set(calls) == wanted


@pytest.mark.parametrize("family", ["D3", "D5", "D6"])
def test_right_hand_products_once_per_block(tab21_l6, monkeypatch, family):
    """Running sums form each product of a block once, and only the
    products that the displayed sums contain."""
    alg = tab21_l6.alg
    calls, original = [], alg.multiply

    def counting(x, y):
        calls.append((x.words, y.words))
        return original(x, y)

    monkeypatch.setattr(alg, "multiply", counting)
    made, displayed = {}, {}
    for blocks, instances in ((made, _relation_instances),
                              (displayed, _direct_instances)):
        for params, _ in instances(tab21_l6, family, 6):
            block = (params.get("i"), params["j"])
            blocks.setdefault(block, []).extend(calls)
            calls.clear()
    assert made.keys() == displayed.keys()
    assert any(made.values())
    for block, products in made.items():
        assert len(products) == len(set(products)), (family, block)
        assert set(products) == set(displayed[block]), (family, block)


def _loops_walk(tab, bound):
    """The walk as the callers once wrote it: d, then e, then f."""
    out = []
    for i in sorted(tab.d):
        for r in range(1, min(bound, tab.order) + 1):
            out.append(("d", i, i, r, tab.d[i][r]))
    for (i, j), by_r in sorted(tab.e.items()):
        for r in sorted(by_r):
            if r <= bound:
                out.append(("e", i, j, r, by_r[r]))
    for (j, i), by_r in sorted(tab.f.items()):
        for r in sorted(by_r):
            if r <= bound:
                out.append(("f", j, i, r, by_r[r]))
    return out


@pytest.fixture(scope="module")
def tab31():
    return build_table(RTTAlgebra(Shape(3, 1, 5)), 4)


@pytest.mark.parametrize("name", ["tab11", "tab21", "tab31"])
def test_generators_walk_order(request, name):
    """tab.generators(bound) yields what the hand-written loops did, in the
    same order, for bounds below, at and above cap - 1."""
    tab = request.getfixturevalue(name)
    top = tab.alg.shape.cap - 1
    # the table was filled root by root: dict order is not key order
    assert list(tab.e) != sorted(tab.e) or tab.alg.shape.size == 2
    for bound in (top - 1, top, top + 1):
        got = list(tab.generators(bound))
        want = _loops_walk(tab, bound)
        assert [g[:4] for g in got] == [w[:4] for w in want], bound
        assert all(g[4] is w[4] for g, w in zip(got, want))
        assert {g[0] for g in got} == {"d", "e", "f"}


# -- the transposed f side ------------------------------------------------------


@pytest.mark.parametrize("m, n, cap", [(1, 1, 6), (2, 1, 6), (1, 2, 6),
                                       (2, 2, 5)])
def test_tables_are_transpose_symmetric(m, n, cap):
    """tau fixes d_i^(r) and sends f_i^(r) to e_i^(r) on the Gauss table,
    so the table is its own transposed table."""
    tab = build_table(RTTAlgebra(Shape(m, n, cap)), cap - 1)
    assert transposed_table(tab, cap) is tab


def test_twins_precede_their_mirrors():
    """Each f-side family follows its e-side twin and shares its text up
    to e -> f; D1, D2 and D5 have no twin."""
    assert sorted(TWINS, key=ALL_FAMILIES.index) == [
        "D4", "D7", "D9", "D11", "D13", "D15", "D17"]
    for f_side, e_side in TWINS.items():
        assert ALL_FAMILIES.index(f_side) == ALL_FAMILIES.index(e_side) + 1
        assert "f_" in RELATION_TEXT[f_side] and "e_" in RELATION_TEXT[e_side]


def test_d7_reindexing(tab21_l6):
    """tau(P_k) = P_n + P_(n-k+1) with P_k = sum_{t<k} x^(t) x^(n-t): the
    step that makes D7 the transpose of D6."""
    tab, alg = tab21_l6, tab21_l6.alg
    for j in (1, 2):
        for n in range(2, 6):
            def prefix(pick, k):
                acc = alg.zero()
                for t in range(1, k):
                    acc = acc + pick(j, t) * pick(j, n - t)
                return acc
            for k in range(1, n + 1):
                image = alg.transpose(prefix(tab.e_simple, k))
                assert image == (prefix(tab.f_simple, n)
                                 + prefix(tab.f_simple, n - k + 1))
                if 1 < k < n:
                    assert image != prefix(tab.f_simple, k)


def _reports(tab, budget, families, monkeypatch):
    """The report of verify_drinfeld_relations, the one built from
    _direct_instances, and the (family, table) pairs that reached
    _relation_instances, the table named "tab" when it was tab itself and
    "tau" otherwise."""
    reached = []
    original = drinfeld._relation_instances

    def spying(table, family, budget):
        reached.append((family, "tab" if table is tab else "tau"))
        return original(table, family, budget)

    with monkeypatch.context() as patch:
        patch.setattr(drinfeld, "_relation_instances", spying)
        report = verify_drinfeld_relations(tab, budget, families)
    return report, _direct_report(tab, budget, families), reached


@pytest.mark.parametrize("m, n, cap, families", [
    (2, 1, 6, ALL_FAMILIES),
    (1, 2, 6, ALL_FAMILIES),
    (2, 2, 5, ("D12", "D13", "D16", "D17")),
])
def test_mirror_matches_direct_reports(monkeypatch, m, n, cap, families):
    """Transposed e-side residuals report what the f-side families report
    directly; on a table that is its own transposed table the chosen twins'
    residuals are reused, so no family reaches _relation_instances twice."""
    tab = build_table(RTTAlgebra(Shape(m, n, cap)), cap - 1)
    report, direct, reached = _reports(tab, cap, families, monkeypatch)
    assert report.checks == direct.checks
    assert report.ok
    assert reached == [(f, "tab") for f in families if f not in TWINS]


def test_mirror_needs_the_twin(monkeypatch, tab21_l6):
    """An f-side family chosen without its twin runs the twin on the
    transposed table, here tab itself."""
    report, direct, reached = _reports(tab21_l6, 6, ("D3", "D7", "D9"),
                                       monkeypatch)
    assert report.checks == direct.checks
    assert reached == [("D3", "tab"), ("D6", "tab"), ("D8", "tab")]


def _corrupted(tab, monkeypatch, kind, r):
    """Make d_1^(r), e_1^(r) or f_1^(r) wrong on its own, so that tau no
    longer fixes d_1^(r) or sends f_1^(r) to e_1^(r)."""
    alg = tab.alg
    if kind == "d":
        wrong = tab.d[1][r] + alg.gen(1, 2, 1)
        monkeypatch.setitem(tab.d[1], r, wrong)
    elif kind == "e":
        wrong = tab.e_simple(1, r) + tab.e_simple(1, 1) * tab.d[1][r - 1]
        monkeypatch.setitem(tab.e[(1, 2)], r, wrong)
    else:
        wrong = tab.f_simple(1, r) + alg.gen(1, 1, 1) * alg.gen(2, 1, r - 1)
        monkeypatch.setitem(tab.f[(2, 1)], r, wrong)


@pytest.mark.parametrize("kind, r", [("d", 0), ("d", 2), ("d", 5),
                                     ("f", 2), ("f", 5)])
def test_corrupted_entry_fails_the_precondition(monkeypatch, tab21_l6,
                                                kind, r):
    """A d or f entry broken on its own, up to superscript budget - 1,
    makes the transposed table a new one, and each f-side family runs its
    twin on it instead of reusing the twin's residuals on tab."""
    families = ("D3", "D4", "D6", "D7")
    _corrupted(tab21_l6, monkeypatch, kind, r)
    assert transposed_table(tab21_l6, 6) is not tab21_l6
    report, direct, reached = _reports(tab21_l6, 6, families, monkeypatch)
    assert reached == [("D3", "tab"), ("D3", "tau"), ("D6", "tab"),
                       ("D6", "tau")]
    assert report.checks == direct.checks
    assert direct.counts_by_id()["D4"]["failures"]


@pytest.mark.parametrize("m, n, cap", [(2, 1, 6), (1, 2, 6), (3, 1, 5),
                                       (2, 2, 5)])
@pytest.mark.parametrize("kind", ["d", "e", "f"])
def test_one_corrupted_entry_matches_direct_reports(monkeypatch, m, n, cap,
                                                    kind):
    """With one d, e or f entry wrong, every f-side family still reports
    the direct f-side residuals, witnesses included."""
    tab = build_table(RTTAlgebra(Shape(m, n, cap)), cap - 1)
    _corrupted(tab, monkeypatch, kind, 2)
    families = ALL_FAMILIES if cap > 5 else tuple(
        f for f in ALL_FAMILIES if f not in ("D1", "D2", "D5"))
    assert transposed_table(tab, cap) is not tab
    report, direct, reached = _reports(tab, cap, families, monkeypatch)
    assert report.checks == direct.checks
    assert [f for f, table in reached if table == "tau"] == [
        TWINS[f] for f in families if f in TWINS]
    failing = {c.check_id for c in direct.failures}
    # the f-side families read d and f, never e
    assert failing and failing.isdisjoint(TWINS) == (kind == "e")


@pytest.mark.parametrize("kind", [None, "e", "f"])
def test_d7_chosen_alone(monkeypatch, tab21_l6, kind):
    """D7 alone, the family that needs the reindexing, is D6 run on the
    transposed table and transposed, on a good or a corrupted table; it
    reads f alone, so a wrong e leaves it passing."""
    if kind:
        _corrupted(tab21_l6, monkeypatch, kind, 3)
    report, direct, reached = _reports(tab21_l6, 6, ("D7",), monkeypatch)
    assert report.checks == direct.checks
    assert reached == [("D6", "tau" if kind else "tab")]
    assert report.ok == (kind != "f")


@pytest.mark.parametrize("m, n, cap", [(2, 1, 6), (1, 2, 6), (2, 2, 5)])
def test_consistent_corruption_is_mirrored(monkeypatch, m, n, cap):
    """A wrong e entry with f set to its transpose leaves the table its own
    transposed table: the twins' residuals are reused, and the report is
    the direct one, failures and witnesses included."""
    alg = RTTAlgebra(Shape(m, n, cap))
    tab = build_table(alg, cap - 1)
    wrong = tab.e_simple(1, 2) + tab.e_simple(1, 1) * tab.d[1][1]
    tab.e[(1, 2)][2] = wrong
    tab.f[(2, 1)][2] = alg.transpose(wrong)
    assert transposed_table(tab, cap) is tab
    families = ("D3", "D4", "D6", "D7", "D8", "D9")
    report, direct, reached = _reports(tab, cap, families, monkeypatch)
    assert reached == [("D3", "tab"), ("D6", "tab"), ("D8", "tab")]
    assert report.checks == direct.checks
    counts = direct.counts_by_id()
    for family in families:
        assert counts[family]["failures"] > 0, family
    assert all(c.witness for c in direct.failures)


@pytest.mark.parametrize("families, message", [
    (["D18"], "unknown relation families ['D18']"),
    (["D3", "D12x"], "unknown relation families ['D12x']"),
    ("D12", "families must be a collection of names, not the string 'D12'"),
])
def test_unknown_families_are_refused(tab11, families, message):
    """A family name outside D1..D17, or a bare string, is an error rather
    than a run that checks nothing."""
    with pytest.raises(ValueError) as err:
        verify_drinfeld_relations(tab11, 3, families=families)
    assert str(err.value) == message
