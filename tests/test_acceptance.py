"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Shared tables are built once per module; every criterion prints a single
summary line (visible with -s or -rA) in addition to its assertions.
All equalities are exact over the two-element field, so there are no
tolerances anywhere, only stated runtime ceilings.
"""

import itertools
import json
import time

import pytest

from yangian2 import CurrentAlgebra, RTTAlgebra, Shape
from yangian2.centers import (build_center_table, build_quotient,
                              centrality_report, gr_bridge_report,
                              independence_check, p_center_squares)
from yangian2.current import classical_suite
from yangian2.drinfeld import (build_table, drinfeld_pbw_check,
                               verify_drinfeld_relations)
from yangian2.dsl import EvalContext, evaluate, parse
from yangian2.rtt import Element
from yangian2.series import diagonal_matrix, gauss_decompose, matrix_mul, t_matrix
from yangian2 import cli

from oracles import (count_full, count_super, gl_bracket_mod2,
                     naive_normal_form, rtt_rhs, triples,
                     verify_odd_square_relations)


def announce(criterion, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def stack11():
    """(1,1): cap 6 so every centrality budget stays positive, order 5."""
    alg = RTTAlgebra(Shape(1, 1, 6))
    tab = build_table(alg, 5)
    return alg, tab


@pytest.fixture(scope="module")
def stack21():
    alg = RTTAlgebra(Shape(2, 1, 5))
    tab = build_table(alg, 5)
    return alg, tab


@pytest.fixture(scope="module")
def stack22():
    alg = RTTAlgebra(Shape(2, 2, 5))
    tab = build_table(alg, 2)
    return alg, tab


def test_criterion_01_degree_one_closure():
    start = time.time()
    for m, n in ((1, 1), (2, 1)):
        alg = RTTAlgebra(Shape(m, n, 2))
        size = m + n
        for i, j, k, l in itertools.product(range(1, size + 1), repeat=4):
            got = {triples(w)
                   for w in rtt_rhs(alg, (i, j, 1), (k, l, 1)).words}
            want = {((a, b, 1),) for a, b in gl_bracket_mod2((i, j), (k, l))}
            assert got == want, (m, n, i, j, k, l)
    elapsed = time.time() - start
    announce(1, True, "degree-1 brackets match gl structure constants "
                      "at (1,1) and (2,1)", elapsed)
    assert elapsed < 1.0


def test_criterion_02_sign_collapse():
    start = time.time()
    pairs_checked = 0
    for m, n in ((1, 1), (2, 1)):
        alg = RTTAlgebra(Shape(m, n, 4))
        size = m + n
        gens = [(i, j, r) for i in range(1, size + 1)
                for j in range(1, size + 1) for r in (1, 2, 3)]
        for g1 in gens:
            for g2 in gens:
                if g1[2] + g2[2] > 4:
                    continue
                plain = rtt_rhs(alg, g1, g2, super_sign=False)
                fancy = rtt_rhs(alg, g1, g2, super_sign=True)
                assert plain == fancy, (g1, g2)
                assert alg.commutator(alg.gen(*g1), alg.gen(*g2)) == plain
                pairs_checked += 1
    elapsed = time.time() - start
    announce(2, True, f"super and plain right-hand sides agree on "
                      f"{pairs_checked} generator pairs with r+s <= 4", elapsed)
    assert elapsed < 5.0


def test_criterion_03_gauss_reconstruction():
    start = time.time()
    for m, n, order in ((1, 1, 5), (2, 1, 4)):
        alg = RTTAlgebra(Shape(m, n, order))
        t = t_matrix(alg, order)
        f_mat, diag, e_mat = gauss_decompose(t)
        product = matrix_mul(f_mat, matrix_mul(diagonal_matrix(alg, diag), e_mat))
        assert product == t, (m, n, order)
    elapsed = time.time() - start
    announce(3, True, "F*D*E = T exactly at (1,1) order 5 and (2,1) order 4",
             elapsed)
    assert elapsed < 30.0


def test_criterion_04_drinfeld_presentation(stack11, stack21, stack22):
    start = time.time()
    summaries = []
    for label, (alg, tab) in (("(1,1)", stack11), ("(2,1)", stack21)):
        report = verify_drinfeld_relations(tab, 5)
        assert report.ok, report.failures[:3]
        counts = report.counts_by_id()
        assert set(counts) == {f"D{k}" for k in range(1, 18)}
        vacuous = sorted(f for f, c in counts.items() if c["vacuous"])
        total = sum(c["instances"] for c in counts.values())
        summaries.append(f"{label}: {total} instances, vacuous {vacuous}")

    alg22, tab22 = stack22
    # the literal quartic run at budget 3 is vacuous and reported as such
    literal = verify_drinfeld_relations(tab22, 3, families=["D16", "D17"])
    assert literal.ok
    assert literal.counts_by_id()["D16"]["vacuous"]
    # superscript budget r+s <= 3 (total degree 5) exercises the family
    quartic = verify_drinfeld_relations(tab22, 5, families=["D16", "D17"])
    assert quartic.ok
    qcounts = quartic.counts_by_id()
    assert qcounts["D16"]["instances"] == 3
    assert qcounts["D17"]["instances"] == 3
    summaries.append("(2,2): quartic 3+3 instances (plus vacuous budget-3 run)")

    elapsed = time.time() - start
    announce(4, True, "; ".join(summaries), elapsed)
    assert elapsed < 300.0


def test_criterion_05_pbw_dimensions(stack11):
    start = time.time()
    alg, tab = stack11
    expected = [1, 5, 19, 59, 164]
    oracle = count_full(1, 1, 4)
    assert oracle == expected
    for bound in range(5):
        assert len(alg.pbw_monomials(bound)) == expected[bound]
        report = drinfeld_pbw_check(tab, bound)
        assert report.ok
        rank = report.checks[0].params["rank"]
        assert rank == expected[bound]
    elapsed = time.time() - start
    announce(5, True, f"dim F_L = {expected} for L <= 4, Drinfeld monomial "
                      f"rank matches at every L", elapsed)


def test_criterion_06_super_pbw_freeness(stack11, stack21):
    start = time.time()
    results = []
    for label, (alg, tab), m, n, top in (("(1,1)", stack11, 1, 1, 4),
                                         ("(2,1)", stack21, 2, 1, 3)):
        oracle = count_super(m, n, top)
        dims = []
        for bound in range(top + 1):
            q = build_quotient(alg, bound, tab)
            assert q.certificate_ok, (label, bound)
            assert q.dim_super == oracle[bound], (label, bound)
            dims.append(q.dim_super)
        results.append(f"{label}: {dims}")
    elapsed = time.time() - start
    announce(6, True, "super quotient dimensions " + "; ".join(results), elapsed)


def test_criterion_07_centrality(stack11, stack21):
    start = time.time()
    alg, tab = stack11
    table = build_center_table(tab)
    report = centrality_report(table, c_max=5, b_max=4, square_bound=4)
    assert report.ok, report.failures[:3]
    counts = report.counts_by_id()
    assert counts["central-c"]["instances"] == 5
    assert counts["central-b"]["instances"] == 4   # i = 1, 2 with 2r = 2, 4
    assert counts["central-square"]["instances"] == 4
    assert counts["b1-vanishes"]["instances"] == 2

    # multi-block parities: every square at (2,1) with 2r <= 2, budget 2
    alg21, tab21 = stack21
    for sq in p_center_squares(tab21, 2):
        assert alg21.first_noncentral(sq.element, 2) is None, sq.label
    elapsed = time.time() - start
    announce(7, True, "c^(r) r <= 5, b^(2), b^(4), all squares 2r <= 4 central; "
                      "b^(1) = 0; (2,1) squares central at budget 2", elapsed)


def test_criterion_08_gr_bridge(stack11, stack21):
    start = time.time()
    for label, (alg, tab), trunc in (("(1,1)", stack11, 7), ("(2,1)", stack21, 6)):
        table = build_center_table(tab)
        classical = CurrentAlgebra(alg.shape.m, alg.shape.n, trunc)
        report = gr_bridge_report(tab, table, classical, max_r=4)
        assert report.ok, (label, report.failures[:3])
        counts = report.counts_by_id()
        assert counts["gr-c"]["instances"] == 4
        assert counts["gr-b"]["instances"] >= 2
        assert counts["gr-d"]["instances"] == alg.shape.size * 4
    elapsed = time.time() - start
    announce(8, True, "gr of d/e/f (r <= 4), gr c^(r) = z_(r-1) (r <= 4), "
                      "gr b^(2r) matches (2r <= 4) at (1,1) and (2,1)", elapsed)


def test_criterion_09_classical_oracle():
    start = time.time()
    for m, n, pbw_degree in ((1, 1, 3), (2, 1, 2)):
        calg = CurrentAlgebra(m, n, 5)
        report = classical_suite(calg, seed=2024, samples=100,
                                 pbw_degree=pbw_degree, invariants_degree=2)
        assert report.ok, (m, n, report.failures[:3])
        counts = report.counts_by_id()
        assert counts["central-z"]["instances"] == 5
        assert counts["q-polarisation"]["instances"] == 100
        assert counts["q-adjoint"]["instances"] == 100
    # exhaustive PBW count at degree <= 3 inside the small truncation
    small = CurrentAlgebra(1, 1, 3)
    report = classical_suite(small, seed=7, samples=5, pbw_degree=3,
                             invariants_degree=1)
    assert report.ok
    elapsed = time.time() - start
    announce(9, True, "z_r and even p-center central at T=5; quadratic-map "
                      "identities on 100 random inputs; PBW counts exhaustive "
                      "to degree 3", elapsed)


def test_criterion_10_odd_square_relations(stack11):
    start = time.time()
    alg, tab = stack11
    quotient = build_quotient(alg, 5, tab)
    assert quotient.certificate_ok
    report = verify_odd_square_relations(tab, 5, quotient)
    assert report.ok, report.failures[:3]
    pairs = {(c.params["r"], c.params["s"]) for c in report.checks}
    assert {(1, 2), (1, 3), (1, 4), (2, 3)} <= pairs
    elapsed = time.time() - start
    announce(10, True, f"quotient images of [e^(r), e^(s)] and [f^(r), f^(s)] "
                       f"vanish for r+s <= 5 ({len(report.checks)} instances)",
             elapsed)


def test_criterion_11_center_freeness_shadow(stack11):
    start = time.time()
    alg, tab = stack11
    table = build_center_table(tab)
    quotient = build_quotient(alg, 4, tab)
    gens = [(f"c^({r})", table.c[r]) for r in range(1, 5)]
    gens += [(f"b_{i}^(2)", table.b[i][2]) for i in sorted(table.b) if i >= 2]
    even_squares = [sq for sq in table.squares if sq.parity == 0]
    assert not even_squares  # one-one blocks have no even root squares
    report = independence_check(gens, quotient)
    assert report.ok, report.failures
    params = report.checks[0].params
    assert params["products"] == params["rank"] == 17
    elapsed = time.time() - start
    announce(11, True, "17 center products of degree <= 4 independent in the "
                       "quotient (c^(1..4), b_2^(2); no even squares at (1,1))",
             elapsed)


def test_criterion_12_engine_health(tmp_path):
    start = time.time()
    alg = RTTAlgebra(Shape(1, 1, 4))
    fuzz = alg.associativity_fuzz(1000, seed=20240604)
    assert fuzz.ok
    assert len(fuzz.checks) == 1000

    # the engine agrees with the rightmost-first oracle on every word of
    # degree <= 3
    gens = [(i, j, r) for i in (1, 2) for j in (1, 2) for r in (1, 2, 3)]
    words = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            used = sum(g[2] for g in w)
            for g in gens:
                if used + g[2] <= 3:
                    nxt.append(w + (g,))
        words.extend(nxt)
        frontier = nxt
    assert len(words) > 100
    for w in words:
        assert {triples(v)
                for v in alg.normal_form([w]).words} == naive_normal_form([w])

    # CLI round-trip on all basis monomials of degree <= 3
    ctx = EvalContext(alg, 3)
    for word in alg.pbw_monomials(3):
        x = Element(alg, frozenset({word}))
        assert evaluate(parse(x.canonical(), alg.shape), ctx) == x

    # CLI determinism: identical config gives byte-identical payloads
    args = ["--m", "1", "--n", "1", "-L", "3", "--seed", "11", "fuzz",
            "--samples", "50"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main([*args[:8], "--out", str(out1), *args[8:]]) == 0
    assert cli.main([*args[:8], "--out", str(out2), *args[8:]]) == 0
    payload1 = json.dumps(json.loads(out1.read_text())["report"], sort_keys=True)
    payload2 = json.dumps(json.loads(out2.read_text())["report"], sort_keys=True)
    assert payload1 == payload2

    elapsed = time.time() - start
    announce(12, True, f"1000 associativity samples clean; "
                       f"{len(words)} words strategy-independent; CLI "
                       f"round-trip and determinism hold", elapsed)
