"""Center generators, the odd-square quotient, and the classical bridge.

c(u) is the product of the diagonal Gauss series with successive shifts
u, u-1, u-2, ... (only the shift parity survives mod 2); b_i(u) is
d_i(u) d_i(u-1).  Root-element squares are tagged by parity: the odd ones
generate the ideal that defines the super Yangian quotient, the even ones
belong to the p-center of the quotient.

The quotient is handled as bounded-degree linear algebra: J_bound is the
span of a * z * b over PBW monomials a, b and odd squares z with
deg a + deg z + deg b <= bound.  Each odd square is first tested against
every generator of superscript <= bound - deg z; when all of them commute,
z * b = b * z inside the bound, so J_bound is already the span of the
one-sided products a * z and only those rows are formed.  If any square
fails that centrality certificate the two-sided rows a * z * b are formed
instead; QuotientModel.path records which was used.  Either way a * z is
built along the PBW order as g * (a' * z), where g is the first letter of a
and a' the rest: a' precedes a in (degree, word) order, so its product with
z is already straightened and only the words g * w are new.  Columns put the
non-supermonomials first, so they are the preferred pivots, and the
supermonomial block runs in descending (degree, word) order, so the pivot
of a residue-supported row is its top-degree monomial.  When the rank
equals dim F_bound minus the supermonomial count and every pivot is a
non-supermonomial, the reduction map computes canonical representatives
supported on super-ordered monomials (independent of the order inside the
supermonomial block); that dimension certificate is exactly the
bounded-degree shadow of the freeness of the parent algebra over the odd
p-center.

The freeness shadow (products of center monomials and square-free
generator monomials, which must be a basis of the bounded quotient) is
first tried by counting leading words.  In the canonical degree every
bracket lowers the degree, so gr of the parent Yangian is the polynomial
ring on the t[i,j,r], a domain: the symbol (top-degree part) of a product
is the product of its factors' symbols and is never zero.  Within a degree,
fewest letters then the smallest sorted word is a monomial order, so the
leading word of a product is the sorted merge of its factors' leading
words.  When the quotient certificate holds, ideal_rank counts the
non-super words; every a * (t, t) with t odd is the lead of a * sigma(z)
for the odd square z led by (t, t), so the leads of gr(J_bound) are
exactly the non-super words.  Products whose leading words are distinct
supermonomials, dim_super of them, are then a basis modulo J_bound:
exactly what the straightened walk would find.  When any condition fails,
for example when a missing higher root leaves the count short of
dim_super, the certificate declines and the products are straightened,
reduced and ranked as before.  Either way the report is the same.  Both
walks, and the products of independence_check, come from rtt.bounded_words,
which multiplies along shared prefixes: each product is its prefix's
product times one more factor.

gr_leading_term realises the associated-graded bridge: the loop-degree-d
part of an element maps to the classical oracle by sending each factor
t[i,j,r] of a top monomial to E[i,j]t^(r-1).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .current import CurrentAlgebra
from .drinfeld import DrinfeldTable, generator_params
from .errors import DegreeCapError
from .linalg import BitEchelon, words_row
from .report import Report
from .rtt import (Element, RTTAlgebra, bounded_words, pack,
                  repeats_nilsquare, word_degree, word_loop_degree)
from .series import YSeries, series_mul, series_shift


def c_series(tab: DrinfeldTable) -> YSeries:
    """Shifted product of all diagonal series; coefficients are central."""
    alg = tab.alg
    out = tab.d_series(1)
    for j in range(2, alg.shape.size + 1):
        out = series_mul(out, series_shift(tab.d_series(j), j - 1))
    return out


def b_series(tab: DrinfeldTable, i: int) -> YSeries:
    """d_i(u) d_i(u-1); even coefficients generate the diagonal p-center."""
    d = tab.d_series(i)
    return series_mul(d, series_shift(d, 1))


@dataclass
class PSquare:
    kind: str      # "e" or "f"
    i: int
    j: int
    r: int
    parity: int
    element: Element

    @property
    def label(self) -> str:
        return f"({self.kind}[{self.i},{self.j}]^({self.r}))^2"


def p_center_squares(tab: DrinfeldTable, bound: int) -> list[PSquare]:
    """Squares of all root elements with 2r <= bound, tagged by parity;
    DegreeCapError when the table stops short of r = bound // 2, whose
    squares would be missing."""
    if tab.order < bound // 2:
        raise DegreeCapError(f"squares up to bound {bound} need table "
                             f"order >= {bound // 2}, got {tab.order}")
    alg = tab.alg
    return [PSquare(kind, a, b, r, alg.shape.parity(a, b), alg.multiply(x, x))
            for kind, a, b, r, x in tab.generators(bound // 2) if kind != "d"]


@dataclass
class CenterTable:
    tab: DrinfeldTable
    c: list[Element]
    b: dict[int, list[Element]]
    squares: list[PSquare]


def build_center_table(tab: DrinfeldTable, square_bound: int | None = None) -> CenterTable:
    alg = tab.alg
    bound = alg.shape.cap if square_bound is None else square_bound
    c = list(c_series(tab).coeffs)
    b = {i: list(b_series(tab, i).coeffs) for i in range(1, alg.shape.size + 1)}
    return CenterTable(tab, c, b, p_center_squares(tab, bound))


def is_central(x: Element, budget: int) -> Report:
    """Commutators of x against every generator with superscript <= budget."""
    alg = x.alg
    if x.degree() + budget > alg.shape.cap:
        raise DegreeCapError(
            f"centrality budget {budget} plus degree {x.degree()} "
            f"exceeds cap {alg.shape.cap}")
    report = Report("centrality", config={"budget": budget})
    size = alg.shape.size
    for s in range(1, budget + 1):
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                c = alg.commutator(x, alg.gen(i, j, s))
                ok = not c
                report.add("commutes", {"i": i, "j": j, "s": s}, ok,
                           witness=None if ok else c.canonical())
    return report


# -- the super quotient -------------------------------------------------------


def symbol(x: Element) -> frozenset:
    """Top-degree words of x: its image in gr, the polynomial ring."""
    top = x.degree()
    return frozenset(w for w in x.words if word_degree(w) == top)


def leading_word(x: Element) -> tuple:
    """Lead of the symbol of x: fewest letters, then the smallest sorted
    word, a monomial order within a degree, so leads multiply."""
    return min(symbol(x), key=lambda w: (len(w), w))


@dataclass
class QuotientModel:
    alg: RTTAlgebra
    bound: int
    basis: tuple            # non-super block ascending, then super block descending
    index: dict
    echelon: BitEchelon
    dim_full: int
    ideal_rank: int
    dim_super: int
    expected_super: int
    certificate_ok: bool
    path: str               # "one-sided" (a * z rows) or "two-sided" (a * z * b)
    odd_squares: tuple      # the ideal's generators

    def to_vector(self, x: Element) -> int:
        return words_row(x.words, self.index, self.bound)

    def residue(self, x: Element) -> int:
        """Row of the canonical representative of x modulo the odd-square ideal."""
        return self.echelon.reduce(self.to_vector(x))

    def reduce(self, x: Element) -> Element:
        """Canonical representative of x modulo the odd-square ideal."""
        residue = self.residue(x)
        words = set()
        while residue:
            low = residue & -residue
            words.add(self.basis[low.bit_length() - 1])
            residue ^= low
        return Element(self.alg, frozenset(words))


def build_quotient(alg: RTTAlgebra, bound: int, tab: DrinfeldTable) -> QuotientModel:
    """Row-reduce the bounded odd-square ideal and certify the dimension count.

    The monomials a run in (degree, word) order, and each row a * z is
    formed as g * (a' * z) from the first letter g of a and the row of its
    suffix a', built earlier for the same square; the suffix rows of one
    square are dropped before the next.
    """
    odd_squares = [sq.element for sq in p_center_squares(tab, bound)
                   if sq.parity == 1]
    all_monos = alg.pbw_monomials(bound)
    non_super, super_list = [], []
    for w in all_monos:
        (non_super if repeats_nilsquare(w, alg._odd) else super_list).append(w)
    super_list.reverse()
    basis = tuple(non_super + super_list)
    index = {w: k for k, w in enumerate(basis)}
    degrees = [word_degree(w) for w in all_monos]

    def monos_upto(d: int) -> list:
        return all_monos[:bisect_right(degrees, d)]

    def mono(w: tuple) -> Element:
        return Element(alg, frozenset({w}))

    one_sided = all(is_central(z, bound - z.degree()).ok for z in odd_squares)
    ech = BitEchelon()
    for z in odd_squares:
        room = bound - z.degree()
        prods = {(): z}   # a * z for the monomials a built so far
        for wa in monos_upto(room):
            if wa:
                # a' = wa[1:] precedes wa in (degree, word) order
                prods[wa] = alg.multiply(mono(wa[:1]), prods[wa[1:]])
            left = prods[wa]
            if one_sided:
                rows = [left]
            else:
                rows = (alg.multiply(left, mono(wb))
                        for wb in monos_upto(room - word_degree(wa)))
            for row_el in rows:
                ech.add(words_row(row_el.words, index, bound))

    dim_full = len(basis)
    ideal_rank = ech.rank
    dim_super = dim_full - ideal_rank
    expected = len(super_list)
    pivots_in_nonsuper = all(c < len(non_super) for c in ech.pivots)
    return QuotientModel(alg, bound, basis, index, ech, dim_full, ideal_rank,
                         dim_super, expected,
                         dim_super == expected and pivots_in_nonsuper,
                         "one-sided" if one_sided else "two-sided",
                         tuple(odd_squares))


def quotient_report(quotient: QuotientModel) -> Report:
    report = Report("super-quotient",
                    config={"m": quotient.alg.shape.m,
                            "n": quotient.alg.shape.n,
                            "bound": quotient.bound})
    report.add("dimension",
               {"dim_full": quotient.dim_full,
                "ideal_rank": quotient.ideal_rank,
                "dim_super": quotient.dim_super,
                "expected": quotient.expected_super},
               quotient.certificate_ok)
    return report


# -- the classical bridge -----------------------------------------------------


def gr_leading_term(x: Element, d: int, classical: CurrentAlgebra) -> Element:
    """Image of the loop-degree-d graded piece of x in the classical oracle."""
    top_words = []
    for w in x.words:
        ld = word_loop_degree(w)
        if ld > d:
            raise ValueError(f"element has loop degree {ld} > {d}")
        if ld == d:
            top_words.append(tuple(
                pack(g >> 16, (g >> 8) & 0xFF, (g & 0xFF) - 1) for g in w))
    return classical.normal_form(top_words)


def gr_bridge_report(tab: DrinfeldTable, centers: CenterTable,
                     classical: CurrentAlgebra, max_r: int) -> Report:
    """Leading terms of d/e/f, c and b against their classical counterparts."""
    alg = tab.alg
    report = Report("gr-bridge",
                    config={"m": alg.shape.m, "n": alg.shape.n, "max_r": max_r})

    for kind, a, b, r, x in tab.generators(max_r):
        got = gr_leading_term(x, r - 1, classical)
        want = classical.gen(a, b, r - 1)
        report.add(f"gr-{kind}", generator_params(kind, a, b, r), got == want,
                   witness=None if got == want else got.canonical())

    for r in range(1, min(max_r, len(centers.c) - 1) + 1):
        got = gr_leading_term(centers.c[r], r - 1, classical)
        want = classical.z_element(r - 1)
        report.add("gr-c", {"r": r}, got == want,
                   witness=None if got == want else got.canonical())

    for i, coeffs in sorted(centers.b.items()):
        for two_r in range(2, len(coeffs)):
            if two_r % 2 or two_r > 2 * max_r:
                continue
            r = two_r // 2
            got = gr_leading_term(coeffs[two_r], two_r - 2, classical)
            g = classical.gen(i, i, r - 1)
            want = classical.multiply(g, g) + classical.gen(i, i, 2 * r - 2)
            report.add("gr-b", {"i": i, "2r": two_r}, got == want,
                       witness=None if got == want else got.canonical())
    return report


# -- bounded freeness shadow ----------------------------------------------------


def independence_check(gens: list[tuple[str, Element]], bound: int,
                       quotient: QuotientModel | None = None) -> Report:
    """Linear independence of all products of the given elements up to bound.

    Products are formed in the listed order with multiplicities, along
    shared prefixes (rtt.bounded_words), and the dependent ones are named by
    their exponent vectors in that order; when a quotient model is supplied
    the products are reduced first, realising the freeness statement inside
    the quotient.
    """
    if not gens:
        raise ValueError("need at least one generator")
    alg = gens[0][1].alg
    report = Report("independence", config={"bound": bound,
                                            "generators": [g[0] for g in gens],
                                            "quotient": quotient is not None})
    zeros = [label for label, el in gens if not el]
    if zeros:
        report.add("rank", {"products": 0, "rank": 0}, False,
                   witness=f"zero generators: {zeros}")
        return report
    degrees = [el.degree() for _, el in gens]
    if any(d == 0 for d in degrees):
        raise ValueError("independence generators must have positive degree")
    if any(d > bound for d in degrees):
        raise DegreeCapError("generator degree exceeds the requested bound")

    if quotient is None:
        index = {w: k for k, w in enumerate(alg.pbw_monomials(bound))}
    else:
        index = quotient.index

    def times(prod: tuple, k: int) -> tuple:
        element, exponents = prod
        bumped = exponents[:k] + (exponents[k] + 1,) + exponents[k + 1:]
        return alg.multiply(element, gens[k][1]), bumped

    ech = BitEchelon()
    count = 0
    dependents = []
    for (element, exponents), _ in bounded_words(
            range(len(gens)), degrees, bound, fold=times,
            one=(alg.one(), (0,) * len(gens))):
        count += 1
        if quotient is not None:
            element = quotient.reduce(element)
        if ech.add(words_row(element.words, index, bound)) == 0:
            dependents.append(exponents)
    ok = not dependents
    report.add("rank", {"products": count, "rank": ech.rank}, ok,
               witness=None if ok else f"dependent exponents: {dependents[:5]}")
    return report


def graded_basis_count(quotient: QuotientModel, factors) -> int | None:
    """Product count when leading words alone prove the freeness basis, else None.

    Proves, without one straightened product, what the exact walk of
    freeness_shadow_report would find: rank = count = dim_super.  It needs
    (1) quotient.certificate_ok, so ideal_rank is the number of non-super
    words; (2) for every odd letter t with 2 deg t <= bound, (t, t) is the
    leading word of an odd square; (3) every factor nonzero at its nominal
    degree; and, for the product leads (sorted merges of the factors'
    leading words), (4) no two equal, (5) none repeating an odd letter and
    (6) exactly dim_super of them.

    For a monomial a that fits, a * sigma(z) lies in gr(J_bound), with
    lead a * (t, t); by (2) every non-super word of degree <= bound is such
    a lead.  By (1) gr(J_bound) has dimension ideal_rank, the number of
    non-super words, so its leads are exactly the non-super words.  A
    nonzero sum of products has as top-degree part a sum of product
    symbols with distinct leads (4), so its lead is a product lead, a
    super word (5), and the sum is not in J_bound.  The products are
    independent modulo J_bound and by (6) a basis.
    """
    if not quotient.certificate_ok:
        return None
    square_leads = {leading_word(z) for z in quotient.odd_squares}
    odd = quotient.alg._odd
    if any((t, t) not in square_leads
           for t in odd if 2 * (t & 0xFF) <= quotient.bound):
        return None
    for value, deg, _ in factors:
        if not value or value.degree() != deg:
            return None
    values, degrees, tops = zip(*factors)
    leads = set()
    for lead, _ in bounded_words([leading_word(v) for v in values], degrees,
                                 quotient.bound, tops,
                                 lambda p, x: tuple(sorted(p + x)), ()):
        if lead in leads or repeats_nilsquare(lead, odd):
            return None
        leads.add(lead)
    if len(leads) != quotient.dim_super:
        return None
    return len(leads)


def freeness_shadow_report(centers: CenterTable, quotient: QuotientModel,
                           flavour: str = "p-center") -> Report:
    """Bounded shadow of the two freeness corollaries for the quotient.

    Products {center monomial} x {square-free generator monomial} of total
    degree <= the quotient bound must be linearly independent and exactly
    fill the quotient: their count and their rank both equal dim_super.
    The "p-center" flavour takes all b_i^(2r) plus even squares against
    square-free monomials in every d/e/f generator; the "full-center"
    flavour takes c^(r), b_i^(2r) for i >= 2 plus even squares against
    square-free monomials that omit the first diagonal family.

    graded_basis_count first counts the products' leading words; when that
    certificate declines, the products are straightened, reduced modulo
    the ideal and ranked.  Both write the same report wherever the
    certificate holds.
    """
    tab = centers.tab
    alg = tab.alg
    bound = quotient.bound
    if tab.order < bound:
        raise DegreeCapError(
            f"freeness shadow at bound {bound} needs table order >= {bound}")
    size = alg.shape.size

    center_els: list[Element] = []
    if flavour == "full-center":
        center_els += [centers.c[r] for r in range(1, bound + 1)]
        b_lo, d_lo = 2, 2
    elif flavour == "p-center":
        b_lo, d_lo = 1, 1
    else:
        raise ValueError(f"unknown flavour {flavour!r}")
    for i in range(b_lo, size + 1):
        for two_r in range(2, bound + 1, 2):
            center_els.append(centers.b[i][two_r])
    center_els += [sq.element for sq in centers.squares
                   if sq.parity == 0 and 2 * sq.r <= bound]
    factors = [(el, el.degree(), bound) for el in center_els]

    factors += [(x, r, 1) for kind, a, _, r, x in tab.generators(bound)
                if kind != "d" or a >= d_lo]

    count = graded_basis_count(quotient, factors)
    if count is not None:
        rank, dependent = count, 0
    else:
        values, degrees, tops = zip(*factors)
        ech = BitEchelon()
        count = dependent = 0
        for prod, _ in bounded_words(values, degrees, bound, tops,
                                     alg.multiply, alg.one()):
            count += 1
            if ech.add(quotient.residue(prod)) == 0:
                dependent += 1
        rank = ech.rank

    report = Report("freeness-shadow",
                    config={"m": alg.shape.m, "n": alg.shape.n,
                            "bound": bound, "flavour": flavour})
    ok = dependent == 0 and count == rank == quotient.dim_super
    report.add("basis", {"products": count, "rank": rank,
                         "dim_super": quotient.dim_super, "flavour": flavour},
               ok,
               witness=None if ok else f"{dependent} dependent products")
    return report


def centrality_report(centers: CenterTable, c_max: int, b_max: int,
                      square_bound: int) -> Report:
    """Centrality suite for c coefficients, even-b coefficients and squares.

    Each element is tested at the largest budget its degree leaves inside
    the cap.  b_i^(1) is asserted to vanish identically when the series
    has it; odd b coefficients carry no claim and are skipped.
    """
    tab = centers.tab
    alg = tab.alg
    cap = alg.shape.cap
    report = Report("centers-centrality",
                    config={"m": alg.shape.m, "n": alg.shape.n,
                            "c_max": c_max, "b_max": b_max,
                            "square_bound": square_bound})

    for r in range(1, min(c_max, len(centers.c) - 1) + 1):
        x = centers.c[r]
        budget = cap - x.degree()
        sub = is_central(x, budget)
        ok = sub.ok
        report.add("central-c", {"r": r, "budget": budget}, ok,
                   witness=None if ok else sub.failures[0].witness)

    for i, coeffs in sorted(centers.b.items()):
        if len(coeffs) > 1:     # a series of order 0 has no b_i^(1)
            report.add("b1-vanishes", {"i": i}, not coeffs[1],
                       witness=None if not coeffs[1] else coeffs[1].canonical())
        for two_r in range(2, min(b_max, len(coeffs) - 1) + 1, 2):
            x = coeffs[two_r]
            budget = cap - x.degree()
            sub = is_central(x, budget)
            ok = sub.ok
            report.add("central-b", {"i": i, "2r": two_r, "budget": budget}, ok,
                       witness=None if ok else sub.failures[0].witness)
        # odd coefficients beyond the first carry no claim; record values only
        for odd_r in range(3, min(b_max, len(coeffs) - 1) + 1, 2):
            report.add("b-odd-recorded", {"i": i, "r": odd_r}, True,
                       value=coeffs[odd_r].canonical())

    for sq in centers.squares:
        if 2 * sq.r > square_bound:
            continue
        budget = cap - sq.element.degree()
        sub = is_central(sq.element, budget)
        ok = sub.ok
        report.add("central-square",
                   {"kind": sq.kind, "i": sq.i, "j": sq.j, "r": sq.r,
                    "parity": sq.parity, "budget": budget}, ok,
                   witness=None if ok else sub.failures[0].witness)
    return report
