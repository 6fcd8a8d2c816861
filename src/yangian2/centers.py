"""Center generators, the odd-square quotient, and the classical bridge.

c(u) is the product of the diagonal Gauss series with successive shifts
u, u-1, u-2, ... (only the shift parity survives mod 2); b_i(u) is
d_i(u) d_i(u-1).  Root-element squares are tagged by parity: the odd ones
generate the ideal that defines the super Yangian quotient, the even ones
belong to the p-center of the quotient.

The quotient is handled as bounded-degree linear algebra: J_bound is the
span of a * z * b over PBW monomials a, b and odd squares z with
deg a + deg z + deg b <= bound.  Each odd square is tested for centrality
up to superscript bound - deg z (WordAlgebra.first_noncentral); when it
commutes with all of those generators, z * b = b * z inside the bound, so
J_bound is the span of the one-sided products a * z, and only those rows
are formed.  A square that fails makes certificate_ok False, and the
dimension check names it as its witness, so nothing falls back silently.
Each a * z is built along the PBW order as g * (a' * z), where g is the
first letter of a and a' the rest: a' precedes a in (degree, word) order,
so its product with z is already straightened, and g * (a' * z) appends
each ordered word w of it to the one-letter word g.  A w whose first
letter is at least g is taken whole as g + w; any other inserts its
letters into the running sum that g starts (rtt.WordAlgebra.multiply), so
no word g + w enters the memo.  Columns put the non-supermonomials
first, so they are the preferred pivots, and the supermonomial block
runs in descending (degree, word) order, so the pivot of a
residue-supported row is its top-degree monomial.
When the rank equals dim F_bound minus the supermonomial count and every
pivot is a non-supermonomial, the reduction map computes canonical
representatives supported on super-ordered monomials (independent of the
order inside the supermonomial block); that dimension certificate is
exactly the bounded-degree shadow of the freeness of the parent algebra
over the odd p-center.

The rows are ranked one root-lattice weight at a time, and this is exact.
t[i,j,r] has weight e_i - e_j (rtt.word_weight) and every RTT relation is
homogeneous, so every odd square, the square of a root element, is
homogeneous, and so is every row a * z.  Each weight block keeps its
columns in the global order above, so its first columns are its
non-super words; a row of one weight reduces only against rows of that
weight, and the block echelons together have the rank, the pivots
(mapped back to global columns) and the residues of one dense echelon
over all columns (linalg).  A row is only as wide as its block, not as
dim F_bound, and a row spanning two weights raises instead of being
split.  Reduction splits an element by weight and reduces each part.

The freeness shadow (products of center monomials and square-free
generator monomials, which must be a basis of the bounded quotient) is
first tried by counting leading words.  In the canonical degree every
bracket lowers the degree, so gr of the parent Yangian is the polynomial
ring on the t[i,j,r], a domain: the symbol (top-degree part) of a product
is the product of its factors' symbols and is never zero.  Within a degree,
fewest letters then the smallest sorted word is a monomial order, so the
leading word of a product is the sorted merge of its factors' leading
words.  When the quotient certificate holds, ideal_rank counts the
non-super words; every a * t t with t odd is the lead of a * sigma(z)
for the odd square z led by t t, so the leads of gr(J_bound) are
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
from itertools import islice

from .drinfeld import DrinfeldTable, generator_params
from .errors import DegreeCapError
from .linalg import BlockColumns, BlockEchelon
from .report import Record, Report
from .rtt import (Element, RTTAlgebra, bounded_words, pbw_count,
                  product_rank, repeats_nilsquare, sort_word, word_degree,
                  word_loop_degree, word_weight)
from .series import YSeries, series_mul, series_shift

# gr_leading_term and gr_bridge_report take a current.CurrentAlgebra, which
# their callers build; the annotations name it without importing current.


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


class PSquare(Record):
    """The square of the root element kind_(i,j)^(r) (kind "e" or "f"),
    tagged by the parity of the root."""

    __slots__ = ("kind", "i", "j", "r", "parity", "element")

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


class CenterTable(Record):
    """The Drinfeld table tab, the coefficients c of c(u), the lists b[i]
    of the coefficients of b_i(u), and the odd and even root squares."""

    __slots__ = ("tab", "c", "b", "squares")


def build_center_table(tab: DrinfeldTable) -> CenterTable:
    alg = tab.alg
    c = list(c_series(tab).coeffs)
    b = {i: list(b_series(tab, i).coeffs) for i in range(1, alg.shape.size + 1)}
    return CenterTable(tab, c, b, p_center_squares(tab, alg.shape.cap))


# -- the super quotient -------------------------------------------------------


def symbol(x: Element) -> frozenset:
    """Top-degree words of x: its image in gr, the polynomial ring."""
    top = x.degree()
    return frozenset(w for w in x.words if word_degree(w) == top)


def leading_word(x: Element) -> bytes:
    """Lead of the symbol of x: fewest letters, then the smallest sorted
    word, a monomial order within a degree, so leads multiply."""
    return min(symbol(x), key=lambda w: (len(w), w))


class QuotientModel(Record):
    """The odd-square ideal of alg up to bound, row-reduced by weight.

    columns: by weight, the non-super words ascending, then the super
    words descending; split: per block, the number of its non-super
    columns; noncentral: the label of the first odd square that is not
    central, or None; odd_squares: the ideal's generators."""

    __slots__ = ("alg", "bound", "columns", "split", "echelon", "dim_full",
                 "ideal_rank", "dim_super", "expected_super",
                 "certificate_ok", "noncentral", "odd_squares")

    def to_vector(self, x: Element) -> dict:
        """The vector {block: row} of x, one row per weight of its words."""
        return self.columns.vector(x.words, self.bound)

    def residue(self, x: Element) -> dict:
        """Vector of the canonical representative of x modulo the
        odd-square ideal: every weight component of x reduced in its block."""
        return self.echelon.reduce(self.to_vector(x))

    def reduce(self, x: Element) -> Element:
        """Canonical representative of x modulo the odd-square ideal."""
        return Element(self.alg, frozenset(self.columns.words_of(self.residue(x))))


def build_quotient(alg: RTTAlgebra, bound: int, tab: DrinfeldTable) -> QuotientModel:
    """Row-reduce the bounded odd-square ideal and certify the dimension count.

    The rows are the one-sided products a * z, which span J_bound only when
    every odd square z is central up to superscript bound - deg z; the
    certificate fails on the first square that is not.  The monomials a run
    in (degree, word) order, and each row a * z is formed as g * (a' * z)
    from the first letter g of a and the row of its suffix a', built
    earlier for the same square; the suffix rows of one square are dropped
    before the next.

    The rows are ranked by weight.  The columns are laid out in one pass
    over the PBW monomials, each word's weight and class computed once:
    each block lists its non-super words ascending, then its super words
    descending, which is the global order restricted to the block, and
    split[block] is the number of its non-super words, so a pivot is
    non-super exactly when its local column is below the block's split.
    Every row a * z is homogeneous, of weight wt(a) + wt(z), so it lands
    in one block, and one spanning two would raise.  By linalg's exactness
    argument the rank, the pivots and every residue are those of one dense
    echelon over the global columns.  The expected number of
    supermonomials is counted (rtt.pbw_count), not read off the columns.
    """
    squares = [sq for sq in p_center_squares(tab, bound) if sq.parity == 1]
    odd_squares = tuple(sq.element for sq in squares)
    noncentral = next((sq.label for sq in squares if alg.first_noncentral(
        sq.element, bound - sq.element.degree())), None)
    all_monos = alg.pbw_monomials(bound)
    dim_full = len(all_monos)
    odd = alg._odd
    classes: dict = {}      # weight -> (its non-super words, its super words)
    for w in all_monos:
        pair = classes.get(k := word_weight(w))
        if pair is None:
            pair = classes[k] = ([], [])
        pair[0 if repeats_nilsquare(w, odd) else 1].append(w)
    split = []
    for nonsuper, supers in classes.values():
        split.append(len(nonsuper))
        nonsuper.extend(reversed(supers))   # in place: no third list
        supers.clear()
    columns = BlockColumns(nonsuper for nonsuper, _ in classes.values())
    del classes             # the columns hold the words

    def mono(w: bytes) -> Element:
        return Element(alg, frozenset({w}))

    ech = BlockEchelon()
    for z in odd_squares:
        room = bound - z.degree()
        prods = {b"": z}   # a * z for the monomials a built so far
        fits = bisect_right(all_monos, room, key=word_degree)
        for wa in islice(all_monos, fits):
            if wa:
                # a' = wa[3:] precedes wa in (degree, word) order
                prods[wa] = alg.multiply(mono(wa[:3]), prods[wa[3:]])
            ech.add(columns.vector(prods[wa].words, bound))

    ideal_rank = ech.rank
    dim_super = dim_full - ideal_rank
    expected = pbw_count(alg.shape, bound, super_only=True)
    pivots_in_nonsuper = all(c < split[block]
                             for block, held in ech.blocks.items()
                             for c in held.pivots)
    return QuotientModel(alg, bound, columns, split, ech, dim_full,
                         ideal_rank, dim_super, expected,
                         (noncentral is None and dim_super == expected
                          and pivots_in_nonsuper),
                         noncentral, odd_squares)


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
               quotient.certificate_ok,
               witness=None if quotient.noncentral is None
               else f"{quotient.noncentral} is not central")
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
            # each letter's superscript r becomes the t-exponent r - 1
            image = bytearray(w)
            image[2::3] = bytes(r - 1 for r in w[2::3])
            top_words.append(bytes(image))
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


def independence_check(gens: list[tuple[str, Element]],
                       quotient: QuotientModel) -> Report:
    """Linear independence modulo the odd-square ideal of all products of
    the given elements up to the quotient's bound.

    Products are formed in the listed order with multiplicities, along
    shared prefixes (rtt.product_rank), reduced by the quotient model and
    ranked in its weight blocks, and the dependent ones are named by their
    exponent vectors in that order: the freeness statement inside the
    quotient.
    """
    if not gens:
        raise ValueError("need at least one generator")
    alg = gens[0][1].alg
    bound = quotient.bound
    report = Report("independence", config={"bound": bound,
                                            "generators": [g[0] for g in gens],
                                            "quotient": True})
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

    def vector(element: Element) -> dict:
        return quotient.columns.vector(quotient.reduce(element).words, bound)

    count, rank, dependents = product_rank(
        alg, [el for _, el in gens], degrees, bound, vector)
    ok = not dependents
    report.add("rank", {"products": count, "rank": rank}, ok,
               witness=None if ok else f"dependent exponents: {dependents[:5]}")
    return report


def graded_basis_count(quotient: QuotientModel, factors) -> int | None:
    """Product count when leading words alone prove the freeness basis, else None.

    Proves, without one straightened product, what the exact walk of
    freeness_shadow_report would find: rank = count = dim_super.  It needs
    (1) quotient.certificate_ok, so ideal_rank is the number of non-super
    words; (2) for every odd letter t with 2 deg t <= bound, t t is the
    leading word of an odd square; (3) every factor nonzero at its nominal
    degree; and, for the product leads (sorted merges of the factors'
    leading words), (4) no two equal, (5) none repeating an odd letter and
    (6) exactly dim_super of them.

    The leads are not kept: each is looked up in the quotient's column
    index and its local column flagged in its block's bytearray of seen
    columns.  A lead whose local column is below its block's split, one of
    the block's non-super words, breaks (5) and a flag already set breaks
    (4); a lead missing from the index, which holds every ordered word of
    degree <= bound, declines.

    For a monomial a that fits, a * sigma(z) lies in gr(J_bound), with
    lead a * t t; by (2) every non-super word of degree <= bound is such
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
    if any(t + t not in square_leads
           for t in quotient.alg._odd if 2 * t[2] <= quotient.bound):
        return None
    for value, deg, _ in factors:
        if not value or value.degree() != deg:
            return None
    values, degrees, tops = zip(*factors)
    columns, split = quotient.columns, quotient.split
    # per block, the local columns of the leads so far
    seen = [bytearray(len(col)) for col in columns.words]
    count = 0
    for lead, _ in bounded_words([leading_word(v) for v in values], degrees,
                                 quotient.bound, tops,
                                 lambda p, x: sort_word(p + x), b""):
        place = columns.locate(lead)
        if place is None:
            return None
        block, col = place
        if col < split[block] or seen[block][col]:
            return None
        seen[block][col] = 1
        count += 1
    return count if count == quotient.dim_super else None


def freeness_shadow_report(centers: CenterTable, quotient: QuotientModel,
                           flavour: str) -> Report:
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
        rank, dependent = count, []
    else:
        values, degrees, tops = zip(*factors)
        count, rank, dependent = product_rank(alg, values, degrees, bound,
                                              quotient.residue, tops)

    report = Report("freeness-shadow",
                    config={"m": alg.shape.m, "n": alg.shape.n,
                            "bound": bound, "flavour": flavour})
    ok = not dependent and count == rank == quotient.dim_super
    report.add("basis", {"products": count, "rank": rank,
                         "dim_super": quotient.dim_super, "flavour": flavour},
               ok,
               witness=None if ok else f"{len(dependent)} dependent products")
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

    def central(check_id: str, params: dict, x: Element) -> None:
        budget = cap - x.degree()
        bad = alg.first_noncentral(x, budget)
        report.add(check_id, {**params, "budget": budget}, bad is None,
                   witness=None if bad is None
                   else alg.commutator(x, bad).canonical())

    for r in range(1, min(c_max, len(centers.c) - 1) + 1):
        central("central-c", {"r": r}, centers.c[r])

    for i, coeffs in sorted(centers.b.items()):
        if len(coeffs) > 1:     # a series of order 0 has no b_i^(1)
            report.add("b1-vanishes", {"i": i}, not coeffs[1],
                       witness=None if not coeffs[1] else coeffs[1].canonical())
        for two_r in range(2, min(b_max, len(coeffs) - 1) + 1, 2):
            central("central-b", {"i": i, "2r": two_r}, coeffs[two_r])
        # odd coefficients beyond the first carry no claim; record values only
        for odd_r in range(3, min(b_max, len(coeffs) - 1) + 1, 2):
            report.add("b-odd-recorded", {"i": i, "r": odd_r}, True,
                       value=coeffs[odd_r].canonical())

    for sq in centers.squares:
        if 2 * sq.r <= square_bound:
            central("central-square",
                    {"kind": sq.kind, "i": sq.i, "j": sq.j, "r": sq.r,
                     "parity": sq.parity}, sq.element)
    return report
