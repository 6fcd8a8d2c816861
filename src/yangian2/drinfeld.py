"""Drinfeld generators, higher root elements and the relation verifier.

The table holds exact normal-form elements for d_i^(r), its inverse-series
coefficients d'_i^(r), and root elements e_(i,j)^(r), f_(j,i)^(r).
Superdiagonal entries come straight from the Gauss decomposition; entries
with j > i + 1 are the inductive brackets

    e_(i,j)^(r) = [e_(i,j-1)^(r), e_(j-1,j)^(1)]
    f_(j,i)^(r) = [f_(j,j-1)^(1), f_(j-1,i)^(r)]

and the table makes no claim that these coincide with the corresponding
Gauss matrix entries (only the bracket versions are stored and used).

Relation families carry frozen identifiers D1..D17.  A family's `text`
renders the identity with every sign already collapsed to + (the ground
field has two elements).  The verification budget bounds the total
canonical degree of every product in an instance: quadratic families
enumerate r+s <= budget, cubic ones r+s+t <= budget, the quartic ones
r+s+2 <= budget.

Seven f-side families mirror the e-side family before them.  The
transposition tau: t_ij(u) -> t_ji(u) is an anti-automorphism of the
Yangian (``RTTAlgebra.transpose``), and over GF(2) [x, y] = xy + yx =
[y, x], so tau[x, y] = [tau y, tau x] = [tau x, tau y].  On a table
where tau fixes every d_i^(r) and sends e_i^(r) to f_i^(r)
(``transpose_symmetric``), tau sends the residual of each e-side family
to that of its f-side twin at the same parameters:
  - D3 -> D4: [d, e] + sum d^(t) e goes to [d, f] + sum f d^(t);
  - D8 -> D9: the two brackets go to theirs, e_j^(r) e_(j+1)^(s) to
    f_(j+1)^(s) f_j^(r);
  - D10 -> D11, D12 -> D13, D14 -> D15, D16 -> D17: brackets and nested
    brackets alone, term by term;
  - D6 -> D7 needs one reindexing.  With n = r+s-1 and
    P_k = sum_{t=1}^{k-1} x^(t) x^(n-t), tau(e^(t) e^(n-t)) = f^(n-t) f^(t),
    so tau(P_k) = P_n + P_(n-k+1) on the f side, and
    tau(P_s + P_r) = P_(n-s+1) + P_(n-r+1) = P_r + P_s mod 2.
D1, D2 and D5 have no twin: D5's right-hand side goes to
sum d_(i+1)^(t) d'_i^(n-t), which is not term by term its own.  Each twin
comes just before its mirror in ``ALL_FAMILIES``, with the same parameters
in the same order, so ``verify_drinfeld_relations`` keeps one family's
residuals and reports their transposes for the next; it checks the table
first, and a table that fails the check is verified family by family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DegreeCapError
from .linalg import BitEchelon, words_row
from .report import Report
from .rtt import Element, RTTAlgebra, bounded_words
from .series import YMatrix, YSeries, gauss_decompose, t_matrix

RELATION_TEXT = {
    "D1": "sum_{t=0}^{r} d_i^(t)*d_i'^(r-t) = delta_{r,0},  d_i^(0) = 1",
    "D2": "[d_i^(r), d_j^(s)] = 0",
    "D3": "[d_i^(r), e_j^(s)] = (delta_{i,j}+delta_{i,j+1}) "
          "sum_{t=0}^{r-1} d_i^(t)*e_j^(r+s-1-t)",
    "D4": "[d_i^(r), f_j^(s)] = (delta_{i,j+1}+delta_{i,j}) "
          "sum_{t=0}^{r-1} f_j^(r+s-1-t)*d_i^(t)",
    "D5": "[e_i^(r), f_j^(s)] = delta_{i,j} "
          "sum_{t=0}^{r+s-1} d_i'^(t)*d_(i+1)^(r+s-1-t)",
    "D6": "[e_j^(r), e_j^(s)] = sum_{t=1}^{s-1} e_j^(t)*e_j^(r+s-1-t) "
          "+ sum_{t=1}^{r-1} e_j^(t)*e_j^(r+s-1-t)",
    "D7": "[f_j^(r), f_j^(s)] = sum_{t=1}^{r-1} f_j^(t)*f_j^(r+s-1-t) "
          "+ sum_{t=1}^{s-1} f_j^(t)*f_j^(r+s-1-t)",
    "D8": "[e_j^(r+1), e_(j+1)^(s)] + [e_j^(r), e_(j+1)^(s+1)] "
          "= e_j^(r)*e_(j+1)^(s)",
    "D9": "[f_j^(r+1), f_(j+1)^(s)] + [f_j^(r), f_(j+1)^(s+1)] "
          "= f_(j+1)^(s)*f_j^(r)",
    "D10": "[e_i^(r), e_j^(s)] = 0  for |i-j| > 1",
    "D11": "[f_i^(r), f_j^(s)] = 0  for |i-j| > 1",
    "D12": "[[e_i^(r), e_j^(s)], e_j^(t)] + [[e_i^(r), e_j^(t)], e_j^(s)] = 0 "
           "for |i-j| = 1",
    "D13": "[[f_i^(r), f_j^(s)], f_j^(t)] + [[f_i^(r), f_j^(t)], f_j^(s)] = 0 "
           "for |i-j| = 1",
    "D14": "[[e_i^(r), e_j^(t)], e_j^(t)] = 0  for |i-j| = 1",
    "D15": "[[f_i^(r), f_j^(t)], f_j^(t)] = 0  for |i-j| = 1",
    "D16": "[[e_(i-1)^(r), e_i^(1)], [e_i^(1), e_(i+1)^(s)]] = 0",
    "D17": "[[f_(i-1)^(r), f_i^(1)], [f_i^(1), f_(i+1)^(s)]] = 0",
}

ALL_FAMILIES = tuple(sorted(RELATION_TEXT, key=lambda s: int(s[1:])))

# f-side family -> its e-side twin, which it is the transpose of
TWINS = {"D4": "D3", "D7": "D6", "D9": "D8", "D11": "D10", "D13": "D12",
         "D15": "D14", "D17": "D16"}


@dataclass
class DrinfeldTable:
    alg: RTTAlgebra
    order: int
    d: dict = field(default_factory=dict)       # i -> {r: Element}, r from 0
    dprime: dict = field(default_factory=dict)  # i -> {r: Element}
    e: dict = field(default_factory=dict)       # (i, j) -> {r: Element}, i < j
    f: dict = field(default_factory=dict)       # (j, i) -> {r: Element}, j > i
    t: YMatrix | None = None                    # the T matrix the table came from
    gauss: tuple | None = None                  # its factors (F, D, E), T = F*D*E

    def e_simple(self, i: int, r: int) -> Element:
        return self.e[(i, i + 1)][r]

    def f_simple(self, i: int, r: int) -> Element:
        return self.f[(i + 1, i)][r]

    def d_series(self, i: int) -> YSeries:
        return YSeries(self.alg, tuple(self.d[i][r] for r in range(self.order + 1)))

    def generators(self, bound: int):
        """Yield (kind, a, b, r, element) for every Drinfeld generator with
        superscript 1 <= r <= bound: d_a^(r) (b = a, r <= order), then
        e_(a,b)^(r), then f_(a,b)^(r), each family by its key, then by r.

        This order is part of the payloads: it names the products of
        drinfeld_pbw_check and the generators of the freeness shadow.
        """
        for i in sorted(self.d):
            for r in range(1, min(bound, self.order) + 1):
                yield "d", i, i, r, self.d[i][r]
        for kind, family in (("e", self.e), ("f", self.f)):
            for (a, b), by_r in sorted(family.items()):
                for r in sorted(by_r):
                    if r <= bound:
                        yield kind, a, b, r, by_r[r]


def generator_params(kind: str, a: int, b: int, r: int) -> dict:
    """Report parameters of a generator from DrinfeldTable.generators:
    d_i^(r), e_(i,j)^(r) and f_(j,i)^(r)."""
    if kind == "d":
        return {"i": a, "r": r}
    if kind == "e":
        return {"i": a, "j": b, "r": r}
    return {"j": a, "i": b, "r": r}


def drinfeld_generators(alg: RTTAlgebra, order: int) -> DrinfeldTable:
    """Extract d, d' and the superdiagonal e, f coefficients via Gauss."""
    t = t_matrix(alg, order)
    inverses: list = []
    f_mat, diag, e_mat = gauss_decompose(t, inverses)
    tab = DrinfeldTable(alg, order, t=t, gauss=(f_mat, diag, e_mat))
    size = alg.shape.size
    for i in range(1, size + 1):
        d, dinv = diag[i - 1], inverses[i - 1]
        tab.d[i] = {r: d.coeffs[r] for r in range(order + 1)}
        tab.dprime[i] = {r: dinv.coeffs[r] for r in range(order + 1)}
    for i in range(1, size):
        tab.e[(i, i + 1)] = {r: e_mat.entry(i, i + 1).coeffs[r]
                             for r in range(1, order + 1)}
        tab.f[(i + 1, i)] = {r: f_mat.entry(i + 1, i).coeffs[r]
                             for r in range(1, order + 1)}
    return tab


def higher_roots(tab: DrinfeldTable, max_r: int | None = None) -> DrinfeldTable:
    """Fill the inductive root elements for all 1 <= i < j <= m+n.

    Brackets raise the canonical degree by one, so superscripts are capped
    at min(order, cap - 1) unless a tighter max_r is requested.
    """
    alg = tab.alg
    size = alg.shape.size
    top = min(tab.order, alg.shape.cap - 1)
    if max_r is not None:
        top = min(top, max_r)
    for span in range(2, size):
        for i in range(1, size - span + 1):
            j = i + span
            tab.e[(i, j)] = {}
            tab.f[(j, i)] = {}
            for r in range(1, top + 1):
                tab.e[(i, j)][r] = alg.commutator(tab.e[(i, j - 1)][r],
                                                  tab.e[(j - 1, j)][1])
                tab.f[(j, i)][r] = alg.commutator(tab.f[(j, j - 1)][1],
                                                  tab.f[(j - 1, i)][r])
    return tab


def build_table(alg: RTTAlgebra, order: int) -> DrinfeldTable:
    return higher_roots(drinfeld_generators(alg, order))


# -- relation instances ------------------------------------------------------


def _superscript_pairs(budget: int):
    for r in range(1, budget):
        for s in range(1, budget - r + 1):
            yield r, s


def _relation_instances(tab: DrinfeldTable, family: str, budget: int):
    """Yield (params, residual_element) for every valid instance of a family.

    Each bracket and each product of a family is formed once.  Brackets go
    through one memo for the family, keyed on the unordered operand pair
    since xy + yx = yx + xy: D2 meets [d_j^s, d_i^r] after [d_i^r, d_j^s],
    D8/D9 and the nested families meet inner brackets in several instances.
    Right-hand sides are running sums within each index block, relying on
    the pairs (r, s) coming with r ascending:
      - D3/D4: the sum at (r, s) is the one at (r-1, s+1), of the same
        n = r+s-1, plus its term t = r-1;
      - D5: the sum depends on r+s alone;
      - D6/D7: both sums are prefixes, over t >= 1, of one list per n.
    The memo dies with the generator: a run-wide one costs peak memory.
    """
    alg = tab.alg
    size = alg.shape.size
    n_ef = size - 1
    mul = alg.multiply
    brackets: dict = {}

    def com(x: Element, y: Element) -> Element:
        key = frozenset((x.words, y.words))
        hit = brackets.get(key)
        if hit is None:
            hit = brackets[key] = alg.commutator(x, y)
        return hit

    if family == "D1":
        for i in range(1, size + 1):
            for r in range(0, min(budget, tab.order) + 1):
                acc = alg.zero()
                for t in range(r + 1):
                    acc = acc + mul(tab.d[i][t], tab.dprime[i][r - t])
                expected = alg.one() if r == 0 else alg.zero()
                yield {"i": i, "r": r}, acc + expected

    elif family == "D2":
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                for r, s in _superscript_pairs(budget):
                    yield ({"i": i, "j": j, "r": r, "s": s},
                           com(tab.d[i][r], tab.d[j][s]))

    elif family in ("D3", "D4"):
        for i in range(1, size + 1):
            for j in range(1, n_ef + 1):
                sums: dict = {}     # n -> sum over t < r of the n-th rhs
                for r, s in _superscript_pairs(budget):
                    if family == "D3":
                        lhs = com(tab.d[i][r], tab.e_simple(j, s))
                    else:
                        lhs = com(tab.d[i][r], tab.f_simple(j, s))
                    rhs = alg.zero()
                    if i == j or i == j + 1:
                        # the new term t = r-1 has e/f superscript s
                        if family == "D3":
                            term = mul(tab.d[i][r - 1], tab.e_simple(j, s))
                        else:
                            term = mul(tab.f_simple(j, s), tab.d[i][r - 1])
                        n = r + s - 1
                        rhs = sums[n] = sums.get(n, alg.zero()) + term
                    yield {"i": i, "j": j, "r": r, "s": s}, lhs + rhs

    elif family == "D5":
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                sums = {}           # r+s -> the rhs
                for r, s in _superscript_pairs(budget):
                    lhs = com(tab.e_simple(i, r), tab.f_simple(j, s))
                    rhs = alg.zero()
                    if i == j:
                        rhs = sums.get(r + s)
                        if rhs is None:
                            rhs = alg.zero()
                            for t in range(r + s):
                                rhs = rhs + mul(tab.dprime[i][t],
                                                tab.d[i + 1][r + s - 1 - t])
                            sums[r + s] = rhs
                    yield {"i": i, "j": j, "r": r, "s": s}, lhs + rhs

    elif family in ("D6", "D7"):
        pick = tab.e_simple if family == "D6" else tab.f_simple
        for j in range(1, n_ef + 1):
            # n -> [P_1, P_2, ...] with P_k = sum_{t=1}^{k-1} x^(t) x^(n-t)
            prefixes: dict = {}
            for r, s in _superscript_pairs(budget):
                lhs = com(pick(j, r), pick(j, s))
                n = r + s - 1
                sums = prefixes.setdefault(n, [alg.zero()])
                while len(sums) < max(r, s):
                    t = len(sums)
                    sums.append(sums[-1] + mul(pick(j, t), pick(j, n - t)))
                yield {"j": j, "r": r, "s": s}, lhs + sums[s - 1] + sums[r - 1]

    elif family in ("D8", "D9"):
        pick = tab.e_simple if family == "D8" else tab.f_simple
        for j in range(1, n_ef):
            for r in range(1, budget):
                for s in range(1, budget - r):
                    # highest term degree is r + s + 1
                    lhs = (com(pick(j, r + 1), pick(j + 1, s))
                           + com(pick(j, r), pick(j + 1, s + 1)))
                    if family == "D8":
                        rhs = mul(pick(j, r), pick(j + 1, s))
                    else:
                        rhs = mul(pick(j + 1, s), pick(j, r))
                    yield {"j": j, "r": r, "s": s}, lhs + rhs

    elif family in ("D10", "D11"):
        pick = tab.e_simple if family == "D10" else tab.f_simple
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                if abs(i - j) <= 1:
                    continue
                for r, s in _superscript_pairs(budget):
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
                            res = (com(com(pick(i, r), pick(j, s)),
                                       pick(j, t))
                                   + com(com(pick(i, r), pick(j, t)),
                                         pick(j, s)))
                            yield {"i": i, "j": j, "r": r, "s": s, "t": t}, res

    elif family in ("D14", "D15"):
        pick = tab.e_simple if family == "D14" else tab.f_simple
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                if abs(i - j) != 1:
                    continue
                for t in range(1, (budget - 1) // 2 + 1):
                    for r in range(1, budget - 2 * t + 1):
                        res = com(com(pick(i, r), pick(j, t)), pick(j, t))
                        yield {"i": i, "j": j, "r": r, "t": t}, res

    elif family in ("D16", "D17"):
        pick = tab.e_simple if family == "D16" else tab.f_simple
        for i in range(2, n_ef):
            for r in range(1, budget - 2):
                for s in range(1, budget - r - 1):
                    inner_left = com(pick(i - 1, r), pick(i, 1))
                    inner_right = com(pick(i, 1), pick(i + 1, s))
                    yield ({"i": i, "r": r, "s": s},
                           com(inner_left, inner_right))

    else:
        raise ValueError(f"unknown relation family {family}")


def transpose_symmetric(tab: DrinfeldTable, budget: int) -> bool:
    """Whether tau fixes d_i^(r) and sends e_(i,i+1)^(r) to f_(i+1,i)^(r)
    for every r < budget in the table: the entries the mirrored families
    read (D4 reads d_i^(0), D7 f^(budget-1)).  d_i^(budget) is not read."""
    alg = tab.alg
    top = min(budget - 1, tab.order)
    return (all(alg.transpose(by_r[r]) == by_r[r]
                for by_r in tab.d.values() for r in range(top + 1))
            and all(alg.transpose(tab.e_simple(i, r)) == tab.f_simple(i, r)
                    for i in range(1, alg.shape.size)
                    for r in range(1, top + 1)))


def verify_drinfeld_relations(tab: DrinfeldTable, budget: int,
                              families=None) -> Report:
    """Evaluate every relation instance within the degree budget.

    An f-side family whose e-side twin is also chosen reports the
    transposes of the twin's residuals, instance by instance, when the
    table is transpose-symmetric up to the budget (see the module
    docstring); every other family, and every family of a table that is
    not, forms its own brackets and products.  Both give the same report.
    Vacuous families (no valid instance) are reported explicitly so the
    per-family counts always cover D1..D17.
    """
    chosen = ALL_FAMILIES if families is None else tuple(
        f for f in ALL_FAMILIES if f in set(families))
    shape = tab.alg.shape
    if budget > shape.cap:
        raise DegreeCapError(f"budget {budget} exceeds cap {shape.cap}")
    # largest superscript a family can touch at this budget (D1 self-clamps)
    reach = {"D12": 2, "D13": 2, "D14": 2, "D15": 2, "D16": 3, "D17": 3}
    needed = max((budget - reach.get(f, 1) for f in chosen if f != "D1"),
                 default=0)
    if needed > tab.order:
        raise DegreeCapError(
            f"budget {budget} on families {list(chosen)} needs table "
            f"order >= {needed}, have {tab.order}")
    report = Report("drinfeld-relations",
                    config={"m": shape.m, "n": shape.n, "cap": shape.cap,
                            "order": tab.order, "budget": budget,
                            "families": list(chosen)})
    mirrored = {f for f in chosen if TWINS.get(f) in chosen}
    if mirrored and not transpose_symmetric(tab, budget):
        mirrored = set()
    twins = {TWINS[f] for f in mirrored}
    transpose = tab.alg.transpose
    kept: list = []     # the (params, residual) pairs of the last twin
    for family in chosen:
        if family in mirrored:
            instances = ((dict(params), transpose(residual))
                         for params, residual in kept)
        else:
            instances = _relation_instances(tab, family, budget)
        kept = []
        count = 0
        for params, residual in instances:
            count += 1
            if family in twins:
                kept.append((params, residual))
            ok = not residual
            report.add(family, params, ok,
                       witness=None if ok else residual.canonical(),
                       value=None)
        if count == 0:
            report.add(family, {"instances": 0}, True, value="vacuous")
    return report


def verify_odd_square_relations(tab: DrinfeldTable, budget: int,
                                quotient) -> Report:
    """Check that [e_m^(r), e_m^(s)] and [f_m^(r), f_m^(s)] die in the quotient.

    The quotient model supplies the reduction modulo the odd-square ideal;
    in the parent algebra these brackets are generally nonzero.
    """
    alg = tab.alg
    m = alg.shape.m
    if budget - 1 > tab.order or budget > quotient.bound:
        raise DegreeCapError(
            f"budget {budget} needs table order >= {budget - 1} and "
            f"quotient bound >= {budget}")
    report = Report("odd-square-relations",
                    config={"m": alg.shape.m, "n": alg.shape.n,
                            "budget": budget})
    for kind, pick in (("e", tab.e_simple), ("f", tab.f_simple)):
        for r in range(1, budget):
            for s in range(r, budget - r + 1):
                bracket = alg.commutator(pick(m, r), pick(m, s))
                image = quotient.reduce(bracket)
                ok = not image
                report.add(f"odd-square-{kind}", {"r": r, "s": s}, ok,
                           witness=None if ok else image.canonical())
    return report


def drinfeld_pbw_check(tab: DrinfeldTable, bound: int,
                       super_only: bool = False) -> Report:
    """Rank certificate for ordered Drinfeld (super)monomials of degree <= bound.

    Each monomial in the table generators is expanded to RTT normal form
    and the coefficient matrix against the degree-<=bound PBW basis must
    have full rank (equal to the monomial count; in the plain case that
    count is exactly dim F_bound).
    """
    alg = tab.alg
    shape = alg.shape
    if bound > tab.order:
        raise DegreeCapError(
            f"pbw check at bound {bound} needs table order >= {bound}")
    for family in list(tab.e.values()) + list(tab.f.values()):
        if family and max(family) < bound:
            # higher roots stop at cap - 1; an incomplete symbol set would
            # silently undercount the basis
            raise DegreeCapError(
                f"pbw check at bound {bound} needs every root family up to "
                f"superscript {bound}; raise the cap to at least {bound + 1}")

    # Drinfeld generators with their symbols (kind, a, b, r)
    factors = [((kind, a, b, r), value)
               for kind, a, b, r, value in tab.generators(bound)]

    def times(prod: tuple, factor: tuple) -> tuple:
        element, mono = prod
        sym, value = factor
        return alg.multiply(element, value), mono + (sym,)

    caps = [1 if super_only and shape.parity(a, b) else bound
            for (_, a, b, _), _ in factors]
    basis = alg.pbw_monomials(bound)
    index = {w: k for k, w in enumerate(basis)}
    ech = BitEchelon()
    count = 0
    dependent = []
    for (element, mono), _ in bounded_words(
            factors, [sym[3] for sym, _ in factors], bound, caps, times,
            (alg.one(), ())):
        count += 1
        if ech.add(words_row(element.words, index, bound)) == 0:
            dependent.append(mono)

    report = Report("drinfeld-pbw",
                    config={"m": shape.m, "n": shape.n, "bound": bound,
                            "super": super_only})
    rank_ok = ech.rank == count
    report.add("rank", {"monomials": count, "rank": ech.rank,
                        "dim_full": len(basis)},
               rank_ok,
               witness=None if rank_ok else f"dependent: {dependent[:3]}")
    if not super_only:
        report.add("rank-equals-dim", {"rank": ech.rank, "dim": len(basis)},
                   ech.rank == len(basis))
    return report
