"""Drinfeld generators, higher root elements and the relation verifier.

The table holds exact normal-form elements for d_i^(r), its inverse-series
coefficients d'_i^(r), and root elements e_(i,j)^(r), f_(j,i)^(r).  The
Gauss decomposition inverts every pivot but the last; d'_N is formed on
its first read (PivotInverses), so a command that reads no d'_N never
inverts d_N.
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

Seven f-side families are transposes of the e-side family before them.
The transposition tau: t_ij(u) -> t_ji(u) is an involutive
anti-automorphism of the Yangian (``RTTAlgebra.transpose``), and over
GF(2) [x, y] = xy + yx = [y, x], so tau[x, y] = [tau y, tau x] =
[tau x, tau y].  Let tau T be the table with d_i^(r) -> tau(d_i^(r)) and
e_i^(r) -> tau(f_i^(r)) (``transposed_table``).  For every table T, tau
sends the residual of each e-side family on tau T to that of its f-side
twin on T at the same parameters:
  - D3 -> D4: [tau d, tau f] + sum tau d^(t) tau f goes to
    [d, f] + sum f d^(t);
  - D8 -> D9: the two brackets go to theirs, and the product
    tau f_j^(r) tau f_(j+1)^(s) to f_(j+1)^(s) f_j^(r);
  - D10 -> D11, D12 -> D13, D14 -> D15, D16 -> D17: brackets and nested
    brackets alone, term by term;
  - D6 -> D7 needs one reindexing.  With n = r+s-1 and
    P_k = sum_{t=1}^{k-1} x^(t) x^(n-t), tau(e^(t) e^(n-t)) = f^(n-t) f^(t)
    for e = tau f, so tau(P_k) = P_n + P_(n-k+1) on the f side, and
    tau(P_s + P_r) = P_(n-s+1) + P_(n-r+1) = P_r + P_s mod 2.
D1, D2 and D5 have no twin: D5's right-hand side goes to
sum d_(i+1)^(t) d'_i^(n-t), which is not term by term its own.  No f-side
family has code of its own: ``verify_drinfeld_relations`` reports the
transposes of its twin's residuals on tau T.  The Gauss table is its own
tau T, and each twin comes just before its f-side family in
``ALL_FAMILIES``, so a twin chosen too has its residuals kept and
transposed instead of formed again on the same table.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import DegreeCapError
from .linalg import BlockColumns
from .report import Record, Report
from .rtt import Element, RTTAlgebra, product_rank, word_degree, word_weight
from .series import YMatrix, YSeries, gauss_decompose, series_inv, t_matrix

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


class PivotInverses(Mapping):
    """i -> {r: d'_i^(r)} for i = 1..N, from the N - 1 pivot inverses that
    gauss_decompose forms and the last pivot d_N, which F and E never use.
    d_N is inverted on the first read of d'_N, once, so commands that read
    no d'_N never form it.  The mapping holds the last pivot's series only,
    not the table."""

    def __init__(self, inverses: list, last: YSeries):
        self._rows = {i: dict(enumerate(inv.coeffs))
                      for i, inv in enumerate(inverses, 1)}
        self._last = last
        self._size = len(inverses) + 1

    def __getitem__(self, i: int) -> dict:
        rows = self._rows
        if i not in rows:
            if i != self._size:
                raise KeyError(i)
            rows[i] = dict(enumerate(series_inv(self._last).coeffs))
            self._last = None
        return rows[i]

    def __iter__(self):
        return iter(range(1, self._size + 1))

    def __len__(self) -> int:
        return self._size


class DrinfeldTable(Record):
    __slots__ = ("alg", "order", "d", "dprime", "e", "f", "t", "gauss")

    def __init__(self, alg: RTTAlgebra, order: int, d: dict | None = None,
                 dprime: Mapping | None = None, e: dict | None = None,
                 f: dict | None = None, t: YMatrix | None = None,
                 gauss: tuple | None = None) -> None:
        self.alg = alg
        self.order = order
        self.d = {} if d is None else d     # i -> {r: Element}, r from 0
        # i -> {r: Element}; from drinfeld_generators a PivotInverses, which
        # inverts the last pivot on the first read of d'_N
        self.dprime = {} if dprime is None else dprime
        self.e = {} if e is None else e     # (i, j) -> {r: Element}, i < j
        self.f = {} if f is None else f     # (j, i) -> {r: Element}, j > i
        self.t = t                          # the T matrix the table came from
        self.gauss = gauss                  # its factors (F, D, E), T = F*D*E

    def e_simple(self, i: int, r: int) -> Element:
        return self.e[(i, i + 1)][r]

    def f_simple(self, i: int, r: int) -> Element:
        return self.f[(i + 1, i)][r]

    def d_series(self, i: int) -> YSeries:
        return YSeries(self.alg, tuple(self.d[i][r] for r in range(self.order + 1)))

    @property
    def root_top(self) -> int:
        """The largest superscript that every e and f family reaches: the
        order with two blocks, else min(order, cap - 1), since brackets
        raise the canonical degree by one and the higher roots
        (``higher_roots``) stop there."""
        if self.alg.shape.size == 2:
            return self.order
        return min(self.order, self.alg.shape.cap - 1)

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
    """Extract d, d' and the superdiagonal e, f coefficients via Gauss;
    d'_N comes from inverting the last pivot on its first read."""
    t = t_matrix(alg, order)
    inverses: list = []
    f_mat, diag, e_mat = gauss_decompose(t, inverses)
    tab = DrinfeldTable(alg, order, dprime=PivotInverses(inverses, diag[-1]),
                        t=t, gauss=(f_mat, diag, e_mat))
    size = alg.shape.size
    for i in range(1, size + 1):
        tab.d[i] = dict(enumerate(diag[i - 1].coeffs))
    for i in range(1, size):
        tab.e[(i, i + 1)] = {r: e_mat.entry(i, i + 1).coeffs[r]
                             for r in range(1, order + 1)}
        tab.f[(i + 1, i)] = {r: f_mat.entry(i + 1, i).coeffs[r]
                             for r in range(1, order + 1)}
    return tab


def higher_roots(tab: DrinfeldTable) -> DrinfeldTable:
    """Fill the inductive root elements for all 1 <= i < j <= m+n, with
    superscripts up to tab.root_top."""
    alg = tab.alg
    size = alg.shape.size
    top = tab.root_top
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
    """Yield (params, residual_element) for every valid instance of one of
    D1, D2, D3, D5, D6, D8, D10, D12, D14 and D16.  An f-side family has no
    instances of its own (see the module docstring) and raises ValueError.

    Each bracket and each product of a family is formed once.  Brackets go
    through one memo for the family, keyed on the unordered operand pair
    since xy + yx = yx + xy: D2 meets [d_j^s, d_i^r] after [d_i^r, d_j^s],
    D8 and the nested families meet inner brackets in several instances.
    Right-hand sides are running sums within each index block, relying on
    the pairs (r, s) coming with r ascending:
      - D3: the sum at (r, s) is the one at (r-1, s+1), of the same
        n = r+s-1, plus its term t = r-1;
      - D5: the sum depends on r+s alone;
      - D6: both sums are prefixes, over t >= 1, of one list per n.
    The memo dies with the generator: a run-wide one costs peak memory.
    """
    alg = tab.alg
    size = alg.shape.size
    n_ef = size - 1
    mul, e = alg.multiply, tab.e_simple
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

    elif family == "D3":
        for i in range(1, size + 1):
            for j in range(1, n_ef + 1):
                sums: dict = {}     # n -> sum over t < r of the n-th rhs
                for r, s in _superscript_pairs(budget):
                    lhs = com(tab.d[i][r], e(j, s))
                    rhs = alg.zero()
                    if i == j or i == j + 1:
                        # the new term t = r-1 has e superscript s
                        term = mul(tab.d[i][r - 1], e(j, s))
                        n = r + s - 1
                        rhs = sums[n] = sums.get(n, alg.zero()) + term
                    yield {"i": i, "j": j, "r": r, "s": s}, lhs + rhs

    elif family == "D5":
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                sums = {}           # r+s -> the rhs
                for r, s in _superscript_pairs(budget):
                    lhs = com(e(i, r), tab.f_simple(j, s))
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

    elif family == "D6":
        for j in range(1, n_ef + 1):
            # n -> [P_1, P_2, ...] with P_k = sum_{t=1}^{k-1} e^(t) e^(n-t)
            prefixes: dict = {}
            for r, s in _superscript_pairs(budget):
                lhs = com(e(j, r), e(j, s))
                n = r + s - 1
                sums = prefixes.setdefault(n, [alg.zero()])
                while len(sums) < max(r, s):
                    t = len(sums)
                    sums.append(sums[-1] + mul(e(j, t), e(j, n - t)))
                yield {"j": j, "r": r, "s": s}, lhs + sums[s - 1] + sums[r - 1]

    elif family == "D8":
        for j in range(1, n_ef):
            for r in range(1, budget):
                for s in range(1, budget - r):
                    # highest term degree is r + s + 1
                    lhs = (com(e(j, r + 1), e(j + 1, s))
                           + com(e(j, r), e(j + 1, s + 1)))
                    rhs = mul(e(j, r), e(j + 1, s))
                    yield {"j": j, "r": r, "s": s}, lhs + rhs

    elif family == "D10":
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                if abs(i - j) <= 1:
                    continue
                for r, s in _superscript_pairs(budget):
                    yield ({"i": i, "j": j, "r": r, "s": s},
                           com(e(i, r), e(j, s)))

    elif family == "D12":
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                if abs(i - j) != 1:
                    continue
                for r in range(1, budget - 1):
                    for s in range(1, budget - r):
                        for t in range(1, budget - r - s + 1):
                            res = (com(com(e(i, r), e(j, s)), e(j, t))
                                   + com(com(e(i, r), e(j, t)), e(j, s)))
                            yield {"i": i, "j": j, "r": r, "s": s, "t": t}, res

    elif family == "D14":
        for i in range(1, n_ef + 1):
            for j in range(1, n_ef + 1):
                if abs(i - j) != 1:
                    continue
                for t in range(1, (budget - 1) // 2 + 1):
                    for r in range(1, budget - 2 * t + 1):
                        res = com(com(e(i, r), e(j, t)), e(j, t))
                        yield {"i": i, "j": j, "r": r, "t": t}, res

    elif family == "D16":
        for i in range(2, n_ef):
            for r in range(1, budget - 2):
                for s in range(1, budget - r - 1):
                    inner_left = com(e(i - 1, r), e(i, 1))
                    inner_right = com(e(i, 1), e(i + 1, s))
                    yield ({"i": i, "r": r, "s": s},
                           com(inner_left, inner_right))

    else:
        raise ValueError(f"family {family} has no instances of its own")


def transposed_table(tab: DrinfeldTable, budget: int) -> DrinfeldTable:
    """tau T: d_i^(r) -> tau(d_i^(r)) and e_(i,i+1)^(r) -> tau(f_(i+1,i)^(r))
    for every r < budget in the table, the entries the e-side twins read
    (D3 reads d_i^(0), D6 e^(budget-1)); tab itself when tau fixes every
    one of them.  d_i^(budget) is not read."""
    alg = tab.alg
    top = min(budget - 1, tab.order)
    d = {i: {r: by_r[r] for r in range(top + 1)} for i, by_r in tab.d.items()}
    e = {(i, i + 1): {r: tab.e_simple(i, r) for r in range(1, top + 1)}
         for i in range(1, alg.shape.size)}
    tau = DrinfeldTable(
        alg, tab.order,
        d={i: {r: alg.transpose(x) for r, x in by_r.items()}
           for i, by_r in d.items()},
        e={(i, j): {r: alg.transpose(tab.f[(j, i)][r]) for r in by_r}
           for (i, j), by_r in e.items()})
    return tab if (tau.d, tau.e) == (d, e) else tau


def verify_drinfeld_relations(tab: DrinfeldTable, budget: int,
                              families=None) -> Report:
    """Evaluate every relation instance within the degree budget.

    An f-side family reports, instance by instance, the transposes of its
    e-side twin's residuals on the transposed table (see the module
    docstring).  When that table is tab and the twin is chosen too, the
    twin's own residuals are kept and transposed instead of formed again.
    Vacuous families (no valid instance) are reported explicitly so the
    per-family counts always cover D1..D17.  Unknown family names, or a
    bare string in place of a collection, raise ValueError.
    """
    if isinstance(families, str):
        raise ValueError(f"families must be a collection of names, "
                         f"not the string {families!r}")
    unknown = sorted(set(families or ()) - set(ALL_FAMILIES))
    if unknown:
        raise ValueError(f"unknown relation families {unknown}")
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
    f_side = [f for f in chosen if f in TWINS]
    tau_tab = transposed_table(tab, budget) if f_side else None
    reused = {TWINS[f] for f in f_side
              if tau_tab is tab and TWINS[f] in chosen}
    transpose = tab.alg.transpose
    kept: list = []     # the (params, residual) pairs of the last twin
    for family in chosen:
        twin = TWINS.get(family)
        if twin is None:
            instances = _relation_instances(tab, family, budget)
        else:
            source = (kept if twin in reused
                      else _relation_instances(tau_tab, twin, budget))
            instances = ((dict(params), transpose(residual))
                         for params, residual in source)
        kept = []
        count = 0
        for params, residual in instances:
            count += 1
            if family in reused:
                kept.append((params, residual))
            ok = not residual
            report.add(family, params, ok,
                       witness=None if ok else residual.canonical(),
                       value=None)
        if count == 0:
            report.add(family, {"instances": 0}, True, value="vacuous")
    return report


def drinfeld_pbw_check(tab: DrinfeldTable, bound: int,
                       super_only: bool = False) -> Report:
    """Rank certificate for ordered Drinfeld (super)monomials of degree <= bound.

    Each monomial in the table generators is expanded to RTT normal form
    and the coefficient matrix against the degree-<=bound PBW basis must
    have full rank (equal to the monomial count; in the plain case that
    count is exactly dim F_bound).  Every generator is homogeneous for the
    root-lattice weight, so each monomial is ranked in its weight block
    (rtt.product_rank).
    """
    alg = tab.alg
    shape = alg.shape
    if bound > tab.order:
        raise DegreeCapError(
            f"pbw check at bound {bound} needs table order >= {bound}")
    if bound > tab.root_top:
        # higher roots stop at cap - 1; an incomplete symbol set would
        # silently undercount the basis
        raise DegreeCapError(
            f"pbw check at bound {bound} needs every root family up to "
            f"superscript {bound}; raise the cap to at least {bound + 1}")

    gens = list(tab.generators(bound))
    caps = [1 if super_only and shape.parity(a, b) else bound
            for _, a, b, _, _ in gens]
    basis = alg.pbw_monomials(bound)
    # columns in centers.leading_word's order (degree descending, fewer
    # letters, smaller word), so a product's pivot is its lead and its row
    # meets few earlier pivots; dependence on the earlier products, and so
    # the rank and the named dependents, does not depend on column order
    columns = BlockColumns.by_key(
        sorted(basis, key=lambda w: (-word_degree(w), len(w), w)), word_weight)
    count, rank, dependent = product_rank(
        alg, [g[4] for g in gens], [g[3] for g in gens], bound,
        lambda x: columns.vector(x.words, bound), caps)
    # the first dependent monomials, each as its symbols (kind, a, b, r)
    named = [tuple(g[:4] for g, e in zip(gens, exponents) for _ in range(e))
             for exponents in dependent[:3]]

    report = Report("drinfeld-pbw",
                    config={"m": shape.m, "n": shape.n, "bound": bound,
                            "super": super_only})
    rank_ok = rank == count
    report.add("rank", {"monomials": count, "rank": rank,
                        "dim_full": len(basis)},
               rank_ok,
               witness=None if rank_ok else f"dependent: {named}")
    if not super_only:
        report.add("rank-equals-dim", {"rank": rank, "dim": len(basis)},
                   rank == len(basis))
    return report
