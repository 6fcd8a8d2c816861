"""Independent reference implementations used as test oracles.

Most of this is deliberately written without touching the package
internals: plain (i, j, r) triples, Counter coefficients, factorial
binomials and generating-function counts.  Agreement between these and
the engine is the point of the tests that import them.  The engine's
words are bytes, three per letter; ``triples`` turns one into the tuple of
(i, j, r) triples the references use, and is the one place that reads the
encoding.  The last section keeps what only tests read: the dense rows
that the block echelons are checked against; the displayed right-hand
side of the defining relation, the loop degree and the parity of an
element, on an algebra of the package; the check that the odd-square
quotient kills the brackets of the odd simple roots; the independence
check in the full algebra, with no ideal; the adjoint action of a
classical letter on one supermonomial, word by word; the PBW check's rank
with its columns in ascending (degree, word) order; and a copy of a record
with some fields changed.
"""

from __future__ import annotations

import math
from collections import Counter

from yangian2.centers import independence_check
from yangian2.errors import DegreeCapError
from yangian2.linalg import BitEchelon, BlockColumns
from yangian2.report import Report
from yangian2.rtt import (merge_product, pack_gen, product_rank,
                          word_letters, word_loop_degree, word_weight)


def triples(word: bytes) -> tuple:
    """An engine word, or letter, as the tuple of its (i, j, r) triples."""
    fields = iter(word)
    return tuple(zip(fields, fields, fields))


def pascal_table_mod2(limit: int) -> list[list[int]]:
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append((prev[k - 1] + prev[k]) % 2)
        row.append(1)
        rows.append(row)
    return rows


def binom_factorial_mod2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) % 2


# -- naive RTT rewriting ---------------------------------------------------------


def naive_bracket_words(g1, g2) -> Counter:
    """Right-hand side of the defining relation, words keyed by (i,j,r) triples."""
    (i, j, r), (k, l, s) = g1, g2
    out: Counter = Counter()
    for t in range(min(r, s)):
        hi = r + s - 1 - t
        if t == 0:
            if k == j:
                out[((i, l, hi),)] += 1
            if i == l:
                out[((k, j, hi),)] += 1
        else:
            out[((k, j, t), (i, l, hi))] += 1
            out[((k, j, hi), (i, l, t))] += 1
    return out


def naive_normal_form(words) -> set:
    """Worklist rewriting, rightmost inversion first, Counter coefficients."""
    pending: Counter = Counter()
    for w in words:
        pending[tuple(tuple(g) for g in w)] += 1
    done: Counter = Counter()
    while pending:
        word, mult = pending.popitem()
        if mult % 2 == 0:
            continue
        idx = None
        for p in range(len(word) - 2, -1, -1):
            if word[p] > word[p + 1]:
                idx = p
                break
        if idx is None:
            done[word] += mult
            continue
        g1, g2 = word[idx], word[idx + 1]
        pending[word[:idx] + (g2, g1) + word[idx + 2:]] += mult
        for mid, c in naive_bracket_words(g1, g2).items():
            pending[word[:idx] + mid + word[idx + 2:]] += mult * c
    return {w for w, c in done.items() if c % 2}


def naive_classical_normal_form(words, m: int, trunc: int) -> set:
    """Worklist rewriting in U(gl_{m|n}[t]/(t^T)) mod 2, rightmost
    out-of-place pair first: a swap plus the letter of the bracket
    [E_ij t^r, E_kl t^s] = delta_kj E_il t^(r+s) + delta_li E_kj t^(r+s),
    which vanishes once r + s reaches T, and the square of an odd
    letter (i and j in different blocks) rewrites to 0."""
    def odd(g):
        return (g[0] <= m) != (g[1] <= m)

    pending: Counter = Counter()
    for w in words:
        pending[tuple(tuple(g) for g in w)] += 1
    done: Counter = Counter()
    while pending:
        word, mult = pending.popitem()
        if mult % 2 == 0:
            continue
        idx = None
        for p in range(len(word) - 2, -1, -1):
            if word[p] > word[p + 1] or (word[p] == word[p + 1]
                                         and odd(word[p])):
                idx = p
                break
        if idx is None:
            done[word] += mult
            continue
        (i, j, r), (k, l, s) = g1, g2 = word[idx], word[idx + 1]
        if g1 == g2:
            continue
        pending[word[:idx] + (g2, g1) + word[idx + 2:]] += mult
        if r + s < trunc:
            for hit, mid in ((k == j, (i, l, r + s)), (l == i, (k, j, r + s))):
                if hit:
                    pending[word[:idx] + (mid,) + word[idx + 2:]] += mult
    return {w for w, c in done.items() if c % 2}


def gl_bracket_mod2(g1, g2) -> set:
    """Degree-one structure constants of gl over GF(2): [E_ij, E_kl]."""
    (i, j), (k, l) = g1, g2
    out: Counter = Counter()
    if k == j:
        out[(i, l)] += 1
    if i == l:
        out[(k, j)] += 1
    return {g for g, c in out.items() if c % 2}


# -- generating-function monomial counts ------------------------------------------


def _poly_mul(p: list[int], q: list[int], bound: int) -> list[int]:
    out = [0] * (bound + 1)
    for a, ca in enumerate(p):
        if not ca:
            continue
        for b, cb in enumerate(q):
            if a + b > bound:
                break
            out[a + b] += ca * cb
    return out


def monomial_counts(even_per_degree: int, odd_per_degree: int, bound: int,
                    super_only: bool) -> list[int]:
    """Counts of ordered (super)monomials by total degree, via power series.

    Each even generator of degree r contributes 1/(1 - x^r); odd
    generators contribute (1 + x^r) in the super case and the geometric
    factor otherwise.
    """
    poly = [1] + [0] * bound
    for r in range(1, bound + 1):
        geometric = [1 if k % r == 0 else 0 for k in range(bound + 1)]
        binary = [1 if k in (0, r) else 0 for k in range(bound + 1)]
        for _ in range(even_per_degree):
            poly = _poly_mul(poly, geometric, bound)
        odd_factor = binary if super_only else geometric
        for _ in range(odd_per_degree):
            poly = _poly_mul(poly, odd_factor, bound)
    return poly


def count_full(m: int, n: int, bound: int) -> list[int]:
    """Cumulative dimension of the degree filtration, all generators free."""
    per_degree = monomial_counts((m + n) ** 2, 0, bound, super_only=False)
    out = []
    total = 0
    for c in per_degree:
        total += c
        out.append(total)
    return out


def count_super(m: int, n: int, bound: int) -> list[int]:
    """Cumulative count of ordered supermonomials (odd exponents <= 1)."""
    per_degree = monomial_counts(m * m + n * n, 2 * m * n, bound, super_only=True)
    out = []
    total = 0
    for c in per_degree:
        total += c
        out.append(total)
    return out


# -- dense rows and test-only readings of the engine ---------------------------


def words_row(words, index: dict, bound: int) -> int:
    """Bitmask row of a set of words over the columns in index, one dense
    row over every column.

    The columns are the monomials of degree <= bound; a word outside them
    raises DegreeCapError instead of being dropped.
    """
    row = 0
    for w in words:
        pos = index.get(w)
        if pos is None:
            raise DegreeCapError(f"element degree exceeds bound {bound}")
        row |= 1 << pos
    return row


def rank_of(rows) -> int:
    """GF(2) rank of an iterable of bitmask rows."""
    ech = BitEchelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def rtt_rhs(alg, g1: tuple, g2: tuple, super_sign: bool = False):
    """Normal form in alg of the displayed right-hand side for [g1, g2].

    g1 and g2 are (i, j, r) triples.  The super flavour carries the
    prefactor (-1)^(bi*bj + bi*bk + bj*bk); both reduce to the same
    element mod 2, which is exactly the collapse the engine relies on,
    and tests assert it by calling both.
    """
    a, b = pack_gen(alg, *g1), pack_gen(alg, *g2)
    if g1[2] + g2[2] - 1 > alg.shape.cap:
        raise DegreeCapError(
            f"bracket degree {g1[2] + g2[2] - 1} exceeds cap {alg.shape.cap}")
    coeff = 1
    if super_sign:
        (i, j, _), (k, l, _) = g1, g2
        bi, bj, bk = (alg.shape.block(i), alg.shape.block(j),
                      alg.shape.block(k))
        coeff = (-1) ** (bi * bj + bi * bk + bj * bk) % 2
    return alg.normal_form(alg._bracket(a, b) if coeff else ())


def loop_degree(x) -> int:
    """Loop degree of an element: the largest over its words, t[i,j,r]
    counting r - 1."""
    return max((word_loop_degree(w) for w in x.words), default=0)


def parity(x):
    """Common parity of all monomials of x, or None when mixed; 0 for
    zero."""
    odd = x.alg._odd
    seen = {sum(g in odd for g in word_letters(w)) % 2 for w in x.words}
    if not seen:
        return 0
    if len(seen) == 1:
        return seen.pop()
    return None


def verify_odd_square_relations(tab, budget: int, quotient) -> Report:
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


class FullAlgebra:
    """The quotient by the zero ideal up to bound, as independence_check
    reads a quotient model: its bound, the PBW monomials by weight as its
    columns, and a reduction that changes nothing."""

    def __init__(self, alg, bound: int) -> None:
        self.bound = bound
        self.columns = BlockColumns.by_key(alg.pbw_monomials(bound),
                                           word_weight)

    def reduce(self, x):
        return x


def full_independence_check(gens, bound: int) -> Report:
    """centers.independence_check in the parent algebra: the products are
    ranked as they are, not modulo the odd-square ideal.  The payload's
    "quotient" key still reads true."""
    return independence_check(gens, FullAlgebra(gens[0][1].alg, bound))


def s_adjoint(alg, g: bytes, word: bytes) -> frozenset:
    """Adjoint action of a classical letter on an S-supermonomial, as a
    derivation, one position of the word at a time."""
    acc: set = set()
    for pos in range(0, len(word), 3):
        brackets = alg._bracket(g, word[pos:pos + 3])
        if brackets:
            acc ^= merge_product((word[:pos] + word[pos + 3:],), brackets,
                                 alg._odd)
    return frozenset(acc)


def ascending_pbw_rank(tab, bound: int, super_only: bool = False) -> tuple:
    """(count, rank, dependent exponent vectors) of drinfeld_pbw_check's
    products, ranked with the columns in pbw_monomials order: ascending
    (degree, word), so a row's pivot is a low-degree tail word."""
    alg = tab.alg
    gens = list(tab.generators(bound))
    caps = [1 if super_only and alg.shape.parity(a, b) else bound
            for _, a, b, _, _ in gens]
    columns = BlockColumns.by_key(alg.pbw_monomials(bound), word_weight)
    return product_rank(alg, [g[4] for g in gens], [g[3] for g in gens],
                        bound, lambda x: columns.vector(x.words, bound), caps)


def replaced(record, **changes):
    """A new record of the same class, with the fields named in changes
    set to their values and every other field taken from record."""
    unknown = set(changes) - set(record.__slots__)
    if unknown:
        raise TypeError(f"{type(record).__name__} has no fields {sorted(unknown)}")
    return type(record)(*(changes.get(name, getattr(record, name))
                          for name in record.__slots__))
