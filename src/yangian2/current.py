"""The classical oracle: gl_{m+n}[t]/(t^T) as a Lie superalgebra over GF(2).

Basis symbols E[i,j]t^r (0 <= r < T) are packed like RTT generators,
(i << 16) | (j << 8) | r, with the t-exponent zero-based, so that int
order is the (i, j, r) lexicographic normal-form order.  The bracket is

    [E[i,j]t^r, E[k,l]t^s] = delta_{k,j} E[i,l]t^(r+s) + delta_{l,i} E[k,j]t^(r+s)

truncated to zero once r + s reaches T.  The superstructure in
characteristic 2 is the quadratic map Q = matrix squaring restricted to
the odd part, and the enveloping algebra used throughout is the super
one: odd basis squares rewrite to Q(basis) = 0.

Elements, normal forms, products and commutators come from
``rtt.WordAlgebra``, the word-algebra core that serves the Yangian too.
``CurrentAlgebra`` subclasses it and supplies its bracket rule
``_bracket_rule`` and its ``_nilsquare``, the odd symbols, whose squares
``rtt.straighten`` then kills.  The rest of this module is classical: the
truncation, ``p_map`` and ``quadratic_q``, the Lie generating set, and the
invariants layer, whose products are ``rtt.merge_product`` over the odd
symbols.

The truncation is a genuine quotient Lie superalgebra (the ideal t^T g is
stable under both the bracket and the squaring map), so every identity
checked here is exact, not approximate.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from functools import partial

from .linalg import BitEchelon, words_row
from .report import Report
from .rtt import (Element, Shape, WordAlgebra, bounded_words, check_operands,
                  graded_words, merge_product, pack, unpack)


def render_cword(word) -> str:
    if not word:
        return "1"
    return "*".join(f"E[{g >> 16},{(g >> 8) & 0xFF}]t^{g & 0xFF}" for g in word)


class CurrentAlgebra(WordAlgebra):
    """gl_{m+n}[t]/(t^T) and its super enveloping algebra over GF(2): the
    classical bracket rule, the odd squares that vanish, the Lie-level
    maps and the Lie generating set, on ``rtt.WordAlgebra``.  The memo of
    each letter's bracket partners is transparent like its caches.
    """

    render_word = staticmethod(render_cword)

    def __init__(self, m: int, n: int, trunc: int):
        super().__init__(Shape(m, n, trunc), range(trunc))
        self.m, self.n, self.trunc = m, n, trunc
        self._nilsquare = self._odd     # odd squares rewrite to Q(basis) = 0
        self._partner_cache: dict = {}  # letter g -> ((b, [g, b]), ...)
        self._lie_generators = None     # certified on first use

    # bound on each algebra, so that perfbench/traced.py times them apart
    multiply = WordAlgebra.multiply

    @property
    def size(self) -> int:
        return self.shape.size

    def gen_parity(self, g: int) -> int:
        return 1 if g in self._odd else 0

    def lie_generators(self) -> tuple:
        """A Lie generating set S of gl_{m+n}[t]/(t^T), in packed order:
        the simple root vectors E[i,i+1]t^0 and E[i+1,i]t^0 for
        1 <= i < m+n, and E[1,1]t^r for 0 <= r < T, 2(m+n-1) + T letters.

        [E[1,1]t^r, E[1,2]t^0] = E[1,2]t^r moves the t-degree onto a root
        vector, [E[i,i+1]t^r, E[i+1,i]t^0] = E[i,i]t^r + E[i+1,i+1]t^r
        walks it down the diagonal, and nested brackets of the simple root
        vectors reach every off-diagonal position.  The set is not
        trusted: on first use certified_lie_generators checks that the Lie
        closure of its span is every letter, and raises if it is not.
        The result is cached on the algebra.
        """
        if self._lie_generators is None:
            gens = {pack(1, 1, r) for r in self.superscripts}
            for i in range(1, self.size):
                gens |= {pack(i, i + 1, 0), pack(i + 1, i, 0)}
            self._lie_generators = certified_lie_generators(self, gens)
        return self._lie_generators

    def bracket_partners(self, g: int) -> tuple:
        """The pairs (b, [g, b]) over the letters b, in packed order, whose
        bracket with g is nonzero; memoised per letter."""
        hit = self._partner_cache.get(g)
        if hit is None:
            hit = self._partner_cache[g] = tuple(
                (b, brackets) for b in self.generators()
                if (brackets := self._bracket(g, b)))
        return hit

    # -- Lie structure ---------------------------------------------------------

    def _bracket_rule(self, a: int, b: int) -> frozenset:
        """The letter [a, b] as a set of one-letter words, empty once the
        t-degree reaches the truncation."""
        i, j, r = unpack(a)
        k, l, s = unpack(b)
        out: set = set()
        if r + s < self.trunc:
            if k == j:
                out ^= {(pack(i, l, r + s),)}
            if l == i:
                out ^= {(pack(k, j, r + s),)}
        return frozenset(out)

    def bracket(self, x: Element, y: Element) -> Element:
        """Lie bracket, bilinear over degree-1 elements."""
        if x.alg is not self or y.alg is not self:
            check_operands(self, x, y)
        if not (x.is_lie() and y.is_lie()):
            raise ValueError("bracket is defined on Lie elements")
        acc: set = set()
        for (a,) in x.words:
            for (b,) in y.words:
                acc ^= self._bracket(a, b)
        return Element(self, frozenset(acc))

    def p_map(self, x: Element) -> Element:
        """Matrix square of a Lie element, re-expanded in the basis.

        On basis symbols this is E[i,j]t^r -> delta_{i,j} E[i,j]t^(2r),
        with t-overflow truncating to zero.
        """
        if not x.is_lie():
            raise ValueError("p_map is defined on Lie elements")
        acc: set = set()
        for (a,) in x.words:
            i, j, r = unpack(a)
            for (b,) in x.words:
                k, l, s = unpack(b)
                if j == k and r + s < self.trunc:
                    acc ^= {(pack(i, l, r + s),)}
        return Element(self, frozenset(acc))

    def quadratic_q(self, y: Element) -> Element:
        """The quadratic map of the superstructure: squaring on the odd part."""
        if not y.is_lie():
            raise ValueError("quadratic_q is defined on Lie elements")
        if any(self.gen_parity(w[0]) == 0 for w in y.words):
            raise ValueError("quadratic_q needs a purely odd element")
        return self.p_map(y)

    # -- distinguished central elements -----------------------------------------

    def z_element(self, r: int) -> Element:
        """Sum of all diagonal symbols at one t-exponent."""
        if not 0 <= r < self.trunc:
            raise ValueError(f"t-exponent {r} out of range 0..{self.trunc - 1}")
        words = frozenset({(pack(i, i, r),) for i in range(1, self.size + 1)})
        return Element(self, words)

    def xi(self, i: int, j: int, r: int) -> Element:
        """x^2 + x^[2] for the basis symbol E[i,j]t^r, inside the truncation."""
        g = self.gen(i, j, r)
        square = self.multiply(g, g)
        correction = self.zero()
        if i == j and 2 * r < self.trunc:
            correction = self.gen(i, i, 2 * r)
        return square + correction

    def classical_p_center(self) -> list[tuple[dict, Element]]:
        """Even-parity p-center generators with 2r inside the truncation."""
        out = []
        for i in range(1, self.size + 1):
            for j in range(1, self.size + 1):
                if self.shape.parity(i, j):
                    continue
                for r in range(self.trunc):
                    if 2 * r >= self.trunc:
                        continue
                    out.append(({"i": i, "j": j, "r": r}, self.xi(i, j, r)))
        return out

    def supermonomials(self, max_len: int) -> list[tuple]:
        """Ordered supermonomials of polynomial degree <= max_len, by degree
        and then lexicographically."""
        gens = self.generators()
        return graded_words(gens, [1] * len(gens), max_len, self._odd)


def certified_lie_generators(alg: CurrentAlgebra, gens) -> tuple:
    """The letters gens, in packed order, once their Lie closure is checked
    to span every letter of alg; RuntimeError (an internal failure) if not.

    Span vectors are bitmasks over the letters.  The closure walks the pairs
    of a growing list of independent vectors, brackets them letter by
    letter through _bracket and keeps each bracket that a pivot dict
    (top bit -> reduced vector) cannot reduce to zero.  Once every pair has
    been bracketed the span is closed under the bracket, so it is the Lie
    subalgebra generated by gens; the walk stops early when the span is
    full.
    """
    letters = alg.generators()
    bit = {g: 1 << k for k, g in enumerate(letters)}
    gens = tuple(sorted(gens))
    basis: list = []      # independent span vectors, as letter lists
    pivots: dict = {}

    def admit(vec: int, members: list) -> None:
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                pivots[top] = vec
                basis.append(members)
                return
            vec ^= pivots[top]

    for g in gens:
        admit(bit[g], [g])
    i = 0
    while len(pivots) < len(letters) and i < len(basis):
        for j in range(i):
            acc: set = set()
            for a in basis[i]:
                for b in basis[j]:
                    acc ^= alg._bracket(a, b)
            admit(sum(bit[h] for (h,) in acc), [h for (h,) in acc])
        i += 1
    if len(pivots) < len(letters):
        raise RuntimeError(
            f"{len(gens)} letters generate a Lie subalgebra of dimension "
            f"{len(pivots)}, not all {len(letters)} letters of "
            f"gl_{alg.size}[t]/(t^{alg.trunc})")
    return gens


# -- symmetric-superalgebra layer (for the invariants report) -------------------


def s_adjoint(alg: CurrentAlgebra, g: int, word: tuple) -> frozenset:
    """Adjoint action of a generator on an S-supermonomial, as a derivation."""
    acc: set = set()
    for pos, b in enumerate(word):
        brackets = alg._bracket(g, b)
        if brackets:
            acc ^= merge_product((word[:pos] + word[pos + 1:],), brackets,
                                 alg._odd)
    return frozenset(acc)


def adjoint_sites(basis: list[tuple]) -> dict:
    """Letter index of a list of supermonomials for the adjoint action.

    sites[b] pairs the index k with rest, for every word k of the list and
    every position of the letter b in it, rest being the word with that one
    letter removed.  k indexes the list passed in, which
    invariants_dimension passes one grading block at a time, so k is a
    block-local index and the rows built from it stay small ints.  The
    indices sit in an int array beside a list of the rest tuples, and
    equal rest tuples are shared, which keeps the index small next to the
    words themselves.
    """
    sites: dict = {}
    interned: dict = {}
    for k, w in enumerate(basis):
        for p, b in enumerate(w):
            rest = w[:p] + w[p + 1:]
            rest = interned.setdefault(rest, rest)
            ks, rests = sites.setdefault(b, (array("l"), []))
            ks.append(k)
            rests.append(rest)
    return sites


def adjoint_rows(alg: CurrentAlgebra, g: int, sites: dict) -> dict:
    """Nonzero rows of ad g on the words indexed by sites, by output word.

    The row of an output word has bit k for each indexed word k (the
    block-local index of adjoint_sites) whose image under
    s_adjoint(alg, g, .) contains it.  The action is a derivation, so
    each (position, h in [g, b]) contribution is XOR-ed in directly: h is
    inserted into rest in sorted order, or dropped when it is odd and
    already there (odd squares vanish).  Contributions that cancel, such
    as the two positions of an even square, can leave a zero row; those
    are dropped.  Only the letters b with [g, b] nonzero are visited
    (CurrentAlgebra.bracket_partners), and of those only the ones with
    sites.
    """
    odd = alg._odd
    rows: dict = {}
    for b, brackets in alg.bracket_partners(g):
        site = sites.get(b)
        if site is None:
            continue
        ks, rests = site
        for (h,) in brackets:
            h_odd = h in odd
            for k, rest in zip(ks, rests):
                i = bisect_left(rest, h)
                if h_odd and i < len(rest) and rest[i] == h:
                    continue
                out = rest[:i] + (h,) + rest[i:]
                rows[out] = rows.get(out, 0) ^ (1 << k)
    return {w: row for w, row in rows.items() if row}


def random_lie_element(alg: CurrentAlgebra, rng, odd_only: bool = False) -> Element:
    pool = [g for g in alg.generators() if not odd_only or alg.gen_parity(g)]
    words = {(g,) for g in pool if rng.random() < 0.4}
    return Element(alg, frozenset(words))


def sample_triples(items: list, rng, limit: int) -> list[tuple]:
    """All ordered triples of items, or *limit* of them drawn by rng.

    The draw samples triple indices, decoded lexicographically, instead of
    a materialised list of n^3 triples.  random.sample makes its draws from
    the population's length alone and returns population[j], so the triples,
    their order and the rng state afterwards are those of sampling the list.
    """
    n = len(items)
    picks = range(n ** 3)
    if len(picks) > limit:
        picks = rng.sample(picks, limit)
    return [(items[p // (n * n)], items[p // n % n], items[p % n]) for p in picks]


def jacobi_failures(alg: CurrentAlgebra, triples) -> int:
    """How many letter triples (a, b, c) have
    [[a, b], c] + [[b, c], a] + [[c, a], b] != 0, each nested bracket
    read letter by letter from the bracket table."""
    bracket = alg._bracket

    def nested(a: int, b: int, c: int) -> set:
        acc: set = set()
        for (h,) in bracket(a, b):
            acc ^= bracket(h, c)
        return acc

    return sum(1 for a, b, c in triples
               if nested(a, b, c) ^ nested(b, c, a) ^ nested(c, a, b))


def first_noncentral(alg: CurrentAlgebra, x: Element,
                     gen_elems: list) -> Element | None:
    """The first g of gen_elems (every letter, in packed order) with
    [x, g] != 0, or None when x is central.

    x is tested against the Lie generators first: the letters g with
    [x, g] = 0 span a Lie subalgebra, because [x, .] is a derivation of
    the enveloping algebra, so if every generator commutes with x every
    letter does.  Only a failing x is scanned in full, so the witness is
    the one the full scan names.
    """
    lie = (Element(alg, frozenset({(s,)})) for s in alg.lie_generators())
    if not any(alg.commutator(x, s) for s in lie):
        return None
    return next(g for g in gen_elems if alg.commutator(x, g))


def classical_suite(alg: CurrentAlgebra, seed: int, samples: int,
                    pbw_degree: int, invariants_degree: int) -> Report:
    """Verification suite for the classical oracle.

    Covers the bracket axioms, centrality of the diagonal sums z_r and of
    the even p-center generators in the super enveloping algebra, the two
    quadratic-map identities on random inputs, restricted-structure
    semilinearity via centrality of x^2 + x^[2] for random even x, the
    PBW count at small degree, and the invariants comparison.

    Jacobi is evaluated on the sampled letter triples straight from the
    bracket table (jacobi_failures); the draw depends only on the number
    of letters, so every later random draw is unchanged.

    Centrality is asked of the Lie generating set S of
    CurrentAlgebra.lie_generators, not of every letter.  For a fixed x in
    the enveloping algebra U, the elements y of gl_{m+n}[t]/(t^T) with
    xy + yx = 0 form a Lie subalgebra: [x, .] is a derivation of U, so
    [x, ab + ba] = [x, a]b + a[x, b] + [x, b]a + b[x, a], with no signs
    mod 2, and ab + ba is the bracket of a and b in U.  S is certified to
    generate every letter, so x is central as soon as it commutes with S.
    Witness rule: only when some generator fails are all the letters
    scanned in packed order, and the first letter g with [x, g] != 0 is
    the witness (first_noncentral), as in a scan of every letter, so
    failing payloads name the same letter.
    """
    import random as _random

    rng = _random.Random(seed)
    report = Report("classical",
                    config={"m": alg.m, "n": alg.n, "trunc": alg.trunc,
                            "seed": seed, "samples": samples,
                            "pbw_degree": pbw_degree,
                            "invariants_degree": invariants_degree})
    gens = alg.generators()
    gen_elems = [Element(alg, frozenset({(g,)})) for g in gens]

    # skew-symmetry and Jacobi on basis triples (sampled when large)
    for g in gens:
        x = Element(alg, frozenset({(g,)}))
        report.add("bracket-self", {"g": render_cword((g,))},
                   not alg.bracket(x, x))
    triples = sample_triples(gens, rng, 4000)
    jac_fail = jacobi_failures(alg, triples)
    report.add("jacobi", {"triples": len(triples)}, jac_fail == 0,
               witness=None if jac_fail == 0 else f"{jac_fail} failing triples")

    # centrality of z_r and of the even p-center inside the truncation
    for r in range(alg.trunc):
        z = alg.z_element(r)
        bad = first_noncentral(alg, z, gen_elems)
        report.add("central-z", {"r": r}, bad is None,
                   witness=None if bad is None else alg.commutator(z, bad).canonical())
    for params, xi in alg.classical_p_center():
        bad = first_noncentral(alg, xi, gen_elems)
        report.add("central-xi", params, bad is None,
                   witness=None if bad is None else alg.commutator(xi, bad).canonical())

    # quadratic map identities on random inputs
    for k in range(samples):
        y1 = random_lie_element(alg, rng, odd_only=True)
        y2 = random_lie_element(alg, rng, odd_only=True)
        lhs = alg.quadratic_q(y1 + y2) + alg.quadratic_q(y1) + alg.quadratic_q(y2)
        ok = lhs == alg.bracket(y1, y2)
        report.add("q-polarisation", {"sample": k}, ok,
                   witness=None if ok else lhs.canonical())
        y = random_lie_element(alg, rng, odd_only=True)
        x = random_lie_element(alg, rng)
        lhs2 = alg.bracket(alg.quadratic_q(y), x)
        rhs2 = alg.bracket(y, alg.bracket(y, x))
        ok2 = lhs2 == rhs2
        report.add("q-adjoint", {"sample": k}, ok2,
                   witness=None if ok2 else (lhs2 + rhs2).canonical())

    # semilinearity shadow: x^2 + x^[2] central for random even x
    for k in range(samples):
        x = random_lie_element(alg, rng)
        even = Element(alg, frozenset(
            w for w in x.words if alg.gen_parity(w[0]) == 0))
        xi = alg.multiply(even, even) + alg.p_map(even)
        bad = first_noncentral(alg, xi, gen_elems)
        report.add("central-xi-random", {"sample": k}, bad is None,
                   witness=None if bad is None else even.canonical())

    # PBW count at small degree: rank of all words equals supermonomial count
    if pbw_degree >= 0:
        supers = alg.supermonomials(pbw_degree)
        index = {w: k for k, w in enumerate(supers)}
        ech = BitEchelon()
        total_words = 0

        for length in range(pbw_degree + 1):
            for w in itertools.product(gens, repeat=length):
                total_words += 1
                ech.add(words_row(alg.normal_form([w]).words, index,
                                  pbw_degree))
        report.add("pbw-count",
                   {"degree": pbw_degree, "words": total_words,
                    "supermonomials": len(supers), "rank": ech.rank},
                   ech.rank == len(supers))

    for d in range(invariants_degree + 1):
        report.extend(invariants_dimension(alg, d))
    return report


def word_grade(word, size: int) -> tuple:
    """(weight, t-degree) of a word over gl_size: the weight is the tuple
    of coefficients of e_1..e_size in the sum of e_i - e_j over its letters
    E[i,j]t^r, the t-degree the sum of their r."""
    weight = [0] * size
    t_degree = 0
    for g in word:
        i, j, r = unpack(g)
        weight[i - 1] += 1
        weight[j - 1] -= 1
        t_degree += r
    return tuple(weight), t_degree


def block_rank(alg: CurrentAlgebra, gens: list[int], block: list[tuple]) -> int:
    """Rank of the adjoint action of gens on one grading block, stopping
    as soon as the block's echelon is full."""
    sites = adjoint_sites(block)
    ech = BitEchelon()
    for g in gens:
        for row in set(adjoint_rows(alg, g, sites).values()):
            ech.add(row)
            if ech.rank == len(block):
                return ech.rank
    return ech.rank


def invariants_dimension(alg: CurrentAlgebra, degree: int) -> Report:
    """Compare g-invariants of the degree-d piece of S_super with the span
    generated by the diagonal sums z_r and the even squares (excluding the
    (1,1) position).

    Truncation can only enlarge the invariant side (brackets that would
    leave the truncation act as zero), so the report asserts containment
    of the generated span and records both dimensions; equality is data.

    The invariants are the kernel of the adjoint action stacked over the
    Lie generating set S of CurrentAlgebra.lie_generators, so their
    dimension is len(basis) minus the rank of the action matrix.  That
    kernel is the kernel over all letters.  For a vector v of S_super, the
    Lie elements a with ad_a(v) = 0 form a Lie subalgebra, because
    ad_[a,b] = ad_a ad_b + ad_b ad_a: both sides are derivations of
    S_super (a derivation keeps odd squares at zero, D(y^2) = 2yD(y) = 0)
    that agree on letters by the Jacobi identity, and the commutator of
    two derivations is a derivation, with no signs mod 2.  S generates
    every letter, a fact certified on first use
    (certified_lie_generators), so v is killed by every letter once it is
    killed by S.  The containment check of the generated side asks the
    same question of S for the same reason.

    The action matrix is block-diagonal.  Grade a word by its weight,
    the sum of e_i - e_j over its letters E[i,j]t^r, and its t-degree,
    the sum of their r (word_grade).  The bracket of
    E[i,j]t^r with E[k,l]t^s lies in weight e_i - e_j + e_k - e_l and
    t-degree r + s, so ad g maps the block of grade (mu, d) into the
    block (mu + wt g, d + r(g)), and the grade of an output word and g
    fix the input block.  Every row of ad g therefore has all its bits in
    one input block, and rows from two input blocks never share a
    column: the rank is the sum of the block ranks.

    Each block is ranked on its own, from its own letter index
    (adjoint_sites: for each letter b, every word k of the block with b
    at some position and the word left when that b is removed), so its
    rows are len(block) bits wide.  For a generator g only the letters b
    with [g, b] nonzero are visited, and each h in [g, b] is inserted
    into the remaining word and XOR-ed into that output word's row as
    bit k (adjoint_rows).  The distinct nonzero rows of one generator go
    into the block's echelon before the next generator is taken; row
    rank equals column rank, so no dense column of len(S) * len(block)
    bits is built.  A block whose rank reaches len(block) has no
    invariants, and no later row can add to it, so its generator loop
    stops there.  s_adjoint stays the word-by-word reference and serves
    the containment check.  The generated products come one at a time from
    bounded_words, folded along shared prefixes.
    """
    basis = [w for w in alg.supermonomials(degree) if len(w) == degree]
    index = {w: k for k, w in enumerate(basis)}
    gens = alg.lie_generators()

    blocks: dict = {}
    for w in basis:
        blocks.setdefault(word_grade(w, alg.size), []).append(w)
    invariant_dim = len(basis) - sum(
        block_rank(alg, gens, block) for block in blocks.values())

    # generated side: products of z_r (degree 1) and even squares (degree 2)
    z_list = [frozenset({(pack(i, i, r),) for i in range(1, alg.size + 1)})
              for r in range(alg.trunc)]
    squares = []
    for i in range(1, alg.size + 1):
        for j in range(1, alg.size + 1):
            if alg.shape.parity(i, j) or (i, j) == (1, 1):
                continue
            for r in range(alg.trunc):
                g = pack(i, j, r)
                squares.append(frozenset({(g, g)}))

    ech = BitEchelon()
    contained = True
    for prod_words, d in bounded_words(
            z_list + squares, [1] * len(z_list) + [2] * len(squares), degree,
            fold=partial(merge_product, nilsquare=alg._odd),
            one=frozenset({()})):
        if d != degree or not prod_words:
            continue
        ech.add(words_row(prod_words, index, degree))
        # containment: every generated product must be killed by S
        for g in gens:
            if not contained:
                break
            acc: set = set()
            for w in prod_words:
                acc ^= s_adjoint(alg, g, w)
            contained = not acc
    generated_dim = ech.rank

    report = Report("classical-invariants",
                    config={"m": alg.m, "n": alg.n, "trunc": alg.trunc,
                            "degree": degree})
    report.add("generated-inside-invariants", {"degree": degree}, contained)
    report.add("dimensions",
               {"invariant_dim": invariant_dim, "generated_dim": generated_dim,
                "equal": generated_dim == invariant_dim},
               generated_dim <= invariant_dim)
    return report
