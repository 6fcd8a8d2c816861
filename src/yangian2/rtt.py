"""Straightening engine for the RTT presentation of the Yangian over GF(2),
and the word-algebra core it shares with its classical limit.

Generators t[i,j,r] are packed into single ints ((i << 16) | (j << 8) | r)
so that plain int comparison realises the fixed PBW order: (i, j, r)
ascending lexicographic.  A monomial is a tuple of packed generators; an
element is a frozenset of monomials, addition being symmetric difference
(all coefficients live in the two-element field).

The defining commutation rule, with every sign collapsed to + mod 2, is

    [t[i,j,r], t[k,l,s]] = sum_{t=0}^{min(r,s)-1}
        (t[k,j,t] * t[i,l,r+s-1-t] + t[k,j,r+s-1-t] * t[i,l,t])

with t[a,b,0] = delta_{a,b}.  Straightening rewrites the leftmost adjacent
out-of-order pair until every monomial is non-decreasing; each step either
drops the total degree (bracket terms) or keeps it while removing one
inversion (the swap), so the rewrite terminates.  Confluence is checked,
not proved: the tests compare every word of low degree with an independent
rewriter that takes the last inversion first (``tests/oracles.py``),
the associativity fuzz multiplies random triples both ways, and the PBW
dimension counts match the ordered monomials.

This module is the word-algebra core of both algebras the package
computes in: the Yangian here and its classical limit, the super
enveloping algebra of the truncated current algebra (``current``), whose
letters are packed the same way.  The two differ only in their bracket
rule and in which squares vanish, so one class, ``WordAlgebra``, holds
the rest, and a subclass supplies its rule, ``_bracket_rule``, and the
letters whose squares vanish, ``_nilsquare``; the Yangian's cap enters
through two hooks, ``_check_word`` and ``_check_product_cap``.  One
element class, ``Element``, and one set of module functions serve both:
``straighten`` for products and normal forms, ``commutator_words`` for
commutators, ``merge_product`` for the product of their associated
graded (super)commutative algebras, and ``graded_words`` for their
ordered monomials.  Each algebra holds its odd letters in one set,
``_odd``, that every parity question reads.

A ``straighten`` call finds the first out-of-order pair and carries its
out-of-place generator through the already-ordered part of the word, swap
by swap, adding the straightened bracket term of each swap; it then
recurses once on the word where the generator came to rest.  That word is
ordered one position further than the call's own, so chain recursion is
bounded by the word length, not by the inversion count, and each bracket
term starts a chain of lower degree.  Only chain heads are memoised: the intermediate
words of a carry are never looked up again.

The memo maps each chain head to its normal form as a tuple of distinct
ordered words, not a frozenset: at the frontier it holds hundreds of
thousands of entries, most of one or two words, and a small frozenset
costs 216 bytes where a tuple of two costs 56; tuples of int tuples also
drop out of the cyclic collector.  Callers sum the tuples into a set with
``symmetric_difference_update``, and only elements hold frozensets.

Commutators never straighten a top-degree word.  Both algebras are
filtered deformations of supercommutative ones (by canonical degree here,
by word length classically), so [x, y] has filtration degree at most
deg x + deg y - 1, and the top-degree words of xy and yx would only
cancel.  ``commutator_words`` expands by the Leibniz rule instead: [a, y]
is straightened into a letter table, and each word of x is straightened
with one of its letters replaced by a word of [a, y].  The tables are a
third memo beside the word and pair caches, keyed on the letter and y's
words, so a letter met again in any later commutator with an equal y
reuses its table.  No top-degree chain head enters the memo, which is
what makes it smaller.  The Yangian still checks its cap on the words of
xy: the Leibniz words are one degree lower and would pass it silently.

One walker, ``bounded_words``, enumerates the products of a list of items
up to a weight bound: PBW monomials here and in the classical algebra,
and the products behind every rank certificate (Drinfeld monomials,
independence and freeness products, classical invariants).  It yields
each word, or the word's left-folded product, lazily with its weight;
words that share a prefix share its partial product.

Two degree functions coexist on every monomial: the canonical degree puts
t[i,j,r] in degree r and governs the hard cap; the loop degree puts it in
degree r-1 and feeds the classical leading-term bridge.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import reduce

from .errors import DegreeCapError
from .report import Report


# every packed field is 8 bits wide; larger indices would alias
FIELD_LIMIT = 256


def pack(i: int, j: int, r: int) -> int:
    return (i << 16) | (j << 8) | r


def unpack(g: int) -> tuple[int, int, int]:
    return (g >> 16, (g >> 8) & 0xFF, g & 0xFF)


def word_degree(word) -> int:
    return sum(g & 0xFF for g in word)


def word_loop_degree(word) -> int:
    return sum((g & 0xFF) - 1 for g in word)


def render_word(word) -> str:
    if not word:
        return "1"
    return "*".join(f"t[{g >> 16},{(g >> 8) & 0xFF},{g & 0xFF}]" for g in word)


def pack_gen(alg, i: int, j: int, r: int) -> int:
    """The packed generator (i, j, r) of *alg*; ValueError when a field
    leaves its range, so no superscript aliases into the index bits."""
    size = alg.shape.size
    if not (1 <= i <= size and 1 <= j <= size):
        raise ValueError(f"generator index ({i},{j}) out of range 1..{size}")
    if r not in alg.superscripts:
        raise ValueError(f"superscript {r} out of range "
                         f"{alg.superscripts[0]}..{alg.superscripts[-1]}")
    return pack(i, j, r)


def pack_generators(alg, superscripts) -> list[int]:
    """Every packed generator of *alg* with superscript in *superscripts*,
    in PBW order."""
    size = alg.shape.size
    return [pack(i, j, r)
            for i in range(1, size + 1)
            for j in range(1, size + 1)
            for r in superscripts]


def letter(alg, g) -> int:
    """The packed letter of *alg* given as an int or an (i, j, r) triple;
    pack_gen's ValueError when it is not one of alg's generators."""
    if isinstance(g, int):
        # an int outside alg._letters has a field out of range: pack_gen raises
        return g if g in alg._letters else pack_gen(alg, *unpack(g))
    return pack_gen(alg, *g)


def same_algebra(a, b) -> bool:
    """Algebras are equal when they are of one kind and one shape: a word
    of the Yangian and a classical word with the same packed ints differ."""
    return a is b or (type(a) is type(b) and a.shape == b.shape)


def check_operands(alg, *elements) -> None:
    for e in elements:
        if not same_algebra(e.alg, alg):
            raise ValueError(
                f"operand of shape {e.alg.shape} in {type(e.alg).__name__} "
                f"does not belong to the {type(alg).__name__} of shape "
                f"{alg.shape}")


def repeats_nilsquare(word, nilsquare) -> bool:
    """Whether the ordered *word* holds a letter of *nilsquare* twice;
    ordered words keep equal letters adjacent."""
    return any(a == b and a in nilsquare for a, b in zip(word, word[1:]))


def straighten(word: tuple, cache: dict, bracket,
               nilsquare=frozenset()) -> tuple:
    """The distinct ordered words whose sum equals *word*, as a tuple
    memoised in *cache*.

    ``bracket(a, b)`` gives the raw words of ab + ba for generators a > b;
    a square of a generator in *nilsquare* rewrites to 0.  The first
    out-of-place pair is rewritten first; the tests compare the result
    with an independent rewriter that takes the last one first
    (``tests/oracles.py``).  Callers sum results with
    ``set.symmetric_difference_update``; no word repeats within a result,
    so nothing cancels by accident.
    """
    hit = cache.get(word)
    if hit is not None:
        return hit
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        if a > b or (a == b and a in nilsquare):
            break
    else:
        result = cache[word] = (word,)
        return result
    acc: set = set()
    if a != b:
        # carry b leftwards through the ordered word[:p+1]
        tail = word[p + 2:]
        q = p
        while q >= 0 and word[q] > b:
            for mid in bracket(word[q], b):
                acc.symmetric_difference_update(straighten(
                    word[:q] + mid + word[q + 1:p + 1] + tail,
                    cache, bracket, nilsquare))
            q -= 1
        if q < 0 or word[q] != b or b not in nilsquare:
            acc.symmetric_difference_update(straighten(
                word[:q + 1] + (b,) + word[q + 1:p + 1] + tail,
                cache, bracket, nilsquare))
    result = cache[word] = tuple(acc)
    return result


def commutator_words(xwords, ywords, cache: dict, tables: dict, bracket,
                     nilsquare=frozenset()) -> frozenset:
    """The normal form of xy + yx, for x and y given by their words; over
    GF(2) this is the (super)commutator in every flavour.

    The bracket is a derivation in each argument, so for words u, v

        [u, v] = sum_i u[:i] * [u[i], v] * u[i+1:]
        [a, v] = sum_j v[:j] * (a v[j] + v[j] a) * v[j+1:]

    with no signs mod 2 and no term where v[j] == a.  The normal form of
    [a, y] is a letter table, memoised in *tables* under (a, ywords), so
    it is straightened once for all calls; each word of x then
    straightens with one letter replaced by a word of its table.  Every
    word straightened has filtration degree at most deg x + deg y - 1: the
    top-degree words of xy and yx, which cancel, are never formed, so
    their chains never enter *cache*.  *cache*, *bracket* and *nilsquare*
    are those of ``straighten``.
    """
    acc: set = set()
    for wa in xwords:
        for i, a in enumerate(wa):
            nf = tables.get((a, ywords))
            if nf is None:
                table: set = set()
                for wb in ywords:
                    for j, b in enumerate(wb):
                        if b == a:
                            continue
                        head, tail = wb[:j], wb[j + 1:]
                        for mid in bracket(max(a, b), min(a, b)):
                            table.symmetric_difference_update(straighten(
                                head + mid + tail, cache, bracket, nilsquare))
                nf = tables[(a, ywords)] = tuple(table)
            head, tail = wa[:i], wa[i + 1:]
            for c in nf:
                acc.symmetric_difference_update(
                    straighten(head + c + tail, cache, bracket, nilsquare))
    return frozenset(acc)


def merge_product(x, y, nilsquare=frozenset()) -> frozenset:
    """Product of two sums of ordered words in the associated graded
    algebra, a polynomial ring, or S(g_0) tensor Lambda(g_1) when
    *nilsquare* holds the odd letters: the sorted merge of each pair of
    words, summed mod 2, where a merge that repeats a letter of
    *nilsquare* vanishes."""
    acc: set = set()
    for a in x:
        for b in y:
            w = tuple(sorted(a + b))
            if not (nilsquare and repeats_nilsquare(w, nilsquare)):
                acc ^= {w}
    return frozenset(acc)


def bounded_words(items, weights, bound: int, max_mult=None, fold=None,
                  one=()):
    """Lazily yield (product, weight) for every word items[k1]^e1 *
    items[k2]^e2 * ... (k1 < k2 < ...) of weight sum(e_k * weights[k]) <=
    bound, with e_k <= max_mult[k] if given.

    The product of a word is the left fold of ``fold(product, item)`` over
    its letters, starting from *one*; without *fold* it is the word itself.
    Weights are positive ints, checked at the call.  The words come in
    ascending lexicographic order of their exponent vectors, the first item
    varying slowest, so the empty word is first.  The walk goes from each
    word straight to its successor: raise the exponent of the last item
    that still fits after the word's last letter, or else drop the trailing
    run and retry before it.  A table of the last fitting item below each
    index, per remaining weight, makes every step skip the items that
    cannot occur.  A stack keeps one partial product per letter, so words
    that share a prefix share its product and each word costs one fold.
    """
    if bound < 0:
        return iter(())
    if any(w < 1 for w in weights):
        raise ValueError("word weights must be positive")
    if fold is None:
        items, fold = [(x,) for x in items], operator.add
    caps = [bound // w for w in weights]
    if max_mult is not None:
        caps = [min(c, top) for c, top in zip(caps, max_mult)]
    # below[r][k]: the last item j < k with weights[j] <= r and a positive cap
    below = []
    for r in range(bound + 1):
        row, last = [-1], -1
        for k, w in enumerate(weights):
            if w <= r and caps[k]:
                last = k
            row.append(last)
        below.append(row)

    def walk():
        prods = [one]       # prods[p]: the product of the word's first p letters
        runs: list = []     # [item index, exponent] of each letter run
        end = len(weights)
        remaining, limit = bound, end
        yield one, 0
        while True:
            k = below[remaining][limit]
            top = runs[-1][0] if runs else -1
            if k > top:
                runs.append([k, 1])
            elif k == top >= 0 and runs[-1][1] < caps[k]:
                runs[-1][1] += 1
            elif runs:
                top, e = runs.pop()
                del prods[-e:]
                remaining += e * weights[top]
                limit = top
                continue
            else:
                return
            prods.append(fold(prods[-1], items[k]))
            remaining -= weights[k]
            limit = end
            yield prods[-1], bound - remaining

    return walk()


def graded_words(gens, weights, bound: int, odd=frozenset()) -> list[tuple]:
    """Every ordered word over *gens* of weight <= bound, with each letter
    of *odd* at most once: graded by weight, then lexicographic."""
    caps = [1 if g in odd else bound for g in gens]
    by_weight: list[list] = [[] for _ in range(bound + 1)]
    for w, d in bounded_words(gens, weights, bound, caps):
        by_weight[d].append(w)
    return [w for words in by_weight for w in sorted(words)]


@dataclass(frozen=True)
class Shape:
    """Block sizes m, n and the hard cap: the canonical-degree cap L of the
    Yangian, or the truncation T of the classical algebra."""

    m: int
    n: int
    cap: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("block sizes m, n must be positive")
        if self.cap < 1:
            raise ValueError("degree cap must be positive")
        if self.cap >= FIELD_LIMIT or self.size >= FIELD_LIMIT:
            raise ValueError(f"degree cap and block size must stay below "
                             f"{FIELD_LIMIT}")

    @property
    def size(self) -> int:
        return self.m + self.n

    def block(self, i: int) -> int:
        """0 for the first m indices, 1 for the last n."""
        if not 1 <= i <= self.size:
            raise ValueError(f"index {i} out of range 1..{self.size}")
        return 0 if i <= self.m else 1

    def parity(self, i: int, j: int) -> int:
        """Parity of t[i,j,r]: sum of the two block markers mod 2."""
        return (self.block(i) + self.block(j)) % 2

    def odd_letters(self, letters) -> frozenset:
        """The odd ones among packed *letters*."""
        return frozenset(g for g in letters
                         if self.parity(g >> 16, (g >> 8) & 0xFF))


class Element:
    """Normal-form element of either algebra: a frozenset of ordered words
    over GF(2), rendered by its algebra."""

    __slots__ = ("alg", "words", "_degree")

    def __init__(self, alg, words: frozenset):
        self.alg = alg
        self.words = words
        self._degree = None     # elements are never mutated: cached once

    def __bool__(self) -> bool:
        return bool(self.words)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element)
                and same_algebra(self.alg, other.alg)
                and self.words == other.words)

    def __hash__(self) -> int:
        return hash((self.alg.shape, self.words))

    def __add__(self, other: "Element") -> "Element":
        if other.alg is not self.alg:
            check_operands(self.alg, other)
        return Element(self.alg, self.words ^ other.words)

    def __mul__(self, other: "Element") -> "Element":
        return self.alg.multiply(self, other)

    def __pow__(self, k: int) -> "Element":
        if k < 0:
            raise ValueError("negative powers are not defined")
        return self.alg.product(*[self] * k)

    def degree(self) -> int:
        if self._degree is None:
            self._degree = max(map(word_degree, self.words), default=0)
        return self._degree

    def loop_degree(self) -> int:
        return max((word_loop_degree(w) for w in self.words), default=0)

    def is_lie(self) -> bool:
        """Every word is one letter: a sum of generators."""
        return all(len(w) == 1 for w in self.words)

    def parity(self):
        """Common parity of all monomials, or None when mixed; 0 for zero."""
        odd = self.alg._odd
        seen = {sum(g in odd for g in w) % 2 for w in self.words}
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def canonical(self) -> str:
        """Terms sorted by word, each rendered by the algebra; for the
        Yangian, atoms t[i,j,r] that ``dsl.parse`` reads back to self."""
        if not self.words:
            return "0"
        return " + ".join(map(self.alg.render_word, sorted(self.words)))

    def __repr__(self) -> str:
        return self.canonical()


class WordAlgebra:
    """What the Yangian and its classical limit share.  A subclass passes
    its shape and superscripts to ``__init__`` and supplies ``render_word``
    and ``_bracket_rule(a, b)``, the raw words of ab + ba; the Yangian's
    cap enters through ``_check_word`` and ``_check_product_cap``, and
    ``_nilsquare`` holds the letters whose squares vanish (none in the
    Yangian).  The memo caches (word normal forms, letter brackets and the
    commutator's letter tables) are transparent: results are identical
    with them cleared, they only buy speed.
    """

    _nilsquare: frozenset = frozenset()

    def __init__(self, shape: Shape, superscripts: range):
        self.shape = shape
        self.superscripts = superscripts
        self._letters = frozenset(self.generators())
        self._odd = shape.odd_letters(self._letters)
        self._nf_cache: dict = {}
        self._pair_cache: dict = {}
        self._letter_cache: dict = {}   # (letter a, y.words) -> NF of [a, y]

    def generators(self, max_degree: int | None = None) -> list[int]:
        """The packed letters with superscript up to max_degree (default:
        all of them), in PBW order."""
        top = self.superscripts[-1] if max_degree is None else max_degree
        return pack_generators(self, range(self.superscripts[0], top + 1))

    # -- constructors ------------------------------------------------------

    def zero(self) -> Element:
        return Element(self, frozenset())

    def one(self) -> Element:
        return Element(self, frozenset({()}))

    def gen(self, i: int, j: int, r: int) -> Element:
        return Element(self, frozenset({(pack_gen(self, i, j, r),)}))

    # -- the bracket and its hooks ------------------------------------------

    def _bracket(self, a: int, b: int) -> frozenset:
        """``_bracket_rule(a, b)``, memoised per pair of letters."""
        key = (a << 32) | b
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self._pair_cache[key] = self._bracket_rule(a, b)
        return hit

    def _check_word(self, word: tuple) -> None:
        """Raise for a raw word that ``normal_form`` must refuse."""

    def _check_product_cap(self, x: Element, y: Element) -> None:
        """Raise for a product xy that ``multiply`` must refuse."""

    # -- straightening -----------------------------------------------------

    def normal_form(self, words) -> Element:
        """Normal form of a sum of raw words (tuples of (i, j, r) triples or
        packed ints); ValueError for a letter that is not a generator."""
        acc: set = set()
        for w in words:
            packed = tuple(letter(self, g) for g in w)
            self._check_word(packed)
            acc.symmetric_difference_update(straighten(
                packed, self._nf_cache, self._bracket, self._nilsquare))
        return Element(self, frozenset(acc))

    def multiply(self, x: Element, y: Element) -> Element:
        if x.alg is not self or y.alg is not self:
            check_operands(self, x, y)
        self._check_product_cap(x, y)
        acc: set = set()
        cache, bracket, nilsquare = (self._nf_cache, self._bracket,
                                     self._nilsquare)
        for wa in x.words:
            for wb in y.words:
                acc.symmetric_difference_update(
                    straighten(wa + wb, cache, bracket, nilsquare))
        return Element(self, frozenset(acc))

    def product(self, *elements: Element) -> Element:
        return reduce(self.multiply, elements, self.one())

    def commutator(self, x: Element, y: Element) -> Element:
        """xy + yx by the Leibniz rule (``commutator_words``), on the
        algebra's letter tables.  The words straightened are a degree
        lower than those of xy and would pass a cap silently, so
        ``_check_product_cap`` sees x and y first, as in ``multiply``."""
        if x.alg is not self or y.alg is not self:
            check_operands(self, x, y)
        self._check_product_cap(x, y)
        return Element(self, commutator_words(
            x.words, y.words, self._nf_cache, self._letter_cache,
            self._bracket, self._nilsquare))


class RTTAlgebra(WordAlgebra):
    """The Yangian of gl_{m+n} over GF(2), truncated at a hard degree cap:
    the RTT bracket rule and the cap on ``WordAlgebra``."""

    render_word = staticmethod(render_word)

    def __init__(self, shape: Shape):
        super().__init__(shape, range(1, shape.cap + 1))

    # bound on each algebra, so that perfbench/traced.py times them apart
    multiply = WordAlgebra.multiply

    # -- the defining relation --------------------------------------------

    def _bracket_rule(self, a: int, b: int) -> frozenset:
        """Raw right-hand side of [a, b] as a set of words, before straightening."""
        i, j, r = unpack(a)
        k, l, s = unpack(b)
        out: set = set()
        for t in range(min(r, s)):
            hi = r + s - 1 - t
            if t == 0:
                # t^(0) contracts to a Kronecker delta on either side
                if k == j:
                    out ^= {(pack(i, l, hi),)}
                if i == l:
                    out ^= {(pack(k, j, hi),)}
            else:
                out ^= {(pack(k, j, t), pack(i, l, hi))}
                out ^= {(pack(k, j, hi), pack(i, l, t))}
        return frozenset(out)

    def rtt_rhs(self, g1: tuple, g2: tuple, super_sign: bool = False) -> Element:
        """Normal form of the displayed right-hand side for [g1, g2].

        g1 and g2 are (i, j, r) triples.  The super flavour carries the
        prefactor (-1)^(bi*bj + bi*bk + bj*bk); both reduce to the same
        element mod 2, which is exactly the collapse this engine relies on,
        and tests assert it by calling both.
        """
        a, b = pack_gen(self, *g1), pack_gen(self, *g2)
        if g1[2] + g2[2] - 1 > self.shape.cap:
            raise DegreeCapError(
                f"bracket degree {g1[2] + g2[2] - 1} exceeds cap {self.shape.cap}")
        coeff = 1
        if super_sign:
            (i, j, _), (k, l, _) = g1, g2
            bi, bj, bk = (self.shape.block(i), self.shape.block(j),
                          self.shape.block(k))
            coeff = (-1) ** (bi * bj + bi * bk + bj * bk) % 2
        return self.normal_form(self._bracket(a, b) if coeff else ())

    def _check_word(self, word: tuple) -> None:
        cap = self.shape.cap
        d = word_degree(word)
        if d > cap:
            raise DegreeCapError(
                f"word {render_word(word)} has degree {d} > cap {cap}")

    def _check_product_cap(self, x: Element, y: Element) -> None:
        """Raise DegreeCapError at the first pair of words of xy over the
        cap, in the order ``multiply`` meets them.

        A pair is over the cap only if the top degrees of x and y are, so
        the pairs are walked only then."""
        cap = self.shape.cap
        if x.degree() + y.degree() <= cap:
            return
        right = [(wb, word_degree(wb)) for wb in y.words]
        for wa in x.words:
            da = word_degree(wa)
            for wb, db in right:
                if da + db > cap:
                    raise DegreeCapError(
                        f"product term {render_word(wa + wb)} has degree "
                        f"{da + db} > cap {cap}")

    def transpose(self, x: Element) -> Element:
        """tau(x) for the transposition tau: t[i,j,r] -> t[j,i,r], extended
        to an anti-automorphism: every word of x reversed with the indices
        of each letter swapped, then straightened on the algebra's memo.

        tau is well defined.  Write B(a, b) = ``_bracket_rule(a, b)``, so
        the defining relations are ab + ba + B(a, b) for letters a > b.  An
        anti-automorphism of the free algebra sends this to
        tau(a)tau(b) + tau(b)tau(a) + tau(B(a, b)), with no sign mod 2, and
          (i) tau(B(a, b)) = B(tau a, tau b) word for word: for
              a = (i,j,r), b = (k,l,s) and h = r+s-1-t, the words
              t[k,j,t]t[i,l,h] and t[k,j,h]t[i,l,t] go to t[l,i,h]t[j,k,t]
              and t[l,i,t]t[j,k,h], the words of B((j,i,r), (l,k,s)), and
              the contracted t = 0 terms t[i,l,h] (if k = j) and t[k,j,h]
              (if i = l) go to t[l,i,h] and t[j,k,h], its own t = 0 terms
              under the same conditions;
         (ii) B(a, b) and B(b, a) have one normal form: the RTT relation
              gives [a, b] and [b, a] = [a, b] mod 2 alike.
        So the image is the relation of tau(a), tau(b) in whichever order
        they come, every defining relation goes into the ideal, and tau
        descends to the algebra.  It keeps canonical degree and parity, so
        it respects the cap.  The tests check (i) and (ii) over every pair
        of generators at small shapes.
        """
        if x.alg is not self:
            check_operands(self, x)
        acc: set = set()
        cache, bracket = self._nf_cache, self._bracket
        for w in x.words:
            acc.symmetric_difference_update(straighten(
                tuple(pack(j, i, r) for i, j, r in map(unpack, reversed(w))),
                cache, bracket))
        return Element(self, frozenset(acc))

    # -- PBW enumeration ----------------------------------------------------

    def pbw_monomials(self, bound: int, super_only: bool = False) -> list[tuple]:
        """All ordered (super)monomials of canonical degree <= bound.

        Supermonomials additionally restrict odd generators to exponent <= 1.
        The list is deterministic: graded, then lexicographic in the word.
        """
        gens = self.generators(min(bound, self.shape.cap))
        return graded_words(gens, [g & 0xFF for g in gens], bound,
                            self._odd if super_only else frozenset())

    # -- randomised health checks -------------------------------------------

    def random_element(self, rng: random.Random, max_degree: int,
                       max_terms: int = 3) -> Element:
        words = []
        for _ in range(rng.randint(1, max_terms)):
            word = []
            budget = rng.randint(0, max_degree)
            while budget > 0 and rng.random() < 0.8:
                r = rng.randint(1, budget)
                i = rng.randint(1, self.shape.size)
                j = rng.randint(1, self.shape.size)
                word.append(pack(i, j, r))
                budget -= r
            words.append(tuple(word))
        return self.normal_form([tuple(w) for w in words])

    def associativity_fuzz(self, samples: int, seed: int) -> Report:
        """Compare ((ab)c) and (a(bc)) on random in-cap triples.

        Failures are recorded with witnesses, not raised: they would
        falsify the implementation, so the report is the artefact.
        """
        rng = random.Random(seed)
        report = Report("associativity-fuzz",
                        config={"samples": samples, "seed": seed,
                                "m": self.shape.m, "n": self.shape.n,
                                "cap": self.shape.cap})
        third = max(1, self.shape.cap // 3)
        for idx in range(samples):
            a = self.random_element(rng, third)
            b = self.random_element(rng, third)
            c = self.random_element(rng, third)
            left = self.multiply(self.multiply(a, b), c)
            right = self.multiply(a, self.multiply(b, c))
            ok = left == right
            report.add("assoc", {"sample": idx}, ok,
                       witness=None if ok else (left + right).canonical())
        return report
