"""Straightening engine for the RTT presentation of the Yangian over GF(2),
and the word-algebra core it shares with its classical limit.

Generators t[i,j,r] are packed into three bytes, bytes((i, j, r)), and a
monomial is the concatenation of its letters, one ``bytes`` object: byte
comparison is then letter-by-letter comparison in the fixed PBW order,
(i, j, r) ascending lexicographic, with a proper prefix first, and a
letter is its own one-letter word.  A word caches its hash, its letter
count is len(word) // 3, and word[0::3], word[1::3] and word[2::3] are its
row indices, column indices and superscripts.  An element is a frozenset
of monomials, addition being symmetric difference (all coefficients live
in the two-element field).

The defining commutation rule, with every sign collapsed to + mod 2, is

    [t[i,j,r], t[k,l,s]] = sum_{t=0}^{min(r,s)-1}
        (t[k,j,t] * t[i,l,r+s-1-t] + t[k,j,r+s-1-t] * t[i,l,t])

with t[a,b,0] = delta_{a,b}.  Straightening inserts the letters of a word,
one at a time, into ordered words until every monomial is non-decreasing;
each insertion either shortens the word or lowers its degree, so it
terminates (``straighten``).  Confluence is checked, not proved: the tests
compare every word of low degree with an independent rewriter that takes
the last inversion first (``tests/oracles.py``), the associativity fuzz
multiplies random triples both ways, and the PBW dimension counts match
the ordered monomials.

This module is the word-algebra core of both algebras the package
computes in: the Yangian here and its classical limit, the super
enveloping algebra of the truncated current algebra (``current``), whose
letters are packed the same way.  The two differ only in their bracket
rule and in which squares vanish, so one class, ``WordAlgebra``, holds
the rest, and a subclass supplies its rule, ``_bracket_rule``, and the
letters whose squares vanish, ``_nilsquare``; the Yangian's cap enters
through two hooks, ``_check_word`` and ``_check_product_cap``.  One
element class, ``Element``, and one set of module functions serve both:
``straighten`` for normal forms, its insertion rule for the products of
``WordAlgebra.multiply``, ``commutator_words`` for commutators,
``merge_product`` for the product of their associated graded
(super)commutative algebras, and ``graded_words`` for their ordered
monomials.  Each algebra holds its odd letters in one set,
``_odd``, that every parity question reads.  Both test centrality with
``WordAlgebra.first_noncentral``, on one certified generating set.

A ``straighten`` call inserts one letter at a time into ordered words.
Its one rule inserts a letter b into an ordered word w1 a with a > b:
NF(w1 a b) is the sum of NF(s a) over the words s of NF(w1 b), plus
NF(w1 mid) over the words mid of the bracket of a and b.  w1 b is one
letter shorter, and of the words s a only the top-degree one has the
original degree, and it is already ordered, so recursion follows the word
length, not the inversion count.  A word with more out-of-place letters
is straightened by inserting them, left to right, into every word of the
running sum.  ``multiply`` straightens no pair word: it appends each word
of y to a running sum of x, letter by letter, and a term that is already
in order before a letter takes the rest of the word whole.  So the memo
holds only three kinds of key: ordered words, ordered words but for
their last letter, and the words callers pass to ``straighten`` (the raw
words of ``normal_form`` and ``RTTAlgebra.transpose``, the Leibniz words
of ``commutator_words``).  An insertion with a single branch stores its
child's tuple itself, so a run of plain swaps shares one value.

The memo maps each key to its normal form as a tuple of distinct
ordered words, not a frozenset: at the frontier it holds hundreds of
thousands of entries, most of one or two words, and a small frozenset
costs 216 bytes where a tuple of two costs 56; tuples of bytes words
also drop out of the cyclic collector.  Callers sum the tuples into a set with
``symmetric_difference_update``, and only elements hold frozensets.
The pair memo of letter brackets keeps frozensets, which its readers XOR
into sets, but it stores every bracket that vanishes as one shared value,
``EMPTY_BRACKET``: ``frozenset()`` is not a singleton, and in the
classical algebra most letter pairs commute, thousands of 216-byte empty
sets at the suite's shapes.

Commutators never straighten a top-degree word.  Both algebras are
filtered deformations of supercommutative ones (by canonical degree here,
by word length classically), so [x, y] has filtration degree at most
deg x + deg y - 1, and the top-degree words of xy and yx would only
cancel.  ``commutator_words`` expands by the Leibniz rule instead: [a, y]
is straightened into a letter table, and each word of x is straightened
with one of its letters replaced by a word of [a, y]; ``commutator``
passes as x the operand with more letters.  The tables are a
third memo beside the word and pair caches, keyed on the letter and y's
words, so a letter met again in any later commutator with an equal y
reuses its table.  No top-degree word of xy or yx enters the memo, which
is what makes it smaller.  The Yangian still checks its cap on the words of
xy: the Leibniz words are one degree lower and would pass it silently.

One walker, ``bounded_words``, enumerates the products of a list of items
up to a weight bound: PBW monomials here and in the classical algebra,
and the products behind every rank certificate (Drinfeld monomials,
independence and freeness products, classical invariants).  It yields
each word's left-folded product, lazily with its weight; words that
share a prefix share its partial product.

Two degree functions coexist on every monomial: the canonical degree puts
t[i,j,r] in degree r and governs the hard cap; the loop degree puts it in
degree r-1 and feeds the classical leading-term bridge.  Both algebras are
also graded by the root lattice: a letter (i, j, r) has weight e_i - e_j
(``word_weight``), and every bracket rule is homogeneous, so products of
homogeneous elements are homogeneous.  ``product_rank`` ranks each product
in its weight block (``linalg.BlockEchelon``), and the classical invariants
grade their words by (weight, t-degree).  ``pbw_count`` counts the ordered
(super)monomials by their generating function, without listing them.
"""

from __future__ import annotations

import operator
import random
import re
from functools import lru_cache

from .errors import DegreeCapError
from .linalg import BitEchelon, BlockEchelon
from .report import Frozen, Report


# every packed field is one byte; pack refuses a larger one
FIELD_LIMIT = 256

# the pair memo's one value for every vanishing bracket
EMPTY_BRACKET = frozenset()

# the bits of one coordinate of word_weight's int, more than any word has letters
WEIGHT_FIELD = 64


def pack(i: int, j: int, r: int) -> bytes:
    """The letter (i, j, r); ValueError for a field outside 0..255."""
    return bytes((i, j, r))


def word_letters(word: bytes) -> list[bytes]:
    """The letters of a word, in order."""
    return [word[k:k + 3] for k in range(0, len(word), 3)]


def sort_word(word: bytes) -> bytes:
    """The ordered word of the same letters."""
    return b"".join(sorted(word_letters(word)))


def word_degree(word: bytes) -> int:
    return sum(word[2::3])


def word_loop_degree(word: bytes) -> int:
    return sum(word[2::3]) - len(word) // 3


@lru_cache(maxsize=None)
def _index_sum(indices: bytes) -> int:
    """The sum of 2^(WEIGHT_FIELD * i) over the bytes i of indices."""
    return sum(1 << WEIGHT_FIELD * i for i in indices)


def word_weight(word: bytes) -> int:
    """The root-lattice weight of a word, the sum of e_i - e_j over its
    letters (i, j, r), in either algebra, as one int: the sum of
    c_i * 2^(WEIGHT_FIELD * i) over its coefficients c_i, read off the row
    indices word[0::3] and the column indices word[1::3].  Each |c_i| is
    at most the word's length, far below 2^(WEIGHT_FIELD - 1), so equal
    ints are equal weights.  Many words share their index strings, so
    each string's sum is cached."""
    return _index_sum(word[0::3]) - _index_sum(word[1::3])


def render_word(word: bytes) -> str:
    if not word:
        return "1"
    return "*".join(f"t[{i},{j},{r}]" for i, j, r in word_letters(word))


def pack_gen(alg, i: int, j: int, r: int) -> bytes:
    """The packed generator (i, j, r) of *alg*; ValueError when a field
    leaves its range, so no superscript aliases into the index bits."""
    size = alg.shape.size
    if not (1 <= i <= size and 1 <= j <= size):
        raise ValueError(f"generator index ({i},{j}) out of range 1..{size}")
    if r not in alg.superscripts:
        raise ValueError(f"superscript {r} out of range "
                         f"{alg.superscripts[0]}..{alg.superscripts[-1]}")
    return pack(i, j, r)


def pack_generators(alg, superscripts) -> list[bytes]:
    """Every packed generator of *alg* with superscript in *superscripts*,
    in PBW order."""
    size = alg.shape.size
    return [pack(i, j, r)
            for i in range(1, size + 1)
            for j in range(1, size + 1)
            for r in superscripts]


def letter(alg, g) -> bytes:
    """The packed letter of *alg* given packed or as an (i, j, r) triple;
    pack_gen's ValueError when it is not one of alg's generators."""
    if isinstance(g, bytes):
        if g in alg._letters:
            return g
        if len(g) != 3:
            raise ValueError(f"{g!r} is not one packed letter")
    return pack_gen(alg, *g)


def same_algebra(a, b) -> bool:
    """Algebras are equal when they are of one kind and one shape: a word
    of the Yangian and a classical word with the same bytes differ."""
    return a is b or (type(a) is type(b) and a.shape == b.shape)


def check_operands(alg, *elements) -> None:
    for e in elements:
        if not same_algebra(e.alg, alg):
            raise ValueError(
                f"operand of shape {e.alg.shape} in {type(e.alg).__name__} "
                f"does not belong to the {type(alg).__name__} of shape "
                f"{alg.shape}")


# from its start, the first letter of a word that the next letter repeats
_REPEATED_LETTER = re.compile(rb"(?:...)*?(...)\1", re.DOTALL)


def repeats_nilsquare(word: bytes, nilsquare) -> bool:
    """Whether the ordered *word* holds a letter of *nilsquare* twice;
    ordered words keep equal letters adjacent, so each letter that the
    next one repeats is asked in turn."""
    start = 0
    while hit := _REPEATED_LETTER.match(word, start):
        if hit.group(1) in nilsquare:
            return True
        start = hit.end(1)
    return False


def straighten(word: bytes, cache: dict, bracket,
               nilsquare=frozenset()) -> tuple:
    """The distinct ordered words whose sum equals *word*, as a tuple
    memoised in *cache*.

    ``bracket(a, b)`` gives the raw words of ab + ba for generators a > b;
    a square of a generator in *nilsquare* rewrites to 0.  Callers sum
    results with ``set.symmetric_difference_update``; no word repeats
    within a result, so nothing cancels by accident.

    Straightening inserts letters into ordered words, one at a time.
    An ordered word is its own normal form.  Any other word is an ordered
    prefix, its first out-of-place letter and a tail: the letter is
    inserted into the prefix, then each tail letter g into every word s of
    the running sum, as NF(s + g), and the sum is memoised under the
    whole word.  Inserting b into an ordered word w1 + a with a > b is
    the one rule (``_insert``):

        NF(w1 a b) = sum_{s in NF(w1 b)} NF(s a) + sum_{mid} NF(w1 mid)

    over the words mid of ``bracket(a, b)``, each NF(w1 mid) inserted
    letter by letter; with a == b in *nilsquare* it is 0.  Each result is
    memoised under w1 a b.

    The rule terminates, by induction on (filtration degree, length); the
    filtration degree is the canonical degree in the Yangian and the
    length classically, where every bracket word is one letter.  w1 b is
    shorter than w1 a b and of lower degree.  The top-degree word of
    NF(w1 b) is sort_word(w1 + b), and a is no smaller than any letter of
    w1 and greater than b, so appending a leaves it ordered; every other
    s a, and every w1 mid, is of lower degree.  Each recursion thus
    shortens the word or lowers its degree, and its depth follows the
    word length, not the number of inversions.  By Bergman's diamond
    lemma any reduction order gives the same normal forms once the
    ambiguities resolve; the tests compare this order with an independent
    rewriter that takes the last inversion first (``tests/oracles.py``).

    The memo's keys are therefore of three kinds, all of them bytes words
    (each caches its hash, so a key is hashed once however often it is
    probed): ordered words, ordered words but for their last letter, and
    words passed in here, by ``normal_form``, ``transpose`` and
    ``commutator_words``; ``multiply`` calls ``_insert`` alone and adds
    keys of the first two kinds only.  A result with one branch is its
    child's tuple itself, not a copy.
    """
    hit = cache.get(word)
    if hit is not None:
        return hit
    a = word[:3]
    for p in range(3, len(word), 3):
        b = word[p:p + 3]
        if a > b or (a == b and a in nilsquare):
            break
        a = b
    else:
        result = cache[word] = (word,)
        return result
    result = _insert_letters((word[:p],), word[p:], cache, bracket,
                             nilsquare)
    if p + 3 < len(word):
        # an insertion word is memoised by _insert; any other word here
        cache[word] = result
    return result


def _insert(s: bytes, b: bytes, cache: dict, bracket, nilsquare) -> tuple:
    """NF(s + b) for an ordered word s and a letter b, memoised under
    s + b: the insertion rule of ``straighten``."""
    word = s + b
    hit = cache.get(word)
    if hit is not None:
        return hit
    a = s[-3:]      # b"" for the empty word, below every letter
    if a < b or (a == b and b not in nilsquare):
        result = (word,)
    elif a == b:
        result = ()
    else:
        w1 = s[:-3]
        terms = _insert(w1, b, cache, bracket, nilsquare)
        mids = bracket(a, b)
        if len(terms) == 1 and not mids:
            result = _insert(terms[0], a, cache, bracket, nilsquare)
        else:
            acc: set = set()
            for t in terms:
                acc.symmetric_difference_update(
                    _insert(t, a, cache, bracket, nilsquare))
            for mid in mids:
                acc.symmetric_difference_update(_insert_letters(
                    (w1,), mid, cache, bracket, nilsquare))
            result = tuple(acc)
    cache[word] = result
    return result


def _insert_letters(terms: tuple, letters: bytes, cache: dict, bracket,
                    nilsquare) -> tuple:
    """NF(sum of s + letters over the ordered words s of *terms*), one
    letter at a time; a step with one word keeps its child's tuple."""
    for k in range(0, len(letters), 3):
        g = letters[k:k + 3]
        if len(terms) == 1:
            terms = _insert(terms[0], g, cache, bracket, nilsquare)
        else:
            acc: set = set()
            for s in terms:
                acc.symmetric_difference_update(
                    _insert(s, g, cache, bracket, nilsquare))
            terms = tuple(acc)
    return terms


def commutator_words(xwords, ywords, cache: dict, tables: dict, bracket,
                     nilsquare) -> frozenset:
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
    they never enter *cache*.  *cache*, *bracket* and *nilsquare* are
    those of ``straighten``.
    """
    acc: set = set()
    for wa in xwords:
        for i in range(0, len(wa), 3):
            a = wa[i:i + 3]
            nf = tables.get((a, ywords))
            if nf is None:
                table: set = set()
                for wb in ywords:
                    for j in range(0, len(wb), 3):
                        b = wb[j:j + 3]
                        if b == a:
                            continue
                        head, tail = wb[:j], wb[j + 3:]
                        for mid in bracket(max(a, b), min(a, b)):
                            table.symmetric_difference_update(straighten(
                                head + mid + tail, cache, bracket, nilsquare))
                nf = tables[(a, ywords)] = tuple(table)
            head, tail = wa[:i], wa[i + 3:]
            for c in nf:
                acc.symmetric_difference_update(
                    straighten(head + c + tail, cache, bracket, nilsquare))
    return frozenset(acc)


def merge_product(x, y, nilsquare) -> frozenset:
    """Product of two sums of ordered words in the associated graded
    algebra, a polynomial ring, or S(g_0) tensor Lambda(g_1) when
    *nilsquare* holds the odd letters: the sorted merge of each pair of
    words, summed mod 2, where a merge that repeats a letter of
    *nilsquare* vanishes."""
    acc: set = set()
    for a in x:
        for b in y:
            w = sort_word(a + b)
            if not (nilsquare and repeats_nilsquare(w, nilsquare)):
                acc ^= {w}
    return frozenset(acc)


def bounded_words(items, weights, bound: int, max_mult, fold, one):
    """Lazily yield (product, weight) for every word items[k1]^e1 *
    items[k2]^e2 * ... (k1 < k2 < ...) of weight sum(e_k * weights[k]) <=
    bound, with e_k <= max_mult[k] unless max_mult is None.

    The product of a word is the left fold of ``fold(product, item)`` over
    its letters, starting from *one*.  Weights are positive ints, checked
    at the call.  The words come in ascending lexicographic order of their
    exponent vectors, the first item varying slowest, so the empty word is
    first.  The walk goes from each word straight to its successor: raise
    the exponent of the last item that still fits after the word's last
    letter, or else drop the trailing run and retry before it.  A table of
    the last fitting item below each index, per remaining weight, makes
    every step skip the items that cannot occur.  A stack keeps one partial
    product per letter, so words that share a prefix share its product and
    each word costs one fold.
    """
    if bound < 0:
        return iter(())
    if any(w < 1 for w in weights):
        raise ValueError("word weights must be positive")
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


def graded_words(gens, weights, bound: int, odd) -> list[bytes]:
    """Every ordered word over the letters *gens* of weight <= bound, with
    each letter of *odd* at most once: graded by weight, then
    lexicographic."""
    caps = [1 if g in odd else bound for g in gens]
    by_weight: list[list] = [[] for _ in range(bound + 1)]
    for w, d in bounded_words(gens, weights, bound, caps, operator.add, b""):
        by_weight[d].append(w)
    return [w for words in by_weight for w in sorted(words)]


def certified_lie_generators(alg, gens, top: int) -> tuple:
    """The letters gens, in packed order, once their closure under the
    bracket spans every letter of alg up to superscript top; RuntimeError
    (an internal failure) if not.

    Span vectors are bitmasks over those letters.  The closure walks the
    pairs of a growing list of independent vectors, brackets them letter
    by letter through ``_bracket(max, min)`` and keeps each bracket that
    adds to the rank of a ``linalg.BitEchelon``.  It skips a pair whose
    bracket has a word that is not a single letter: classically none has,
    and in the Yangian every bracket with a letter of superscript 1 is a
    sum of letters, an identity of the algebra.  The walk stops early when
    the span is full.
    """
    letters = alg.generators(top)
    bit = {g: 1 << k for k, g in enumerate(letters)}
    gens = tuple(sorted(gens))
    ech = BitEchelon()
    basis: list = []      # independent span vectors, as letter lists
    for g in gens:
        if ech.add(bit[g]):
            basis.append([g])
    i = 0
    while ech.rank < len(letters) and i < len(basis):
        for j in range(i):
            acc: set = set()
            for a in basis[i]:
                for b in basis[j]:
                    acc ^= alg._bracket(max(a, b), min(a, b))
            # a one-letter word is its letter; an empty bracket adds nothing
            if (acc and all(len(w) == 3 for w in acc)
                    and ech.add(sum(bit[h] for h in acc))):
                basis.append(list(acc))
        i += 1
    if ech.rank < len(letters):
        raise RuntimeError(
            f"{len(gens)} letters generate a Lie subalgebra of dimension "
            f"{ech.rank}, not all {len(letters)} letters of "
            f"{type(alg).__name__} {alg.shape} up to superscript {top}")
    return gens


class Shape(Frozen):
    """Block sizes m, n and the hard cap: the canonical-degree cap L of the
    Yangian, or the truncation T of the classical algebra.

    Immutable, and equal and hashed by (m, n, cap)."""

    __slots__ = ("m", "n", "cap")

    def __init__(self, m: int, n: int, cap: int) -> None:
        if m < 1 or n < 1:
            raise ValueError("block sizes m, n must be positive")
        if cap < 1:
            raise ValueError("degree cap must be positive")
        if cap >= FIELD_LIMIT or m + n >= FIELD_LIMIT:
            raise ValueError(f"degree cap and block size must stay below "
                             f"{FIELD_LIMIT}")
        super().__init__(m, n, cap)

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
        return frozenset(g for g in letters if self.parity(g[0], g[1]))


def product_rank(alg, values, degrees, bound: int, vector, max_mult=None):
    """Rank the products of values that bounded_words forms up to bound,
    with the same degrees and max_mult, as the vectors vector(product)
    ({block: row}, linalg.BlockColumns), each in its own block.

    Every product must be homogeneous; one whose vector spans two blocks
    raises ValueError.  Returns the product count, their GF(2) rank and
    the exponent vectors of the products that depend on earlier ones, in
    walk order.
    """
    def times(prod: tuple, k: int) -> tuple:
        element, exponents = prod
        bumped = exponents[:k] + (exponents[k] + 1,) + exponents[k + 1:]
        return alg.multiply(element, values[k]), bumped

    ech = BlockEchelon()
    dependent = []
    for (element, exponents), _ in bounded_words(
            range(len(values)), degrees, bound, max_mult, times,
            (alg.one(), (0,) * len(values))):
        if ech.add(vector(element)) == 0:
            dependent.append(exponents)
    # every product either raised the rank or was dependent
    return ech.rank + len(dependent), ech.rank, dependent


def pbw_count(shape: Shape, bound: int, super_only: bool = False) -> int:
    """The number of ordered (super)monomials of canonical degree <= bound
    in the Yangian of shape, without listing them: len(pbw_monomials(bound)),
    or, for supermonomials, the number of those words that repeat no odd
    letter.

    It is the sum of the coefficients up to x^bound of the product over
    the superscripts r <= min(bound, cap) of (1 - x^r)^(-N^2), N = m + n,
    or, for supermonomials, of (1 - x^r)^(-(m^2 + n^2)) (1 + x^r)^(2mn):
    each even letter of degree r contributes a geometric series, each odd
    one 1 + x^r.
    """
    if bound < 0:
        return 0
    m, n = shape.m, shape.n
    even, odd = m * m + n * n, 2 * m * n
    if not super_only:
        even, odd = even + odd, 0
    coeffs = [1] + [0] * bound
    for r in range(1, min(bound, shape.cap) + 1):
        for _ in range(even):       # times 1 / (1 - x^r)
            for k in range(r, bound + 1):
                coeffs[k] += coeffs[k - r]
        for _ in range(odd):        # times 1 + x^r
            for k in range(bound, r - 1, -1):
                coeffs[k] += coeffs[k - r]
    return sum(coeffs)


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
        """x^k, one factor at a time.  x^0 = 1, and 0 and 1 are their own
        powers; any other x has positive degree, so in the Yangian each
        factor raises the top degree and the cap ends a huge k within
        cap + 1 products.  The first power that is 0 is returned at once,
        so a nilpotent x takes at most its nilpotency index of products.
        An algebra without a cap, such as the classical one, puts no bound
        on x^k for an x that is not nilpotent: it takes k - 1 products."""
        if k < 0:
            raise ValueError("negative powers are not defined")
        if k == 0:
            return self.alg.one()
        if not self or self == self.alg.one():
            return self
        out = self
        for _ in range(k - 1):
            out = self.alg.multiply(out, self)
            if not out:
                break
        return out

    def degree(self) -> int:
        if self._degree is None:
            self._degree = max(map(word_degree, self.words), default=0)
        return self._degree

    def is_lie(self) -> bool:
        """Every word is one letter: a sum of generators."""
        return all(len(w) == 3 for w in self.words)

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
    _scan_key = None    # order of a failing centrality scan; None: packed

    def __init__(self, shape: Shape, superscripts: range):
        self.shape = shape
        self.superscripts = superscripts
        self._letters = frozenset(self.generators())
        self._odd = shape.odd_letters(self._letters)
        self._nf_cache: dict = {}
        self._pair_cache: dict = {}
        self._letter_cache: dict = {}   # (letter a, y.words) -> NF of [a, y]
        self._lie_generators: dict = {}  # top -> certified generating set

    def generators(self, max_degree: int | None = None) -> list[bytes]:
        """The packed letters with superscript up to max_degree (default:
        all of them), in PBW order."""
        top = self.superscripts[-1] if max_degree is None else max_degree
        return pack_generators(self, range(self.superscripts[0], top + 1))

    # -- constructors ------------------------------------------------------

    def zero(self) -> Element:
        return Element(self, frozenset())

    def one(self) -> Element:
        return Element(self, frozenset({b""}))

    def gen(self, i: int, j: int, r: int) -> Element:
        return Element(self, frozenset({pack_gen(self, i, j, r)}))

    # -- the bracket and its hooks ------------------------------------------

    def _bracket(self, a: bytes, b: bytes) -> frozenset:
        """``_bracket_rule(a, b)``, memoised per pair of letters under the
        word a + b; every empty value is the one ``EMPTY_BRACKET``."""
        key = a + b
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self._pair_cache[key] = (self._bracket_rule(a, b)
                                           or EMPTY_BRACKET)
        return hit

    def _check_word(self, word: bytes) -> None:
        """Raise for a raw word that ``normal_form`` must refuse."""

    def _check_product_cap(self, x: Element, y: Element) -> None:
        """Raise for a product xy that ``multiply`` must refuse."""

    # -- straightening -----------------------------------------------------

    def normal_form(self, words) -> Element:
        """Normal form of a sum of raw words: packed words, or sequences of
        letters, each packed or an (i, j, r) triple; ValueError for a letter
        that is not a generator."""
        acc: set = set()
        for w in words:
            if isinstance(w, bytes):
                w = word_letters(w)
            packed = b"".join(letter(self, g) for g in w)
            self._check_word(packed)
            acc.symmetric_difference_update(straighten(
                packed, self._nf_cache, self._bracket, self._nilsquare))
        return Element(self, frozenset(acc))

    def multiply(self, x: Element, y: Element) -> Element:
        """xy in normal form, each word wb of y appended to a running sum
        that starts as the words of x.

        At each letter g of wb, a term s of the sum whose last letter is
        below g, or equal to g and not in ``_nilsquare``, takes the rest of
        wb whole: wb is ordered, so s + wb[k:] is already a normal word.
        Every other term inserts g by the insertion rule (``_insert``), and
        the XOR of those results is the sum that meets the next letter.
        This is exact: the normal form is linear, and NF(s g w') =
        NF(NF(s g) w') for every word w'.  So the only memo keys formed are
        ``_insert``'s, ordered words with one letter appended; no pair word
        wa + wb is straightened or stored.
        """
        if x.alg is not self or y.alg is not self:
            check_operands(self, x, y)
        self._check_product_cap(x, y)
        acc: set = set()
        cache, bracket, nilsquare = (self._nf_cache, self._bracket,
                                     self._nilsquare)
        for wb in y.words:
            terms = x.words
            for k in range(0, len(wb), 3):
                g = wb[k:k + 3]
                pending: set = set()
                for s in terms:
                    a = s[-3:]      # b"" for the empty word, below every letter
                    if a < g or (a == g and g not in nilsquare):
                        acc ^= {s + wb[k:]}
                    else:
                        pending.symmetric_difference_update(
                            _insert(s, g, cache, bracket, nilsquare))
                terms = pending
                if not terms:
                    break
            acc.symmetric_difference_update(terms)
        return Element(self, frozenset(acc))

    def commutator(self, x: Element, y: Element) -> Element:
        """xy + yx by the Leibniz rule (``commutator_words``), on the
        algebra's letter tables.  The words straightened are a degree
        lower than those of xy and would pass a cap silently, so
        ``_check_product_cap`` sees x and y first, as in ``multiply``.

        [x, x] = 2x^2 is 0 mod 2.  Otherwise the operand with more letters,
        summed over its words, is the one expanded letter by letter, x on a
        tie: NF(xy + yx) is symmetric in x and y, so the order is free, and
        the letter tables are then built against the smaller operand."""
        if x.alg is not self or y.alg is not self:
            check_operands(self, x, y)
        self._check_product_cap(x, y)
        if x.words == y.words:
            return self.zero()
        if sum(map(len, y.words)) > sum(map(len, x.words)):
            x, y = y, x
        return Element(self, commutator_words(
            x.words, y.words, self._nf_cache, self._letter_cache,
            self._bracket, self._nilsquare))

    # -- centrality on a generating set ------------------------------------

    def lie_generators(self, top: int | None = None) -> tuple:
        """S_top, in packed order: t[i,i+1,b] and t[i+1,i,b] for
        1 <= i < m+n, and t[1,1,r] for b <= r <= top, with b the lowest
        superscript (t^0 classically, 1 in the Yangian) and top the highest
        by default; empty when top < b.

        A letter of superscript b brackets alike in both algebras,
        [t[i,j,b], t[k,l,s]] = delta_kj t[i,l,s] + delta_il t[k,j,s]:
        [t[1,1,r], t[1,2,b]] = t[1,2,r] moves the superscript onto a root,
        [t[i,i+1,b], t[i+1,i,r]] = t[i,i,r] + t[i+1,i+1,r] walks it down the
        diagonal, and nested brackets of the roots reach every position.
        The set is not trusted: certified_lie_generators checks it on first
        use for each top, and the result is kept on the algebra.
        """
        top = self.superscripts[-1] if top is None else top
        hit = self._lie_generators.get(top)
        if hit is None:
            b = self.superscripts[0]
            gens = {pack(1, 1, r) for r in range(b, top + 1)}
            if top >= b:
                for i in range(1, self.shape.size):
                    gens |= {pack(i, i + 1, b), pack(i + 1, i, b)}
            hit = self._lie_generators[top] = certified_lie_generators(
                self, gens, top)
        return hit

    def first_noncentral(self, x: Element,
                         top: int | None = None) -> Element | None:
        """The first letter g of superscript <= top (default: all) with
        [x, g] != 0, or None when x commutes with all of them.

        x is asked of S_top (lie_generators) first.  The elements that
        commute with x form a subalgebra closed under the bracket, because
        [x, .] is a derivation (no signs mod 2), and the closure of S_top is
        certified to be every letter up to top.  Only a failing x is
        scanned letter by letter, in ``_scan_key`` order, so the witness is
        the one a scan of every letter names.
        """
        top = self.superscripts[-1] if top is None else top
        if not any(self.commutator(x, self.gen(*s))
                   for s in self.lie_generators(top)):
            return None
        scan = sorted(self.generators(top), key=self._scan_key)
        return next(g for g in (self.gen(*s) for s in scan)
                    if self.commutator(x, g))


class RTTAlgebra(WordAlgebra):
    """The Yangian of gl_{m+n} over GF(2), truncated at a hard degree cap:
    the RTT bracket rule and the cap on ``WordAlgebra``."""

    render_word = staticmethod(render_word)

    def __init__(self, shape: Shape):
        super().__init__(shape, range(1, shape.cap + 1))

    # bound on each algebra, so that perfbench/traced.py times them apart
    multiply = WordAlgebra.multiply

    # a failing centrality scan meets t[i,j,s] in (s, i, j) order
    _scan_key = staticmethod(lambda g: (g[2], g))

    def first_noncentral(self, x: Element, top: int) -> Element | None:
        # deg x + top must fit the cap, so that every [x, g] is exact
        if x.degree() + top > self.shape.cap:
            raise DegreeCapError(
                f"centrality budget {top} plus degree {x.degree()} "
                f"exceeds cap {self.shape.cap}")
        return super().first_noncentral(x, top)

    # -- the defining relation --------------------------------------------

    def _bracket_rule(self, a: bytes, b: bytes) -> frozenset:
        """Raw right-hand side of [a, b] as a set of words, before straightening."""
        i, j, r = a
        k, l, s = b
        out: set = set()
        for t in range(min(r, s)):
            hi = r + s - 1 - t
            if t == 0:
                # t^(0) contracts to a Kronecker delta on either side
                if k == j:
                    out ^= {pack(i, l, hi)}
                if i == l:
                    out ^= {pack(k, j, hi)}
            else:
                out ^= {pack(k, j, t) + pack(i, l, hi)}
                out ^= {pack(k, j, hi) + pack(i, l, t)}
        return frozenset(out)

    def _check_word(self, word: bytes) -> None:
        cap = self.shape.cap
        d = word_degree(word)
        if d > cap:
            raise DegreeCapError(
                f"word {render_word(word)} has degree {d} > cap {cap}")

    def _check_product_cap(self, x: Element, y: Element) -> None:
        """Raise DegreeCapError at the first pair of words of xy over the
        cap, x's words and then y's taken in sorted order: the hash of a
        bytes word, and so a frozenset's own order, changes from one
        process to the next, and the error names the same pair in each.

        A pair is over the cap only if the top degrees of x and y are, so
        the pairs are walked only then."""
        cap = self.shape.cap
        if x.degree() + y.degree() <= cap:
            return
        right = [(wb, word_degree(wb)) for wb in sorted(y.words)]
        for wa in sorted(x.words):
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
            # w[::-1] holds each letter (i, j, r) as (r, j, i), in reverse
            flipped = w[::-1]
            image = bytearray(len(w))
            image[0::3], image[1::3], image[2::3] = (
                flipped[1::3], flipped[2::3], flipped[0::3])
            acc.symmetric_difference_update(straighten(
                bytes(image), cache, bracket))
        return Element(self, frozenset(acc))

    # -- PBW enumeration ----------------------------------------------------

    def pbw_monomials(self, bound: int) -> list[bytes]:
        """All ordered monomials of canonical degree <= bound.

        The list is deterministic: graded, then lexicographic in the word.
        """
        gens = self.generators(min(bound, self.shape.cap))
        return graded_words(gens, [g[2] for g in gens], bound, frozenset())

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
            words.append(b"".join(word))
        return self.normal_form(words)

    def associativity_fuzz(self, samples: int, seed: int) -> Report:
        """Compare ((ab)c) and (a(bc)) on random in-cap triples.

        Factors have degree up to max(1, cap // 3), b and c within what the
        factors before them leave of the cap, which binds only below cap 3.
        Failures are recorded with witnesses, not raised: they would
        falsify the implementation, so the report is the artefact.
        """
        rng = random.Random(seed)
        report = Report("associativity-fuzz",
                        config={"samples": samples, "seed": seed,
                                "m": self.shape.m, "n": self.shape.n,
                                "cap": self.shape.cap})
        cap = self.shape.cap
        third = max(1, cap // 3)
        for idx in range(samples):
            a = self.random_element(rng, third)
            b = self.random_element(rng, min(third, cap - a.degree()))
            c = self.random_element(
                rng, min(third, cap - a.degree() - b.degree()))
            left = self.multiply(self.multiply(a, b), c)
            right = self.multiply(a, self.multiply(b, c))
            ok = left == right
            report.add("assoc", {"sample": idx}, ok,
                       witness=None if ok else (left + right).canonical())
        return report
