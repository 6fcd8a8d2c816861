"""Expression DSL: parser and evaluator.

Grammar (whitespace-insensitive):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := '1' | gen | '[' expr ',' expr ']' | '(' expr ')' | factor '^' INT
    gen    := 't[' I ',' I ',' R ']' | 'd[' I ',' R ']' | "d'[" I ',' R ']'
            | 'e[' I ',' I ',' R ']' | 'f[' I ',' I ',' R ']'
            | 'c[' R ']' | 'b[' I ',' R ']'

``parse`` reads an expression into an evaluator: a function of an
``EvalContext``, built from the evaluators of its parts, which ``evaluate``
calls.  Sums, products and brackets evaluate their parts left to right, and
a power chain applies its exponents one after another.  t atoms evaluate
directly; d, d', e, f, c, b resolve through the Drinfeld and center tables,
which the context builds on the first such atom, importing ``drinfeld`` and
``centers`` only then.  Every error of the text carries a line/column
position, an expression nested too deeply to parse among them.
``Element.canonical`` prints what the parser reads back.
"""

from __future__ import annotations

from collections.abc import Callable

from .rtt import Element, RTTAlgebra, Shape

Evaluator = Callable[["EvalContext"], Element]


class DSLError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_SYMBOLS = set("+*^[](),")
_GEN_ARITY = {"t": 3, "d": 2, "d'": 2, "e": 3, "f": 3, "c": 1, "b": 2}


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of text as (kind, text, line, column); a kind is NAME,
    INT, EOF or the symbol itself."""
    out = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            col += 1
            pos += 1
            continue
        if ch in _SYMBOLS:
            out.append((ch, ch, line, col))
            col += 1
            pos += 1
            continue
        if ch.isdecimal():
            # isdecimal, not isdigit: '²' is a digit that int() refuses
            start = pos
            while pos < len(text) and text[pos].isdecimal():
                pos += 1
            out.append(("INT", text[start:pos], line, col))
            col += pos - start
            continue
        if ch.isalpha():
            # a whole run of letters, so a misspelt name is named whole
            start = pos
            while pos < len(text) and text[pos].isalpha():
                pos += 1
            if pos < len(text) and text[pos] == "'":
                pos += 1
            name = text[start:pos]
            if name not in _GEN_ARITY:
                raise DSLError(f"unknown name {name!r}", line, col)
            out.append(("NAME", name, line, col))
            col += pos - start
            continue
        raise DSLError(f"unexpected character {ch!r}", line, col)
    out.append(("EOF", "", line, col))
    return out


class _Parser:
    """Recursive descent, one method per rule, each returning the rule's
    evaluator.  The position never passes the EOF token."""

    def __init__(self, tokens: list[tuple[str, str, int, int]],
                 shape: Shape | None):
        self.tokens = tokens
        self.pos = 0
        self.shape = shape

    def accept(self, kind: str) -> bool:
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str) -> str:
        found, text, line, col = self.tokens[self.pos]
        if found != kind:
            raise DSLError(f"expected {kind!r}, found {text or 'end of input'!r}",
                           line, col)
        self.pos += 1
        return text

    def parse(self) -> Evaluator:
        try:
            value = self.expr()
        except RecursionError:
            _, _, line, col = self.tokens[self.pos]
            raise DSLError("expression nested too deeply", line, col) from None
        kind, text, line, col = self.tokens[self.pos]
        if kind != "EOF":
            raise DSLError(f"trailing input {text!r}", line, col)
        return value

    def expr(self) -> Evaluator:
        terms = [self.term()]
        while self.accept("+"):
            terms.append(self.term())
        if len(terms) == 1:
            return terms[0]
        return lambda ctx: sum((term(ctx) for term in terms), ctx.alg.zero())

    def term(self) -> Evaluator:
        factors = [self.factor()]
        while self.accept("*"):
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]

        def product(ctx: EvalContext) -> Element:
            out = ctx.alg.one()
            for factor in factors:
                out = ctx.alg.multiply(out, factor(ctx))
            return out

        return product

    def factor(self) -> Evaluator:
        kind, text, line, col = self.tokens[self.pos]
        if kind not in ("INT", "NAME", "[", "("):
            raise DSLError(f"expected a factor, found {text or 'end of input'!r}",
                           line, col)
        self.pos += 1
        if kind == "INT":
            # 0 is accepted so that canonical output round-trips
            if text not in ("0", "1"):
                raise DSLError("the only literal scalars are 0 and 1", line, col)
            if text == "1":
                value = lambda ctx: ctx.alg.one()
            else:
                value = lambda ctx: ctx.alg.zero()
        elif kind == "NAME":
            value = self.gen(text, line, col)
        elif kind == "[":
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            value = lambda ctx: ctx.alg.commutator(left(ctx), right(ctx))
        else:
            value = self.expr()
            self.expect(")")
        exponents = []
        while self.accept("^"):
            exponents.append(int(self.expect("INT")))
        if not exponents:
            return value

        def power(ctx: EvalContext) -> Element:
            out = value(ctx)
            for k in exponents:
                out = out ** k
            return out

        return power

    def gen(self, kind: str, line: int, col: int) -> Evaluator:
        self.expect("[")
        args = [int(self.expect("INT"))]
        for _ in range(_GEN_ARITY[kind] - 1):
            self.expect(",")
            args.append(int(self.expect("INT")))
        self.expect("]")
        *indices, superscript = args
        if superscript < 1:
            msg = ("superscript must be >= 1" if kind == "t"
                   else f"superscript must be >= 1 for {kind} atoms")
            raise DSLError(msg, line, col)
        if self.shape is not None:
            size = self.shape.size
            for idx in indices:
                if not 1 <= idx <= size:
                    raise DSLError(f"index {idx} out of range 1..{size}",
                                   line, col)
            if kind == "t" and superscript > self.shape.cap:
                raise DSLError(f"superscript {superscript} exceeds cap "
                               f"{self.shape.cap}", line, col)
        if kind == "e" and not indices[0] < indices[1]:
            raise DSLError("e atoms need row < column", line, col)
        if kind == "f" and not indices[0] > indices[1]:
            raise DSLError("f atoms need row > column", line, col)
        return lambda ctx: ctx.resolve(kind, args)


def parse(text: str, shape: Shape | None = None) -> Evaluator:
    return _Parser(_tokenize(text), shape).parse()


def evaluate(node: Evaluator, ctx: EvalContext) -> Element:
    return node(ctx)


class EvalContext:
    """The algebra and series order that evaluators run in, with the
    Drinfeld and center tables behind the d, d', e, f, c and b atoms, each
    built on first use."""

    def __init__(self, alg: RTTAlgebra, order: int):
        self.alg = alg
        self.order = order
        self._table = None
        self._c: list[Element] | None = None
        self._b: dict[int, list[Element]] = {}

    @property
    def table(self):
        """The drinfeld.DrinfeldTable at the context's order."""
        if self._table is None:
            from .drinfeld import build_table

            self._table = build_table(self.alg, self.order)
        return self._table

    def resolve(self, kind: str, args: list[int]) -> Element:
        if kind == "t":
            return self.alg.gen(*args)
        tab = self.table
        *indices, r = args
        if r > self.order:
            raise ValueError(f"superscript {r} exceeds series order {self.order}")
        if kind == "d":
            return tab.d[indices[0]][r]
        if kind == "d'":
            return tab.dprime[indices[0]][r]
        if kind in ("e", "f"):
            a, b = indices
            by_r = (tab.e if kind == "e" else tab.f)[(a, b)]
            if r not in by_r:
                # the higher roots stop at min(K, L - 1)
                raise ValueError(f"superscript {r} of {kind}[{a},{b}] exceeds "
                                 f"its top superscript {max(by_r, default=0)}")
            return by_r[r]
        from .centers import b_series, c_series

        if kind == "c":
            if self._c is None:
                self._c = list(c_series(tab).coeffs)
            return self._c[r]
        (i,) = indices
        if i not in self._b:
            self._b[i] = list(b_series(tab, i).coeffs)
        return self._b[i][r]
