"""Expression DSL: parser and evaluator.

Grammar (whitespace-insensitive):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := '1' | gen | '[' expr ',' expr ']' | '(' expr ')' | factor '^' INT
    gen    := 't[' I ',' I ',' R ']' | 'd[' I ',' R ']' | "d'[" I ',' R ']'
            | 'e[' I ',' I ',' R ']' | 'f[' I ',' I ',' R ']'
            | 'c[' R ']' | 'b[' I ',' R ']'

t atoms evaluate directly; d, d', e, f, c, b resolve through lazily built
Drinfeld and center tables.  Every error carries a line/column position.
``Element.canonical`` prints what the parser reads back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .centers import b_series, c_series
from .drinfeld import DrinfeldTable, build_table
from .rtt import Element, RTTAlgebra, Shape


class DSLError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, INT, or a literal symbol
    text: str
    line: int
    col: int


_SYMBOLS = set("+*^[](),")
_NAMES = {"t", "d", "d'", "e", "f", "c", "b"}


def _tokenize(text: str) -> list[Token]:
    out: list[Token] = []
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
            out.append(Token(ch, ch, line, col))
            col += 1
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            out.append(Token("INT", text[start:pos], line, col))
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
            if name not in _NAMES:
                raise DSLError(f"unknown name {name!r}", line, col)
            out.append(Token("NAME", name, line, col))
            col += pos - start
            continue
        raise DSLError(f"unexpected character {ch!r}", line, col)
    out.append(Token("EOF", "", line, col))
    return out


# -- abstract syntax -----------------------------------------------------------


@dataclass(frozen=True)
class Node:
    line: int
    col: int


@dataclass(frozen=True)
class OneAtom(Node):
    pass


@dataclass(frozen=True)
class ZeroAtom(Node):
    pass


@dataclass(frozen=True)
class GenAtom(Node):
    kind: str
    args: tuple[int, ...]


@dataclass(frozen=True)
class BracketNode(Node):
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class PowerNode(Node):
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class ProductNode(Node):
    factors: tuple


@dataclass(frozen=True)
class SumNode(Node):
    terms: tuple


_GEN_ARITY = {"t": 3, "d": 2, "d'": 2, "e": 3, "f": 3, "c": 1, "b": 2}


class _Parser:
    def __init__(self, tokens: list[Token], shape: Shape | None):
        self.tokens = tokens
        self.pos = 0
        self.shape = shape

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise DSLError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                           tok.line, tok.col)
        return self.take()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise DSLError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return node

    def expr(self) -> Node:
        first = self.term()
        terms = [first]
        while self.peek().kind == "+":
            self.take()
            terms.append(self.term())
        if len(terms) == 1:
            return first
        return SumNode(first.line, first.col, tuple(terms))

    def term(self) -> Node:
        first = self.factor()
        factors = [first]
        while self.peek().kind == "*":
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return first
        return ProductNode(first.line, first.col, tuple(factors))

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "INT":
            self.take()
            # 0 is accepted so that canonical output round-trips
            if tok.text not in ("0", "1"):
                raise DSLError("the only literal scalars are 0 and 1",
                               tok.line, tok.col)
            if tok.text == "0":
                node: Node = ZeroAtom(tok.line, tok.col)
            else:
                node = OneAtom(tok.line, tok.col)
        elif tok.kind == "NAME":
            node = self.gen()
        elif tok.kind == "[":
            self.take()
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            node = BracketNode(tok.line, tok.col, left, right)
        elif tok.kind == "(":
            self.take()
            node = self.expr()
            self.expect(")")
        else:
            raise DSLError(f"expected a factor, found {tok.text or 'end of input'!r}",
                           tok.line, tok.col)
        while self.peek().kind == "^":
            self.take()
            power = self.expect("INT")
            node = PowerNode(node.line, node.col, node, int(power.text))
        return node

    def gen(self) -> Node:
        name = self.take()
        arity = _GEN_ARITY[name.text]
        self.expect("[")
        args = [int(self.expect("INT").text)]
        for _ in range(arity - 1):
            self.expect(",")
            args.append(int(self.expect("INT").text))
        self.expect("]")
        node = GenAtom(name.line, name.col, name.text, tuple(args))
        self._validate(node)
        return node

    def _validate(self, node: GenAtom) -> None:
        kind, args = node.kind, node.args
        superscript = args[-1]
        indices = args[:-1]
        if superscript < 1:
            msg = ("superscript must be >= 1" if kind == "t"
                   else f"superscript must be >= 1 for {kind} atoms")
            raise DSLError(msg, node.line, node.col)
        if self.shape is not None:
            size = self.shape.size
            for idx in indices:
                if not 1 <= idx <= size:
                    raise DSLError(f"index {idx} out of range 1..{size}",
                                   node.line, node.col)
            if kind == "t" and superscript > self.shape.cap:
                raise DSLError(f"superscript {superscript} exceeds cap "
                               f"{self.shape.cap}", node.line, node.col)
        if kind == "e" and not indices[0] < indices[1]:
            raise DSLError("e atoms need row < column", node.line, node.col)
        if kind == "f" and not indices[0] > indices[1]:
            raise DSLError("f atoms need row > column", node.line, node.col)


def parse(text: str, shape: Shape | None = None) -> Node:
    return _Parser(_tokenize(text), shape).parse()


# -- evaluation -----------------------------------------------------------------


class EvalContext:
    """Lazily materialises the Drinfeld and center tables behind the DSL atoms."""

    def __init__(self, alg: RTTAlgebra, order: int):
        self.alg = alg
        self.order = order
        self._table: DrinfeldTable | None = None
        self._c: list[Element] | None = None
        self._b: dict[int, list[Element]] = {}

    @property
    def table(self) -> DrinfeldTable:
        if self._table is None:
            self._table = build_table(self.alg, self.order)
        return self._table

    def resolve(self, kind: str, args: tuple[int, ...]) -> Element:
        if kind == "t":
            return self.alg.gen(*args)
        tab = self.table
        if kind == "d":
            i, r = args
            self._check_order(r)
            return tab.d[i][r]
        if kind == "d'":
            i, r = args
            self._check_order(r)
            return tab.dprime[i][r]
        if kind in ("e", "f"):
            a, b, r = args
            self._check_order(r)
            by_r = (tab.e if kind == "e" else tab.f)[(a, b)]
            if r not in by_r:
                # the higher roots stop at min(K, L - 1)
                raise ValueError(f"superscript {r} of {kind}[{a},{b}] exceeds "
                                 f"its top superscript {max(by_r, default=0)}")
            return by_r[r]
        if kind == "c":
            (r,) = args
            self._check_order(r)
            if self._c is None:
                self._c = list(c_series(self.table).coeffs)
            return self._c[r]
        if kind == "b":
            i, r = args
            self._check_order(r)
            if i not in self._b:
                self._b[i] = list(b_series(self.table, i).coeffs)
            return self._b[i][r]
        raise ValueError(f"unknown atom kind {kind}")

    def _check_order(self, r: int) -> None:
        if r > self.order:
            raise ValueError(f"superscript {r} exceeds series order {self.order}")


def evaluate(node: Node, ctx: EvalContext) -> Element:
    alg = ctx.alg
    if isinstance(node, OneAtom):
        return alg.one()
    if isinstance(node, ZeroAtom):
        return alg.zero()
    if isinstance(node, GenAtom):
        return ctx.resolve(node.kind, node.args)
    if isinstance(node, BracketNode):
        return alg.commutator(evaluate(node.left, ctx), evaluate(node.right, ctx))
    if isinstance(node, PowerNode):
        return evaluate(node.base, ctx) ** node.exponent
    if isinstance(node, ProductNode):
        out = alg.one()
        for factor in node.factors:
            out = alg.multiply(out, evaluate(factor, ctx))
        return out
    if isinstance(node, SumNode):
        out = alg.zero()
        for term in node.terms:
            out = out + evaluate(term, ctx)
        return out
    raise TypeError(f"unknown node {node!r}")
