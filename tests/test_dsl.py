import pytest
from hypothesis import given, settings, strategies as st

from yangian2 import RTTAlgebra, Shape
from yangian2.dsl import DSLError, EvalContext, evaluate, parse
from yangian2.drinfeld import build_table
from yangian2.centers import b_series, c_series


@pytest.fixture(scope="module")
def alg():
    return RTTAlgebra(Shape(1, 1, 4))


@pytest.fixture(scope="module")
def ctx(alg):
    return EvalContext(alg, 3)


def test_parse_product(alg, ctx):
    node = parse("t[1,2,1]*t[2,1,1]", alg.shape)
    value = evaluate(node, ctx)
    assert value == alg.gen(1, 2, 1) * alg.gen(2, 1, 1)


def test_parse_commutator(alg, ctx):
    node = parse("[t[1,2,1], t[2,1,1]]", alg.shape)
    value = evaluate(node, ctx)
    assert value == alg.gen(1, 1, 1) + alg.gen(2, 2, 1)


def test_superscript_zero_rejected(alg):
    with pytest.raises(DSLError) as err:
        parse("t[1,2,0]", alg.shape)
    assert "superscript must be >= 1" in str(err.value)
    assert err.value.line == 1


def test_error_positions():
    with pytest.raises(DSLError) as err:
        parse("t[1,2,1] + q[1]")
    assert "line 1, column 12" in str(err.value)
    with pytest.raises(DSLError) as err2:
        parse("t[1,2,1] +\n t[1,]")
    assert err2.value.line == 2


def test_index_out_of_range(alg):
    with pytest.raises(DSLError) as err:
        parse("t[3,1,1]", alg.shape)
    assert "out of range" in str(err.value)


def test_cap_validation(alg):
    with pytest.raises(DSLError):
        parse("t[1,1,9]", alg.shape)


def test_ef_index_order(alg):
    with pytest.raises(DSLError):
        parse("e[2,1,1]", alg.shape)
    with pytest.raises(DSLError):
        parse("f[1,2,1]", alg.shape)


def test_scalar_literal(alg, ctx):
    assert evaluate(parse("1", alg.shape), ctx) == alg.one()
    assert evaluate(parse("0", alg.shape), ctx) == alg.zero()
    with pytest.raises(DSLError):
        parse("2", alg.shape)


def test_powers(alg, ctx):
    node = parse("t[1,1,1]^2", alg.shape)
    g = alg.gen(1, 1, 1)
    assert evaluate(node, ctx) == g * g
    assert evaluate(parse("t[1,1,1]^0", alg.shape), ctx) == alg.one()
    assert evaluate(parse("(t[1,1,1] + t[2,2,1])^2", alg.shape), ctx) == \
        (g + alg.gen(2, 2, 1)) ** 2
    assert evaluate(parse("0^0", alg.shape), ctx) == alg.one()
    assert evaluate(parse("(1 + t[1,1,1])^3", alg.shape), ctx) == \
        (alg.one() + g) * (alg.one() + g) * (alg.one() + g)


def test_sum_and_cancellation(alg, ctx):
    value = evaluate(parse("t[1,2,1] + t[1,2,1]", alg.shape), ctx)
    assert not value


def test_table_atoms(alg, ctx):
    tab = build_table(alg, 3)
    assert evaluate(parse("d[2,2]", alg.shape), ctx) == tab.d[2][2]
    assert evaluate(parse("d'[1,2]", alg.shape), ctx) == tab.dprime[1][2]
    assert evaluate(parse("e[1,2,2]", alg.shape), ctx) == tab.e[(1, 2)][2]
    assert evaluate(parse("f[2,1,1]", alg.shape), ctx) == tab.f[(2, 1)][1]
    assert evaluate(parse("c[2]", alg.shape), ctx) == c_series(tab).coeffs[2]
    assert evaluate(parse("b[1,2]", alg.shape), ctx) == b_series(tab, 1).coeffs[2]


@pytest.mark.parametrize("kind, key", [("e", (1, 3)), ("f", (3, 1))])
def test_higher_root_stops_at_its_top(kind, key):
    """The higher roots of (2,1,L=3,K=3) stop at min(K, L - 1) = 2; one
    past it is a ValueError that names the top, not a KeyError."""
    alg = RTTAlgebra(Shape(2, 1, 3))
    ctx = EvalContext(alg, 3)
    a, b = key
    by_r = getattr(ctx.table, kind)[key]
    for r in (1, 2):
        assert evaluate(parse(f"{kind}[{a},{b},{r}]", alg.shape), ctx) == by_r[r]
    with pytest.raises(ValueError, match="top superscript 2"):
        evaluate(parse(f"{kind}[{a},{b},3]", alg.shape), ctx)


def test_atom_order_guard(alg, ctx):
    with pytest.raises(ValueError):
        evaluate(parse("d[1,4]", alg.shape), ctx)


def test_canonical_contract(alg):
    assert alg.zero().canonical() == "0"
    assert alg.one().canonical() == "1"
    x = alg.gen(1, 1, 1) + alg.gen(1, 2, 1) * alg.gen(2, 1, 2)
    assert x.canonical() == "t[1,1,1] + t[1,2,1]*t[2,1,2]"


def test_roundtrip_basis_monomials(alg, ctx):
    from yangian2.rtt import Element
    for word in alg.pbw_monomials(3):
        x = Element(alg, frozenset({word}))
        back = evaluate(parse(x.canonical(), alg.shape), ctx)
        assert back == x


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_roundtrip_random_elements(alg, ctx, data):
    words = data.draw(st.frozensets(
        st.sampled_from(alg.pbw_monomials(3)), min_size=0, max_size=4))
    from yangian2.rtt import Element
    x = Element(alg, frozenset(words))
    back = evaluate(parse(x.canonical(), alg.shape), ctx)
    assert back == x


def test_whitespace_insensitive(alg, ctx):
    a = evaluate(parse("t[1,2,1]*t[2,1,1]", alg.shape), ctx)
    b = evaluate(parse("  t[ 1 , 2 , 1 ]\n * t[2,1,1] ", alg.shape), ctx)
    assert a == b


def test_superscript_digit_is_an_unexpected_character():
    """'²' is a digit to str.isdigit but not to int(); it is not read as
    an INT but refused with its position."""
    with pytest.raises(DSLError) as info:
        parse("t[1,1,²]")
    assert str(info.value) == "line 1, column 7: unexpected character '²'"
    assert (info.value.line, info.value.col) == (1, 7)


def test_too_deep_nesting_is_a_dsl_error():
    text = "(" * 2000 + "1" + ")" * 2000
    with pytest.raises(DSLError) as info:
        parse(text)
    assert info.value.line == 1 and 1 <= info.value.col <= len(text)
    assert str(info.value).endswith(": expression nested too deeply")


def test_long_power_chain(alg, ctx):
    """A chain of exponents is applied in one loop, however long."""
    assert evaluate(parse("1" + "^1" * 5000, alg.shape), ctx) == alg.one()
    g = alg.gen(1, 1, 1)
    assert evaluate(parse("t[1,1,1]" + "^1" * 5000, alg.shape), ctx) == g
    assert evaluate(parse("t[1,1,1]^2^1^2", alg.shape), ctx) == g * g * g * g


# -- the messages, pinned --------------------------------------------------------

S, H = (1, 1, 4, 3), (2, 1, 3, 3)     # (m, n, L, K); None parses without a shape

# (shape, expression, the whole message); a DSLError's message starts with its
# line and column, an error raised while evaluating has no position
MESSAGES = [
    (S, "foo", "line 1, column 1: unknown name 'foo'"),
    (S, "t[1,2,1] + q[1]", "line 1, column 12: unknown name 'q'"),
    (S, "tt[1,1,1]", "line 1, column 1: unknown name 'tt'"),
    (S, "d''[1,1]", 'line 1, column 3: unexpected character "\'"'),
    (S, "x'[1]", 'line 1, column 1: unknown name "x\'"'),
    (S, "t[1,1,1] & t[1,1,1]", "line 1, column 10: unexpected character '&'"),
    (S, "t[1,1,1]-t[1,1,1]", "line 1, column 9: unexpected character '-'"),
    (S, "t[1,1,1]^-1", "line 1, column 10: unexpected character '-'"),
    (S, "t[1,2", "line 1, column 6: expected ',', found 'end of input'"),
    (S, "t[1,2,1", "line 1, column 8: expected ']', found 'end of input'"),
    (S, "(t[1,1,1]", "line 1, column 10: expected ')', found 'end of input'"),
    (S, "[t[1,1,1] t[2,2,1]]", "line 1, column 11: expected ',', found 't'"),
    (S, "[t[1,1,1], t[2,2,1]",
     "line 1, column 20: expected ']', found 'end of input'"),
    (S, "t[,1,1]", "line 1, column 3: expected 'INT', found ','"),
    (S, "t[1,1,1]^",
     "line 1, column 10: expected 'INT', found 'end of input'"),
    (S, "t[1,1,1]^t[1,1,1]", "line 1, column 10: expected 'INT', found 't'"),
    (S, "t 1", "line 1, column 3: expected '[', found '1'"),
    (S, "d[1]", "line 1, column 4: expected ',', found ']'"),
    (S, "c[1,2]", "line 1, column 4: expected ']', found ','"),
    (S, "t[1,1,1,1]", "line 1, column 8: expected ']', found ','"),
    (S, "t[1,1,1] t[1,1,1]", "line 1, column 10: trailing input 't'"),
    (S, "1 )", "line 1, column 3: trailing input ')'"),
    (S, "t[1, 1, 1]]", "line 1, column 11: trailing input ']'"),
    (S, "", "line 1, column 1: expected a factor, found 'end of input'"),
    (S, "+", "line 1, column 1: expected a factor, found '+'"),
    (S, "t[1,1,1] +* t[1,1,1]",
     "line 1, column 11: expected a factor, found '*'"),
    (S, "()", "line 1, column 2: expected a factor, found ')'"),
    (S, "2", "line 1, column 1: the only literal scalars are 0 and 1"),
    (S, "01", "line 1, column 1: the only literal scalars are 0 and 1"),
    (S, "t[1,1,1]*3",
     "line 1, column 10: the only literal scalars are 0 and 1"),
    (S, "t[1,2,0]", "line 1, column 1: superscript must be >= 1"),
    (S, "d[1,0]", "line 1, column 1: superscript must be >= 1 for d atoms"),
    (S, "d'[1,0]", "line 1, column 1: superscript must be >= 1 for d' atoms"),
    (S, "e[1,2,0]", "line 1, column 1: superscript must be >= 1 for e atoms"),
    (S, "f[2,1,0]", "line 1, column 1: superscript must be >= 1 for f atoms"),
    (S, "c[0]", "line 1, column 1: superscript must be >= 1 for c atoms"),
    (S, "b[1,0]", "line 1, column 1: superscript must be >= 1 for b atoms"),
    (S, "t[3,1,0]", "line 1, column 1: superscript must be >= 1"),
    (S, "t[3,1,1]", "line 1, column 1: index 3 out of range 1..2"),
    (S, "b[0,1]", "line 1, column 1: index 0 out of range 1..2"),
    (S, "e[1,3,1]", "line 1, column 1: index 3 out of range 1..2"),
    (S, "t[1,1,9]", "line 1, column 1: superscript 9 exceeds cap 4"),
    (S, "e[2,1,1]", "line 1, column 1: e atoms need row < column"),
    (S, "f[1,2,1]", "line 1, column 1: f atoms need row > column"),
    (S, "e[1,1,1]", "line 1, column 1: e atoms need row < column"),
    (S, "t[1,1,9] + foo", "line 1, column 12: unknown name 'foo'"),
    (S, "t[1,2,1] +\n t[1,]", "line 2, column 6: expected 'INT', found ']'"),
    (S, "t[1,1,1]\n\n  + foo", "line 3, column 5: unknown name 'foo'"),
    (S, "(\n t[1,1,1]\n",
     "line 3, column 1: expected ')', found 'end of input'"),
    (S, "\tt[1,1,1] ?", "line 1, column 11: unexpected character '?'"),
    (S, "d[1,4]", "superscript 4 exceeds series order 3"),
    (S, "d'[2,4]", "superscript 4 exceeds series order 3"),
    (S, "c[4]", "superscript 4 exceeds series order 3"),
    (S, "b[1,4]", "superscript 4 exceeds series order 3"),
    (S, "e[1,2,4]", "superscript 4 exceeds series order 3"),
    (S, "f[2,1,5]", "superscript 5 exceeds series order 3"),
    (S, "d[1,4] * t[1,1,9]", "line 1, column 10: superscript 9 exceeds cap 4"),
    (S, "d[1,4] + c[5]", "superscript 4 exceeds series order 3"),
    (S, "[c[5], d[1,4]]", "superscript 5 exceeds series order 3"),
    (S, "t[1,1,1] * (d[2,4] + 1)^2", "superscript 4 exceeds series order 3"),
    (S, "t[1,1,1]^5",
     "product term t[1,1,1]*t[1,1,1]*t[1,1,1]*t[1,1,1]*t[1,1,1] "
     "has degree 5 > cap 4"),
    (S, "t[1,1,1]^2^3",
     "product term t[1,1,1]*t[1,1,1]*t[1,1,1]*t[1,1,1]*t[1,1,1]*t[1,1,1] "
     "has degree 6 > cap 4"),
    (S, "d[1,4]^0", "superscript 4 exceeds series order 3"),
    (S, "t[1,2,2]*t[2,1,3]*d[1,4]",
     "product term t[1,2,2]*t[2,1,3] has degree 5 > cap 4"),
    (S, "d[1,4]*t[1,2,2]*t[2,1,3]", "superscript 4 exceeds series order 3"),
    (S, "[t[1,2,2]*t[2,1,3], d[1,4]]",
     "product term t[1,2,2]*t[2,1,3] has degree 5 > cap 4"),
    (S, "t[1,1,1]^2^x", "line 1, column 12: unknown name 'x'"),
    (S, "t[1,2,2]*t[2,1,3]",
     "product term t[1,2,2]*t[2,1,3] has degree 5 > cap 4"),
    (H, "e[1,3,3]", "superscript 3 of e[1,3] exceeds its top superscript 2"),
    (H, "f[3,1,3]", "superscript 3 of f[3,1] exceeds its top superscript 2"),
    (H, "e[1,3,3] + e[1,3,4]",
     "superscript 3 of e[1,3] exceeds its top superscript 2"),
    (None, "t[5,5,0]", "line 1, column 1: superscript must be >= 1"),
    (None, "t[1,2", "line 1, column 6: expected ',', found 'end of input'"),
]


@pytest.mark.parametrize(
    "spec, text, message", MESSAGES,
    ids=[text.encode("unicode_escape").decode() or "empty"
         for _, text, _ in MESSAGES])
def test_error_messages(spec, text, message):
    """Every malformed expression fails with its own message at its own
    position, and the first fault from the left is the one reported:
    the tokens before the grammar, the grammar before evaluation, and in
    evaluation a sum, product or bracket left to right, the base of a power
    before its exponent."""
    shape = ctx = None
    if spec is not None:
        m, n, cap, order = spec
        alg = RTTAlgebra(Shape(m, n, cap))
        shape, ctx = alg.shape, EvalContext(alg, order)
    with pytest.raises(ValueError) as info:
        node = parse(text, shape)
        if ctx is not None:
            evaluate(node, ctx)
    err = info.value
    assert str(err) == message
    if isinstance(err, DSLError):
        assert message.startswith(f"line {err.line}, column {err.col}: ")
    else:
        assert not message.startswith("line ")
