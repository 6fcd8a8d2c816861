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
