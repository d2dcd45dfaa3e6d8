import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdissect import products
from qdissect.errors import NonUnitLeadingCoefficient, ParseError
from qdissect.exprlang import (
    JP, MAX_DEPTH, Add, Div, Evaluator, Func, IntLit, Mul, Neg, Pow, QVar, Sub,
    Subst, evaluate, parse, to_text,
)


def test_parse_basic_shapes():
    ast = parse("G(q)^2 * H(subst(q,2))")
    assert ast == Mul(Pow(Func("G"), 2), Subst(Func("H"), 2))

    ast = parse("q*R(q)*R(subst(q,2))^2")
    assert ast == Mul(Mul(QVar(), Func("R")), Pow(Subst(Func("R"), 2), 2))

    assert parse("G(q^10)") == Subst(Func("G"), 10)
    assert parse("phi(-q^5)") == Subst(Func("phi", -1), 5)
    assert parse("phi(q)") == Func("phi")
    assert parse("k") == Func("k")
    assert parse("subst(subst(q,2),5)") == Subst(Subst(QVar(), 2), 5)


def test_parse_jp():
    ast = parse("JP(q^5,-q^25;q^10;q^50)")
    assert ast == JP(((1, 5), (-1, 25)), ((1, 10),), 50)
    assert parse("JP(;q;q)") == JP((), ((1, 1),), 1)
    assert parse("JP(q^2;;q^2)") == JP(((1, 2),), (), 2)


def test_parse_numbers_and_powers():
    assert parse("3") == IntLit(3)
    assert parse("q^-2") == Pow(QVar(), -2)
    assert parse("G(q)^1") == Func("G")
    assert parse("G(q)^0") == IntLit(1)
    assert parse("-q + 1") == Add(Neg(QVar()), IntLit(1))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse("G(q")
    assert exc.value.pos == 3

    with pytest.raises(ParseError) as exc:
        parse("W(q)")
    assert exc.value.pos == 0

    with pytest.raises(ParseError) as exc:
        parse("G(1+q)")
    assert exc.value.pos == 2

    with pytest.raises(ParseError):
        parse("1 + ")
    with pytest.raises(ParseError):
        parse("JP(q^0;;q^5)")
    with pytest.raises(ParseError):
        parse("2 @ 3")


def test_depth_limit_is_exact():
    n = MAX_DEPTH
    assert parse("(" * n + "q" + ")" * n) == QVar()
    with pytest.raises(ParseError) as exc:
        parse("(" * (n + 1) + "q" + ")" * (n + 1))
    assert exc.value.pos == n  # the first bracket past the limit

    # a chain of n terms is a tree of depth n
    assert isinstance(parse("+".join(["q"] * n)), Add)
    with pytest.raises(ParseError) as exc:
        parse("+".join(["q"] * (n + 1)))
    assert exc.value.pos == 2 * n - 1  # the operator that would go deeper

    # depth adds up across brackets and chains
    with pytest.raises(ParseError):
        parse("(" * 30 + "q" + "+q+q+q+q)" * 30)
    with pytest.raises(ParseError):
        parse("G(" + "subst(" * (n + 1) + "q" + ",2)" * (n + 1) + ")")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("G(q) H(q)")


# -- printer round trip ---------------------------------------------------------

def leaf():
    # negative constants are spelled with unary minus in the canonical form,
    # so literals are positive here and Neg provides the signs
    return st.one_of(
        st.integers(1, 20).map(IntLit),
        st.just(QVar()),
        st.just(Func("k")),
        st.sampled_from(["G", "H", "R", "Rinv", "Gsum", "Hsum", "psi"]).map(Func),
        st.builds(Func, st.just("phi"), st.sampled_from([1, -1])),
        st.builds(
            JP,
            st.lists(
                st.tuples(st.sampled_from([1, -1]), st.integers(1, 30)),
                max_size=3,
            ).map(tuple),
            st.lists(
                st.tuples(st.sampled_from([1, -1]), st.integers(1, 30)),
                max_size=3,
            ).map(tuple),
            st.integers(1, 30),
        ),
    )


def exprs():
    return st.recursive(
        leaf(),
        lambda inner: st.one_of(
            st.builds(Add, inner, inner),
            st.builds(Sub, inner, inner),
            st.builds(Mul, inner, inner),
            st.builds(Div, inner, inner),
            st.builds(Neg, inner),
            st.builds(
                Pow, inner, st.integers(-4, 4).filter(lambda n: n not in (0, 1))
            ),
            st.builds(Subst, inner, st.integers(2, 6)),
        ),
        max_leaves=12,
    )


@given(exprs())
@settings(max_examples=200)
def test_print_parse_roundtrip(ast):
    assert parse(to_text(ast)) == ast


def test_roundtrip_of_sugar_forms():
    for text in (
        "G(q^2)^4",
        "phi(-q)",
        "subst(G(q)*H(q), 5)",
        "JP(q,q^4;q^2,q^3;q^5)",
        "-4*q*JP(q;;q)",
    ):
        ast = parse(text)
        assert parse(to_text(ast)) == ast


# -- evaluation ----------------------------------------------------------------

def test_eval_examples():
    ev = Evaluator()
    assert ev.eval("1", 10).coefficients(0, 10) == [1] + [0] * 9

    r = ev.eval("H(q)/G(q)", 10)
    assert r == ev.eval("Hsum(q)/Gsum(q)", 10)
    assert r == ev.eval("R(q)", 10)

    k = ev.eval("k", 10)
    assert k == ev.eval("q*Hsum(q)*Hsum(q^2)^2/(Gsum(q)*Gsum(q^2)^2)", 10)
    assert ev.eval("q*R(q)*R(subst(q,2))^2", 10) == k

    assert ev.eval("Gsum(q)", 50) == products.G_sum(50)
    assert ev.eval("phi(-q)", 20) == products.phi(-1, 20)
    assert ev.eval("Rinv(q)", 20) == ev.eval("Gsum(q)/Hsum(q)", 20)
    assert ev.eval("Rinv(q)*R(q)", 20).coefficients(0, 3) == [1, 0, 0]


def test_eval_jp_routes_and_inverse():
    ev = Evaluator()
    n = 80
    assert ev.eval("JP(;q,q^4;q^5)", n) == products.G_sum(n)
    assert ev.eval("1/JP(q,q^4;q^5,q^20;q^25)^2", n) == ev.eval(
        "JP(q^5,q^20;q,q^4;q^25)^2", n
    )


def test_eval_laurent_and_slack():
    ev = Evaluator()
    s = ev.eval("psi(q)^2/(q*psi(q^5)^2)", 30)
    assert s.val == -1
    assert s.order >= 30
    t = ev.eval("(1+k-k^2)/k", 30)
    assert s.truncate(30) == t.truncate(30)


def test_eval_exact_content_division():
    ev = Evaluator()
    one = ev.eval("(2+2*q)/(2+2*q)", 10)
    assert one.coefficients(0, 10) == [1] + [0] * 9

    with pytest.raises(NonUnitLeadingCoefficient):
        ev.eval("1/(2+q)", 10)
    with pytest.raises(NonUnitLeadingCoefficient):
        ev.eval("(1+q)/(2+2*q)", 10)


def test_eval_compositionality_on_random_asts():
    ev = Evaluator()
    n = 25
    simple = exprs()

    @given(simple, simple)
    @settings(max_examples=60, deadline=None)
    def inner(a, b):
        try:
            va = ev.eval(a, n)
            vb = ev.eval(b, n)
            vm = ev.eval(Mul(a, b), n)
            vs = ev.eval(Add(a, b), n)
        except NonUnitLeadingCoefficient:
            return
        w = va.mul(vb)
        nm = min(w.order, n)
        assert vm.truncate(nm) == w.truncate(nm)
        assert vs == va.add(vb).truncate(n)

    inner()


def test_evaluate_one_shot():
    assert evaluate("R(q)", 6).coefficients(0, 6) == [1, -1, 1, 0, -1, 1]


def test_evaluator_cache_is_order_aware():
    ev = Evaluator()
    low = ev.eval("G(q)*H(q) - JP(;q,q^2,q^3,q^4;q^5)", 30)
    high = ev.eval("G(q)*H(q) - JP(;q,q^2,q^3,q^4;q^5)", 120)
    assert low.is_zero() and high.is_zero()
    assert ev.eval("G(q)*H(q)", 120).truncate(30) == ev.eval("G(q)*H(q)", 30)
