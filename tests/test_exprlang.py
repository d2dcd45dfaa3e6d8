import re
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdissect import _kernels, products
from qdissect.errors import BudgetExceeded, NonUnitLeadingCoefficient, ParseError
from qdissect.exprlang import (
    MAX_CONSTANT_BITS, MAX_DEPTH, MAX_SLACK, SLACK, Add, Div, Evaluator, Func, Mul, Neg, Pow,
    Sub, Subst, Term, evaluate, parse, to_text,
)
from qdissect.products import PochFactor, QProduct
from qdissect.registry import load_registry
from qdissect.series import Series

from test_readme import CLI_LINES


ONE = QProduct(())


def poch(*factors):
    """The product of (sign, offset, modulus, power) factors."""
    return QProduct(PochFactor(*f) for f in factors)


G5 = poch((1, 1, 5, -1), (1, 4, 5, -1))  # G(q) = 1/(q,q^4;q^5)


def test_parse_basic_shapes():
    ast = parse("Gsum(q)^2 * psi(subst(q,2))")
    assert ast == Mul(Pow(Func("Gsum"), 2), Subst(Func("psi"), 2))
    assert parse("phi(-q^5)") == Subst(Func("phi", -1), 5)
    assert parse("phi(q)") == Func("phi")
    assert parse("subst(Hsum(q) + q, 2)") == Subst(Add(Func("Hsum"), Term(1, 1, ONE)), 2)

    # products of terms fold into one Term as they are parsed
    assert parse("G(q)^2 * H(subst(q,2))") == Term(1, 0, poch(
        (1, 1, 5, -2), (1, 4, 5, -2), (1, 4, 10, -1), (1, 6, 10, -1)))
    assert parse("G(q^10)") == Term(1, 0, G5.transform(subst=10))
    assert parse("k") == parse("q*R(q)*R(subst(q,2))^2") == parse("q^2*(k/q)/q")
    assert parse("k").k == 1 and len(parse("k").product.factors) == 8
    assert parse("subst(subst(q,2),5)") == Term(1, 10, ONE)
    assert parse("Gsum(q)*G(q)*q") == Mul(Mul(Func("Gsum"), Term(1, 0, G5)), Term(1, 1, ONE))


def test_parse_jp():
    ast = parse("JP(q^5,-q^25;q^10;q^50)")
    assert ast == Term(1, 0, poch((1, 5, 50, 1), (-1, 25, 50, 1), (1, 10, 50, -1)))
    assert parse("JP(;q;q)") == Term(1, 0, poch((1, 1, 1, -1)))
    assert parse("JP(q^2;;q^2)") == Term(1, 0, poch((1, 2, 2, 1)))


def test_parse_numbers_and_powers():
    assert parse("3") == Term(3, 0, ONE)
    assert parse("q^-2") == Term(1, -2, ONE)
    assert parse("G(q)^1") == parse("G(q)") == Term(1, 0, G5)
    assert parse("G(q)^0") == parse("(1+q)^0") == Term(1, 0, ONE)
    assert parse("-q + 1") == Add(Term(-1, 1, ONE), Term(1, 0, ONE))
    assert parse("-(2*q)^3/G(q)") == Term(-8, 3, G5.transform(scale=-1))


def test_division_by_a_unit_term_is_a_product_with_its_inverse():
    # the evaluator's Div always divides by a series; a term of constant
    # +-1 inverts by negating its powers, at parse time
    s = Add(Func("Gsum"), Term(1, 1, ONE))
    assert parse("(Gsum(q)+q)/(-q*G(q))") == Mul(s, Term(-1, -1, G5.transform(scale=-1)))
    assert parse("(Gsum(q)+q)/(2*q)") == Div(s, Term(2, 1, ONE))
    assert parse("G(q)/(Gsum(q)+q)") == Div(Term(1, 0, G5), s)
    assert parse("(2*q)^-1") == Pow(Term(2, 1, ONE), -1)


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


def q_power_args():
    """(text, j) for argument texts of the grammar's old argument rule, which
    read only q, q^j and subst(arg, m): the text equals q^j."""
    return st.recursive(
        st.one_of(st.just(("q", 1)), st.integers(1, 40).map(lambda j: (f"q^{j}", j))),
        lambda inner: st.builds(lambda a, m: (f"subst({a[0]}, {m})", a[1] * m),
                                inner, st.integers(1, 6)),
        max_leaves=4,
    )


def called(name, sign, j):
    """The node of name(sign*q^j): a Func for a sum side, else a Term."""
    if name in ("Gsum", "Hsum", "psi", "phi"):
        node = Func(name, sign)
        return node if j == 1 else Subst(node, j)
    t = parse(f"{name}(q)")
    return Term(t.c, t.k * j, t.product.transform(subst=j))


@given(q_power_args(), st.sampled_from([1, -1]),
       st.sampled_from(["G", "H", "R", "Rinv", "Gsum", "Hsum", "psi"]))
def test_every_argument_is_one_signed_power_of_q(arg, sign, name):
    text, j = arg
    signed = text if sign == 1 else "-" + text
    assert parse(f"{name}({text})") == called(name, 1, j)
    assert parse(f"phi({signed})") == called("phi", sign, j)
    assert parse(f"JP({signed},q;;{text})") == Term(1, 0, poch((sign, j, j, 1), (1, 1, j, 1)))
    assert parse(f"JP(;q^2,{signed};q^3)") == Term(1, 0, poch((1, 2, 3, -1), (sign, j, 3, -1)))


def test_arguments_are_expressions_folded_to_a_power_of_q():
    assert parse("G(q*q)") == parse("G(q^2)") == parse("G((q^2))")
    assert parse("JP(subst(q,2);;q^5)") == parse("JP(q^2;;q^5)")
    assert parse("phi(-subst(q,3))") == Subst(Func("phi", -1), 3)
    assert parse("JP(q^2/q;-(q*q);q^10/q^5)") == Term(1, 0, poch((1, 1, 5, 1), (-1, 2, 5, -1)))


@pytest.mark.parametrize("text, pos", [
    ("G(-q)", 2), ("G(1+q)", 2), ("G(q^0)", 2), ("G(k)", 2), ("G(q^-1)", 2),
    ("G(2*q)", 2), ("phi(-2*q)", 4), ("G(R(q)/R(q))", 2),
    ("JP(q^0;;q^5)", 3), ("JP(;;q^0)", 5), ("JP(q;;-q^5)", 6), ("JP(q,k;;q^5)", 5),
])
def test_argument_that_is_not_a_power_of_q_is_one_error_at_its_offset(text, pos):
    with pytest.raises(ParseError, match=r"^argument must equal q\^j with j >= 1 ") as exc:
        parse(text)
    assert exc.value.pos == pos


def test_constant_powers_are_bounded_before_computing():
    # the estimate bit_length * |n| is checked, before the power is taken
    half = MAX_CONSTANT_BITS // 2  # 2 has two bits
    assert parse(f"2^{half}").c == 2 ** half
    with pytest.raises(BudgetExceeded, match=f"limit of {MAX_CONSTANT_BITS} bits"):
        parse(f"2^{half + 1}")
    with pytest.raises(BudgetExceeded):
        parse(f"(-3)^{half + 1}*G(q)")
    # function arguments fold at parse time too: refused there, not computed
    with pytest.raises(BudgetExceeded):
        parse("G((10^1000)^3000)")
    # 0, 1 and -1 to any power cost nothing
    for c in (0, 1, -1):
        assert parse(f"({c})^1099511627777").c == c


def test_depth_limit_is_exact():
    n = MAX_DEPTH
    assert parse("(" * n + "q" + ")" * n) == Term(1, 1, ONE)
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

LEAVES = [parse(t) for t in (
    # negative constants are spelled with unary minus, which Neg provides
    *(str(c) for c in range(1, 21)), "q", "k", "G(q)", "H(q)", "R(q)", "Rinv(q)",
    "Gsum(q)", "Hsum(q)", "psi(q)", "phi(q)", "phi(-q)",
)]


def jp_leaf():
    items = st.lists(st.tuples(st.sampled_from(["", "-"]), st.integers(1, 30)), max_size=3)
    return st.builds(
        lambda num, den, m: parse("JP({};{};q^{})".format(
            *(",".join(f"{s}q^{j}" for s, j in side) for side in (num, den)), m)),
        items, items, st.integers(1, 30))


def raw_trees(leaves):
    """Trees of unfolded nodes over ``leaves``, as no parse builds them."""
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Add, inner, inner),
            st.builds(Sub, inner, inner),
            st.builds(Mul, inner, inner),
            st.builds(Div, inner, inner),
            st.builds(Neg, inner),
            st.builds(Pow, inner, st.integers(-4, 4).filter(lambda n: n not in (0, 1))),
            st.builds(Subst, inner, st.integers(2, 6)),
        ),
        max_leaves=12,
    )


def exprs():
    """Parsed trees: raw trees printed and parsed, so every term is folded."""
    return raw_trees(st.sampled_from(LEAVES) | jp_leaf()).map(lambda e: parse(to_text(e)))


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
        "(Gsum(q)+q)*q^3*JP(-q;;q^5)^-2",
        "Hsum(q)/(2*q)",
        "-(3*q)^-2",
    ):
        ast = parse(text)
        assert parse(to_text(ast)) == ast


def test_a_term_prints_in_one_canonical_form():
    # sign, |c|, q^k, then each factor in stored order as JP(+-q^j;;q^m)^e
    assert to_text(parse("k/q")) == to_text(parse("R(q)*R(q^2)^2")) == (
        "JP(q;;q^5)*JP(q^4;;q^5)*JP(q^2;;q^5)^-1*JP(q^3;;q^5)^-1"
        "*JP(q^2;;q^10)^2*JP(q^8;;q^10)^2*JP(q^4;;q^10)^-2*JP(q^6;;q^10)^-2")
    assert to_text(parse("-2*q^-3*JP(-q;q^2;q^3)")) == "-2*q^-3*JP(-q;;q^3)*JP(q^2;;q^3)^-1"
    assert to_text(parse("-q")) == "-q"
    assert to_text(parse("0*q")) == "0*q"
    assert to_text(parse("1")) == "1" and to_text(parse("-1")) == "-1"
    assert to_text(parse("Gsum(q)*q^2")) == "Gsum(q)*q^2"
    assert to_text(parse("Gsum(q)*2*q")) == "Gsum(q)*2*q"
    assert to_text(parse("Gsum(q)*(2*q)")) == "Gsum(q)*(2*q)"


def real_texts():
    """(id, text) of every expression the registry and the README's CLI
    examples hold."""
    reg = load_registry()
    out = [(f"{r.id}:{side}", getattr(r, side)) for r in reg for side in ("lhs", "rhs")]
    for target, d in reg.dissections.items():
        out.append((f"{target}:source", d.source))
        out.extend((f"{target}:term{i}", jp) for i, (_, _, jp) in enumerate(d.terms))
    for target, plan in reg._pipelines.items():
        out.extend((f"{target}:{key}", text) for key, text in (plan["aux"] or {}).items())
    for argv in CLI_LINES:  # the expressions come first, before any option
        if argv[1] in ("expand", "dissect", "prodmake", "verify") and argv[2][0] != "-":
            out.extend((f"readme:{argv[1]}", a) for a in argv[2:4] if a[0] != "-")
    return out


@pytest.mark.parametrize("text", [t for _, t in real_texts()], ids=[i for i, _ in real_texts()])
def test_real_texts_print_in_a_form_that_parses_back_to_the_same_series(text):
    tree = parse(text)
    canonical = to_text(tree)
    assert parse(canonical) == tree
    assert Evaluator().eval(canonical, 60) == Evaluator().eval(text, 60)


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


def test_divisor_zero_at_the_working_order_is_retried_deeper():
    # each divisor truncates to zero at order + SLACK: only a deeper retry sees it
    assert 41 > 5 + SLACK and 30 > 3 + SLACK
    ev = Evaluator()
    want = Series(-40, [(-1) ** i for i in range(45)], 5)
    assert ev.eval("1/(q^40+q^41)", 5) == want
    assert Evaluator().eval("(q^40+q^41)^-1", 5) == want
    assert ev.eval("1/(q^30*(1+q))", 3) == ev.eval("q^-30/(1+q)", 3)


@pytest.mark.parametrize("text", ["1/(q-q)", "(q-q)^-2", "1/0", "1/(G(q)-Gsum(q))"])
def test_zero_divisor_gives_up_past_max_slack(text):
    with pytest.raises(NonUnitLeadingCoefficient,
                       match=rf"^cannot invert the zero series \(a divisor is zero below "
                             rf"q\^{100 + MAX_SLACK}\)$"):
        Evaluator().eval(text, 100)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int <-> str digit limit")
def test_literal_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("1+" + "7" * 5001)
    assert exc.value.pos == 2
    assert "5001 digits" in str(exc.value)


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


def test_evaluator_cache_shares_equal_nodes():
    # entries are keyed by node: a subexpression spelled differently in
    # another text is the same node and adds no entry
    ev = Evaluator()
    ev.eval("(G(q) + q)*Gsum(q)^2 - subst(psi(q), 2)", 40)
    size = len(ev._cache)
    assert ev.eval("(G(q^1)+q) * (Gsum(q))^2", 40) == ev.eval("Gsum(q)^2*(q + G(q))", 40)
    assert ev.eval("psi(q^2)", 40) == products.psi(20).substitute_power(2).truncate(40)
    assert len(ev._cache) == size + 2  # only the swapped Mul and Add are new nodes


# -- folding products of products -----------------------------------------------

PRODUCT_LEAVES = [parse(t) for t in (
    "1", "G(q)", "H(q^2)", "R(q)", "Rinv(q^3)", "R(q^2)^2", "JP(q,-q^2;q^3;q^4)",
    "JP(-q;;q^2)^-1", "subst(JP(q^2;-q;q^5), 2)",
)]


def product_of(e):
    assert isinstance(e, Term) and (e.c, e.k) == (1, 0)
    return e.product


def separately(e, n):
    """Oracle: every product leaf of a raw tree expanded on its own, the
    leaves combined by Series.mul and Series.div."""
    if isinstance(e, Mul):
        return separately(e.left, n).mul(separately(e.right, n))
    if isinstance(e, Div):
        return separately(e.left, n).div(separately(e.right, n))
    return products.product_expand(product_of(e), n)


@given(st.recursive(
    st.sampled_from(PRODUCT_LEAVES),
    lambda inner: st.builds(Mul, inner, inner) | st.builds(Div, inner, inner),
    max_leaves=6,
), st.integers(1, 150))
@settings(max_examples=80, deadline=None)
def test_folded_products_match_separate_leaves(e, n):
    folded = parse(to_text(e))
    p = product_of(folded)
    assert products.product_expand(p, n) == separately(e, n)
    assert Evaluator().eval(folded, n) == separately(e, n)


class CountingDict(dict):
    """A dict that counts the reads that find their key."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        self.hits += value is not None
        return value


def sum_sides(text):
    """The text with G, H and R written by the Rogers-Ramanujan sums, an
    oracle that expands no product."""
    text = re.sub(r"R\((q(\^\d+)?)\)", r"(Hsum(\1)/Gsum(\1))", text)
    return text.replace("G(", "Gsum(").replace("H(", "Hsum(")


def test_one_evaluator_shares_sub_products_and_leaves_them_intact():
    # every text holds G(q^10)^2 or R(q^2)^2 beside factors on a finer grid;
    # the last two are earlier products in another factor order, which the
    # node cache keys apart and the sub-product memo does not
    texts = ["G(q^5)*G(q^10)^2 - q*H(q^5)*G(q^10)^2 - 2*q^3*H(q^5)*G(q^10)*H(q^10)"
             " + q^4*G(q^5)*H(q^10)^2",
             "R(q)*R(q^2)^2", "H(q^5)*G(q^10)^2", "G(q^10)^2*G(q^5)", "R(q^2)^2*R(q)"]
    ev = Evaluator()
    ev._products = memo = CountingDict()
    for order in (120, 121):
        for text in texts:
            assert ev.eval(text, order) == Evaluator().eval(sum_sides(text), order)
    assert memo and memo.hits
    # the first text again, from its stored sub-products: a list changed in
    # place after it was stored would show here
    ev._cache.clear()
    hits = memo.hits
    assert ev.eval(texts[0], 120) == Evaluator().eval(sum_sides(texts[0]), 120)
    assert memo.hits > hits


def test_fold_keeps_left_factors_then_negated_right():
    pg, ph = product_of(parse("G(q)")), product_of(parse("H(q^2)^3"))
    assert product_of(parse("G(q)*H(q^2)^3")).factors == pg.factors + ph.factors
    assert product_of(parse("G(q)/H(q^2)^3")).factors == (
        pg.factors + ph.transform(scale=-1).factors)
    assert product_of(parse("subst(G(q)/H(q), 2)^-2")) == (
        product_of(parse("G(q)/H(q)")).transform(subst=2, scale=-2))
    # scalars and powers of q fold into the same term
    r, r2 = product_of(parse("R(q)")), product_of(parse("R(q^2)^2"))
    assert parse("q*R(q)") == Term(1, 1, r)
    assert parse("2*G(q)") == Term(2, 0, pg)
    assert parse("k") == Term(1, 1, QProduct(r.factors + r2.factors))
    for text in ("R(q)/(1+q)", "R(q)/(2*q)", "(3*q)^-2", "1/0", "G(q) + H(q)"):
        assert not isinstance(parse(text), Term)


# -- the term normal form c*q^k*product --------------------------------------------

# Raw (unfolded) trees over constants, q and products: the leafwise oracle
# expands each leaf on its own; k is its text's tree, q*R(q)*R(q^2)^2.
Q = parse("q")
K = Mul(Mul(Q, parse("R(q)")), Pow(Subst(parse("R(q)"), 2), 2))
SCALAR_AND_Q_LEAVES = [parse(str(c)) for c in (-2, -1, 0, 2, 3)] + [
    Q, Pow(Q, -1), Pow(Q, -2), K, Div(parse("1"), K)]


def q_bound(e):
    """A bound on |k| for a term c*q^k*product, from the shape of the tree."""
    if isinstance(e, Term):
        return abs(e.k)
    if isinstance(e, (Mul, Div)):
        return q_bound(e.left) + q_bound(e.right)
    if isinstance(e, Neg):
        return q_bound(e.operand)
    if isinstance(e, Pow):
        return abs(e.exponent) * q_bound(e.base)
    if isinstance(e, Subst):
        return e.power * q_bound(e.operand)
    return 0


class TooShort(Exception):
    """The oracle's order cannot tell a divisor's leading coefficient."""


def unit_divisor(node, b):
    # a term's leading coefficient is its constant once the order passes |k|
    if b is None:
        return None
    if b.order <= q_bound(node):
        raise TooShort
    return b if b.leading_coefficient() in (1, -1) else None


def leafwise(e, n):
    """Oracle for a raw tree: each leaf expanded on its own (a constant or q
    by itself, q by a shift), the leaves combined by Series.mul and
    Series.div.  None when some divisor's leading coefficient is not +-1,
    where the parser must not fold the tree into a Term either."""
    if isinstance(e, Term) and not e.product.factors:
        assert e.k in (0, 1)
        return Series(0, [e.c], n).shift(e.k)
    if isinstance(e, Neg):
        a = leafwise(e.operand, n)
        return None if a is None else a.negate()
    if isinstance(e, Subst):
        a = leafwise(e.operand, -(-n // e.power))
        return None if a is None else a.substitute_power(e.power).truncate(n)
    if isinstance(e, (Mul, Div)):
        a = leafwise(e.left, n)
        b = leafwise(e.right, n)
        if isinstance(e, Div):
            b = unit_divisor(e.right, b)
            return None if a is None or b is None else a.div(b)
        return None if a is None or b is None else a.mul(b)
    if isinstance(e, Pow):
        a = leafwise(e.base, n)
        if e.exponent <= 0:
            a = unit_divisor(e.base, a)
        return None if a is None else a.pow(e.exponent)
    return products.product_expand(product_of(e), n)


@given(st.recursive(
    st.sampled_from(PRODUCT_LEAVES) | st.sampled_from(SCALAR_AND_Q_LEAVES),
    lambda inner: st.one_of(
        st.builds(Mul, inner, inner),
        st.builds(Div, inner, inner),
        st.builds(Neg, inner),
        st.builds(Subst, inner, st.integers(2, 3)),
        st.builds(Pow, inner, st.sampled_from([-2, -1, 2, 3])),
    ),
    max_leaves=5,
), st.integers(1, 60))
@example(Div(parse("1"), parse("0")), 5)
@example(Pow(Neg(parse("1")), -1), 5)
@example(Pow(Mul(parse("3"), Q), -2), 5)
@example(Div(Q, Mul(parse("-1"), parse("R(q)"))), 30)
@example(Subst(Div(parse("1"), K), 3), 30)
@example(Mul(parse("0"), Pow(Q, -3)), 7)
@settings(max_examples=200, deadline=None)
def test_terms_match_their_leaves_combined_separately(e, n):
    assume(q_bound(e) <= 24)
    order = n + 120
    try:
        want = leafwise(e, order)
    except TooShort:
        assume(False)
    t = parse(to_text(e))
    if want is None:
        assert not isinstance(t, Term)
        return
    assert isinstance(t, Term) and type(t.c) is int
    folded = products.product_expand(t.product, order).shift(t.k).scalar_mul(t.c)
    m = min(folded.order, want.order)
    assert folded.truncate(m) == want.truncate(m)
    if want.order >= n:
        got = Evaluator().eval(t, n)
        assert got == want.truncate(n)
        assert all(type(x) is int for x in got.coeffs)


def test_terms_expand_without_convolution(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(products, "product_expand", spy("expand", products.product_expand))
    monkeypatch.setattr(_kernels, "conv", spy("conv", _kernels.conv))
    assert Evaluator().eval("k", 600).order == 600
    assert calls == ["expand"]
    calls.clear()
    # a 5-dissection: a sum of four terms c*q^k*product
    rhs = load_registry().record("gg-quotient-5dis").rhs
    assert Evaluator().eval(rhs, 600).order == 600
    assert calls == ["expand"] * 4
