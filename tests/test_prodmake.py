import math
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdissect import _kernels, load_registry, products
from qdissect import prodmake as prodmake_mod
from qdissect.errors import NotUnit, OrderExceeded
from qdissect.exprlang import Evaluator
from qdissect.products import PochFactor, QProduct
from qdissect.prodmake import (
    EtaExponents,
    PeriodView,
    _satisfies_log_derivative,
    detect_period,
    expand_exponents,
    prodmake,
    with_period,
)
from qdissect.series import Series

from helpers import exponent_pattern, make_series


def naive_product(exponents, n):
    """Oracle: prod (1-q^k)^(a_k) to order n, one index at a time."""
    c = [1] + [0] * (n - 1)
    for k, a in exponents.items():
        for _ in range(abs(a)):
            if a > 0:
                for i in range(n - 1, k - 1, -1):
                    c[i] -= c[i - k]
            else:
                for i in range(k, n):
                    c[i] += c[i - k]
    return c


def test_partition_function_gives_all_minus_one():
    f = products.poch_expand(PochFactor(1, 1, 1, -1), 40)
    e = prodmake(f, 40)
    assert e.exponents == {n: -1 for n in range(1, 40)}


def test_single_factor():
    f = make_series([(0, 1), (1, -1)], 30)
    assert prodmake(f, 30).exponents == {1: 1}


def test_preconditions():
    with pytest.raises(NotUnit):
        prodmake(make_series([(0, 2)], 10), 10)
    with pytest.raises(NotUnit):
        prodmake(make_series([(1, 1)], 10), 10)
    with pytest.raises(NotUnit):
        prodmake(make_series([(0, -1)], 10), 10)
    with pytest.raises(OrderExceeded):
        prodmake(Series.one(10), 20)


@st.composite
def small_products(draw):
    nfac = draw(st.integers(1, 3))
    factors = []
    for _ in range(nfac):
        factors.append(
            PochFactor(
                draw(st.sampled_from([1, -1])),
                draw(st.integers(1, 5)),
                draw(st.integers(1, 6)),
                draw(st.sampled_from([-3, -2, -1, 1, 2, 3])),
            )
        )
    return QProduct(tuple(factors))


@given(small_products())
@settings(max_examples=40, deadline=None)
def test_soundness_reexpansion(p):
    n = 40
    f = products.product_expand(p, n)
    e = prodmake(f, n)
    assert expand_exponents(e.exponents, n) == f


@given(
    st.integers(2, 7),
    st.dictionaries(st.integers(1, 60), st.integers(-3, 3).filter(bool), max_size=8),
    st.integers(1, 300),
)
@example(3, {2: 1, 3: -1}, 10)  # first term at q^(2g); q^9 lies past order floor(10/3)
@settings(max_examples=150, deadline=None)
def test_series_in_q_to_the_g_matches_its_compression(g, support, n):
    # f = prod (1-q^(g k))^(a_k) is F(q^g); prodmake of f must give back the
    # drawn exponents and agree with prodmake of F at order ceil(n/g)
    expected = {g * k: a for k, a in support.items() if g * k < n}
    f = expand_exponents(expected, n)
    assert prodmake(f, n).exponents == expected
    m = -(-n // g)
    compressed = prodmake(Series(0, f.coeffs[::g], m), m).exponents
    assert {g * k: a for k, a in compressed.items()} == expected


@given(
    st.dictionaries(
        st.integers(1, 150),
        st.one_of(st.integers(-8, 8), st.sampled_from([-12, -9, 9, 10])),
        max_size=12,
    ),
    st.integers(1, 150),
)
@settings(max_examples=150, deadline=None)
def test_expand_exponents_matches_naive_product(exponents, n):
    # mixed signs, some |a| > 8, some k at or past n
    assert expand_exponents(exponents, n).coefficients(0, n) == naive_product(exponents, n)


def test_expand_exponents_of_a_theorem_slice_at_length_400():
    # first product of the alpha dissection at order 2000 is F(q^5) with F
    # of length 400: its divisions by (1-q^k), k >= 20, run in long blocks
    f = Evaluator().eval(
        "JP(q^5,q^5,q^25,q^25,q^25,q^25,q^45,q^45;"
        "q^10,q^10,q^10,q^20,q^30,q^40,q^40,q^40;q^50)",
        2000,
    )
    table = {k // 5: a for k, a in prodmake(f, 2000).exponents.items()}
    assert max(table) == 399 and min(table.values()) < 0 < max(table.values())
    want = naive_product(table, 400)
    assert want == f.coeffs[::5]
    assert expand_exponents(table, 400).coefficients(0, 400) == want


# -- the log-derivative check ------------------------------------------------

# mixed signs, |a| <= 12, and factors at or past the length n
exponent_tables = st.dictionaries(st.integers(1, 50), st.integers(-12, 12).filter(bool), max_size=8)
HUGE = st.sampled_from([2**1100, -(2**1100), 2**1100 + 7, -(3**700) - 1, 2**3000])


def max_bits(c):
    return max(map(abs, c)).bit_length()


def divisor_sums(exponents, n):
    """s_m = sum_(d|m) d*a_d for m < n over the pairs (d, a); a pair with
    d >= n does not act."""
    s = [0] * n
    for d, a in exponents:
        if 0 < d < n:
            for m in range(d, n, d):
                s[m] += d * a
    return s


def log_check(c, exponents):
    """prodmake's check of c against prod (1-q^d)^a over the pairs (d, a)."""
    return _satisfies_log_derivative(c, divisor_sums(exponents, len(c)))


def check_slot(c, exponents):
    """Bits per slot of the one ``conv`` in the check on c and these exponents."""
    s = divisor_sums(exponents, len(c))
    return 8 * _kernels._slot_bytes(max_bits(s) + max_bits(c) + len(c).bit_length())


@given(exponent_tables, st.integers(1, 50))
@example({1: -12, 2: 9, 3: -1}, 1)
@example({1: 12, 2: -9}, 2)
@example({40: -3}, 30)
@settings(max_examples=150, deadline=None)
def test_log_derivative_check_accepts_the_product(exponents, n):
    want = naive_product(exponents, n)
    assert want == expand_exponents(exponents, n).coefficients(0, n)
    assert log_check(want, exponents.items())


@given(st.dictionaries(st.integers(1, 9), HUGE, min_size=1, max_size=3),
       exponent_tables, st.integers(1, 12))
@example({1: 2**1100}, {}, 1)
@example({1: -(2**1100)}, {}, 2)
@example({3: 2**3000, 1: -(2**1100)}, {2: 5}, 12)
@settings(max_examples=40, deadline=None)
def test_log_derivative_check_with_exponents_past_float_range(huge, exponents, n):
    # a >= 2**1100 overflows a float; the dense expansion is the oracle
    exponents = {**exponents, **huge}
    want = expand_exponents(exponents, n).coefficients(0, n)
    assert log_check(want, exponents.items())


@given(exponent_tables, st.integers(1, 50), st.data())
@settings(max_examples=100, deadline=None)
def test_log_derivative_check_rejects_one_coefficient_off_by_one(exponents, n, data):
    c = naive_product(exponents, n)
    c[data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from([-1, 1]))
    assert not log_check(c, exponents.items())


@given(exponent_tables, st.integers(2, 50), st.data())
@settings(max_examples=100, deadline=None)
def test_log_derivative_check_rejects_a_forgery_that_agrees_at_q_equal_2_to_the_slot(exponents, n, data):
    # f' = f + 2^k q^i - q^(i+1) has the value of f at q = 2^k, k the slot
    # the check's product gets on f; only a slot sized for f' as well tells
    # them apart
    c = naive_product(exponents, n)
    i = data.draw(st.integers(0, n - 2))
    k = check_slot(c, exponents.items())
    forged = list(c)
    forged[i] += 1 << k
    forged[i + 1] -= 1
    value = lambda xs: sum(x << k * j for j, x in enumerate(xs))
    assert value(forged) == value(c)
    assert log_check(c, exponents.items())
    assert not log_check(forged, exponents.items())


def test_log_derivative_check_lets_the_denominator_overflow_the_slot():
    # psi(q)^8 = (q^2;q^2)^16 / (q;q)^8 has a = 8 at even d and -8 at odd d:
    # at n = 150 its coefficients have 22 bits, its denominator
    # prod_(d odd) (1-q^d)^8 has 57, past the slot c alone gets.  The check
    # never builds den: it must accept c and refuse c with one coefficient
    # off by one
    n = 150
    exponents = {d: 8 if d % 2 == 0 else -8 for d in range(1, n)}
    c = naive_product(exponents, n)
    den = naive_product({d: -a for d, a in exponents.items() if a < 0}, n)
    assert max_bits(c) == 22 and max_bits(den) >= 8 * _kernels._slot_bytes(max_bits(c))
    assert log_check(c, exponents.items())
    for i in (0, 1, 2, 75, 148, 149):
        for step in (-1, 1):
            off = list(c)
            off[i] += step
            assert not log_check(off, exponents.items())


def times_factor_power(c, d, a):
    """Oracle: c * (1-q^d)^a, one index at a time, from the binomial series
    sum_j C(a, j) (-1)^j q^(dj) (for a < 0, C(a, j) (-1)^j = C(-a-1+j, j))."""
    n = len(c)
    out = list(c)
    for j in range(1, (n - 1) // d + 1):
        b = math.comb(a, j) * (-1) ** j if a > 0 else math.comb(-a - 1 + j, j)
        for i in range(d * j, n):
            out[i] += b * c[i - d * j]
    return out


@st.composite
def around_the_midpoint(draw):
    # factors at d within 3 of h = ceil(n/2), where a factor's square leaves
    # the order, and maybe one exponent past float range at some d >= h
    n = draw(st.integers(1, 60))
    h = (n + 1) // 2
    exponents = draw(st.dictionaries(st.integers(max(1, h - 3), h + 3),
                                     st.integers(-12, 12).filter(bool), max_size=6))
    huge = draw(st.dictionaries(st.integers(h, h + 3), HUGE | st.just(2**300), max_size=1))
    for d in huge:
        exponents.pop(d, None)
    return exponents, huge, n


@given(around_the_midpoint(), st.sampled_from([-1, 1]))
@example(({}, {}, 1), 1)
@example(({1: -9}, {}, 2), -1)
@example(({3: 5, 4: -7}, {}, 6), 1)  # only factors at d >= h
@example(({2: 3}, {4: 2**300}, 7), -1)
@example(({1: 2, 2: -3, 3: -1, 4: 12, 5: -8}, {}, 8), 1)  # for the forgery below
@settings(max_examples=150, deadline=None)
def test_log_derivative_check_around_the_midpoint(case, step):
    # every factor with 2d >= n is 1 - a*q^d below q^n, whatever a; the
    # oracle multiplies every factor out, so it does not rely on that
    exponents, huge, n = case
    h = (n + 1) // 2
    c = naive_product(exponents, n)
    for d, a in huge.items():
        c = times_factor_power(c, d, a)
    exponents = {**exponents, **huge}
    assert log_check(c, exponents.items())
    for i in {h - 1, h} & set(range(n)):
        off = list(c)
        off[i] += step
        assert not log_check(off, exponents.items())
    if h < n:
        # f + 2^k q^(h-1) - q^h has the value of f at q = 2^k, k the slot
        # the check's product gets on f
        k = check_slot(c, exponents.items())
        forged = list(c)
        forged[h - 1] += 1 << k
        forged[h] -= 1
        assert not log_check(forged, exponents.items())


def test_log_derivative_check_reads_the_list_itself():
    # pairs with d >= n or a = 0 do not act; where the product is 1 or
    # small, the list must still be read in full
    assert log_check([1, 0, 0], [])
    assert not log_check([1, 2**70], [(5, 3)])
    assert log_check([1, -1, 0], [(1, 1), (2, 0), (4, 7)])


def theorem_slices():
    """The 20 slices of the four 5-dissections at order 2000, each F(q^5)
    with F of length 400, as (F's coefficients, F's exponents)."""
    reg, ev = load_registry(), Evaluator()
    for target in ("alpha", "beta", "gamma", "delta"):
        for _, _, jptext in reg.dissection(target).terms:
            f = ev.eval(jptext, 2000)
            yield f.coeffs[::5], {k // 5: a for k, a in prodmake(f, 2000).exponents.items()}


def test_theorem_slices_are_accepted_at_their_first_unwrapped_width():
    # t has 11-12 bits on every slice: the 8-bit slot wraps it visibly, and
    # the first candidate ``quotients`` yields, at 16 bits, is accepted
    checked, check = [], prodmake_mod._satisfies_log_derivative

    def spy(c, s):
        checked.append((max_bits(s), check(c, s)))
        return checked[-1][1]

    with mock.patch.object(prodmake_mod, "_satisfies_log_derivative", spy):
        for _ in theorem_slices():
            assert len(checked) == 1 and checked[0][1]
            assert 8 - 1 <= checked[0][0] < 16 - 1
            checked.clear()


def test_log_derivative_check_agrees_with_the_dense_oracle_on_the_theorem_slices():
    # 10 copies per slice with one coefficient off by one and 10 with one
    # exponent off by one, 200 of each over the 20 slices: the dense
    # re-expansion reproduces none of them, and the check refuses each
    rng = random.Random(2020)
    slices = list(theorem_slices())
    assert len(slices) == 20
    for c, table in slices:
        n = len(c)
        assert expand_exponents(table, n).coefficients(0, n) == c
        assert log_check(c, table.items())
        for _ in range(10):
            off = list(c)
            off[rng.randrange(n)] += rng.choice((-1, 1))
            assert not log_check(off, table.items())
        for _ in range(10):
            moved = dict(table)
            d = rng.randrange(1, n)
            moved[d] = moved.get(d, 0) + rng.choice((-1, 1))
            assert expand_exponents(moved, n).coefficients(0, n) != c
            assert not log_check(c, moved.items())


@given(exponent_tables, st.integers(1, 50), st.data())
@settings(max_examples=100, deadline=None)
def test_log_derivative_check_agrees_with_the_dense_oracle(exponents, n, data):
    c = expand_exponents(exponents, n).coefficients(0, n)
    if data.draw(st.booleans()):
        c[data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from([-1, 1]))
    else:
        d = data.draw(st.integers(1, 50))
        exponents = {**exponents, d: exponents.get(d, 0) + data.draw(st.sampled_from([-1, 1]))}
    dense = expand_exponents(exponents, n).coefficients(0, n)
    assert log_check(c, exponents.items()) == (dense == c)


def test_prodmake_never_runs_the_dense_reexpansion(monkeypatch):
    # the dense re-expansion is the tests' oracle only; prodmake never runs it
    def dense(*args):
        raise AssertionError("dense re-expansion called")

    monkeypatch.setattr("qdissect.prodmake._apply_factor", dense)
    assert prodmake(Series(0, [1, -2, 1], 3), 3).exponents == {1: 2}


@pytest.mark.parametrize("n", [0, -3])
def test_prodmake_rejects_an_order_below_1(n):
    with pytest.raises(ValueError, match="order must be >= 1"):
        prodmake(Series(0, [1, -2, 1], 3), n)


def mobius(m):
    """The Moebius function, by trial division."""
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def test_prodmake_of_1_over_1_minus_2q_counts_lyndon_words():
    # 1/(1-2q) = prod (1-q^n)^(-L_n), L_n the number of binary Lyndon words
    # of length n; t_m = -2^m, so t is as wide as the series itself and the
    # quotient takes the most width doublings
    n = 200
    e = prodmake(Evaluator().eval("1/(1-2*q)", n), n)
    lyndon = {m: sum(mobius(d) * 2 ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
              for m in range(1, n)}
    assert lyndon[1] == 2 and lyndon[6] == 9
    assert e.exponents == {m: -x for m, x in lyndon.items()}


def test_prodmake_divides_without_newton_and_checks_with_one_conv():
    # t = -q F'/F comes from one packed 2-adic quotient (``_kernels.quotients``),
    # never Series.div or Newton inversion, and each candidate the recurrence
    # runs on costs the check one ``conv``
    f = Evaluator().eval(
        "JP(q^5,q^5,q^25,q^25,q^25,q^25,q^45,q^45;"
        "q^10,q^10,q^10,q^20,q^30,q^40,q^40,q^40;q^50)",
        2000,
    )
    candidates, propose = [], _kernels.quotients

    def quotients(a, b):
        for t in propose(a, b):
            candidates.append(t)
            yield t

    with mock.patch.object(Series, "div", side_effect=AssertionError("Series.div")), \
            mock.patch.object(Series, "invert", side_effect=AssertionError("Series.invert")), \
            mock.patch.object(_kernels, "conv", wraps=_kernels.conv) as conv, \
            mock.patch.object(_kernels, "quotients", wraps=quotients) as calls:
        e = prodmake(f, 2000)
    assert calls.call_count == 1
    assert conv.call_count == len(candidates) == 1
    assert max(e.exponents) == 5 * 399


def test_partial_gcd_support_and_constant_are_not_compressed():
    # 2 divides only some of the support: the series is not one in q^2
    f = expand_exponents({2: 1, 3: -1, 6: 2}, 50)
    assert prodmake(f, 50).exponents == {2: 1, 3: -1, 6: 2}
    for n in (1, 2, 7):
        assert prodmake(Series.one(n), n).exponents == {}


def test_idempotence_on_plus_sign_products():
    # for plain-argument factors the recovered exponents are exactly the
    # aggregated factor powers
    p = QProduct(
        (
            PochFactor(1, 2, 5, 3),
            PochFactor(1, 2, 5, -1),
            PochFactor(1, 4, 10, -2),
        )
    )
    n = 60
    e = prodmake(products.product_expand(p, n), n)
    expect = {}
    for f in p.factors:
        for d in range(f.offset, n, f.modulus):
            expect[d] = expect.get(d, 0) + f.power
    assert e.exponents == {d: a for d, a in expect.items() if a}


@given(small_products(), small_products())
@settings(max_examples=25, deadline=None)
def test_additivity(p1, p2):
    n = 30
    f = products.product_expand(p1, n)
    g = products.product_expand(p2, n)
    ef = prodmake(f, n).exponents
    eg = prodmake(g, n).exponents
    combined = prodmake(f.mul(g).truncate(n), n).exponents
    expect = dict(ef)
    for k, v in eg.items():
        expect[k] = expect.get(k, 0) + v
    assert combined == {k: v for k, v in expect.items() if v}


def test_detect_period_all_minus_one():
    f = products.poch_expand(PochFactor(1, 1, 1, -1), 30)
    view = detect_period(prodmake(f, 30), 1)
    assert view is not None
    assert view.eta == {0: -1} and view.eta_plus == {} and not view.leading_exceptions


def test_detect_period_requires_enough_exponents():
    f = products.poch_expand(PochFactor(1, 1, 1, -1), 20)
    with pytest.raises(OrderExceeded):
        detect_period(prodmake(f, 20), 7)


def test_detect_period_none_on_nonperiodic():
    # the partition numbers themselves are not an eta pattern with period 4
    f = Series(0, [1, 1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 2, 3, 1, 1, 1, 2, 1, 1, 2], 20)
    e = prodmake(f, 20)
    assert detect_period(e, 4) is None


def test_detect_period_plus_minus_signature():
    # (-q^2;q^5)^3 / (q^2;q^5): raw exponents are only 10-periodic, but the
    # odd-period solve recovers the +- split exactly
    p = QProduct((PochFactor(-1, 2, 5, 3), PochFactor(1, 2, 5, -1)))
    n = 60
    f = products.product_expand(p, n)
    view = detect_period(prodmake(f, n), 5)
    assert view is not None
    assert view.eta == {2: -1} and view.eta_plus == {2: 3}
    assert not view.leading_exceptions
    eta_expect, plus_expect = exponent_pattern(p, 5)
    assert view.eta == eta_expect and view.eta_plus == plus_expect


def test_detect_period_on_theorem_slice_zero():
    # first product of the alpha dissection, period 50
    ev = Evaluator()
    f = ev.eval(
        "JP(q^5,q^5,q^25,q^25,q^25,q^25,q^45,q^45;"
        "q^10,q^10,q^10,q^20,q^30,q^40,q^40,q^40;q^50)",
        200,
    )
    e = with_period(prodmake(f, 200), 50)
    view = e.period_view
    assert view is not None
    assert view.eta == {5: 2, 25: 4, 45: 2, 10: -3, 20: -1, 30: -1, 40: -3}
    assert view.eta_plus == {} and not view.leading_exceptions


def test_detect_period_on_pm_theorem_term():
    # first product of the gamma dissection, period 25 with +-q^j arguments
    ev = Evaluator()
    f = ev.eval(
        "JP(-q^5,-q^10,-q^10,-q^10,-q^15,-q^15,-q^15,-q^20;"
        "q^5,q^10,q^10,q^10,q^15,q^15,q^15,q^20;q^25)",
        200,
    )
    view = detect_period(prodmake(f, 200), 25)
    assert view is not None
    assert view.eta == {5: -1, 10: -3, 15: -3, 20: -1}
    assert view.eta_plus == {5: 1, 10: 3, 15: 3, 20: 1}


def test_leading_exceptions_reported():
    # (1-q) times a 3-periodic pattern: n=1 disagrees with the pattern
    base = QProduct((PochFactor(1, 2, 3, -1), PochFactor(1, 3, 3, -1)))
    f = products.product_expand(base, 40).mul(make_series([(0, 1), (1, -1)], 40))
    view = detect_period(prodmake(f.truncate(40), 40), 3)
    assert view is not None
    assert view.leading_exceptions == {1: 1}


def test_to_json_shape():
    f = products.poch_expand(PochFactor(1, 1, 1, -1), 30)
    e = with_period(prodmake(f, 30), 1)
    j = e.to_json()
    assert j["period"] == 1
    assert j["residue_pattern"]["eta"] == {"0": -1}
    assert j["exponents"]["7"] == -1


def pattern_exponents(c, d, n):
    """a_k = c_(k mod m) - d_(k mod m) + [k even] d_(k/2 mod m) for 1 <= k < n."""
    m = len(c)
    return {
        k: c[k % m] - d[k % m] + (d[k // 2 % m] if k % 2 == 0 else 0)
        for k in range(1, n)
    }


def table(exponents, n):
    return EtaExponents({k: a for k, a in exponents.items() if a}, n)


@st.composite
def periodic_exponents(draw):
    """(m, n, exponents, expected view): a drawn pattern, with changes below m."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(3 * m, 8 * m + 3))
    entries = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    c = draw(entries)
    # the (1+q^n) part is read only for odd m with exponents to 6m
    d = draw(entries) if m % 2 and n >= 6 * m else [0] * m
    exps = pattern_exponents(c, d, n)
    deltas = draw(st.lists(st.integers(-2, 2), min_size=m - 1, max_size=m - 1))
    exceptions = {}
    for k, delta in enumerate(deltas, 1):
        if delta:
            exps[k] += delta
            exceptions[k] = exps[k]
    view = PeriodView(
        m,
        {r: x for r, x in enumerate(c) if x},
        {r: x for r, x in enumerate(d) if x},
        exceptions,
    )
    return m, n, exps, view


@given(periodic_exponents(), st.data())
@settings(max_examples=200, deadline=None)
def test_detect_period_reads_back_a_drawn_pattern(case, data):
    m, n, exps, view = case
    assert detect_period(table(exps, n), m) == view
    # one change from k = m on breaks the pattern
    k = data.draw(st.integers(m, n - 1))
    exps[k] += data.draw(st.sampled_from([-1, 1]))
    assert detect_period(table(exps, n), m) is None


@given(
    st.integers(1, 6).flatmap(
        lambda h: st.tuples(
            st.lists(st.integers(-3, 3), min_size=2 * h, max_size=2 * h),
            st.lists(st.integers(-3, 3), min_size=2 * h, max_size=2 * h),
            st.integers(6 * h, 16 * h + 3),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_detect_period_refuses_a_plus_part_for_even_period(case):
    # for even m a (1+q^n) part whose d is m/2-periodic is itself an
    # m-periodic eta pattern; any other d leaves the exponents only 2m-periodic
    c, d, n = case
    h = len(c) // 2
    assume(d[:h] != d[h:])
    assert detect_period(table(pattern_exponents(c, d, n), n), 2 * h) is None


@pytest.mark.parametrize("m", [0, -2])
def test_period_below_one_is_refused(m):
    e = prodmake(products.poch_expand(PochFactor(1, 1, 1, -1), 30), 30)
    for call in (detect_period, with_period):
        with pytest.raises(ValueError, match="period must be >= 1"):
            call(e, m)
