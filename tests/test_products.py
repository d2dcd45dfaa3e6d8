import random
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdissect import _kernels, products
from qdissect.exprlang import Evaluator, evaluate
from qdissect._kernels import _BLOCK
from qdissect.products import PochFactor, QProduct, _apply_factor, _theta_pass, _theta_terms
from qdissect.registry import load_registry
from qdissect.series import Series

from helpers import exponent_pattern

G_FACTORS = QProduct((PochFactor(1, 1, 5, -1), PochFactor(1, 4, 5, -1)))
H_FACTORS = QProduct((PochFactor(1, 2, 5, -1), PochFactor(1, 3, 5, -1)))


def brute_poch(sign, j, m, n):
    """Oracle: multiply out (1 - sign*q^(j+km)) factors term by term."""
    c = [0] * n
    c[0] = 1
    d = j
    while d < n:
        nxt = c[:]
        for i in range(d, n):
            nxt[i] -= sign * c[i - d]
        c = nxt
        d += m
    return c


def dense_expand(p, n):
    """Oracle: the raw dense route, one _apply_factor pass per linear factor."""
    c = [0] * n
    c[0] = 1
    for f in p.factors:
        for d in range(f.offset, n, f.modulus):
            _apply_factor(c, d, f.sign, f.power)
    return c


def index_loop_factor(c, d, s, e, n):
    """Oracle: c times (1 - s*q^d)^e in place, one index at a time."""
    for _ in range(abs(e)):
        if e > 0:
            for i in range(n - 1, d - 1, -1):
                c[i] -= s * c[i - d]
        else:
            for i in range(d, n):
                c[i] += s * c[i - d]


def partition_dp(parts, n):
    """Oracle: counts of partitions into parts from the given set."""
    c = [0] * n
    c[0] = 1
    for p in parts:
        for i in range(p, n):
            c[i] += c[i - p]
    return c


def test_poch_pentagonal_numbers():
    s = products.poch_expand(PochFactor(1, 1, 1), 8)
    assert s.coefficients(0, 8) == brute_poch(1, 1, 1, 8)
    assert s.coefficients(0, 8) == [1, -1, -1, 0, 0, 1, 0, 1]


def test_poch_partition_numbers():
    s = products.poch_expand(PochFactor(1, 1, 1, -1), 6)
    assert s.coefficients(0, 6) == partition_dp(range(1, 6), 6)
    assert s.coefficients(0, 6) == [1, 1, 2, 3, 5, 7]


def test_poch_negative_argument():
    s = products.poch_expand(PochFactor(-1, 5, 25), 6)
    assert s.coefficients(0, 6) == [1, 0, 0, 0, 0, 1]


def test_poch_rejects_offset_zero():
    with pytest.raises(ValueError):
        PochFactor(1, 0, 5)
    with pytest.raises(ValueError):
        PochFactor(-1, 0, 5)


@given(
    st.integers(1, 4), st.integers(1, 6), st.sampled_from([1, -1]),
    st.integers(-3, 3),
)
@settings(max_examples=40)
def test_poch_matches_brute_force(j, m, sign, e):
    n = 25
    s = products.poch_expand(PochFactor(sign, j, m, e), n)
    base = brute_poch(sign, j, m, n)
    acc = [1] + [0] * (n - 1)
    for _ in range(abs(e)):
        acc = [sum(acc[i] * base[k - i] for i in range(k + 1)) for k in range(n)]
    if e >= 0:
        assert s.coefficients(0, n) == acc
    else:
        # the inverse power times the direct power collapses to 1
        prod = products.poch_expand(PochFactor(sign, j, m, -e), n).mul(s)
        assert prod.coefficient(0) == 1 and len(prod.terms()) == 1


@given(st.integers(1, 3), st.integers(1, 5), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40)
def test_poch_power_additivity(j, m, e1, e2):
    n = 20
    lhs = products.poch_expand(PochFactor(1, j, m, e1), n).mul(
        products.poch_expand(PochFactor(1, j, m, e2), n)
    )
    rhs = products.poch_expand(PochFactor(1, j, m, e1 + e2), n)
    assert lhs.truncate(n) == rhs.truncate(n)


def test_product_expand_empty_is_one():
    s = products.product_expand(QProduct(()), 10)
    assert s.coefficients(0, 10) == [1] + [0] * 9


def test_g_and_h_coefficients_match_partition_oracle():
    n = 60
    g_parts = [p for p in range(1, n) if p % 5 in (1, 4)]
    h_parts = [p for p in range(1, n) if p % 5 in (2, 3)]
    g = products.product_expand(G_FACTORS, n)
    h = products.product_expand(H_FACTORS, n)
    assert g.coefficients(0, n) == partition_dp(g_parts, n)
    assert h.coefficients(0, n) == partition_dp(h_parts, n)
    assert evaluate("G(q)", n) == g and evaluate("H(q)", n) == h
    assert evaluate("G(q)", 7).coefficients(0, 7) == [1, 1, 1, 1, 2, 2, 3]
    assert evaluate("H(q)", 7).coefficients(0, 7) == [1, 0, 1, 1, 1, 1, 2]


def test_sum_sides_equal_product_sides():
    n = 300
    assert products.G_sum(n) == products.product_expand(G_FACTORS, n)
    assert products.H_sum(n) == products.product_expand(H_FACTORS, n)
    assert products.G_sum(n) == evaluate("G(q)", n)
    assert products.H_sum(n) == evaluate("H(q)", n)


def test_r_equals_division_oracle():
    n = 200
    r = evaluate("R(q)", n)
    assert r == products.H_sum(n).mul(products.G_sum(n).invert()).truncate(n)
    assert r.coefficients(0, 6) == [1, -1, 1, 0, -1, 1]
    assert evaluate("Rinv(q)", n).mul(r).truncate(n) == Series.one(n)


def test_phi_psi():
    assert products.phi(-1, 5).coefficients(0, 5) == [1, -2, 0, 0, 2]
    assert products.phi(1, 5).coefficients(0, 5) == [1, 2, 0, 0, 2]
    assert products.psi(7).coefficients(0, 7) == [1, 1, 0, 1, 0, 0, 1]
    with pytest.raises(ValueError):
        products.phi(0, 5)


def test_phi_psi_product_forms():
    n = 300
    eta = lambda b: products.poch_expand(PochFactor(1, b, b), n)
    phi_prod = (
        eta(2).pow(5).mul(eta(1).pow(2).mul(eta(4).pow(2)).invert()).truncate(n)
    )
    assert products.phi(1, n) == phi_prod
    psi_prod = eta(2).pow(2).mul(eta(1).invert()).truncate(n)
    assert products.psi(n) == psi_prod


def test_ramanujan_k_shape():
    k = evaluate("k", 8)
    assert k.val == 1
    assert k.leading_coefficient() == 1
    assert k.coefficients(0, 8) == [0, 1, -1, -1, 2, 0, -2, 2]


@st.composite
def qproducts(draw):
    """Random products: both signs; offsets below, equal to, half of and
    above the modulus; powers -9..9 (|e| > 8 takes the binomial branch of
    the dense passes); some factors with a partner (q^(m-a); q^m)."""
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.integers(1, 12))
        a = draw(st.one_of(
            st.integers(1, m), st.just(m), st.just(max(m // 2, 1)),
            st.integers(m + 1, 3 * m),
        ))
        e = draw(st.integers(-9, 9))
        factors.append(PochFactor(draw(st.sampled_from([1, -1])), a, m, e))
        if a < m and draw(st.booleans()):
            e2 = draw(st.one_of(st.just(e), st.integers(-9, 9)))
            factors.append(PochFactor(draw(st.sampled_from([1, -1])), m - a, m, e2))
    return QProduct(factors)


@given(qproducts(), st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_product_expand_matches_dense_passes(p, n):
    s = products.product_expand(p, n)
    assert s.order == n
    assert s.coefficients(0, n) == dense_expand(p, n)
    assert all(type(c) is int for c in s.coeffs)


@st.composite
def mixed_grid_products(draw):
    """Products with factors on the grids q, q^2, q^5 and q^10 side by side:
    both signs, powers -4..4, factors with and without a partner
    (q^(m-a); q^m), so the plan holds dense and theta passes on each grid."""
    factors = []
    for _ in range(draw(st.integers(1, 6))):
        g = draw(st.sampled_from([1, 2, 5, 10]))
        m = draw(st.integers(1, 6))
        a = draw(st.one_of(st.integers(1, m), st.just(m), st.integers(m + 1, 2 * m)))
        e = draw(st.integers(-4, 4))
        factors.append(PochFactor(draw(st.sampled_from([1, -1])), g * a, g * m, e))
        if a < m and draw(st.booleans()):
            e2 = draw(st.one_of(st.just(e), st.integers(-4, 4)))
            factors.append(PochFactor(draw(st.sampled_from([1, -1])), g * (m - a), g * m, e2))
    return QProduct(factors)


@given(st.lists(mixed_grid_products(), min_size=1, max_size=4), st.integers(1, 160))
@settings(max_examples=150, deadline=None)
def test_grid_runner_matches_dense_passes(ps, n):
    # one memo across the products and two lengths, as one evaluator keeps
    # it; every product again at the end reads only stored sub-products
    memo = {}
    for length in (n, n + 1, n):
        for p in ps:
            s = products.product_expand(p, length, memo)
            assert s.order == length
            assert s.coefficients(0, length) == dense_expand(p, length)
    for p in ps:
        assert products.product_expand(p, n, memo) == products.product_expand(p, n)


def test_a_sub_product_shared_by_two_products_expands_once():
    # G(q^5)*G(q^10)^2 and H(q^5)*G(q^10)^2 lie on q^5 as a whole: there
    # they are G(q)*G(q^2)^2 and H(q)*G(q^2)^2 at length 80.  Both run
    # their (q^5;q^5)*(q^10;q^10)^2 on q^5 again, as (q;q)*(q^2;q^2)^2 at
    # length 16 with its (q^2;q^2)^2 at length 8 inside; the second
    # product reads it from the memo.
    g, h = G_FACTORS, H_FACTORS
    p1 = QProduct(g.transform(subst=5).factors + g.transform(subst=10, scale=2).factors)
    p2 = QProduct(h.transform(subst=5).factors + g.transform(subst=10, scale=2).factors)
    n = 400
    memo = {}
    with mock.patch.object(products, "_theta_pass", wraps=products._theta_pass) as passes:
        products.product_expand(p1, n, memo)
        s2 = products.product_expand(p2, n, memo)
    # one call per plan entry, with the entry's power of theta(a, m)
    runs = [(len(c), a, m, e) for (c, a, m, e), _ in passes.call_args_list]
    assert runs == [(8, 1, 3, 2), (16, 1, 3, 1),  # theta(1, 3) = (q;q)
                    (80, 1, 5, -1), (80, 2, 10, -2),
                    (80, 2, 5, -1), (80, 2, 10, -2)]
    assert list(memo) == [(((1, 3, 2, True),), 8),
                          (((2, 6, 2, True), (1, 3, 1, True)), 16)]
    assert s2.coefficients(0, n) == dense_expand(p2, n)


def test_each_multiplying_theta_entry_packs_once_and_never_convolves():
    # the four dissection sources are quotients of theta functions: every
    # multiplying entry of their plans packs its list once, whatever its
    # power, and nothing runs through a convolution
    sources = [d.source for d in load_registry().dissections.values()]
    assert len(sources) == 4
    for source in sources:
        with mock.patch.object(products, "_theta_pass", wraps=products._theta_pass) as passes, \
                mock.patch.object(_kernels, "_pack", wraps=_kernels._pack) as packs, \
                mock.patch.object(_kernels, "conv", wraps=_kernels.conv) as convs:
            assert Evaluator().eval(source, 600).order == 600
        powers = [e for (_, _, _, e), _ in passes.call_args_list]
        assert sum(e > 0 for e in powers) >= 1
        assert packs.call_count == sum(e > 0 for e in powers), source
        assert convs.call_count == 0, source


def test_all_multiple_of_five_offsets_stay_in_residue_zero():
    # products whose offsets are all multiples of 5 expand on exponents
    # that are multiples of 5 only
    p = QProduct(
        (
            PochFactor(1, 5, 50, 2),
            PochFactor(1, 25, 50, 4),
            PochFactor(1, 45, 50, 2),
            PochFactor(1, 10, 50, -3),
            PochFactor(1, 20, 50, -1),
            PochFactor(1, 30, 50, -1),
            PochFactor(1, 40, 50, -3),
        )
    )
    s = products.product_expand(p, 120)
    assert all(e % 5 == 0 for e, _ in s.terms())
    assert s.leading_coefficient() == 1 and s.val == 0


def test_exponent_pattern():
    p = QProduct((PochFactor(1, 5, 25, 2), PochFactor(-1, 10, 25, -1)))
    eta, plus = exponent_pattern(p, 50)
    assert eta == {5: 2, 30: 2}
    assert plus == {10: -1, 35: -1}
    with pytest.raises(ValueError):
        exponent_pattern(p, 30)


def theta_series(a, m, n):
    """Oracle: theta(a, m) = sum over all integers k of (-1)^k q^(m*k*(k-1)/2 + a*k)
    as a literal coefficient list, every k with an exponent below n."""
    c = [0] * n
    for k in range(-n, n + 1):
        d = m * k * (k - 1) // 2 + a * k
        if d < n:
            c[d] += -1 if k % 2 else 1
    return Series(0, c, n)


THETA_PARAMS = st.integers(2, 12).flatmap(lambda m: st.tuples(st.integers(1, m - 1), st.just(m)))
POWERS = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])


@given(THETA_PARAMS, st.integers(1, 400), st.integers(0, 2**32), POWERS)
@example((2, 5), _BLOCK, 1, -1)
@example((4, 10), _BLOCK + 1, 2, -2)
@example((1, 2), 2 * _BLOCK + 1, 3, -1)
@example((9, 12), 3 * _BLOCK, 4, -3)  # a term at d = 63 = _BLOCK - 1
@example((1, 5), 1, 5, 1)
@example((2, 3), 2, 6, 3)
@example((1, 5), 513, 7, 4)
@example((1, 5), 513, 8, -4)
@settings(max_examples=120, deadline=None)
def test_theta_pass_matches_series_mul_and_invert(am, n, seed, e):
    # mixed-sign coefficients of up to 130 bits times theta(a, m)^e; orders
    # 1-400 cross the ends of several blocks of the dividing pass, and the
    # slot widths of the multiplying pass grow with e
    a, m = am
    rng = random.Random(seed)
    c = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 130)) for _ in range(n)]
    theta = theta_series(a, m, n)
    factor = theta if e > 0 else theta.invert()
    want = Series(0, c, n)
    for _ in range(abs(e)):
        want = want.mul(factor)
    _theta_pass(c, a, m, e)
    assert Series(0, c, n) == want


def test_theta_terms_are_exactly_the_terms_below_q_n():
    # longest first, so that terms kept from a longer call would show
    for m in range(2, 13):
        for a in range(1, m):
            every = sorted((m * k * (k - 1) // 2 + a * k, (-1) ** abs(k))
                           for k in range(-200, 201) if k)
            for n in range(200, 0, -1):
                assert _theta_terms(a, m, n) == [t for t in every if t[0] < n]
            # the lowest terms are q^a and q^(m-a)
            assert _theta_terms(a, m, min(a, m - a)) == []


@pytest.mark.parametrize("e", [1, 2, 3, -1, -2, -3])
def test_theta_pass_at_changing_lengths(e):
    # one (a, m) at long, short, long, one-term and block-edge lengths in turn
    rng = random.Random(e)
    for n in (400, 7, 400, 1, _BLOCK, _BLOCK + 1):
        c = [rng.choice((-1, 1)) * rng.getrandbits(70) for _ in range(n)]
        theta = theta_series(2, 5, n)
        factor = theta if e > 0 else theta.invert()
        want = Series(0, c, n)
        for _ in range(abs(e)):
            want = want.mul(factor)
        _theta_pass(c, 2, 5, e)
        assert Series(0, c, n) == want


def pentagonal_terms(count):
    """The first ``count`` terms (d, sign) of theta(1, 3) = (q;q) past its
    constant, by rising d: Euler's pentagonal numbers k*(3k-1)/2."""
    terms = [(k * (3 * k - 1) // 2, -1 if k % 2 else 1) for k in range(-count, count + 1) if k]
    return sorted(terms)[:count]


# T terms of theta(1, 3) below q^n, with T+1 in each bit length 2..9 and
# past its power of two, so that (T+1)*(2^j - 1) has j + bits(T+1) bits
EXTREMAL_T = (2, 6, 10, 20, 40, 80, 160, 300)


@pytest.mark.parametrize("j", [7, 8, 9, 62, 63, 64, 65, 66, 127, 128, 129, 130])
@pytest.mark.parametrize("sign", [1, -1])
def test_theta_multiply_meets_the_l1_bound_exactly(j, sign):
    # c[n-1] = M and c[n-1-d] = s_d*M for each term s_d*q^d, so that
    # out[n-1] = (T+1)*M: the l1 bound on one multiply, met with equality.
    # The cases are the orders where j + bits(T+1) is next to or on a
    # multiple of 8, so that one bit less in the slot width loses a byte.
    M = sign * (2**j - 1)
    cases = [t for t in EXTREMAL_T if (j + (t + 1).bit_length()) % 8 in (7, 0, 1)]
    assert any((j + (t + 1).bit_length()) % 8 == 0 for t in cases)
    for t in cases:
        terms = pentagonal_terms(t)
        n = terms[-1][0] + 1
        c = [0] * n
        c[n - 1] = M
        for d, s in terms:
            c[n - 1 - d] = s * M
        want = {}  # the sparse product, c times the terms and the constant
        for p in [n - 1] + [n - 1 - d for d, _ in terms]:
            for d, s in [(0, 1)] + terms:
                if p + d < n:
                    want[p + d] = want.get(p + d, 0) + s * c[p]
        _theta_pass(c, 1, 3, 1)
        assert c[n - 1] == (t + 1) * M
        assert c == [want.get(i, 0) for i in range(n)]


def test_large_powers_take_the_binomial_bound():
    # theta(1, 5)^60 at order 40: C(39+60, 60) is far below (T+1)^60, so
    # the slot width comes from the binomial bound; the powers of 5 start
    # mixed-sign coefficients of up to 40 bits
    n, e = 40, 60
    l1 = sum(map(abs, theta_series(1, 5, n).coeffs))  # T+1
    assert comb(n - 1 + e, e).bit_length() < e * l1.bit_length() // 2
    theta = QProduct((PochFactor(1, 1, 5, e), PochFactor(1, 4, 5, e), PochFactor(1, 5, 5, e)))
    c = [1] + [0] * (n - 1)
    _theta_pass(c, 1, 5, e)
    assert c == dense_expand(theta, n)
    rng = random.Random(60)
    c = [rng.choice((-1, 1)) * rng.getrandbits(40) for _ in range(n)]
    want = Series(0, c, n).mul(Series(0, dense_expand(theta, n), n))
    _theta_pass(c, 1, 5, e)
    assert Series(0, c, n) == want


@given(
    st.integers(1, 200), st.integers(1, 220), st.sampled_from([1, -1]),
    st.one_of(st.integers(-8, 8).filter(bool), st.sampled_from([-13, -9, 9, 11])),
    st.integers(0, 2**32),
)
@example(100, 10, 1, -1, 1)  # d*d == n
@example(100, 10, -1, -2, 2)
@example(50, 49, 1, -3, 3)  # d == n - 1
@example(50, 49, -1, 2, 4)
@example(50, 50, 1, -1, 5)  # d == n
@example(99, 9, -1, -1, 6)  # d*d < n with s = -1
@example(200, 7, -1, -8, 7)
@settings(max_examples=300, deadline=None)
def test_apply_factor_matches_index_loop(n, d, s, e, seed):
    # mixed-sign coefficients of up to 70 bits; d below sqrt(n), above it
    # and past n, so every kind of dense pass runs
    rng = random.Random(seed)
    c = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 70)) for _ in range(n)]
    want = c[:]
    index_loop_factor(want, d, s, e, n)
    with mock.patch.object(products, "accumulate", wraps=products.accumulate) as sums:
        _apply_factor(c, d, s, e)
    assert c == want
    # the d*d < n threshold only sets the cost, so values cannot show it:
    # residue-class sums run exactly for divisions by (1 - q^d)^(<=8), d*d < n
    dense_division = -8 <= e < 0 and s == 1 and d * d < n
    assert sums.call_count == (-e * d if dense_division else 0)
