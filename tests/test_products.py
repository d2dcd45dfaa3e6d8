import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdissect import products
from qdissect.exprlang import evaluate
from qdissect.products import _THETA_BLOCK, PochFactor, QProduct, _apply_factor, _theta_pass
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
            _apply_factor(c, d, f.sign, f.power, n)
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


@given(THETA_PARAMS, st.integers(1, 400), st.integers(0, 2**32), st.booleans())
@example((2, 5), _THETA_BLOCK, 1, True)
@example((4, 10), _THETA_BLOCK + 1, 2, True)
@example((1, 2), 2 * _THETA_BLOCK + 1, 3, True)
@example((9, 12), 3 * _THETA_BLOCK, 4, True)  # a term at d = 63 = _THETA_BLOCK - 1
@settings(max_examples=120, deadline=None)
def test_theta_pass_matches_series_mul_and_invert(am, n, seed, divide):
    # mixed-sign coefficients of up to 130 bits; orders 1-400 cross the
    # ends of several blocks of the dividing pass
    a, m = am
    rng = random.Random(seed)
    c = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 130)) for _ in range(n)]
    theta = theta_series(a, m, n)
    f = Series(0, c, n)
    want = f.mul(theta.invert() if divide else theta)
    _theta_pass(c, a, m, divide)
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
        _apply_factor(c, d, s, e, n)
    assert c == want
    # the d*d < n threshold only sets the cost, so values cannot show it:
    # residue-class sums run exactly for divisions by (1 - q^d)^(<=8), d*d < n
    dense_division = -8 <= e < 0 and s == 1 and d * d < n
    assert sums.call_count == (-e * d if dense_division else 0)
