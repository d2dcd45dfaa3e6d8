import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdissect import products
from qdissect.dissection import Dissection, dissect, recombine
from qdissect.errors import NegativeValuation
from qdissect.exprlang import Evaluator
from qdissect.series import Series

from helpers import make_series, slice_support_check

coeffs = st.lists(st.integers(-9, 9), min_size=0, max_size=20)


@st.composite
def power_series(draw):
    cs = draw(coeffs)
    val = draw(st.integers(0, 3))
    order = val + len(cs) + draw(st.integers(1, 4))
    return Series(val, cs, order)


def test_dissect_constant():
    d = dissect(Series.one(20), 5)
    assert [s.coefficients(0, 3) for s in d.slices] == [
        [1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]
    ]


def test_dissect_geometric():
    geom = Series(0, [1] * 20, 20)
    d = dissect(geom, 5)
    for s in d.slices:
        assert set(s.coeffs) == {1}


def test_dissect_rejects_laurent():
    with pytest.raises(NegativeValuation):
        dissect(Series.monomial(1, -1, 5), 5)


def test_slice_order_is_ceiling():
    f = Series(0, [1] * 11, 11)
    d = dissect(f, 4)
    assert [s.order for s in d.slices] == [3, 3, 3, 2]


def test_alpha_slice4_starts_with_zero():
    alpha = Evaluator().eval("R(q)*R(q^2)^2", 40)
    d = dissect(alpha, 5)
    assert d.slices[4].coefficient(0) == 0  # the exceptional zero at n=4
    assert d.slices[4].coefficient(1) == 1


@given(power_series(), st.integers(1, 8))
def test_roundtrip(f, m):
    assert recombine(dissect(f, m)) == f.truncate(f.order)


def dissect_by_index(f, m):
    """The per-index loop ``dissect`` replaced: slice l is trusted below
    ceil((n - l) / m), and empty when l >= n."""
    n = f.order
    out = []
    for l in range(m):
        sl_order = max((n - l + m - 1) // m, 0)
        out.append(Series(0, [f.coefficient(m * i + l) for i in range(sl_order)], sl_order))
    return tuple(out)


@given(power_series(), st.integers(1, 30))
@example(Series.one(3), 7)    # m > n
@example(Series.zero(2), 5)
@example(Series.zero(-3), 2)  # a zero series trusted below a negative order
@example(Series(2, [4], 3), 3)
def test_dissect_matches_index_loop(f, m):
    assert dissect(f, m).slices == dissect_by_index(f, m)


def test_recombine_unit():
    d = Dissection(5, tuple([Series.one(4)] + [Series.zero(4)] * 4), 20)
    assert recombine(d).coefficients(0, 4) == [1, 0, 0, 0]


@given(power_series(), power_series(), st.integers(1, 6))
@settings(max_examples=50)
def test_dissect_is_linear(f, g, m):
    n = min(f.order, g.order)
    lhs = dissect(f.add(g), m)
    df, dg = dissect(f.truncate(n), m), dissect(g.truncate(n), m)
    for l in range(m):
        assert lhs.slices[l].truncate(df.slices[l].order) == df.slices[l].add(
            dg.slices[l]
        )


@given(power_series(), power_series(), st.integers(1, 5))
@settings(max_examples=50)
def test_dissect_scaling_by_series_in_qm(f, g, m):
    # slices of f * g(q^m) are (slice of f) * g
    prod = f.mul(g.substitute_power(m))
    d = dissect(prod, m)
    df = dissect(f, m)
    for l in range(m):
        want = df.slices[l].mul(g)
        n = min(want.order, d.slices[l].order)
        assert d.slices[l].truncate(n) == want.truncate(n)


def test_slice_support_check_passes_on_single_residue():
    t0 = make_series([(0, 1), (5, -2), (10, 4)], 20)
    report = slice_support_check([t0], 5, {0: 0})
    assert report["passed"]
    assert report["terms"][0]["residues"] == [0]


def test_slice_support_check_constant_is_residue_zero():
    report = slice_support_check(Series.one(10), 5)
    assert report["passed"] and report["terms"][0]["residues"] == [0]


def test_slice_support_check_flags_violation():
    bad = make_series([(3, 1), (7, 1)], 20)
    report = slice_support_check([bad], 5, {0: 3})
    assert not report["passed"]
    assert report["terms"][0]["first_violation"] == 7


def test_theorem_term_occupies_one_residue():
    # the q^9 term of the alpha dissection lands in residue 4 mod 5
    ev = Evaluator()
    t4 = ev.eval(
        "q^9*JP(q^5,q^5,q^5,q^15,q^35,q^45,q^45,q^45;"
        "q^10,q^20,q^20,q^20,q^30,q^30,q^30,q^40;q^50)",
        120,
    )
    report = slice_support_check([t4], 5, {0: 4})
    assert report["passed"]
    assert report["terms"][0]["residues"] == [4]
