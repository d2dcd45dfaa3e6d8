import io

import pytest

from qdissect import _kernels, products
from qdissect.dissection import dissect
from qdissect.exprlang import Evaluator
from qdissect.prodmake import expand_exponents
from qdissect.registry import PIPELINE_TARGETS, load_registry
from qdissect.series import Series
from qdissect.signscan import DEFAULT_RULES, SignRule, scan, series_for, write_csv


def test_rule_validation():
    with pytest.raises(ValueError):
        SignRule(5, {0, 1}, {1, 2, 3, 4})  # overlap
    with pytest.raises(ValueError):
        SignRule(5, {0}, {1, 2})  # incomplete
    rule = SignRule(5, {0, 2, 4}, {1, 3}, {7})
    assert rule.expected(7) == "zero"
    assert rule.expected(2) == "positive"
    assert rule.expected(8) == "negative"


def test_series_for_matches_definitions():
    n = 120
    r = products.H_sum(n).mul(products.G_sum(n).invert()).truncate(n)
    r2 = r.substitute_power(2).truncate(n)
    alpha = r.mul(r2.pow(2)).truncate(n)
    assert series_for("alpha", n) == alpha
    beta = series_for("beta", n)
    assert alpha.mul(beta).truncate(n).coefficients(0, n) == [1] + [0] * (n - 1)
    gamma = series_for("gamma", n)
    delta = series_for("delta", n)
    assert gamma.mul(delta).truncate(n).coefficients(0, n) == [1] + [0] * (n - 1)


def test_alpha_above_64_bits_matches_one_dense_product():
    # series_for folds R(q)*R(q^2)^2 into one product and expands it by
    # sparse theta passes; the reference re-expands its exponents by dense
    # Pochhammer passes
    n = 2000
    exponents = {}
    for offset, modulus, power in (
        (1, 5, 1), (4, 5, 1), (2, 5, -1), (3, 5, -1),
        (2, 10, 2), (8, 10, 2), (4, 10, -2), (6, 10, -2),
    ):
        for d in range(offset, n, modulus):
            exponents[d] = exponents.get(d, 0) + power
    dense = expand_exponents(exponents, n)
    alpha = series_for("alpha", n)
    assert max(map(abs, alpha.coeffs)).bit_length() > 64
    assert alpha == dense


def test_dissection_sources_need_no_inversion_or_convolution(monkeypatch):
    # each source is a quotient of products, folded into one QProduct and
    # expanded by theta passes alone
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Series, "invert", spy("invert", Series.invert))
    monkeypatch.setattr(_kernels, "conv", spy("conv", _kernels.conv))
    sources = [d.source for d in load_registry().dissections.values()]
    assert len(sources) == 4
    for source in sources:
        assert Evaluator().eval(source, 600).order == 600
    assert calls == []


@pytest.mark.slow
def test_sign_patterns_to_ten_thousand():
    n = 10_000
    reports = {name: scan(name, n=n) for name in PIPELINE_TARGETS}
    assert all(r.passed for r in reports.values()), {k: r.violations[:3] for k, r in reports.items()}
    zeros = {name: r.zeros for name, r in reports.items()}
    assert zeros == {"alpha": (4,), "beta": (5,), "gamma": (), "delta": (2,)}


def test_first_values():
    alpha = series_for("alpha", 10)
    assert alpha.coefficients(0, 10) == [1, -1, -1, 2, 0, -2, 2, 1, -4, 1]
    delta = series_for("delta", 8)
    assert delta.coefficients(0, 8) == [1, 2, 0, -4, -2, 6, 8, -4]


def test_scans_pass_at_small_order():
    for name in PIPELINE_TARGETS:
        report = scan(name, n=200)
        assert report.passed, (name, report.violations[:3])
    assert scan("alpha", n=200).zeros == (4,)
    assert scan("beta", n=200).zeros == (5,)
    assert scan("gamma", n=200).zeros == ()
    assert scan("delta", n=200).zeros == (2,)


def test_delta_exception_and_residue():
    report = scan("delta", n=50)
    assert report.passed
    series = series_for("delta", 50)
    assert series.coefficient(2) == 0
    assert series.coefficient(7) < 0  # 7 = 2 (mod 5), negative class


def test_swapped_rule_reports_violations():
    swapped = SignRule(5, {1, 3}, {0, 2, 4})
    report = scan("gamma", rule=swapped, n=30)
    assert not report.passed
    assert [v.n for v in report.violations[:4]] == [0, 1, 2, 3]


def test_fake_exception_is_flagged():
    rule = SignRule(5, {0, 2, 4}, {1, 3}, {3})
    report = scan("gamma", rule=rule, n=30)
    bad = [v for v in report.violations if v.n == 3]
    assert bad and bad[0].expected == "zero"


def test_unexpected_zero_is_a_violation():
    # alpha without its exceptional index must flag n=4
    rule = SignRule(10, {0, 3, 6, 7, 9}, {1, 2, 4, 5, 8})
    report = scan("alpha", rule=rule, n=30)
    assert [v.n for v in report.violations] == [4]
    assert report.violations[0].expected == "negative"


def test_slice_signs_match_dissection_prefactors():
    # residue classes mod 5 inherit their signs from the theorem terms;
    # gamma's prefactors are +, -, +, -, + and delta's carry the single
    # exceptional zero at n=2
    n = 300
    for name in PIPELINE_TARGETS:
        rule = DEFAULT_RULES[name]
        d = dissect(series_for(name, n), 5)
        for l in range(5):
            sl = d.slices[l]
            for i, c in sl.terms():
                want = rule.expected(5 * i + l)
                assert want != "zero"
                assert (c > 0) == (want == "positive")


def test_write_csv_shape():
    series = series_for("gamma", 12)
    report = scan("gamma", n=12, series=series)
    fh = io.StringIO(newline="")
    write_csv(fh, report, series)
    rows = fh.getvalue().splitlines()
    assert rows[0] == "n,coefficient,residue,verdict"
    assert rows[1] == "0,1,0,ok"
    assert len(rows) == 13
    assert {r.rsplit(",", 1)[1] for r in rows[1:]} == {"ok"}
