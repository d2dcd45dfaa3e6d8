import pytest

from qdissect.errors import RegistryError
from qdissect.exprlang import Evaluator, parse
from qdissect.registry import (
    IdentityRecord, VerifyReport, _support_step, load_registry, verify, verify_all,
    verify_proof_pipeline,
)

REQUIRED_IDS = {
    # classical definitions and the continued fraction
    "rr-g-sum-product", "rr-h-sum-product", "r-as-gh-quotient", "k-as-gh-products",
    # the two period-125 dissections of R and 1/R
    "r-5dis-mod125", "rinv-5dis-mod125",
    # the four period-50/25 dissection theorems
    "alpha-5dis", "beta-5dis", "gamma-5dis", "delta-5dis",
    # two-variable G/H relations
    "gh-cross-sum", "gh-cross-diff", "gh-cross-ratio",
    # modular equations through k, theta definitions and their product forms
    "companion-from-k", "phi-ratio-from-k", "psi-ratio-from-k",
    "phi-sum-product", "psi-sum-product", "phi-difference-product",
    # quotient dissection lemmas
    "gg-quotient-5dis", "hh-quotient-5dis", "g2-quotient-5dis", "h2-quotient-5dis",
    # auxiliary quartic identities and their intermediate steps
    "gh-quartic-plus", "gh-quartic-minus",
    "r-ratio-plus-four", "r-ratio-plus-four-k", "k-fraction-as-eta",
    "r-ratio-plus-one-phi",
    # the substitution-of-one identity
    "one-substitution",
    # reformulations of the four targets, product and G/H forms
    "alpha-as-products", "beta-as-products", "gamma-as-products",
    "delta-as-products",
    "alpha-as-gh", "beta-as-gh", "gamma-as-gh", "delta-as-gh",
    # the auxiliary-product machinery for the alpha proof
    "pi1-factor1", "pi1-factor2-bracket", "pi1-split", "pi1-factored",
    "pi1-eta-form",
}


@pytest.fixture(scope="module")
def reg():
    return load_registry()


def test_registry_complete_and_unique(reg):
    ids = [r.id for r in reg]
    assert len(ids) == len(set(ids))
    assert set(ids) == REQUIRED_IDS
    assert len(reg) == 43


def test_all_records_parse(reg):
    for rec in reg:
        parse(rec.lhs)
        parse(rec.rhs)


def test_suggested_orders(reg):
    for rec in reg:
        if rec.id.endswith("mod125"):
            assert rec.suggested_order == 625
        elif rec.id.endswith("-5dis") and rec.id.split("-")[0] in (
            "alpha", "beta", "gamma", "delta",
        ):
            assert rec.suggested_order == 500
        else:
            assert rec.suggested_order == 300


def test_quick_verification_smoke(reg):
    # full suggested orders run in the acceptance suite; a shallow pass
    # here keeps the unit suite fast while touching every record
    ev = Evaluator()
    for report in verify_all(reg, order=60, evaluator=ev):
        assert report.passed, report


def test_registry_at_twice_its_suggested_orders(reg):
    # deeper evidence than the acceptance suite's suggested orders: every
    # product contributes twice as many factors
    ev = Evaluator()
    reports = [verify(rec, order=2 * rec.suggested_order, evaluator=ev) for rec in reg]
    assert len(reports) == 43
    assert [r for r in reports if not r.passed] == []


def test_monotonicity_spot_check(reg):
    rec = reg.record("gh-cross-sum")
    assert verify(rec, order=300).passed
    assert verify(rec, order=150).passed
    assert verify(rec, order=7).passed


def test_forced_mismatch_reports_first_exponent(reg):
    rec = reg.record("gh-cross-sum")
    mutated = IdentityRecord(
        rec.id, rec.lhs, f"{rec.rhs} + q^7", rec.suggested_order, rec.note
    )
    report = verify(mutated, order=60)
    assert not report.passed
    assert report.mismatch_exponent == 7
    assert report.lhs_coefficient - report.rhs_coefficient == -1


def test_expansion_errors_become_reports():
    bad = IdentityRecord("bad", "1/(2+q)", "1", 20, "")
    report = verify(bad)
    assert not report.passed
    assert "NonUnitLeadingCoefficient" in report.error
    assert report.to_json()["error"]


def test_unknown_ids_raise(reg):
    with pytest.raises(KeyError):
        reg.record("nope")
    with pytest.raises(KeyError):
        reg.dissection("nope")
    with pytest.raises(KeyError):
        verify_proof_pipeline(reg, "nope")


def test_pipeline_structure(reg):
    ev = Evaluator()
    reports = verify_proof_pipeline(reg, "alpha", order=80, evaluator=ev)
    assert [r.id for r in reports] == [
        "pi1-factor1", "pi1-factor2-bracket", "pi1-split", "one-substitution",
        "pi1-factored", "pi1-eta-form", "alpha-as-gh",
    ]
    assert all(r.passed for r in reports)

    for target, first in (
        ("beta", "hh-quotient-5dis"),
        ("gamma", "g2-quotient-5dis"),
        ("delta", "h2-quotient-5dis"),
    ):
        reports = verify_proof_pipeline(reg, target, order=80, evaluator=ev)
        assert reports[0].id == first
        assert reports[1].id == f"pi-{target}-q5-support"
        assert len(reports) == 4
        assert all(r.passed for r in reports)


@pytest.mark.parametrize("run", [
    lambda reg: verify(reg.record("alpha-5dis"), order=0),
    lambda reg: verify_all(reg, order=0),
    lambda reg: verify_proof_pipeline(reg, "alpha", order=0),
    lambda reg: verify_proof_pipeline(reg, "beta", order=0),
], ids=["verify", "verify-all", "pipeline-alpha", "pipeline-beta"])
def test_order_zero_is_refused(reg, run):
    # 0 is an order, not "use the suggested one"
    with pytest.raises(ValueError, match="order must be >= 1"):
        run(reg)


@pytest.mark.parametrize("text, want", [
    ("q^-5+q^-3", {"mismatch_exponent": -3, "lhs_coefficient": 1, "rhs_coefficient": 0}),
    ("q^-5*G(q)", {"mismatch_exponent": -4, "lhs_coefficient": 1, "rhs_coefficient": 0}),
    ("q^-5+q^5", None),
    ("0*q", None),
    ("1/(1-q^5)", None),
    ("G(q", {"error": "ParseError: expected ')' (at offset 3)"}),
], ids=["laurent-off-support", "laurent-product", "laurent-on-support", "zero",
        "inverse-on-support", "parse-error"])
def test_support_step_edges(text, want):
    report = _support_step("s", text, 10, Evaluator())
    if want is None:
        assert report == VerifyReport("s", 10, True)
    else:
        assert report == VerifyReport("s", 10, False, **want)


def test_dissection_specs_match_records(reg):
    # the per-term table must agree with the one-line rhs of its record
    ev = Evaluator()
    n = 80
    for target in ("alpha", "beta", "gamma", "delta"):
        spec = reg.dissection(target)
        total = None
        for scale, shift, jptext in spec.terms:
            t = ev.eval(jptext, n).shift(shift).scalar_mul(scale).truncate(n)
            total = t if total is None else total.add(t)
        assert total == ev.eval(reg.record(spec.record).rhs, n)


def test_verify_by_id(reg):
    assert verify(reg.record("one-substitution"), order=50).passed


def test_registry_override_path(tmp_path):
    import json

    path = tmp_path / "tiny.json"
    data = {
        "identities": [
            {"id": "toy", "lhs": "G(q)*H(q)", "rhs": "JP(;q,q^2,q^3,q^4;q^5)",
             "order": 50, "note": "toy"}
        ],
        "dissections": {},
        "pipelines": {},
    }
    path.write_text(json.dumps(data))
    tiny = load_registry(str(path))
    assert len(tiny) == 1
    assert verify(tiny.record("toy")).passed


def test_duplicate_ids_rejected(tmp_path):
    import json

    rec = {"id": "dup", "lhs": "q", "rhs": "q", "order": 10, "note": ""}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(
        {"identities": [rec, rec], "dissections": {}, "pipelines": {}}
    ))
    with pytest.raises(RegistryError, match="'dup' is listed twice"):
        load_registry(str(path))


def test_every_registry_product_is_a_unit_at_valuation_zero(reg):
    from qdissect.exprlang import Term, to_text
    from qdissect import products as prod_mod

    def walk(node):
        out = [node]
        for attr in ("left", "right", "operand", "base"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, int):
                out.extend(walk(child))
        return out

    seen = {}
    for rec in reg:
        for node in walk(parse(rec.lhs)) + walk(parse(rec.rhs)):
            if isinstance(node, Term) and node.product.factors:
                seen[to_text(node)] = node
    assert len(seen) >= 30
    for node in seen.values():
        s = prod_mod.product_expand(node.product, 50)
        assert s.val == 0 and s.leading_coefficient() == 1
