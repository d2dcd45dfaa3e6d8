"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Everything here is exact integer equality; there are no tolerances
to tune.
"""

import functools
import random
import time

import pytest

from qdissect import products, signscan
from qdissect.dissection import Dissection, dissect, recombine
from qdissect.exprlang import Evaluator, Term, parse, to_text
from qdissect.prodmake import detect_period, prodmake
from qdissect.registry import (
    IdentityRecord, load_registry, verify, verify_all, verify_proof_pipeline,
)
from qdissect.series import Series

from helpers import exponent_pattern, slice_support_check

REG = load_registry()
TARGETS = ("alpha", "beta", "gamma", "delta")


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            print(f"\nACCEPTANCE {label}: PASS")

        return run

    return wrap


@criterion("1 registry-verification")
def test_criterion_1_registry_at_suggested_orders():
    t0 = time.monotonic()
    reports = verify_all(REG)
    elapsed = time.monotonic() - t0
    failures = [r for r in reports if not r.passed]
    assert not failures, failures
    assert len(reports) == 43
    assert elapsed < 120.0, f"registry verification took {elapsed:.1f}s"


@criterion("2 theorem-recombination")
def test_criterion_2_dissection_theorems_end_to_end():
    n = 500
    ev = Evaluator()
    for target in TARGETS:
        spec = REG.dissection(target)
        source = ev.eval(spec.source, n)
        term_series = [
            ev.eval(jp, n).shift(shift).scalar_mul(scale).truncate(n)
            for scale, shift, jp in spec.terms
        ]
        expected = {i: shift % 5 for i, (_, shift, _) in enumerate(spec.terms)}
        support = slice_support_check(term_series, 5, expected)
        assert support["passed"], (target, support)

        slices = [None] * 5
        for (scale, shift, _), t in zip(spec.terms, term_series):
            slices[shift % 5] = dissect(t, 5).slices[shift % 5]
        d = Dissection(5, tuple(slices), n)
        assert recombine(d) == source, target


@criterion("3 proof-pipelines")
def test_criterion_3_proof_pipelines():
    ev = Evaluator()
    alpha_reports = verify_proof_pipeline(REG, "alpha", order=300, evaluator=ev)
    assert len(alpha_reports) == 7
    assert all(r.passed for r in alpha_reports), alpha_reports
    for target in ("beta", "gamma", "delta"):
        reports = verify_proof_pipeline(REG, target, order=300, evaluator=ev)
        assert all(r.passed for r in reports), (target, reports)


@criterion("4 sign-patterns")
def test_criterion_4_sign_patterns_to_2000():
    n = 2000
    zeros = {}
    for name in TARGETS:
        report = signscan.scan(name, n=n)
        assert report.passed, (name, report.violations[:3])
        zeros[name] = tuple(report.zeros)
    assert zeros == {"alpha": (4,), "beta": (5,), "gamma": (), "delta": (2,)}


@criterion("5 conjecture-reproduction")
def test_criterion_5_prodmake_recovers_the_theorems():
    n = 500
    ev = Evaluator()
    for target in TARGETS:
        spec = REG.dissection(target)
        source = ev.eval(spec.source, n + 20)
        d = dissect(source, 5)
        for i, (scale, shift, jptext) in enumerate(spec.terms):
            residue = shift % 5
            term = d.slices[residue].substitute_power(5).shift(residue)
            assert term.val == shift, (target, i)
            assert term.leading_coefficient() == scale, (target, i)
            normalized = term.shift(-shift).exact_scalar_div(scale)
            exps = prodmake(normalized.truncate(n), n)
            view = detect_period(exps, spec.period)
            assert view is not None, (target, i)
            assert not view.leading_exceptions, (target, i)
            eta_want, plus_want = exponent_pattern(parse(jptext).product, spec.period)
            assert view.eta == eta_want, (target, i)
            assert view.eta_plus == plus_want, (target, i)


@criterion("6 oracle-equivalences")
def test_criterion_6_oracles_and_properties():
    n = 1000
    g_factors = products.QProduct(
        (products.PochFactor(1, 1, 5, -1), products.PochFactor(1, 4, 5, -1))
    )
    h_factors = products.QProduct(
        (products.PochFactor(1, 2, 5, -1), products.PochFactor(1, 3, 5, -1))
    )
    assert products.G_sum(n) == products.product_expand(g_factors, n)
    assert products.H_sum(n) == products.product_expand(h_factors, n)
    eta = lambda b: products.poch_expand(products.PochFactor(1, b, b), n)
    assert products.phi(1, n) == (
        eta(2).pow(5).mul(eta(1).pow(2).mul(eta(4).pow(2)).invert()).truncate(n)
    )
    assert products.psi(n) == eta(2).pow(2).mul(eta(1).invert()).truncate(n)

    rng = random.Random(20260810)
    for _ in range(100):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 25))]
        f = Series(rng.randint(0, 3), coeffs, len(coeffs) + rng.randint(1, 8))
        m = rng.randint(1, 8)
        assert recombine(dissect(f, m)) == f

    # every Pochhammer product in the registry: prodmake must re-derive it
    seen = {}
    for rec in REG:
        for node in _walk(parse(rec.lhs)) + _walk(parse(rec.rhs)):
            if isinstance(node, Term) and node.product.factors:
                seen[to_text(node)] = node
    assert len(seen) >= 30
    for node in seen.values():
        p = node.product
        f = products.product_expand(p, 200)
        exps = prodmake(f, 200)  # re-expansion soundness is checked inside
        expect = {}
        for fac in p.factors:
            for dd in range(fac.offset, 200, fac.modulus):
                if fac.sign == 1:
                    expect[dd] = expect.get(dd, 0) + fac.power
                else:
                    expect[dd] = expect.get(dd, 0) - fac.power
                    if 2 * dd < 200:
                        expect[2 * dd] = expect.get(2 * dd, 0) + fac.power
        assert exps.exponents == {k: v for k, v in expect.items() if v}

    for _ in range(60):
        a, b, c = (
            Series(
                rng.randint(-3, 3),
                [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))],
                rng.randint(6, 14),
            )
            for _ in range(3)
        )
        assert a.mul(b) == b.mul(a)
        assert a.add(b) == b.add(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        lhs = a.mul(b.add(c))
        rhs = a.mul(b).add(a.mul(c))
        nn = min(lhs.order, rhs.order)
        assert lhs.truncate(nn) == rhs.truncate(nn)


def _walk(node):
    out = [node]
    for attr in ("left", "right", "operand", "base"):
        child = getattr(node, attr, None)
        if child is not None and not isinstance(child, int):
            out.extend(_walk(child))
    return out


@criterion("7 negative-control")
def test_criterion_7_mutation_harness():
    cases = [("alpha-5dis", 11, 3), ("gh-cross-sum", 7, 1), ("one-substitution", 0, 2)]
    for rec_id, exponent, bump in cases:
        rec = REG.record(rec_id)
        qp = "1" if exponent == 0 else ("q" if exponent == 1 else f"q^{exponent}")
        mutated = IdentityRecord(
            rec.id, rec.lhs, f"{rec.rhs} + {bump}*{qp}", 120, rec.note
        )
        report = verify(mutated)
        assert not report.passed
        assert report.mismatch_exponent == exponent, report
        assert report.rhs_coefficient - report.lhs_coefficient == bump

        # the unperturbed record passes at the same order
        assert verify(rec, order=120).passed
