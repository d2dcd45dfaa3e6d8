"""The identity registry and its verifier.

Each record pairs two expression-language transcriptions of one displayed
identity; ``load_registry`` checks each JSON entry as it builds it.
``verify`` expands both sides and reports the first mismatching
coefficient, if any.  ``verify_proof_pipeline`` replays the auxiliary-product
proof route for the four 5-dissection theorems step by step; its
q^5-support step compares an expansion with its own part on exponents
= 0 mod 5.  Every report comes from one comparison of two series.
"""

import json
import os

from ._value import Value
from .errors import QSeriesError, RegistryError
from .exprlang import Evaluator
from .series import Series

PIPELINE_TARGETS = ("alpha", "beta", "gamma", "delta")


class IdentityRecord(Value):
    __slots__ = ("id", "lhs", "rhs", "suggested_order", "note")


class VerifyReport(Value):
    __slots__ = ("id", "order", "passed", "mismatch_exponent", "lhs_coefficient",
                 "rhs_coefficient", "error")
    _defaults = dict.fromkeys(__slots__[3:])  # the last four default to None

    def to_json(self):
        out = {"id": self.id, "order": self.order, "passed": self.passed}
        if self.error is not None:
            out["error"] = self.error
        if self.mismatch_exponent is not None:
            out["mismatch_exponent"] = self.mismatch_exponent
            out["lhs_coefficient"] = str(self.lhs_coefficient)
            out["rhs_coefficient"] = str(self.rhs_coefficient)
        return out


class DissectionSpec(Value):
    """Term-by-term structure of one dissection theorem."""

    __slots__ = ("target", "source", "record", "modulus", "period",
                 "terms")  # terms: tuple of (scale, shift, jp_text)


class Registry:
    def __init__(self, records, dissections, pipelines):
        self.records = tuple(records)
        self.by_id = {r.id: r for r in self.records}
        self.dissections = dissections
        self._pipelines = pipelines

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def record(self, id_):
        try:
            return self.by_id[id_]
        except KeyError:
            raise KeyError(f"no registry identity named {id_!r}") from None

    def dissection(self, target):
        try:
            return self.dissections[target]
        except KeyError:
            raise KeyError(f"no dissection target named {target!r}") from None


def _typed(obj, kind, *keys):
    """Whether obj is a JSON object whose keys all hold values of exactly kind."""
    return isinstance(obj, dict) and all(type(obj.get(k)) is kind for k in keys)


def load_registry(path=None):
    if path is None:
        source = os.path.join(os.path.dirname(__file__), "data", "identities.json")
    else:
        source = path
    try:
        with open(source) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RegistryError(f"cannot read registry {source}: {exc}") from None

    def fail(what):
        return RegistryError(f"registry {source}: {what}")

    shape = {"identities": list, "dissections": dict, "pipelines": dict}
    if not isinstance(data, dict) or not all(isinstance(data.get(k), t) for k, t in shape.items()):
        raise fail("top level needs a list 'identities' and objects 'dissections' and 'pipelines'")
    records, ids, dissections = [], set(), {}
    for i, r in enumerate(data["identities"]):
        if not (_typed(r, str, "id", "lhs", "rhs") and _typed(r, int, "order") and r["order"] >= 1):
            raise fail(f"identity {i} needs string id, lhs and rhs and an integer order >= 1")
        if r["id"] in ids:
            raise fail(f"identity id {r['id']!r} is listed twice")
        ids.add(r["id"])
        records.append(IdentityRecord(r["id"], r["lhs"], r["rhs"], r["order"], r.get("note", "")))
    for tgt, d in data["dissections"].items():
        if not (_typed(d, str, "source", "record") and _typed(d, int, "modulus", "period")
                and min(d["modulus"], d["period"]) >= 1 and isinstance(d.get("terms"), list)
                and all(_typed(t, int, "scale", "shift") and _typed(t, str, "jp")
                        for t in d["terms"])):
            raise fail(f"dissection {tgt!r} needs string source and record, integer modulus "
                       "and period >= 1 and a list terms of objects with integer scale and "
                       "shift and string jp")
        if d["record"] not in ids:
            raise fail(f"dissection {tgt!r} names unknown identity {d['record']!r}")
        dissections[tgt] = DissectionSpec(
            tgt, d["source"], d["record"], d["modulus"], d["period"],
            tuple((t["scale"], t["shift"], t["jp"]) for t in d["terms"]),
        )
    for tgt, p in data["pipelines"].items():
        if not (isinstance(p, dict) and isinstance(p.get("steps"), list) and p["steps"]
                and all(isinstance(sid, str) for sid in p["steps"])):
            raise fail(f"pipeline {tgt!r} needs a nonempty list of string steps")
        if "aux" not in p or not (p["aux"] is None
                                  or _typed(p["aux"], str, "factor1", "factor2", "numerator")):
            raise fail(f"pipeline {tgt!r} needs an aux that is null or an object with "
                       "string factor1, factor2 and numerator")
        unknown = [sid for sid in p["steps"] if sid not in ids]
        if unknown:
            raise fail(f"pipeline {tgt!r} names unknown identity {unknown[0]!r}")
    return Registry(records, dissections, data["pipelines"])


def _report(id_, n, sides):
    """Compare the two series that sides() computes to order n.

    Expansion failures (bad parse, non-unit division) land in the report
    instead of propagating; a registry typo should read as a failure.
    """
    try:
        lhs, rhs = sides()
    except QSeriesError as exc:
        return VerifyReport(id_, n, False, error=f"{type(exc).__name__}: {exc}")
    diff = lhs.sub(rhs)
    if diff.is_zero():
        return VerifyReport(id_, n, True)
    e = diff.val  # the first trusted exponent where the sides differ
    return VerifyReport(
        id_, n, False,
        mismatch_exponent=e,
        lhs_coefficient=lhs.coefficient(e),
        rhs_coefficient=rhs.coefficient(e),
    )


def verify(rec, order=None, evaluator=None):
    """Expand lhs and rhs to the working order and report the outcome.

    An expansion failure is a failed report, not an exception (``_report``).
    """
    n = rec.suggested_order if order is None else order
    ev = evaluator or Evaluator()
    return _report(rec.id, n, lambda: (ev.eval(rec.lhs, n), ev.eval(rec.rhs, n)))


def verify_all(registry, order=None, evaluator=None):
    """Verify every record (at its own suggested order unless overridden)."""
    ev = evaluator or Evaluator()
    return [verify(rec, order=order, evaluator=ev) for rec in registry]


def _support_step(step_id, text, n, evaluator):
    """Check that an expression is supported on exponents = 0 mod 5.

    Its expansion is compared with that expansion's own part on those
    exponents, so a failure names the first exponent off them.
    """
    def sides():
        s = evaluator.eval(text, n)
        return s, Series(s.val, [0 if (s.val + i) % 5 else c for i, c in enumerate(s.coeffs)],
                         s.order)

    return _report(step_id, n, sides)


def verify_proof_pipeline(registry, target, order=300, evaluator=None):
    """Replay the proof steps for one dissection target.

    For alpha this is the full seven-step route (both auxiliary factors,
    the split below q^5, the substitution of one, the refactoring, the eta
    form, and the final quotient).  The other targets check their auxiliary
    factor against the matching quotient lemma, check that the auxiliary
    product divided by the target numerator lives on exponents = 0 mod 5,
    and then check the reformulation and the dissection itself.
    """
    if target not in PIPELINE_TARGETS:
        raise KeyError(f"unknown pipeline target {target!r}")
    plan = registry._pipelines.get(target)
    if plan is None:
        raise RegistryError(f"registry has no pipeline for target {target!r}")
    ev = evaluator or Evaluator()
    lemma, *rest = plan["steps"]
    aux = plan["aux"]
    # the lemma step comes first; the computed support step follows it
    reports = [verify(registry.record(lemma), order=order, evaluator=ev)]
    if aux is not None:
        text = f"({aux['factor1']})*({aux['factor2']})/({aux['numerator']})"
        reports.append(_support_step(f"pi-{target}-q5-support", text, order, ev))
    return reports + [verify(registry.record(sid), order=order, evaluator=ev) for sid in rest]
