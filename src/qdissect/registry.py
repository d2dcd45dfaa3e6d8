"""The identity registry and its verifier.

Each record pairs two expression-language transcriptions of one displayed
identity; ``verify`` expands both sides and reports the first mismatching
coefficient, if any.  ``verify_proof_pipeline`` replays the auxiliary-product
proof route for the four 5-dissection theorems step by step.
"""

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import QSeriesError, RegistryError
from .exprlang import Evaluator

PIPELINE_TARGETS = ("alpha", "beta", "gamma", "delta")


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    lhs: str
    rhs: str
    suggested_order: int
    note: str


@dataclass(frozen=True)
class VerifyReport:
    id: str
    order: int
    passed: bool
    mismatch_exponent: Optional[int] = None
    lhs_coefficient: Optional[int] = None
    rhs_coefficient: Optional[int] = None
    error: Optional[str] = None

    def to_json(self):
        out = {"id": self.id, "order": self.order, "passed": self.passed}
        if self.error is not None:
            out["error"] = self.error
        if self.mismatch_exponent is not None:
            out["mismatch_exponent"] = self.mismatch_exponent
            out["lhs_coefficient"] = str(self.lhs_coefficient)
            out["rhs_coefficient"] = str(self.rhs_coefficient)
        return out


@dataclass(frozen=True)
class DissectionSpec:
    """Term-by-term structure of one dissection theorem."""

    target: str
    source: str
    record: str
    modulus: int
    period: int
    terms: tuple  # of (scale, shift, jp_text)


class Registry:
    def __init__(self, records, dissections, pipelines):
        self.records = tuple(records)
        self.by_id = {r.id: r for r in self.records}
        if len(self.by_id) != len(self.records):
            raise ValueError("duplicate identity ids in registry data")
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


def load_registry(path=None):
    if path is None:
        source = resources.files("qdissect.data").joinpath("identities.json")
    else:
        source = Path(path)
    try:
        with source.open() as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RegistryError(f"cannot read registry {source}: {exc}") from None
    shape = {"identities": list, "dissections": dict, "pipelines": dict}
    if not isinstance(data, dict) or not all(isinstance(data.get(k), t) for k, t in shape.items()):
        raise RegistryError(f"registry {source}: top level needs a list 'identities' "
                            "and objects 'dissections' and 'pipelines'")
    for i, r in enumerate(data["identities"]):
        if not (isinstance(r, dict) and all(isinstance(r.get(k), str) for k in ("id", "lhs", "rhs"))
                and type(r.get("order")) is int and r["order"] >= 1):
            raise RegistryError(f"registry {source}: identity {i} needs string "
                                "id, lhs and rhs and an integer order >= 1")
    records = [
        IdentityRecord(r["id"], r["lhs"], r["rhs"], r["order"], r.get("note", ""))
        for r in data["identities"]
    ]
    dissections = {
        tgt: DissectionSpec(
            tgt,
            d["source"],
            d["record"],
            d["modulus"],
            d["period"],
            tuple((t["scale"], t["shift"], t["jp"]) for t in d["terms"]),
        )
        for tgt, d in data["dissections"].items()
    }
    return Registry(records, dissections, data["pipelines"])


def verify(rec, order=None, evaluator=None):
    """Expand lhs - rhs to the working order and report the outcome.

    Expansion failures (bad parse, non-unit division) land in the report
    instead of propagating; a registry typo should read as a failure.
    """
    n = order or rec.suggested_order
    ev = evaluator or Evaluator()
    try:
        lhs = ev.eval(rec.lhs, n)
        rhs = ev.eval(rec.rhs, n)
    except QSeriesError as exc:
        return VerifyReport(rec.id, n, False, error=f"{type(exc).__name__}: {exc}")
    e = lhs.first_difference(rhs)
    if e is None:
        return VerifyReport(rec.id, n, True)
    return VerifyReport(
        rec.id, n, False,
        mismatch_exponent=e,
        lhs_coefficient=lhs.coefficient(e),
        rhs_coefficient=rhs.coefficient(e),
    )


def verify_by_id(registry, id_, order=None, evaluator=None):
    return verify(registry.record(id_), order=order, evaluator=evaluator)


def verify_all(registry, order=None, evaluator=None):
    """Verify every record (at its own suggested order unless overridden)."""
    ev = evaluator or Evaluator()
    return [verify(rec, order=order, evaluator=ev) for rec in registry]


def _support_step(step_id, text, n, evaluator):
    """Check that an expression is supported on exponents = 0 mod 5."""
    try:
        s = evaluator.eval(text, n)
    except QSeriesError as exc:
        return VerifyReport(step_id, n, False, error=f"{type(exc).__name__}: {exc}")
    bad = [e for e, _ in s.terms() if e % 5]
    if not bad:
        return VerifyReport(step_id, n, True)
    e = bad[0]
    return VerifyReport(
        step_id, n, False,
        mismatch_exponent=e, lhs_coefficient=s.coefficient(e), rhs_coefficient=0,
    )


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
    plan = registry._pipelines[target]
    ev = evaluator or Evaluator()
    reports = []
    steps = list(plan["steps"])
    aux = plan["aux"]
    # the lemma step comes first; the computed support step follows it
    reports.append(verify_by_id(registry, steps[0], order=order, evaluator=ev))
    if aux is not None:
        text = f"({aux['factor1']})*({aux['factor2']})/({aux['numerator']})"
        reports.append(_support_step(f"pi-{target}-q5-support", text, order, ev))
    for sid in steps[1:]:
        reports.append(verify_by_id(registry, sid, order=order, evaluator=ev))
    return reports
