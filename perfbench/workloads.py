"""The benchmark's four workloads and their independent correctness checks.

Each workload is a closed loop with one client: one pass runs its
operations one after another in this process, every pass starting from a
fresh ``Evaluator`` (the CLI builds one per invocation).  Inputs come only
from the seed: it shuffles identity and target order and picks each deep
workload's order from a band of +-0.5% around the nominal order, narrow
enough that the order's effect on the timings stays inside the metric
bounds.

A pass returns raw outputs; ``verdicts`` turns them into per-operation
pass/fail using the program's own report plus the cheap checks, and
``check`` runs the expensive independent route once per run.
"""

import contextlib
import csv
import io
import json
import re
from collections import Counter
from pathlib import Path

import qdissect
from qdissect import cli, dissection, prodmake
from qdissect.errors import QSeriesError
from qdissect.exprlang import Evaluator

SERIES = ("alpha", "beta", "gamma", "delta")

# The paper's sign theorems, restated here rather than read from signscan:
# (modulus, positive residues, exceptional zeros); other residues are negative.
SIGN_RULES = {
    "alpha": (10, {0, 3, 6, 7, 9}, {4}),
    "beta": (10, {0, 1, 2, 3, 4}, {5}),
    "gamma": (5, {0, 2, 4}, set()),
    "delta": (5, {0, 1}, {2}),
}


def registry_data():
    path = Path(qdissect.__file__).parent / "data" / "identities.json"
    return json.loads(path.read_text())


def run_cli(argv):
    """Run one CLI invocation in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a failed run
            return -1, f"{out.getvalue()}\nraised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def pick_order(rng, nominal):
    half = max(1, nominal // 200)
    return rng.randint(nominal - half, nominal + half)


def max_bits(values):
    return max((abs(int(v)).bit_length() for v in values), default=0)


def sides_equal(ev, rec, n):
    """(lhs == rhs below q^n by direct coefficient comparison, widest coefficient)."""
    try:
        lhs, rhs = ev.eval(rec["lhs"], n), ev.eval(rec["rhs"], n)
    except QSeriesError:  # an identity that cannot be expanded is not equal
        return False, 0
    lo = min(lhs.val, rhs.val, 0)
    a, b = lhs.coefficients(lo, n), rhs.coefficients(lo, n)
    return a == b, max(max_bits(a), max_bits(b))


def _report_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class Workload:
    """Inputs from (rng, smoke, inject); subclasses define the passes."""

    name = ""

    def __init__(self, rng, smoke, inject, workdir):
        self.rng = rng
        self.smoke = smoke
        self.inject = inject
        self.workdir = Path(workdir)

    def digest_text(self, outputs):
        """Canonical text of a pass, independent of operation order."""
        return "\n".join(f"{key}\n{text}" for key, text in sorted(self.render(outputs)))


class _RegistryFile(Workload):
    """Workloads that pass the CLI a seed-shuffled copy of the registry."""

    def write_registry(self):
        data = registry_data()
        self.rng.shuffle(data["identities"])
        self.records = {r["id"]: r for r in data["identities"]}
        self.data = data
        if self.inject:
            rec = self.records[self.rng.choice(sorted(self.fault_candidates()))]
            rec["rhs"] = f"({rec['rhs']}) + q^{self.fault_exponent(rec)}"
        self.registry_path = str(self.workdir / f"{self.name}-registry.json")
        Path(self.registry_path).write_text(json.dumps(data))


class RegistryWorkload(_RegistryFile):
    """``verify --all``: 43 identities, one shared evaluator."""

    name = "registry"
    SMOKE_ORDER = 40

    def __init__(self, *a):
        super().__init__(*a)
        self.write_registry()
        self.argv = ["verify", "--all", "--json", "--registry", self.registry_path]
        if self.smoke:
            self.argv += ["--order", str(self.SMOKE_ORDER)]
        self.orders = {rid: self.order_of(rid) for rid in self.records}

    def order_of(self, rid):
        return self.SMOKE_ORDER if self.smoke else self.records[rid]["order"]

    def fault_candidates(self):
        return self.records

    def fault_exponent(self, rec):
        return self.order_of(rec["id"]) // 2

    def context(self):
        return {"orders": sorted(set(self.orders.values())),
                "identities": len(self.records)}

    def run_pass(self):
        return run_cli(self.argv)

    def render(self, outputs):
        rc, text = outputs
        return [("verify --all", f"exit {rc}\n{text}")]

    def verdicts(self, outputs):
        rc, text = outputs
        try:
            seen = {r["id"]: r for r in _report_lines(text)}
        except ValueError:
            seen = {}
        return {rid: (rid in seen and seen[rid]["passed"] is True
                      and seen[rid]["order"] == self.orders[rid])
                for rid in self.records}

    def check(self, outputs):
        """lhs == rhs by direct coefficient comparison, with a fresh evaluator."""
        ev = Evaluator()
        results = {rid: sides_equal(ev, rec, self.orders[rid]) for rid, rec in self.records.items()}
        return ({rid: eq for rid, (eq, _) in results.items()},
                max(bits for _, bits in results.values()))


class PipelineWorkload(_RegistryFile):
    """``pipeline --target T --order ~1000`` for the four targets."""

    name = "pipeline"

    def __init__(self, *a):
        super().__init__(*a)
        self.order = self.rng.randint(40, 45) if self.smoke else pick_order(self.rng, 1000)
        self.write_registry()
        self.targets = list(SERIES)
        self.rng.shuffle(self.targets)
        self.steps = {}
        for t in self.targets:
            plan = self.data["pipelines"][t]
            ids = list(plan["steps"])
            if plan["aux"] is not None:
                ids.insert(1, f"pi-{t}-q5-support")
            self.steps[t] = ids

    def fault_candidates(self):
        return [s for plan in self.data["pipelines"].values() for s in plan["steps"]]

    def fault_exponent(self, rec):
        return self.order // 2

    def context(self):
        return {"order": self.order, "targets": self.targets}

    def run_pass(self):
        return [(t, run_cli(["pipeline", "--target", t, "--order", str(self.order),
                             "--json", "--registry", self.registry_path]))
                for t in self.targets]

    def render(self, outputs):
        return [(f"pipeline {t}", f"exit {rc}\n{text}") for t, (rc, text) in outputs]

    def verdicts(self, outputs):
        out = {}
        for t, (rc, text) in outputs:
            try:
                reports = _report_lines(text)
            except ValueError:
                reports = []
            got = [r["id"] for r in reports]
            for i, sid in enumerate(self.steps[t]):
                r = reports[i] if got == self.steps[t] else None
                out[(t, sid)] = bool(r and r["passed"] is True and r["order"] == self.order)
        return out

    def check(self, outputs):
        """Every step's lhs == rhs (or q^5-support) at the order, fresh evaluator."""
        truth, bits, n = {}, 0, self.order
        ev = Evaluator()  # shared across targets: the check need not mimic the CLI
        for t in self.targets:
            plan = self.data["pipelines"][t]
            for sid in self.steps[t]:
                if sid.endswith("-q5-support"):
                    aux = plan["aux"]
                    try:
                        s = ev.eval(f"({aux['factor1']})*({aux['factor2']})/({aux['numerator']})", n)
                    except QSeriesError:
                        truth[(t, sid)] = False
                        continue
                    lo = min(s.val, 0)
                    cs = s.coefficients(lo, n)
                    truth[(t, sid)] = all(c == 0 for i, c in enumerate(cs) if (lo + i) % 5)
                    bits = max(bits, max_bits(cs))
                else:
                    truth[(t, sid)], b = sides_equal(ev, self.records[sid], n)
                    bits = max(bits, b)
        return truth, bits


class SignsWorkload(Workload):
    """``signs --which W --order ~3000 --csv FILE`` for the four series."""

    name = "signs"

    def __init__(self, *a):
        super().__init__(*a)
        self.order = self.rng.randint(100, 110) if self.smoke else pick_order(self.rng, 3000)
        self.names = list(SERIES)
        self.rng.shuffle(self.names)
        self.fault = (self.rng.choice(SERIES), self.rng.randrange(20, self.order))

    def context(self):
        return {"order": self.order, "series": self.names}

    def run_pass(self):
        outputs = []
        for w in self.names:
            path = self.workdir / f"signs-{w}.csv"
            rc, text = run_cli(["signs", "--which", w, "--order", str(self.order),
                                "--json", "--csv", str(path)])
            outputs.append((w, rc, text, path.read_text()))
        if self.inject:
            outputs = [self._corrupt(o) for o in outputs]
        return outputs

    def _corrupt(self, output):
        """Flip the sign of one CSV coefficient: a wrong coefficient in the output."""
        w, rc, text, table = output
        if w != self.fault[0]:
            return output
        lines = table.splitlines()
        n, c, *rest = lines[self.fault[1] + 1].split(",")
        lines[self.fault[1] + 1] = ",".join([n, str(-int(c) or 1), *rest])
        return (w, rc, text, "\n".join(lines) + "\n")

    def render(self, outputs):
        return [(f"signs {w}", f"exit {rc}\n{text}\n{table}") for w, rc, text, table in outputs]

    def verdicts(self, outputs):
        return {w: rc == 0 and self._report_ok(w, text) and not self.sign_problems(w, table)
                for w, rc, text, table in outputs}

    def _report_ok(self, w, text):
        try:
            report = json.loads(text)
        except ValueError:
            return False
        return (report["passed"] is True and report["order"] == self.order
                and report["zeros"] == sorted(SIGN_RULES[w][2]))

    def sign_problems(self, w, table):
        """Indices whose CSV coefficient breaks the sign theorem."""
        modulus, positive, zeros = SIGN_RULES[w]
        rows = list(csv.reader(io.StringIO(table)))
        if rows[:1] != [["n", "coefficient", "residue", "verdict"]] or len(rows) != self.order + 1:
            return ["malformed table"]
        bad = []
        for i, (n, c, residue, verdict) in enumerate(rows[1:]):
            c = int(c)
            if i in zeros:
                ok = c == 0
            elif i % modulus in positive:
                ok = c > 0
            else:
                ok = c < 0
            if not ok or int(n) != i or int(residue) != i % modulus or verdict != "ok":
                bad.append(i)
        return bad

    def check(self, outputs):
        # the sign theorems are checked on every pass by ``verdicts``
        bits = max(max_bits(row.split(",")[1] for row in table.splitlines()[1:])
                   for _, _, _, table in outputs)
        return {}, bits


def jp_pattern(text, period):
    """Exponent pattern of JP(a..;b..;q^m) by residue mod ``period``.

    Returns (eta, eta_plus) as prodmake's PeriodView reports them: the net
    power of (1-q^n), and of (1+q^n) from the negative-argument factors.
    """
    num, den, base = text[text.index("(") + 1:text.rindex(")")].split(";")

    def qexp(item):
        m = re.fullmatch(r"q(?:\^(\d+))?", item.strip())
        return int(m.group(1) or 1)

    m = qexp(base)
    eta, plus = Counter(), Counter()
    for items, power in ((num, 1), (den, -1)):
        for item in filter(None, (s.strip() for s in items.split(","))):
            target = plus if item.startswith("-") else eta
            for r in range(qexp(item.lstrip("-")) % m, period, m):
                target[r] += power
    return ({r: e for r, e in sorted(eta.items()) if e},
            {r: e for r, e in sorted(plus.items()) if e})


class ProdmakeWorkload(Workload):
    """The conjecture step: expand, 5-dissect, normalize, prodmake, period."""

    name = "prodmake"

    def __init__(self, *a):
        super().__init__(*a)
        self.order = self.rng.randint(200, 205) if self.smoke else pick_order(self.rng, 2000)
        self.targets = list(SERIES)
        self.rng.shuffle(self.targets)
        reg = qdissect.load_registry()
        self.specs = {t: reg.dissection(t) for t in self.targets}
        self.fault = (self.rng.choice(SERIES), self.rng.randrange(5))

    def context(self):
        return {"order": self.order, "targets": self.targets}

    def run_pass(self):
        n = self.order
        outputs = []
        self.sources = {}
        for t in self.targets:
            spec = self.specs[t]
            try:
                source = Evaluator().eval(spec.source, n + 20)
                d = dissection.dissect(source, spec.modulus)
            except Exception as exc:  # counted as failures of every slice
                outputs.append((t, None, f"{type(exc).__name__}: {exc}"))
                continue
            self.sources[t] = source
            for i, (_, shift, _) in enumerate(spec.terms):
                r = shift % spec.modulus
                try:
                    term = d.slices[r].substitute_power(spec.modulus).shift(r)
                    lead = (term.val, term.leading_coefficient())
                    normalized = term.shift(-term.val).exact_scalar_div(lead[1]).truncate(n)
                    if self.inject and (t, i) == self.fault:
                        normalized = normalized.add(qdissect.Series.monomial(1, n // 2, n))
                    exps = prodmake.prodmake(normalized, n)
                    view = prodmake.detect_period(exps, spec.period)
                    outputs.append(((t, i), lead, (exps, view)))
                except Exception as exc:
                    outputs.append(((t, i), None, f"{type(exc).__name__}: {exc}"))
        return outputs

    def render(self, outputs):
        rendered = []
        for key, lead, result in outputs:
            if lead is None:
                text = result
            else:
                exps, view = result
                text = json.dumps({"lead": lead, "exponents": exps.to_json()["exponents"],
                                   "period": view.to_json() if view else None})
            rendered.append((f"prodmake {key}", text))
        return rendered

    def verdicts(self, outputs):
        out = {(t, i): False for t in self.targets for i in range(len(self.specs[t].terms))}
        for key, lead, result in outputs:
            if lead is None:
                continue
            t, i = key
            scale, shift, jp = self.specs[t].terms[i]
            view = result[1]
            out[key] = (lead == (shift, scale) and view is not None
                        and not view.leading_exceptions
                        and (view.eta, view.eta_plus) == jp_pattern(jp, self.specs[t].period))
        return out

    def check(self, outputs):
        # the JP patterns are compared on every pass by ``verdicts``
        return {}, max((max_bits(s.coeffs) for s in self.sources.values()), default=0)


WORKLOADS = {w.name: w for w in (RegistryWorkload, PipelineWorkload,
                                 SignsWorkload, ProdmakeWorkload)}
