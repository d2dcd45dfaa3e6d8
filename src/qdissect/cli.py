"""Command-line front end.

Subcommands: expand, dissect, prodmake, verify, pipeline, signs, list.
Every command accepts --json for machine-readable output; the exit status
is 0 exactly when there were no failures or violations.
"""

import argparse
import json
import sys

# dissection and prodmake are imported by the commands that use them, so
# that other calls start sooner.  signscan stays here: the traced benchmark
# (perfbench/spans.py) wraps only modules loaded before it installs.
from . import registry as registry_mod
from . import signscan
from .errors import QSeriesError, UsageError
from .exprlang import Evaluator


def _emit(args, payload, text_lines):
    """Print payload() as JSON with --json, else each line of text_lines()."""
    if args.json:
        json.dump(payload(), sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        for line in text_lines():
            print(line)


def _series_lines(s, label=None):
    lines = [] if label is None else [label]
    for e, c in s.terms():
        lines.append(f"{e}\t{c}")
    lines.append(f"# trusted below q^{s.order}")
    return lines


def cmd_expand(args):
    s = Evaluator().eval(args.expr, args.order)
    _emit(args, lambda: {"expr": args.expr, "series": s.to_json()}, lambda: _series_lines(s))
    return 0


def cmd_dissect(args):
    from . import dissection

    s = Evaluator().eval(args.expr, args.order)
    d = dissection.dissect(s, args.mod)
    wanted = range(args.mod) if args.slice is None else [args.slice]
    _emit(args,
          lambda: {"expr": args.expr, "modulus": args.mod,
                   "slices": {str(l): d.slices[l].to_json() for l in wanted}},
          lambda: [line for l in wanted
                   for line in _series_lines(d.slices[l], label=f"slice {l}:")])
    return 0


def cmd_prodmake(args):
    from . import prodmake

    s = Evaluator().eval(args.expr, args.order)
    exps = prodmake.prodmake(s, args.order)
    if args.period:
        exps = prodmake.with_period(exps, args.period)
    payload = {"expr": args.expr, **exps.to_json()}
    lines = [f"{n}\t{a}" for n, a in sorted(exps.exponents.items())]
    pv = exps.period_view
    if args.period:
        if pv is None:
            lines.append(f"# no period-{args.period} pattern")
        else:
            lines.append(f"# pattern mod {pv.modulus}:")
            for r, e in sorted(pv.eta.items()):
                lines.append(f"#   (1-q^n)^{e} for n = {r} (mod {pv.modulus})")
            for r, e in sorted(pv.eta_plus.items()):
                lines.append(f"#   (1+q^n)^{e} for n = {r} (mod {pv.modulus})")
            if pv.leading_exceptions:
                lines.append(f"#   leading exceptions: {pv.leading_exceptions}")
    _emit(args, lambda: payload, lambda: lines)
    return 0


def _report_lines(reports):
    lines = []
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        extra = ""
        if r.error:
            extra = f"  ({r.error})"
        elif not r.passed and r.mismatch_exponent is not None:
            extra = (
                f"  (first mismatch at q^{r.mismatch_exponent}:"
                f" {r.lhs_coefficient} vs {r.rhs_coefficient})"
            )
        lines.append(f"{status}  {r.id}  order={r.order}{extra}")
    return lines


def _emit_reports(args, reports):
    # one VerifyReport per line so streams of results stay parseable
    if args.json:
        for r in reports:
            print(json.dumps(r.to_json()))
    else:
        for line in _report_lines(reports):
            print(line)


def cmd_verify(args):
    reg = registry_mod.load_registry(args.registry)
    ev = Evaluator()
    if args.all:
        reports = registry_mod.verify_all(reg, order=args.order, evaluator=ev)
    elif args.id:
        if args.id not in reg.by_id:
            raise UsageError(f"no registry identity named {args.id!r}")
        reports = [registry_mod.verify(reg.record(args.id), order=args.order, evaluator=ev)]
    elif args.lhs and args.rhs:
        rec = registry_mod.IdentityRecord("adhoc", args.lhs, args.rhs,
                                          args.order or 100, "")
        reports = [registry_mod.verify(rec, evaluator=ev)]
    else:
        raise UsageError("verify needs --id, --all, or LHS RHS")
    reports.sort(key=lambda r: r.id)
    _emit_reports(args, reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_pipeline(args):
    reg = registry_mod.load_registry(args.registry)
    reports = registry_mod.verify_proof_pipeline(reg, args.target, order=args.order)
    _emit_reports(args, reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_signs(args):
    series = signscan.series_for(args.which, args.order)
    report = signscan.scan(args.which, n=args.order, series=series)
    if args.csv:
        try:
            with open(args.csv, "w", newline="") as fh:
                signscan.write_csv(fh, report, series)
        except OSError as exc:
            raise UsageError(f"cannot write {args.csv}: {exc.strerror or exc}") from None
    lines = [
        f"{'pass' if report.passed else 'FAIL'}  {args.which}  n<{args.order}"
        f"  zeros={list(report.zeros)}"
    ]
    for v in report.violations:
        lines.append(
            f"  violation at n={v.n}: coefficient {v.coefficient}"
            f" (residue {v.residue}, expected {v.expected})"
        )
    _emit(args, report.to_json, lambda: lines)
    return 0 if report.passed else 1


def cmd_list(args):
    reg = registry_mod.load_registry(args.registry)
    _emit(args,
          lambda: {"identities": [{"id": r.id, "order": r.suggested_order, "note": r.note}
                                  for r in reg]},
          lambda: [f"{r.id:24s} order={r.suggested_order:<4d} {r.note}" for r in reg])
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="qdissect",
        description="Exact q-series engine: expand, dissect, and verify "
        "Rogers-Ramanujan style product identities.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON")

    sp = sub.add_parser("expand", help="expand an expression")
    sp.add_argument("expr")
    sp.add_argument("--order", type=int, default=100)
    common(sp)
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("dissect", help="split an expansion into residue slices")
    sp.add_argument("expr")
    sp.add_argument("--mod", type=int, required=True)
    sp.add_argument("--order", type=int, default=100)
    sp.add_argument("--slice", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_dissect)

    sp = sub.add_parser("prodmake", help="recover product exponents")
    sp.add_argument("expr")
    sp.add_argument("--order", type=int, default=200)
    sp.add_argument("--period", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_prodmake)

    sp = sub.add_parser("verify", help="verify registry or ad-hoc identities")
    sp.add_argument("lhs", nargs="?", default=None)
    sp.add_argument("rhs", nargs="?", default=None)
    sp.add_argument("--id", default=None)
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--order", type=int, default=None)
    sp.add_argument("--registry", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("pipeline", help="replay a dissection proof route")
    sp.add_argument("--target", choices=registry_mod.PIPELINE_TARGETS, required=True)
    sp.add_argument("--order", type=int, default=300)
    sp.add_argument("--registry", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_pipeline)

    sp = sub.add_parser("signs", help="scan coefficient sign patterns")
    sp.add_argument("--which", choices=registry_mod.PIPELINE_TARGETS, required=True)
    sp.add_argument("--order", type=int, default=1000)
    sp.add_argument("--csv", default=None, help="write per-index rows to a CSV file")
    common(sp)
    sp.set_defaults(fn=cmd_signs)

    sp = sub.add_parser("list", help="list registry identities")
    sp.add_argument("--registry", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_list)

    return p


def _check_args(args):
    """Reject, before any work, an argument out of range."""
    for name in ("order", "mod", "period"):
        v = getattr(args, name, None)
        if v is not None and v < 1:
            raise UsageError(f"{name} must be >= 1")
    if args.command == "dissect":
        # every slice past the order would be empty
        if args.mod > args.order:
            raise UsageError(f"mod {args.mod} exceeds order {args.order}")
        if args.slice is not None and not 0 <= args.slice < args.mod:
            raise UsageError(f"slice must be in 0..{args.mod - 1}")


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):
        # large integers always print in full decimal; Python 3.11 (and
        # 3.10.7 on) caps int <-> str conversion at 4300 digits by default
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.fn(args)
    except QSeriesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
