#!/usr/bin/env python3
"""Test of the benchmark itself, at tiny orders (under a minute).

    python3 perfbench/smoke.py

For every workload it checks that
  * the untraced run emits exactly the end-to-end metrics, each with its unit,
    and the traced run exactly the per-layer metrics;
  * traced and untraced runs give the same output digest, and two traced runs
    the same exact counts;
  * with --inject-fault the wrong coefficient is counted as a failed
    operation and the run still ends cleanly, without a traceback;
and that the benchmark refuses to run, printing no result, in a directory
holding only BENCHMARK.json and perfbench/.  Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "bits")


def run(*extra, cwd=ROOT, workload="registry", trace=0):
    cmd = [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2].removeprefix("context: "))
    return context, json.loads(lines[-1])


def expect(cond, what):
    if not cond:
        raise SystemExit(f"smoke: FAIL: {what}")


def check_metrics(result, declared, label):
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{label}: metrics/units differ: {set(got.items()) ^ set(want.items())}")
    for k, v in result["metrics"].items():
        expect(isinstance(v["value"], (int, float)), f"{label}: {k} is not a number")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, "BENCHMARK.json keys")
    gated = [w["name"] for w in bench["workloads"]]
    for wl in dict.fromkeys(gated + ["pipeline"]):  # pipeline runs on demand only
        plain = run("--smoke", workload=wl)
        expect(plain.returncode == 0, f"{wl}: exit {plain.returncode}: {plain.stderr}")
        ctx, res = parse(plain)
        expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{wl}: result keys")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"{wl}: not correct: {ctx['problems']} {ctx['failed_ops']}")
        check_metrics(res, bench["end_to_end"], f"{wl} untraced")

        traced = [parse(run("--smoke", workload=wl, trace=1)) for _ in range(2)]
        for tctx, tres in traced:
            expect(tres["correct"], f"{wl} traced: {tctx['problems']}")
            check_metrics(tres, bench["per_layer"], f"{wl} traced")
            expect(tctx["digest"] == ctx["digest"], f"{wl}: traced digest differs")
        counts = [{m["name"]: tres["metrics"][m["name"]]["value"] for m in bench["per_layer"]
                   if m["unit"] in COUNT_UNITS} for _, tres in traced]
        expect(counts[0] == counts[1], f"{wl}: exact counts differ between traced runs")

        bad = run("--smoke", "--inject-fault", workload=wl)
        expect(bad.returncode == 0, f"{wl} injected: exit {bad.returncode}")
        expect("Traceback" not in bad.stdout + bad.stderr, f"{wl} injected: traceback")
        bctx, bres = parse(bad)
        expect(bres["failed"] >= 1 and not bres["correct"] and bctx["fail_ratio"] > 0,
               f"{wl} injected: fault not counted ({bres['failed']} failed)")
        print(f"smoke: {wl}: ok (digest {ctx['digest'][:12]}, injected fault failed "
              f"{bres['failed']} of {bres['attempted']})")

    bare = Path(tempfile.mkdtemp(prefix="perfbench-smoke-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and not last.startswith("{"),
               "a directory without sources must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: bare directory refused: ok")
    print("smoke: PASS")


if __name__ == "__main__":
    main()
