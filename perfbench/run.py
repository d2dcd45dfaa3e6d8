#!/usr/bin/env python3
"""The qdissect benchmark: one workload per invocation, in a fresh interpreter.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; ``qdissect`` is imported from its ``src``.
With ``--trace 0`` it times passes until ``--seconds`` have elapsed and
reports the end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``);
with ``--trace 1`` it alternates an untraced and a traced pass and reports
the per-layer metrics.  Every output is checked; human-readable lines come
first, then a context line (``context: {...}``, not gated), and the last
line is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
See README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "qdissect" / "__init__.py").is_file():
    sys.exit(f"no qdissect sources at {SRC}: run from a qdissect checkout")
sys.path.insert(0, str(SRC))
os.environ.pop("QDISSECT_PURE_PYTHON", None)  # measure the default backend

import qdissect  # noqa: E402
from qdissect import registry  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 15
SETUP_CODE = "import qdissect; qdissect.load_registry()"


def setup_probe():
    """Wall time of interpreter start + ``import qdissect`` + ``load_registry()``."""
    # No timeout: with one, CPython polls for the child's exit with sleeps of
    # up to 50 ms, which quantizes the measurement.
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], check=True, stdout=subprocess.DEVNULL,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    return perf_counter() - t0


def timed_pass(wl, tracer=None):
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = perf_counter()
        outputs = wl.run_pass()
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, outputs


def src_lines():
    """Line count of the hand-written sources under src/ (.py and .pyx)."""
    files = [p for p in SRC.rglob("*") if p.suffix in (".py", ".pyx") and p.is_file()]
    return sum(len(p.read_text().splitlines()) for p in files)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure(wl, seconds, trace):
    """Time passes for ``seconds``; returns the raw record of the run."""
    digest = lambda outputs: hashlib.sha256(wl.digest_text(outputs).encode()).hexdigest()
    tracer = Tracer() if trace else None
    load_s = []
    if tracer is not None:
        for _ in range(5):
            t0 = perf_counter()
            registry.load_registry()
            load_s.append(perf_counter() - t0)

    # Setup probes are spread over the run, between passes, so that the
    # machine's slow and fast phases weigh on setup_s as on wall_s.
    setup_s = []
    probes = 0 if trace else SETUP_PROBES
    if probes:
        setup_probe()  # the first start may still be writing bytecode caches

    walls, traced_walls, layers = [], [], []
    first = None
    digests = set()
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        due = max(1, int(probes * (perf_counter() - start) / seconds))
        while len(setup_s) < min(due, probes):
            setup_s.append(setup_probe())
        wall, outputs = timed_pass(wl)
        walls.append(wall)
        if first is None:
            first = outputs
        digests.add(digest(outputs))
        if tracer is not None:
            wall, outputs = timed_pass(wl, tracer)
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics(wall))
            digests.add(digest(outputs))
        del outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_s) < probes:
        setup_s.append(setup_probe())

    problems = []
    if len(digests) != 1:
        problems.append(f"passes gave {len(digests)} different outputs")
    per_layer = {}
    if tracer is not None:
        for key in layers[0]:
            values = [m[key] for m in layers]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    problems.append(f"count {key} differs between traced passes: {values}")
                per_layer[key] = values[0]
            else:
                per_layer[key] = statistics.median(values)
        per_layer["registry.load_registry.s"] = statistics.median(load_s)
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return {"first": first, "digest": digests.pop() if len(digests) == 1 else None,
            "problems": problems, "walls": walls, "traced_walls": traced_walls,
            "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "per_layer": per_layer}


def judge(wl, first):
    """The program's verdicts against the independent checks.

    Returns (operations per pass, failed operations, problems, widest
    output coefficient in bits).
    """
    verdicts = wl.verdicts(first)
    truth, bits = wl.check(first)
    problems = [f"{op}: program says {'pass' if said else 'fail'}, "
                f"independent check says {'equal' if truth[op] else 'different'}"
                for op, said in sorted(verdicts.items(), key=str)
                if op in truth and truth[op] != said]
    failed = sorted(str(op) for op, ok in verdicts.items() if not ok or truth.get(op) is False)
    return len(verdicts), failed, problems, bits


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny orders, for the benchmark's own test (smoke.py)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt one coefficient, to show it is counted as failed")
    args = ap.parse_args()

    src = SRC.resolve()
    if src not in Path(qdissect.__file__).resolve().parents:
        sys.exit(f"qdissect imported from {qdissect.__file__}, not from {src}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    rng = random.Random(f"{args.workload}/{args.seed}")
    # The CLI reads the registry and writes CSV only through paths.
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = WORKLOADS[args.workload](rng, args.smoke, args.inject_fault, workdir)
        run = measure(wl, args.seconds, args.trace)
        ops, failed_ops, problems, bits = judge(wl, run["first"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = run["problems"] + problems

    walls, traced_walls = run["walls"], run["traced_walls"]
    passes = len(walls) + len(traced_walls)
    attempted, failed = ops * passes, len(failed_ops) * passes
    if args.trace:
        values, declared = run["per_layer"], bench["per_layer"]
    else:
        values = {"setup_s": statistics.median(run["setup_s"]),
                  "wall_s": statistics.median(walls), "peak_rss_mb": run["peak_rss_mb"]}
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "kernel_backend": qdissect.kernel_backend,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "digest": run["digest"],
        "max_coeff_bits": bits,
        "passes": len(walls),
        "pass_walls_s": walls,
        "traced_walls_s": traced_walls or None,
        "setup_probes_s": run["setup_s"],
        "fail_ratio": failed / attempted,
        "failed_ops": failed_ops,
        "problems": problems,
        **wl.context(),
    }
    correct = not problems and failed == 0 and run["digest"] is not None
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"fail_ratio = {context['fail_ratio']!r} ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("context: " + json.dumps(context))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
