#!/usr/bin/env python3
"""Kernels view: time ``_kernels.conv`` per size bucket, checking every result.

    python3 perfbench/kernels.py

Times the dispatch entry ``qdissect._kernels.conv`` on list operands, so a
compiled backend pays its int64-safety scan and list-to-array copy as the
engine does.  Cases cover the benchmark's trace buckets: operand lengths
short/mid/long and coefficient widths b31/b62/big.  Each case reports the
median and quartiles of ``REPS`` timings.  Every result is compared with
an independent Kronecker-substitution product (one big-integer multiply);
when a compiled backend is active, the pure backend runs again in a child
process whose exit code and JSON output are checked.
"""

import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from qdissect import _kernels  # noqa: E402

LENGTHS = {"short": 48, "mid": 400, "long": 1200}
BITS = {"b31": 20, "b62": 50, "big": 120}
SEED = 1
REPS = 7


def kronecker_conv(a, b, n):
    """Truncated product via one big-integer multiplication (signed packing)."""
    if not a or not b or n <= 0:
        return [0] * max(n, 0)
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    k = bound.bit_length() + 2
    pack = lambda xs: sum(x << (k * i) for i, x in enumerate(xs))
    p = pack(a) * pack(b)
    mask, half = (1 << k) - 1, 1 << (k - 1)
    out = []
    for _ in range(n):
        r = p & mask
        if r >= half:
            r -= 1 << k
        out.append(r)
        p = (p - r) >> k
    return out


def case(rng, length, bits):
    hi = 1 << bits
    return ([rng.randrange(-hi + 1, hi) for _ in range(length)],
            [rng.randrange(-hi + 1, hi) for _ in range(length)])


def measure():
    rng = random.Random(SEED)
    rows = []
    for lname, length in LENGTHS.items():
        for bname, bits in BITS.items():
            a, b = case(rng, length, bits)
            times, ok = [], True
            for _ in range(REPS):
                t0 = perf_counter()
                out = _kernels.conv(a, b, length)
                times.append(perf_counter() - t0)
                ok = ok and out == kronecker_conv(a, b, length)
            q = statistics.quantiles(times, n=4)
            rows.append({"case": f"{lname}.{bname}", "length": length, "bits": bits,
                         "median_s": statistics.median(times), "q1_s": q[0], "q3_s": q[2],
                         "exact": ok})
    return {"backend": _kernels.BACKEND, "rows": rows}


def pure_backend():
    env = dict(os.environ, QDISSECT_PURE_PYTHON="1")
    proc = subprocess.run([sys.executable, __file__, "--pure-child"], env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"pure-backend run failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    if sys.argv[1:] == ["--pure-child"]:
        print(json.dumps(measure()))
        return
    views = [measure()]
    if views[0]["backend"] != "python":
        views.append(pure_backend())
    exact = all(r["exact"] for v in views for r in v["rows"])
    for v in views:
        print(f"backend {v['backend']} (seed {SEED}, {REPS} reps per case)")
        for r in v["rows"]:
            print(f"  {r['case']:10s} median {r['median_s'] * 1e3:10.3f} ms"
                  f"  [q1 {r['q1_s'] * 1e3:.3f}, q3 {r['q3_s'] * 1e3:.3f}]"
                  f"  {'exact' if r['exact'] else 'WRONG'}")
    sys.exit(0 if exact else 1)


if __name__ == "__main__":
    main()
