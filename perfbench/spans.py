"""Per-layer spans for the traced benchmark run.

Wrappers are installed from outside the program: each entry point listed in
``ENTRY_POINTS`` is replaced at every place it can be looked up -- module
globals, dicts held in module globals (``exprlang._FUNC_EVAL``) and class
dicts (``Series.__mul__`` is the same function object as ``Series.mul``).
A private helper (leading underscore) is wrapped only where another module
imported it, so ``prodmake``'s use of ``products._apply_factor`` becomes a
span while the products layer's own passes stay in its own spans.

A span's self time is its duration minus the time covered by the spans it
opened.  ``coverage`` is the share of a pass covered by spans other than
``cli.main``: the CLI span covers everything, so counting it would hide a
missed entry point.
"""

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute or "Class.method", span name)
ENTRY_POINTS = (
    ("cli", "main", "cli.main"),
    ("registry", "load_registry", "registry.load_registry"),
    ("registry", "verify", "registry.verify"),
    ("exprlang", "parse", "exprlang.parse"),
    ("exprlang", "Evaluator.eval", "exprlang.eval"),
    ("products", "product_expand", "products.expand"),
    ("products", "poch_expand", "products.expand"),
    ("products", "G_sum", "products.sum_side"),
    ("products", "H_sum", "products.sum_side"),
    ("products", "phi", "products.sum_side"),
    ("products", "psi", "products.sum_side"),
    ("products", "_apply_factor", "products.apply_factor"),
    ("series", "Series.add", "series.add"),
    ("series", "Series.mul", "series.mul"),
    ("series", "Series.pow", "series.pow"),
    ("series", "Series.invert", "series.invert"),
    ("_kernels", "conv", "kernels.conv"),
    ("dissection", "dissect", "dissection.dissect"),
    ("prodmake", "prodmake", "prodmake.prodmake"),
    ("prodmake", "expand_exponents", "prodmake.expand_exponents"),
    ("prodmake", "detect_period", "prodmake.detect_period"),
    ("signscan", "series_for", "signscan.series_for"),
    ("signscan", "scan", "signscan.scan"),
    ("signscan", "write_csv", "signscan.write_csv"),
)

NOT_COVERING = frozenset({"cli.main"})

LEN_BUCKETS = ("short", "mid", "long")
BIT_BUCKETS = ("b31", "b62", "big")


def len_bucket(n):
    return "short" if n < 64 else ("long" if n >= 1024 else "mid")


def bit_bucket(bits):
    return "b31" if bits <= 31 else ("b62" if bits <= 62 else "big")


def schoolbook_mults(la, lb, n):
    """Products a[i]*b[j] with i < la, j < lb, i + j < n (computed, not counted).

    The pure kernel skips zero entries, so it performs at most this many.
    """
    a = min(la, n)
    if a <= 0 or lb <= 0:
        return 0
    full = max(0, min(n - lb + 1, a))  # rows i whose whole b-range fits
    rest = a - full  # rows i >= full contribute n - i each
    return full * lb + rest * n - (a * (a - 1) - full * (full - 1)) // 2


def factor_passes(factors, n):
    """Pochhammer passes of one expansion, from its arguments.

    Each factor contributes |power| passes for each d in
    range(offset, n, modulus), or one convolution when |power| > 8.
    """
    total = 0
    for f in factors:
        e = abs(f.power)
        total += len(range(f.offset, n, f.modulus)) * (e if e <= 8 else 1)
    return total


def newton_rounds(s):
    """Doubling rounds ``Series.invert`` runs for ``s`` (0 if it raises)."""
    if not s.coeffs:
        return 0
    m, k, rounds = s.order - s.val, 1, 0
    while k < m:
        k = min(2 * k, m)
        rounds += 1
    return rounds


def _max_bits(xs):
    return max(map(abs, xs), default=0).bit_length()


class Tracer:
    """Span accounting for one process; ``install`` / ``uninstall`` toggle it."""

    def __init__(self):
        self._patches = []  # (setter, original)
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.covered_s = 0.0
        self._stack = []  # child-time accumulators of the open spans
        self._covering_depth = 0

    # -- span bookkeeping ----------------------------------------------------

    def _wrap(self, name, fn, hook):
        covering = name not in NOT_COVERING

        def span(*args, **kwargs):
            stack = self._stack
            if covering:
                self._covering_depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_dt = dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if covering:
                    self._covering_depth -= 1
                    if self._covering_depth == 0:
                        self.covered_s += dt
                self.calls[name] += 1
                self.self_s[name] += self_dt
            if hook is not None:
                # hook time is tracing overhead: keep it out of the parent's self time
                h0 = perf_counter()
                hook(self, args, result, self_dt)
                if stack:
                    stack[-1] += perf_counter() - h0
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every entry point at every place it is looked up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "qdissect" or k.startswith("qdissect.")]
        for modname, attr, name in ENTRY_POINTS:
            home = importlib.import_module(f"qdissect.{modname}")
            owner = home
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            leaf = attr.rsplit(".", 1)[-1]
            original = vars(owner)[leaf]
            wrapper = self._wrap(name, original, _HOOKS.get(name))
            private = leaf.startswith("_") and not leaf.startswith("__")
            found = 0
            for mod in modules:
                if private and mod is home:
                    continue
                found += self._replace_in(mod, original, wrapper)
            if found == 0:
                self.uninstall()
                raise RuntimeError(f"entry point {modname}.{attr} is never looked up")

    def _replace_in(self, mod, original, wrapper):
        found = 0
        for key, val in list(vars(mod).items()):
            if val is original:
                self._patch(mod, key, original, wrapper)
                found += 1
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is original:
                        self._patch_item(val, k, original, wrapper)
                        found += 1
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for k, v in list(vars(val).items()):
                    if v is original:
                        self._patch(val, k, original, wrapper)
                        found += 1
        return found

    def _patch(self, obj, key, original, wrapper):
        setattr(obj, key, wrapper)
        self._patches.append((lambda v, o=obj, k=key: setattr(o, k, v), original))

    def _patch_item(self, d, key, original, wrapper):
        d[key] = wrapper
        self._patches.append((lambda v, d=d, k=key: d.__setitem__(k, v), original))

    def uninstall(self):
        for setter, original in reversed(self._patches):
            setter(original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def layer_metrics(self, wall_s):
        """Per-layer metrics of one traced pass, named ``<module>.<entry>.<q>``."""
        c, s, k = self.calls, self.self_s, self.counts
        out = {}
        for name in ("exprlang.parse", "exprlang.eval", "products.expand",
                     "series.invert", "kernels.conv", "dissection.dissect",
                     "registry.verify", "products.apply_factor"):
            out[f"{name}.calls"] = c[name]
        for name in ("exprlang.parse", "exprlang.eval", "products.expand",
                     "products.sum_side", "products.apply_factor", "series.mul",
                     "series.pow", "series.add", "series.invert", "kernels.conv",
                     "dissection.dissect", "prodmake.prodmake",
                     "prodmake.expand_exponents", "prodmake.detect_period",
                     "registry.verify", "signscan.series_for", "signscan.scan",
                     "signscan.write_csv", "cli.main"):
            out[f"{name}.self_s"] = s[name]
        for key in ("products.expand.factor_passes",
                    "products.apply_factor.factor_passes",
                    "series.invert.newton_rounds", "kernels.conv.mults",
                    "kernels.conv.max_bits", "registry.verify.coeffs_compared"):
            out[key] = k[key]
        for lb in LEN_BUCKETS:
            for bb in BIT_BUCKETS:
                b = f"kernels.conv.{lb}.{bb}"
                out[f"{b}.calls"] = c[b]
                out[f"{b}.self_s"] = s[b]
        out["trace.coverage"] = self.covered_s / wall_s if wall_s > 0 else 0.0
        return out


# -- count hooks: exact work counts derived from arguments and results -------


def _expand_hook(t, args, result, _dt):
    first, n = args[0], args[1]
    factors = first.factors if hasattr(first, "factors") else (first,)
    t.counts["products.expand.factor_passes"] += factor_passes(factors, n)


def _apply_factor_hook(t, args, result, _dt):
    e = abs(args[3])
    t.counts["products.apply_factor.factor_passes"] += e if e <= 8 else 1


def _invert_hook(t, args, result, _dt):
    t.counts["series.invert.newton_rounds"] += newton_rounds(args[0])


def _conv_hook(t, args, result, dt):
    a, b, n = args
    bits = max(_max_bits(a), _max_bits(b))
    bucket = f"kernels.conv.{len_bucket(min(n, max(len(a), len(b))))}.{bit_bucket(bits)}"
    t.calls[bucket] += 1
    t.self_s[bucket] += dt
    t.counts["kernels.conv.mults"] += schoolbook_mults(len(a), len(b), n)
    if bits > t.counts["kernels.conv.max_bits"]:
        t.counts["kernels.conv.max_bits"] = bits


def _verify_hook(t, args, report, _dt):
    # coefficients q^0 .. q^(order-1), or up to the first mismatch
    if report.error is not None:
        compared = 0
    elif report.passed:
        compared = report.order
    else:
        compared = report.mismatch_exponent + 1
    t.counts["registry.verify.coeffs_compared"] += compared


_HOOKS = {
    "products.expand": _expand_hook,
    "products.apply_factor": _apply_factor_hook,
    "series.invert": _invert_hook,
    "kernels.conv": _conv_hook,
    "registry.verify": _verify_hook,
}
