"""The traced benchmark wraps library entry points by name and reads some of
their arguments by position.  A refactor that drops or renames one of them
must fail here, in the unit tests, not only in a traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

import qdissect
# The tracer wraps only modules already imported, and the CLI imports
# dissection and prodmake only in the commands that use them.
import qdissect.cli  # noqa: F401
import qdissect.dissection  # noqa: F401
import qdissect.prodmake  # noqa: F401
from qdissect import products
from qdissect.exprlang import Evaluator
from qdissect.series import Series

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_entry_point():
    spans = load_spans()
    want = Evaluator().eval("R(q)^2/R(q^2)", 50)
    pow_before = Series.pow
    tracer = spans.Tracer()
    tracer.install()  # raises RuntimeError for an entry point that is never looked up
    try:
        got = Evaluator().eval("R(q)^2/R(q^2)", 50)
    finally:
        tracer.uninstall()
    assert got == want
    assert tracer.calls["exprlang.eval"] == 1
    assert tracer.calls["products.expand"] >= 1
    assert Series.pow is pow_before


def test_names_and_positions_the_hooks_read():
    assert hasattr(qdissect, "kernel_backend")
    # spans._apply_factor_hook reads the power as args[3]
    assert list(inspect.signature(products._apply_factor).parameters)[3] == "e"
