"""The value base class that every immutable series, record and AST node shares."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from qdissect._value import Value
from qdissect.dissection import Dissection
from qdissect.exprlang import (
    Add, Div, Evaluator, Func, Mul, Neg, Pow, Sub, Subst, Term, parse,
)
from qdissect.prodmake import EtaExponents, PeriodView
from qdissect.products import PochFactor, QProduct
from qdissect.registry import DissectionSpec, IdentityRecord, VerifyReport
from qdissect.series import Series
from qdissect.signscan import ScanReport, SignRule, Violation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_RULE = SignRule(5, {0, 2, 4}, {1, 3})
_VIEW = PeriodView(5, {1: -1, 4: -1}, {}, {})
_Q = Term(1, 1, QProduct(()))
EXAMPLES = [
    Term(-3, 2, QProduct((PochFactor(1, 1, 5, -1),))), Func("Gsum"),
    Add(Func("psi"), _Q), Sub(_Q, Func("Hsum")), Mul(_Q, Func("Gsum")),
    Div(_Q, Func("Hsum")), Neg(Func("psi")), Pow(Func("Gsum"), -2), Subst(Func("phi", -1), 2),
    PochFactor(1, 1, 5), QProduct((PochFactor(-1, 2, 5, 3),)),
    IdentityRecord("r", "G(q)", "Gsum(q)", 100, ""), VerifyReport("r", 100, True),
    DissectionSpec("alpha", "k/q", "alpha-5dis", 5, 5, ((1, 0, "JP(;q;q)"),)),
    _VIEW, EtaExponents({1: -1}, 10, _VIEW),
    _RULE, Violation(3, -2, 3, "positive"), ScanReport("gamma", 10, _RULE, (), (7,)),
    Dissection(2, (Series.one(3), Series.zero(3)), 6), Series.one(3),
]


def test_every_value_class_has_an_example():
    classes = {type(v) for v in EXAMPLES}
    assert len(classes) == len(EXAMPLES) == 21


@pytest.mark.parametrize("v", EXAMPLES, ids=lambda v: type(v).__name__)
def test_value_semantics_come_from_the_base(v):
    cls = type(v)
    assert isinstance(v, Value)
    assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    assert not hasattr(v, "__dict__")  # slotted
    twin = cls(*(getattr(v, name) for name in cls.__slots__))
    assert twin == v and not twin != v
    assert copy.copy(v) == v
    assert pickle.loads(pickle.dumps(v)) == v
    assert repr(v).startswith(f"{cls.__name__}(")
    if cls.__slots__:
        field = cls.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(v, field, getattr(v, field))
        with pytest.raises(AttributeError):
            delattr(v, field)
    with pytest.raises(AttributeError):
        v.extra = 1


def test_series_copy_and_pickle_but_do_not_hash():
    s = Series(-3, [10**60, 0, -(7**90), 5], 40)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s
        assert (twin.val, twin.coeffs, twin.order) == (-3, [10**60, 0, -(7**90), 5], 40)
    assert copy.deepcopy(s).coeffs is not s.coeffs
    with pytest.raises(TypeError):
        hash(s)


def test_nodes_are_equal_only_within_one_class():
    a, b = Func("Gsum"), Func("psi")
    assert Add(a, b) != Mul(a, b)
    assert Add(a, b) == Add(Func("Gsum"), Func("psi"))
    assert hash(Add(a, b)) == hash(Add(Func("Gsum"), Func("psi")))
    assert Add(a, b) != (a, b)
    assert repr(Add(a, b)) == ("Add(left=Func(name='Gsum', sign=1), "
                               "right=Func(name='psi', sign=1))")


def test_equal_trees_from_different_texts_share_one_cache_entry():
    x = parse("subst(G(q), 2)*(R(q) + 1)")
    y = parse("(G(q^2)) * (R(q)+1)")
    assert x is not y and x == y and hash(x) == hash(y)
    ev = Evaluator()
    sx = ev.eval(x, 40)
    size = len(ev._cache)
    assert ev.eval(y, 40) == sx
    assert len(ev._cache) == size


def test_defaults_and_keywords():
    assert Func("Gsum") == Func("Gsum", 1) == Func(name="Gsum") and Func("Gsum").sign == 1
    assert Func("phi", sign=-1).sign == -1
    r = VerifyReport("adhoc", 50, False, error="ParseError: boom")
    assert r.error == "ParseError: boom" and r.mismatch_exponent is None
    assert r == VerifyReport(id="adhoc", order=50, passed=False, error="ParseError: boom")
    assert PochFactor(1, 2, 5).power == 1
    assert SignRule(5, {0}, {1, 2, 3, 4}).exceptions == frozenset()
    with pytest.raises(TypeError, match="takes 2 arguments"):
        Func("Gsum", 1, 2)
    with pytest.raises(TypeError, match="missing argument 'right'"):
        Add(Func("psi"))
    with pytest.raises(TypeError, match="unexpected or repeated argument 'name'"):
        Func("Gsum", name="Hsum")
    with pytest.raises(TypeError, match="unexpected or repeated argument 'nope'"):
        Term(1, 0, QProduct(()), nope=2)


@pytest.mark.parametrize("name", ["G", "H", "R", "Rinv", "k", "JP", "W"])
def test_func_takes_only_sum_sides(name):
    # the named products are Terms; a Func of one would fail only when evaluated
    with pytest.raises(ValueError, match=f"not {name!r}"):
        Func(name)


@pytest.mark.parametrize("args, message", [
    ((2, 1, 5), r"sign must be \+1 or -1"),
    ((1, 1, 0), "modulus must be positive"),
    ((1, -1, 5), "offset must be nonnegative"),
    ((-1, 0, 5), "offset 0 would make a zero or non-unit factor"),
])
def test_poch_factor_validation(args, message):
    with pytest.raises(ValueError, match=message):
        PochFactor(*args)
    with pytest.raises(ValueError, match=message):
        PochFactor(*args[:2], modulus=args[2], power=3)


def test_normalised_fields():
    f = PochFactor(1, 1, 5)
    assert QProduct([f]).factors == (f,) and QProduct([f]) == QProduct((f,))
    rule = SignRule(5, [0, 2, 4], (1, 3), [2])
    assert rule.positive == frozenset({0, 2, 4}) and rule.exceptions == frozenset({2})
    assert hash(rule) == hash(SignRule(5, {0, 2, 4}, {1, 3}, {2}))
    with pytest.raises(ValueError, match="positive/negative residues must partition 0..modulus-1"):
        SignRule(5, {0, 1}, {1, 2, 3, 4})
    with pytest.raises(ValueError, match="positive/negative residues must partition 0..modulus-1"):
        SignRule(modulus=5, positive={0}, negative={1, 2})


def test_cli_import_stays_light():
    """``import qdissect.cli`` loads no data-class or typing machinery and
    none of the modules only some commands need."""
    heavy = ("dataclasses", "inspect", "typing", "importlib.resources", "pathlib", "csv",
             "qdissect.dissection", "qdissect.prodmake")
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import qdissect.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
