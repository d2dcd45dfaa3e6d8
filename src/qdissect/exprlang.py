"""A small expression language for q-series identities.

Grammar (whitespace-insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' ['-'] INT]
    atom   := INT | 'q' | 'k' | call | jp | '(' expr ')'
    call   := NAME '(' arg ')'            NAME in G H R Rinv Gsum Hsum psi
            | 'phi' '(' ['-'] arg ')'
            | 'subst' '(' expr ',' INT ')'
    arg    := 'q' ['^' INT] | 'subst' '(' arg ',' INT ')'
    jp     := 'JP' '(' items ';' items ';' 'q' ['^' INT] ')'
    items  := [ ['-'] 'q' ['^' INT] (',' ['-'] 'q' ['^' INT])* ]

``JP(a1,...;b1,...;q^m)`` is the quotient of Pochhammer products
(a1,...;q^m)/(b1,...;q^m); ``subst(e, m)`` substitutes q -> q^m, and a call
like ``G(q^2)`` is sugar for ``subst(G(q), 2)``.
"""

import re
from dataclasses import dataclass
from math import gcd
from typing import Optional

from . import products
from .errors import NonUnitLeadingCoefficient, ParseError
from .products import PochFactor, QProduct
from .series import Series

_CALL_NAMES = ("G", "H", "R", "Rinv", "Gsum", "Hsum", "psi", "phi")

# Deepest AST and bracket nesting ``parse`` accepts (the registry needs 15).
MAX_DEPTH = 100


# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class QVar:
    pass


@dataclass(frozen=True)
class Func:
    name: str
    sign: int = 1  # only phi distinguishes phi(q) from phi(-q)


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Subst:
    operand: object
    power: int


@dataclass(frozen=True)
class JP:
    numerator: tuple  # of (sign, offset)
    denominator: tuple
    base: int


# -- tokenizer ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([-+*/^(),;]))")


def _tokenize(text):
    tokens = []
    pos = nesting = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(n - len(stripped), f"unexpected character {stripped[0]!r}")
        if m.group(1):
            tokens.append(("INT", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("NAME", m.group(2), m.start(2)))
        else:
            tokens.append(("OP", m.group(3), m.start(3)))
            nesting += (m.group(3) == "(") - (m.group(3) == ")")
            if nesting > MAX_DEPTH:  # the parser recurses once per bracket
                raise ParseError(m.start(3), f"brackets nested deeper than {MAX_DEPTH} levels")
        pos = m.end()
    tokens.append(("END", None, n))
    return tokens


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "OP" or val != op:
            raise ParseError(pos, f"expected {op!r}")
        return pos

    def expect_int(self):
        kind, val, pos = self.next()
        if kind != "INT":
            raise ParseError(pos, "expected an integer")
        return val

    def at_op(self, *ops):
        kind, val, _ = self.peek()
        return kind == "OP" and val in ops

    def deeper(self, depth, pos):
        """Depth of a node over a child of ``depth`` (the expression
        productions return (node, depth)), at most MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ParseError(pos, f"expression nested deeper than {MAX_DEPTH} levels")
        return depth + 1

    def parse(self):
        e, _ = self.expr()
        kind, val, pos = self.peek()
        if kind != "END":
            raise ParseError(pos, f"unexpected trailing input {val!r}")
        return e

    def expr(self):
        minus = self.at_op("-") and self.next()
        node, depth = self.term()
        if minus:
            node, depth = Neg(node), self.deeper(depth, minus[2])
        while self.at_op("+", "-"):
            _, op, pos = self.next()
            rhs, d = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
            depth = self.deeper(max(depth, d), pos)
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.at_op("*", "/"):
            _, op, pos = self.next()
            rhs, d = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
            depth = self.deeper(max(depth, d), pos)
        return node, depth

    def factor(self):
        node, depth = self.atom()
        if self.at_op("^"):
            _, _, pos = self.next()
            neg = False
            if self.at_op("-"):
                self.next()
                neg = True
            n = self.expect_int()
            n = -n if neg else n
            if n == 0:
                node, depth = IntLit(1), 1
            elif n != 1:
                node, depth = Pow(node, n), self.deeper(depth, pos)
        return node, depth

    def atom(self):
        kind, val, pos = self.next()
        if kind == "INT":
            return IntLit(val), 1
        if kind == "OP" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "NAME":
            if val == "q":
                return QVar(), 1
            if val == "k":
                return Func("k"), 1
            if val == "JP":
                return self.jp(pos), 1
            if val == "subst":
                self.expect_op("(")
                inner, depth = self.expr()
                self.expect_op(",")
                m = self.expect_int()
                self.expect_op(")")
                if m < 1:
                    raise ParseError(pos, "substitution power must be >= 1")
                return (inner, depth) if m == 1 else (Subst(inner, m), self.deeper(depth, pos))
            if val in _CALL_NAMES:
                return self.call(val, pos)
            raise ParseError(pos, f"unknown name {val!r}")
        raise ParseError(pos, "expected an atom")

    def call(self, name, pos):
        self.expect_op("(")
        sign = 1
        if name == "phi" and self.at_op("-"):
            self.next()
            sign = -1
        m = self.q_power_arg()
        self.expect_op(")")
        if m < 1:
            raise ParseError(pos, "substitution power must be >= 1")
        node = Func(name, sign) if name == "phi" else Func(name)
        return (node, 1) if m == 1 else (Subst(node, m), 2)

    def q_power_arg(self):
        """Argument of a named function: a (possibly substituted) power of q."""
        kind, val, pos = self.next()
        if kind == "NAME" and val == "q":
            if self.at_op("^"):
                self.next()
                return self.expect_int()
            return 1
        if kind == "NAME" and val == "subst":
            self.expect_op("(")
            inner = self.q_power_arg()
            self.expect_op(",")
            m = self.expect_int()
            self.expect_op(")")
            return inner * m
        raise ParseError(pos, "function argument must be a power of q")

    def jp(self, pos):
        self.expect_op("(")
        num = self.jp_items()
        self.expect_op(";")
        den = self.jp_items()
        self.expect_op(";")
        base = self.q_power_arg()
        self.expect_op(")")
        if base < 1:
            raise ParseError(pos, "product base modulus must be >= 1")
        return JP(tuple(num), tuple(den), base)

    def jp_items(self):
        items = []
        if self.at_op(";") or self.at_op(")"):
            return items
        while True:
            sign = 1
            if self.at_op("-"):
                self.next()
                sign = -1
            kind, val, pos = self.next()
            if kind != "NAME" or val != "q":
                raise ParseError(pos, "expected q or -q in product list")
            j = 1
            if self.at_op("^"):
                self.next()
                j = self.expect_int()
            if j < 1:
                raise ParseError(pos, "product offset must be >= 1")
            items.append((sign, j))
            if self.at_op(","):
                self.next()
                continue
            return items


def parse(text):
    """Parse expression text into an AST; raises ParseError with an offset,
    also for trees or brackets nested deeper than MAX_DEPTH."""
    return _Parser(text).parse()


# -- printer -----------------------------------------------------------------


def _prec(e):
    if isinstance(e, (Add, Sub, Neg)):
        return 1
    if isinstance(e, (Mul, Div)):
        return 2
    if isinstance(e, Pow):
        return 3
    return 4


def _wrap(e, minimum):
    t = to_text(e)
    return f"({t})" if _prec(e) < minimum else t


def _qpow(m):
    return "q" if m == 1 else f"q^{m}"


def to_text(e):
    """Canonical text form; parse(to_text(e)) == e."""
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, QVar):
        return "q"
    if isinstance(e, Func):
        if e.name == "k":
            return "k"
        arg = "-q" if e.sign < 0 else "q"
        return f"{e.name}({arg})"
    if isinstance(e, Subst):
        inner = e.operand
        if isinstance(inner, Func) and inner.name != "k":
            arg = _qpow(e.power)
            if inner.sign < 0:
                arg = "-" + arg
            return f"{inner.name}({arg})"
        return f"subst({to_text(inner)}, {e.power})"
    if isinstance(e, Add):
        return f"{_wrap(e.left, 1)} + {_wrap(e.right, 2)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, 1)} - {_wrap(e.right, 2)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, 2)}*{_wrap(e.right, 3)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, 2)}/{_wrap(e.right, 3)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.operand, 2)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, 4)}^{e.exponent}"
    if isinstance(e, JP):
        num = ",".join(("-" if s < 0 else "") + _qpow(j) for s, j in e.numerator)
        den = ",".join(("-" if s < 0 else "") + _qpow(j) for s, j in e.denominator)
        return f"JP({num};{den};{_qpow(e.base)})"
    raise TypeError(f"not an expression node: {e!r}")


# -- evaluator ----------------------------------------------------------------

# Named series that abbreviate expression text; G, H, R, Rinv are products.
_ABBREVIATIONS = {name: parse(text) for name, text in (
    ("G", "JP(;q,q^4;q^5)"), ("H", "JP(;q^2,q^3;q^5)"),
    ("R", "JP(q,q^4;q^2,q^3;q^5)"), ("Rinv", "JP(q^2,q^3;q,q^4;q^5)"),
    ("k", "q*R(q)*R(q^2)^2"),
)}

_FUNC_EVAL = {"Gsum": products.G_sum, "Hsum": products.H_sum, "psi": products.psi}


def _as_product(e):
    """QProduct of a JP node, G, H, R, Rinv, or a Subst or Pow of one; else None."""
    if isinstance(e, Func) and e.name in _ABBREVIATIONS:
        e = _ABBREVIATIONS[e.name]
    if isinstance(e, JP):
        return QProduct([PochFactor(s, j, e.base, 1) for s, j in e.numerator]
                        + [PochFactor(s, j, e.base, -1) for s, j in e.denominator])
    if isinstance(e, Subst):
        p = _as_product(e.operand)
        return None if p is None else p.transform(subst=e.power)
    if isinstance(e, Pow):
        p = _as_product(e.base)
        return None if p is None else p.transform(scale=e.exponent)
    return None


class Evaluator:
    """Evaluates ASTs to Series, caching shared subexpressions by text."""

    def __init__(self):
        self._cache = {}

    def eval(self, e, order, _slack=16):
        """Series of e trusted below ``order`` exactly.

        Laurent intermediates (division by a positive-valuation series)
        erode the working order, so evaluate with slack and retry deeper
        if the result comes back short.
        """
        if isinstance(e, str):
            e = parse(e)
        if order < 1:
            raise ValueError("order must be >= 1")
        while True:
            s = self._eval(e, order + _slack)
            if s.order >= order:
                return s.truncate(order)
            _slack = 2 * _slack + (order - s.order)

    def _eval(self, e, m):
        key = (to_text(e), m)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        s = self._eval_uncached(e, m)
        self._cache[key] = s
        return s

    def _eval_uncached(self, e, m):
        p = _as_product(e)
        if p is not None:
            return products.product_expand(p, m)
        if isinstance(e, IntLit):
            return Series(0, [e.value], m)
        if isinstance(e, QVar):
            return Series.monomial(1, 1, m)
        if isinstance(e, Func):
            if e.name == "phi":
                return products.phi(e.sign, m)
            if e.name in _ABBREVIATIONS:
                return self._eval(_ABBREVIATIONS[e.name], m)
            return _FUNC_EVAL[e.name](m)
        if isinstance(e, Subst):
            inner = self._eval(e.operand, (m + e.power - 1) // e.power)
            return inner.substitute_power(e.power).truncate(m)
        if isinstance(e, Add):
            return self._eval(e.left, m).add(self._eval(e.right, m))
        if isinstance(e, Sub):
            return self._eval(e.left, m).sub(self._eval(e.right, m))
        if isinstance(e, Neg):
            return self._eval(e.operand, m).negate()
        if isinstance(e, Mul):
            return self._eval(e.left, m).mul(self._eval(e.right, m))
        if isinstance(e, Div):
            if _as_product(e.right) is not None:
                # a product inverts by negating its powers: no Newton step
                return self._eval(e.left, m).mul(self._eval(Pow(e.right, -1), m))
            return _exact_div(self._eval(e.left, m), self._eval(e.right, m))
        if isinstance(e, Pow):
            if e.exponent < 0:
                base = self._eval(e.base, m).pow(-e.exponent)
                return _exact_div(Series.one(base.order), base)
            return self._eval(e.base, m).pow(e.exponent)
        raise TypeError(f"not an expression node: {e!r}")


def _exact_div(a, b):
    """a/b over the integers.

    When b's leading coefficient is not +-1 the quotient can still be
    integral if the leading coefficient divides all of b (so b = g * unit)
    and the final result divides by g exactly; both conditions are checked
    and anything else raises NonUnitLeadingCoefficient.  This is what makes
    ratios whose displayed numerator and denominator share a constant
    factor (both sides even, say) evaluable without rational arithmetic.
    """
    lead = b.leading_coefficient()
    if lead in (1, -1):
        return a.mul(b.invert())
    g = 0
    for c in b.coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    if g == 0 or abs(lead) != g:
        # content does not reduce the leading coefficient to a unit
        return a.mul(b.invert())  # raises with the precise message
    scaled = a.mul(b.exact_scalar_div(g).invert())
    try:
        return scaled.exact_scalar_div(g)
    except ValueError:
        raise NonUnitLeadingCoefficient(
            f"quotient needs rational coefficients (content {g} of the "
            "denominator does not divide the numerator)"
        ) from None


def evaluate(e, order, evaluator: Optional[Evaluator] = None):
    """One-shot evaluation of an AST or source text."""
    return (evaluator or Evaluator()).eval(e, order)
