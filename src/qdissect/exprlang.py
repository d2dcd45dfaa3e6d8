"""A small expression language for q-series identities.

Grammar (whitespace-insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' ['-'] INT]
    atom   := INT | 'q' | 'k' | call | jp | '(' expr ')'
    call   := NAME '(' arg ')'        NAME in {G, H, R, Rinv, Gsum, Hsum, psi, phi}
            | 'subst' '(' expr ',' INT ')'
    arg    := an expression equal to q^j, j >= 1; also -q^j for phi and JP items
    jp     := 'JP' '(' [items] ';' [items] ';' arg ')'
    items  := arg (',' arg)*

``JP(a1,...;b1,...;q^m)`` is the quotient of Pochhammer products
(a1,...;q^m)/(b1,...;q^m); ``subst(e, m)`` substitutes q -> q^m, and a call
like ``G(q^2)`` is sugar for ``subst(G(q), 2)``.
"""

import re
from functools import lru_cache

from . import products
from ._value import Value
from .errors import BudgetExceeded, NonUnitLeadingCoefficient, ParseError
from .products import PochFactor, QProduct
from .series import Series

_CALL_NAMES = ("G", "H", "R", "Rinv", "Gsum", "Hsum", "psi", "phi")

# Deepest AST and bracket nesting ``parse`` accepts (the registry needs 15).
MAX_DEPTH = 100

# Widest integer constant, in bits, that a power in a term may produce
# (2^20000 needs 20001); a wider one is refused before it is computed.
MAX_CONSTANT_BITS = 1 << 20

# ``Evaluator.eval`` works this many exponents past the requested order, and
# looks at most MAX_SLACK past it for a divisor that is not zero there.
SLACK = 16
MAX_SLACK = 4096


# -- AST -------------------------------------------------------------------

# Nodes are Values: immutable, so they hash and compare by value, which the
# evaluator cache keys on, and slotted, because the cache keeps every parsed
# tree alive.

class IntLit(Value):
    __slots__ = ("value",)


class QVar(Value):
    __slots__ = ()


class Func(Value):
    __slots__ = ("name", "sign")
    _defaults = {"sign": 1}  # only phi distinguishes phi(q) from phi(-q)


class Add(Value):
    __slots__ = ("left", "right")


class Sub(Value):
    __slots__ = ("left", "right")


class Mul(Value):
    __slots__ = ("left", "right")


class Div(Value):
    __slots__ = ("left", "right")


class Neg(Value):
    __slots__ = ("operand",)


class Pow(Value):
    __slots__ = ("base", "exponent")


class Subst(Value):
    __slots__ = ("operand", "power")


class JP(Value):
    # numerator and denominator are tuples of (sign, offset)
    __slots__ = ("numerator", "denominator", "base")


# -- tokenizer ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([-+*/^(),;]))")


def _tokenize(text):
    tokens = []
    pos = nesting = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if not m:  # the pattern never matches an empty string
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(n - len(stripped), f"unexpected character {stripped[0]!r}")
        kind = m.lastindex
        tok, start = m.group(kind), m.start(kind)
        if kind == 1:
            try:
                tokens.append(("INT", int(tok), start))
            except ValueError:  # int() refuses digits past sys.get_int_max_str_digits()
                raise ParseError(start, f"integer literal of {len(tok)} digits "
                                 "is past the interpreter's limit") from None
        elif kind == 2:
            tokens.append(("NAME", tok, start))
        else:
            tokens.append(("OP", tok, start))
            nesting += (tok == "(") - (tok == ")")
            if nesting > MAX_DEPTH:  # the parser recurses once per bracket
                raise ParseError(start, f"brackets nested deeper than {MAX_DEPTH} levels")
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
                return _call("k", 1, 1)
            if val == "JP":
                return self.jp(), 1
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
                return self.call(val)
            raise ParseError(pos, f"unknown name {val!r}")
        raise ParseError(pos, "expected an atom")

    def call(self, name):
        self.expect_op("(")
        sign, m = self.q_power(signed=name == "phi")
        self.expect_op(")")
        return _call(name, sign, m)

    def jp(self):
        self.expect_op("(")
        num = self.jp_items()
        self.expect_op(";")
        den = self.jp_items()
        self.expect_op(";")
        _, base = self.q_power()
        self.expect_op(")")
        return JP(num, den, base)

    def jp_items(self):
        if self.at_op(";"):
            return ()
        items = [self.q_power(signed=True)]
        while self.at_op(","):
            self.next()
            items.append(self.q_power(signed=True))
        return tuple(items)

    def q_power(self, signed=False):
        """(sign, j) of an argument: an expression that folds (``_as_term``)
        to q^j with j >= 1, or, where ``signed``, to -q^j."""
        pos = self.peek()[2]
        t = _as_term(self.expr()[0])
        if t is None or t[2].factors or t[1] < 1 or t[0] not in ((1, -1) if signed else (1,)):
            raise ParseError(pos, "argument must equal q^j with j >= 1 "
                             "(or -q^j for phi and JP items)")
        return t[0], t[1]


@lru_cache(maxsize=256)
def _call(name, sign, m):
    """(node, depth) of ``name(sign*q^m)``: one node per call, which the
    trees of every text share, so it is stored and hashed once."""
    node = Func(name, sign)
    return (node, 1) if m == 1 else (Subst(node, m), 2)


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

_FUNC_EVAL = {"Gsum": products.G_sum, "Hsum": products.H_sum, "psi": products.psi}


def _as_term(e):
    """(c, k, p) with e = c*q^k*p, c an integer and p a QProduct, for an
    integer, q, JP, G, H, R, Rinv, k, or a Neg, Mul, Subst, Pow or Div of
    such terms; else None.  A divisor, or a base to a negative power, folds
    only when its constant is +-1, so c stays an integer."""
    if isinstance(e, Func):
        return _TERMS.get(e.name)
    if isinstance(e, IntLit):
        return e.value, 0, _ONE
    if isinstance(e, QVar):
        return 1, 1, _ONE
    if isinstance(e, JP):
        return 1, 0, QProduct([PochFactor(s, j, e.base, 1) for s, j in e.numerator]
                              + [PochFactor(s, j, e.base, -1) for s, j in e.denominator])
    if isinstance(e, Neg):
        t = _as_term(e.operand)
        return None if t is None else (-t[0], t[1], t[2])
    if isinstance(e, (Mul, Div)):
        a = _as_term(e.left)
        b = None if a is None else _as_term(e.right)
        if b is not None and isinstance(e, Div):
            b = _power(b, -1)
        if b is None:
            return None
        return a[0] * b[0], a[1] + b[1], QProduct(a[2].factors + b[2].factors)
    if isinstance(e, Subst):
        t = _as_term(e.operand)
        return None if t is None else (t[0], t[1] * e.power, t[2].transform(subst=e.power))
    if isinstance(e, Pow):
        t = _as_term(e.base)
        return None if t is None else _power(t, e.exponent)
    return None


def _power(t, n):
    """The term t to the power n, or None when n < 0 and t's constant is not
    +-1; BudgetExceeded when the constant would pass MAX_CONSTANT_BITS."""
    if n < 0 and t[0] not in (1, -1):
        return None
    if abs(t[0]) > 1 and t[0].bit_length() * abs(n) > MAX_CONSTANT_BITS:
        raise BudgetExceeded(f"a constant power of about {t[0].bit_length() * abs(n)} bits "
                             f"is past the limit of {MAX_CONSTANT_BITS} bits")
    # (-1)**-1 is a float; c**|n| equals c**n for c = +-1
    return t[0] ** abs(n), t[1] * n, t[2].transform(scale=n)


_ONE = QProduct(())

# Named series that abbreviate expression text, folded once into terms
# (k's text uses R, so R comes first).
_TERMS = {}
for _name, _text in (
    ("G", "JP(;q,q^4;q^5)"), ("H", "JP(;q^2,q^3;q^5)"),
    ("R", "JP(q,q^4;q^2,q^3;q^5)"), ("Rinv", "JP(q^2,q^3;q,q^4;q^5)"),
    ("k", "q*R(q)*R(q^2)^2"),
):
    _TERMS[_name] = _as_term(parse(_text))
del _name, _text


class _ZeroDivisor(Exception):
    """Raised with the working order at which a divisor truncates to zero."""


class Evaluator:
    """Evaluates ASTs to Series, caching shared subexpressions by node.

    The cache keys on (node, working order).  Nodes are immutable Values
    that compare and hash by their fields (``_value.Value``), so equal
    subexpressions, within one text or across texts, share one entry.
    A second dict holds the short sub-products on coarser grids that
    expansions run first (``products.product_expand``), so a part that the
    terms of one text, or several texts, share expands once.
    """

    def __init__(self):
        self._cache = {}
        self._products = {}

    def eval(self, e, order):
        """Series of e trusted below ``order`` exactly.

        Laurent intermediates (division by a positive-valuation series)
        erode the working order, so evaluate SLACK past it and retry deeper
        if the result comes back short.  A divisor that is zero at the
        working order may start deeper: retry up to MAX_SLACK past the
        order, then give up with NonUnitLeadingCoefficient.
        """
        if isinstance(e, str):
            e = parse(e)
        if order < 1:
            raise ValueError("order must be >= 1")
        slack = SLACK
        while True:
            try:
                s = self._eval(e, order + slack)
            except _ZeroDivisor as exc:
                if slack >= MAX_SLACK:
                    raise NonUnitLeadingCoefficient(
                        f"cannot invert the zero series (a divisor is zero below q^{exc.args[0]})"
                    ) from None
                slack = min(2 * slack, MAX_SLACK)
                continue
            if s.order >= order:
                return s.truncate(order)
            slack = 2 * slack + (order - s.order)

    def _eval(self, e, m):
        key = (e, m)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        s = self._eval_uncached(e, m)
        self._cache[key] = s
        return s

    def _eval_uncached(self, e, m):
        t = _as_term(e)
        if t is not None:
            c, k, p = t
            if c == 0 or k >= m:
                return Series.zero(m)
            s = products.product_expand(p, m - k, self._products)
            return s if c == 1 and k == 0 else s.shift(k).scalar_mul(c)
        if isinstance(e, Func):
            if e.name == "phi":
                return products.phi(e.sign, m)
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
            if _as_term(Pow(e.right, -1)) is not None:
                # a term inverts by negating its powers: no Newton step
                return self._eval(e.left, m).mul(self._eval(Pow(e.right, -1), m))
            return self._eval(e.left, m).div(self._divisor(e.right, m))
        if isinstance(e, Pow):
            base = self._divisor(e.base, m) if e.exponent < 0 else self._eval(e.base, m)
            return base.pow(e.exponent)
        raise TypeError(f"not an expression node: {e!r}")

    def _divisor(self, e, m):
        """Series of e at working order m, which a division needs nonzero."""
        d = self._eval(e, m)
        if d.is_zero():
            raise _ZeroDivisor(m)
        return d


def evaluate(e, order, evaluator=None):
    """One-shot evaluation of an AST or source text."""
    return (evaluator or Evaluator()).eval(e, order)
