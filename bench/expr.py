"""The benchmark's own expressions: trees, derivative, printer, evaluator.

Inputs are built, differentiated and printed here rather than with
liouville's own syntax module, so the generated text (and therefore the
known verdicts) stays fixed when liouville's printer or canonicaliser
changes. The same module parses liouville's JSON output back into numbers
for the independent output check.

A tree is a tuple: ("x",), ("c", Fraction), ("+", a, b), ("-", a, b),
("*", a, b), ("/", a, b), ("^", a, n) with an int n, ("log", a) and
("exp", a); integrands may hold ("tan", a), which derive() does not take,
and parsed output ("i",) and ("sqrt", a).
"""
from __future__ import annotations

import cmath
from fractions import Fraction

X = ("x",)


def const(q) -> tuple:
    return ("c", Fraction(q))


ZERO, ONE = const(0), const(1)


def _is_c(e, value=None) -> bool:
    return e[0] == "c" and (value is None or e[1] == value)


# -------------------------------------------------------- smart constructors
# Light folding only, so D(F) stays readable; no canonical form is implied.


def add(a, b):
    if _is_c(a) and _is_c(b):
        return const(a[1] + b[1])
    if _is_c(a, 0):
        return b
    if _is_c(b, 0):
        return a
    return ("+", a, b)


def sub(a, b):
    if _is_c(a) and _is_c(b):
        return const(a[1] - b[1])
    if _is_c(b, 0):
        return a
    return ("-", a, b)


def mul(a, b):
    if _is_c(a) and _is_c(b):
        return const(a[1] * b[1])
    if _is_c(a, 0) or _is_c(b, 0):
        return ZERO
    if _is_c(a, 1):
        return b
    if _is_c(b, 1):
        return a
    return ("*", a, b)


def div(a, b):
    if _is_c(b, 0):
        raise ZeroDivisionError("division by the constant 0")
    if _is_c(a) and _is_c(b):
        return const(a[1] / b[1])
    if _is_c(a, 0):
        return ZERO
    if _is_c(b, 1):
        return a
    return ("/", a, b)


def power(a, n: int):
    if n == 0:
        return ONE
    if n == 1:
        return a
    if _is_c(a) and not (a[1] == 0 and n < 0):
        return const(a[1] ** n)
    return ("^", a, n)


def log(a):
    return ("log", a)


def exp(a):
    return ("exp", a)


def tan(a):
    return ("tan", a)


def poly(coeffs) -> tuple:
    """sum coeffs[k] * x^k, highest power first in the printed text."""
    out = ZERO
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c:
            out = add(out, mul(const(c), power(X, k)))
    return out


# ----------------------------------------------------------------- calculus


def derive(e):
    """d/dx of a tree, by the textbook rules."""
    tag = e[0]
    if tag == "x":
        return ONE
    if tag == "c":
        return ZERO
    if tag == "+":
        return add(derive(e[1]), derive(e[2]))
    if tag == "-":
        return sub(derive(e[1]), derive(e[2]))
    if tag == "*":
        a, b = e[1], e[2]
        return add(mul(derive(a), b), mul(a, derive(b)))
    if tag == "/":
        a, b = e[1], e[2]
        return div(sub(mul(derive(a), b), mul(a, derive(b))), power(b, 2))
    if tag == "^":
        a, n = e[1], e[2]
        return mul(mul(const(n), power(a, n - 1)), derive(a))
    if tag == "log":
        return div(derive(e[1]), e[1])
    if tag == "exp":
        return mul(e, derive(e[1]))
    raise ValueError(f"unknown node {tag!r}")


def evaluate(e, x: complex) -> complex:
    """Principal-branch complex value; raises ZeroDivisionError or
    OverflowError where the tree is undefined or too large."""
    tag = e[0]
    if tag == "x":
        return x
    if tag == "c":
        return complex(e[1])
    if tag == "i":
        return 1j
    if tag == "+":
        return evaluate(e[1], x) + evaluate(e[2], x)
    if tag == "-":
        return evaluate(e[1], x) - evaluate(e[2], x)
    if tag == "*":
        return evaluate(e[1], x) * evaluate(e[2], x)
    if tag == "/":
        return evaluate(e[1], x) / evaluate(e[2], x)
    if tag == "^":
        return evaluate(e[1], x) ** e[2]
    if tag == "log":
        return cmath.log(evaluate(e[1], x))
    if tag == "exp":
        return cmath.exp(evaluate(e[1], x))
    if tag == "sqrt":
        return cmath.sqrt(evaluate(e[1], x))
    if tag == "tan":
        return cmath.tan(evaluate(e[1], x))
    raise ValueError(f"unknown node {tag!r}")


# ------------------------------------------------------------------ printer

_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


def _wrap(s: str, own: int, need: int) -> str:
    return f"({s})" if own < need else s


def _fmt(e, need: int) -> str:
    tag = e[0]
    if tag == "x":
        return "x"
    if tag == "c":
        q = e[1]
        s = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        own = _ATOM if q >= 0 and q.denominator == 1 else _MUL
        # a signed constant is never left bare, so "a - -2" cannot occur
        return f"({s})" if q < 0 or own < need else s
    if tag in ("log", "exp", "tan"):
        return f"{tag}({_fmt(e[1], _ADD)})"
    if tag in ("+", "-"):
        return _wrap(f"{_fmt(e[1], _ADD)} {tag} {_fmt(e[2], _MUL)}", _ADD, need)
    if tag in ("*", "/"):
        return _wrap(f"{_fmt(e[1], _MUL)}{tag}{_fmt(e[2], _POW)}", _MUL, need)
    if tag == "^":
        return _wrap(f"{_fmt(e[1], _ATOM)}^{e[2]}", _POW, need)
    raise ValueError(f"unknown node {tag!r}")


def to_text(e) -> str:
    """Text in liouville's input syntax."""
    return _fmt(e, _ADD)


# ------------------------------------------------------------------- parser


class TextError(ValueError):
    """Output text that the benchmark's reader does not understand."""


def _tokens(text: str):
    out, pos, n = [], 0, len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            out.append(("num", int(text[start:pos])))
        elif ch.isalpha():
            start = pos
            while pos < n and text[pos].isalnum():
                pos += 1
            out.append(("id", text[start:pos]))
        elif ch in "+-*/^()":
            out.append(("op", ch))
            pos += 1
        else:
            raise TextError(f"unexpected character {ch!r} in {text!r}")
    out.append(("end", None))
    return out


class _Reader:
    """Recursive descent over liouville's output grammar: + - * / ^, unary
    minus, integers, i, x, log(), exp() and sqrt()."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def _peek_op(self, ops: str):
        kind, val = self.toks[self.pos]
        return val if kind == "op" and val in ops else None

    def _take_op(self, op: str):
        if self._peek_op(op) is None:
            raise TextError(f"expected {op!r} at token {self.pos}")
        self.pos += 1

    def expr(self):
        node = self.term()
        while (op := self._peek_op("+-")) is not None:
            self.pos += 1
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while (op := self._peek_op("*/")) is not None:
            self.pos += 1
            node = (op, node, self.factor())
        return node

    def factor(self):
        if self._peek_op("-"):
            self.pos += 1
            return ("-", ZERO, self.factor())
        node = self.base()
        if self._peek_op("^"):
            self.pos += 1
            expo = self.factor()
            if expo[0] == "-" and expo[1] == ZERO and expo[2][0] == "c":
                expo = const(-expo[2][1])
            if expo[0] != "c" or expo[1].denominator != 1:
                raise TextError("non-integer exponent")
            node = ("^", node, int(expo[1]))
        return node

    def base(self):
        kind, val = self.toks[self.pos]
        self.pos += 1
        if kind == "num":
            return const(val)
        if kind == "id":
            if val == "x":
                return X
            if val == "i":
                return ("i",)
            if val in ("log", "exp", "sqrt"):
                self._take_op("(")
                arg = self.expr()
                self._take_op(")")
                return (val, arg)
            raise TextError(f"unknown name {val!r}")
        if kind == "op" and val == "(":
            node = self.expr()
            self._take_op(")")
            return node
        raise TextError(f"unexpected token {val!r}")


def parse_text(text: str):
    """Tree for liouville output text."""
    reader = _Reader(text)
    node = reader.expr()
    if reader.toks[reader.pos][0] != "end":
        raise TextError(f"trailing input in {text!r}")
    return node
