"""Surface syntax: AST, recursive-descent parser, pretty printer, and the
rewriting of trig/inverse-trig functions into exp/log form over Q(i).

Grammar (operators by increasing binding power; ^ is right-associative and
binds tighter than unary minus):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := NUMBER | 'i' | IDENT | IDENT '(' expr ')' | '(' expr ')'
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

from .algebra.gaussian import GaussRat, I_UNIT


class ParseError(Exception):
    """Lexical or syntactic error, with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} at column {column}")
        self.column = column


# ----------------------------------------------------------------- AST nodes


class _Node:
    """Immutable slotted record: equality, hash and repr come from the class
    and the values of its slots, in slot order."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values")
        for i in range(len(names)):
            object.__setattr__(self, names[i], values[i])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Const(_Node):
    __slots__ = ("value",)


class Var(_Node):
    __slots__ = ("name",)


class Add(_Node):
    __slots__ = ("left", "right")


class Sub(_Node):
    __slots__ = ("left", "right")


class Mul(_Node):
    __slots__ = ("left", "right")


class Div(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        if isinstance(right, Const) and right.value.is_zero():
            raise ZeroDivisionError("division by syntactic zero")
        super().__init__(left, right)


class Pow(_Node):
    __slots__ = ("base", "exponent")


class Exp(_Node):
    __slots__ = ("arg",)


class Log(_Node):
    __slots__ = ("arg",)


class Sin(_Node):
    __slots__ = ("arg",)


class Cos(_Node):
    __slots__ = ("arg",)


class Tan(_Node):
    __slots__ = ("arg",)


class Cot(_Node):
    __slots__ = ("arg",)


class Arcsin(_Node):
    __slots__ = ("arg",)


class Arccos(_Node):
    __slots__ = ("arg",)


class Arctan(_Node):
    __slots__ = ("arg",)


class Arccot(_Node):
    __slots__ = ("arg",)


Expr = Union[
    Const, Var, Add, Sub, Mul, Div, Pow,
    Exp, Log, Sin, Cos, Tan, Cot, Arcsin, Arccos, Arctan, Arccot,
]

TRIG_TAGS = (Sin, Cos, Tan, Cot, Arcsin, Arccos, Arctan, Arccot)
_UNARY_TAGS = (Exp, Log) + TRIG_TAGS

_FUNCTIONS = {
    "exp": Exp,
    "log": Log,
    "ln": Log,
    "sin": Sin,
    "cos": Cos,
    "tan": Tan,
    "cot": Cot,
    "arcsin": Arcsin,
    "arccos": Arccos,
    "arctan": Arctan,
    "arccot": Arccot,
}


# ------------------------------------------------------------------- lexer


class _Token(_Node):
    __slots__ = ("kind", "text", "value", "column")  # kind: num, ident, op, end


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        col = pos + 1
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < n and text[pos + 1].isdigit()):
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos < n and text[pos] == ".":
                pos += 1
                if pos >= n or not text[pos].isdigit():
                    raise ParseError("malformed number", col)
                while pos < n and text[pos].isdigit():
                    pos += 1
            tokens.append(_Token("num", text[start:pos], Fraction(text[start:pos]), col))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(_Token("ident", text[start:pos], None, col))
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, None, col))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(_Token("end", "", None, n + 1))
    return tokens


# ------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.column)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.parse_factor()
                if tok.text == "*":
                    node = Mul(node, rhs)
                else:
                    try:
                        node = Div(node, rhs)
                    except ZeroDivisionError:
                        raise ParseError("division by zero constant", tok.column)
            else:
                return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.parse_factor()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Sub(Const(GaussRat(0)), inner)
        node = self.parse_base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exponent = self.parse_factor()
            return Pow(node, exponent)
        return node

    def parse_base(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Const(GaussRat(tok.value))
        if tok.kind == "ident":
            if tok.text == "i":
                return Const(I_UNIT)
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return _FUNCTIONS[tok.text](arg)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                raise ParseError(f"unknown function {tok.text!r}", tok.column)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.column)
        raise ParseError(f"unexpected token {tok.text!r}", tok.column)


def parse(text: str) -> Expr:
    """Parse surface text into an Expr; raises ParseError with a column."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.column)
    return node


# ------------------------------------------------------------ pretty printer

_LVL_ADD, _LVL_MUL, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4


def _print(e: Expr, level: int) -> str:
    if isinstance(e, Const):
        s, lvl = _const_str(e.value)
        return f"({s})" if lvl < level else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, _UNARY_TAGS):
        return f"{type(e).__name__.lower()}({_print(e.arg, _LVL_ADD)})"
    if isinstance(e, Add):
        s = f"{_print(e.left, _LVL_ADD)} + {_print(e.right, _LVL_MUL)}"
        return f"({s})" if level > _LVL_ADD else s
    if isinstance(e, Sub):
        if isinstance(e.left, Const) and e.left.value.is_zero() and not isinstance(e.right, Const):
            s = f"-{_print(e.right, _LVL_POW)}"
            return f"({s})" if level > _LVL_MUL else s
        s = f"{_print(e.left, _LVL_ADD)} - {_print(e.right, _LVL_MUL)}"
        return f"({s})" if level > _LVL_ADD else s
    if isinstance(e, Mul):
        s = f"{_print(e.left, _LVL_MUL)}*{_print(e.right, _LVL_POW)}"
        return f"({s})" if level > _LVL_MUL else s
    if isinstance(e, Div):
        s = f"{_print(e.left, _LVL_MUL)}/{_print(e.right, _LVL_POW)}"
        return f"({s})" if level > _LVL_MUL else s
    if isinstance(e, Pow):
        s = f"{_print(e.base, _LVL_ATOM)}^{_print(e.exponent, _LVL_POW)}"
        return f"({s})" if level > _LVL_POW else s
    raise TypeError(f"not an Expr: {e!r}")


def _const_str(z: GaussRat) -> tuple[str, int]:
    """Render a Gaussian rational as parseable surface text, with the
    precedence level of the produced expression."""
    if z.is_zero():
        return "0", _LVL_ATOM
    if not z.im:
        q = z.re
        if q < 0:
            s, _ = _const_str(GaussRat(-q))
            return f"-{s}", _LVL_MUL
        if q.denominator == 1:
            return str(q.numerator), _LVL_ATOM
        return f"{q.numerator}/{q.denominator}", _LVL_MUL
    if not z.re:
        b = z.im
        if b == 1:
            return "i", _LVL_ATOM
        if b == -1:
            return "-i", _LVL_MUL
        if b < 0:
            s, _ = _const_str(GaussRat(0, -b))
            return f"-{s}", _LVL_MUL
        if b.denominator == 1:
            return f"{b.numerator}*i", _LVL_MUL
        if b.numerator == 1:
            return f"i/{b.denominator}", _LVL_MUL
        return f"{b.numerator}*i/{b.denominator}", _LVL_MUL
    re_s, _ = _const_str(GaussRat(z.re))
    im_s, _ = _const_str(GaussRat(0, abs(z.im)))
    op = "-" if z.im < 0 else "+"
    return f"{re_s} {op} {im_s}", _LVL_ADD


def pretty_print(e: Expr) -> str:
    """Minimal-parenthesis rendering; parse(pretty_print(e)) rebuilds e for
    trees whose constants are plain literals."""
    return _print(e, _LVL_ADD)


# ------------------------------------------------------ smart constructors

_ZERO = Const(GaussRat(0))
_ONE = Const(GaussRat(1))


def const_e(z: GaussRat) -> Expr:
    return Const(z)


def is_zero_const(e: Expr) -> bool:
    return isinstance(e, Const) and e.value.is_zero()


def add_e(a: Expr, b: Expr) -> Expr:
    if is_zero_const(a):
        return b
    if is_zero_const(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(b, Sub) and is_zero_const(b.left):
        return Sub(a, b.right)
    if isinstance(b, Const) and (
        (not b.value.im and b.value.re < 0)
        or (not b.value.re and b.value.im < 0)
    ):
        return Sub(a, Const(-b.value))
    return Add(a, b)


def sub_e(a: Expr, b: Expr) -> Expr:
    if is_zero_const(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Sub) and is_zero_const(b.left):
        return add_e(a, b.right)
    return Sub(a, b)


def neg_e(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Sub) and is_zero_const(a.left):
        return a.right
    return Sub(_ZERO, a)


def mul_e(a: Expr, b: Expr) -> Expr:
    if is_zero_const(a) or is_zero_const(b):
        return _ZERO
    if isinstance(a, Const):
        if a.value.is_one():
            return b
        if a.value == GaussRat(-1):
            return neg_e(b)
        if isinstance(b, Const):
            return Const(a.value * b.value)
        if (not a.value.im and a.value.re < 0) or (
            not a.value.re and a.value.im < 0
        ):
            return neg_e(mul_e(Const(-a.value), b))
    if isinstance(b, Const):
        if b.value.is_one():
            return a
        return mul_e(b, a)
    return Mul(a, b)


def div_e(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const):
        if b.value.is_one():
            return a
        if isinstance(a, Const):
            return Const(a.value / b.value)
    if is_zero_const(a):
        return _ZERO
    return Div(a, b)


def pow_e(a: Expr, n: int) -> Expr:
    if n == 0:
        return _ONE
    if n == 1:
        return a
    if isinstance(a, Const):
        return Const(a.value ** n)
    if n < 0:
        return div_e(_ONE, pow_e(a, -n))
    return Pow(a, Const(GaussRat(n)))


# ------------------------------------------------------------ trig rewriting


def rewrite_trig(e: Expr) -> Expr:
    """Rewrite trig and inverse trig through exp/log over Q(i). The output
    contains no trig tags; arcsin/arccos produce half-integer powers, which
    downstream stages reject as algebraic."""
    i = Const(I_UNIT)
    mi = Const(-I_UNIT)
    half_i = Const(I_UNIT / 2)

    def rw(e: Expr) -> Expr:
        if isinstance(e, (Const, Var)):
            return e
        if isinstance(e, Add):
            return Add(rw(e.left), rw(e.right))
        if isinstance(e, Sub):
            return Sub(rw(e.left), rw(e.right))
        if isinstance(e, Mul):
            return Mul(rw(e.left), rw(e.right))
        if isinstance(e, Div):
            return Div(rw(e.left), rw(e.right))
        if isinstance(e, Pow):
            return Pow(rw(e.base), rw(e.exponent))
        if isinstance(e, Exp):
            return Exp(rw(e.arg))
        if isinstance(e, Log):
            return Log(rw(e.arg))
        u = rw(e.arg)
        eiu = Exp(mul_e(i, u))
        emiu = Exp(mul_e(mi, u))
        if isinstance(e, Sin):
            return Div(Sub(eiu, emiu), Const(I_UNIT * 2))
        if isinstance(e, Cos):
            return Div(Add(eiu, emiu), Const(GaussRat(2)))
        if isinstance(e, Tan):
            return Div(Sub(eiu, emiu), Mul(i, Add(eiu, emiu)))
        if isinstance(e, Cot):
            return Div(Mul(i, Add(eiu, emiu)), Sub(eiu, emiu))
        if isinstance(e, Arctan):
            return Mul(neg_e(half_i), Log(Div(add_e(_ONE, mul_e(i, u)),
                                              sub_e(_ONE, mul_e(i, u)))))
        if isinstance(e, Arccot):
            return Mul(neg_e(half_i), Log(Div(add_e(u, i), sub_e(u, i))))
        root = Pow(sub_e(_ONE, Mul(u, u)), Const(GaussRat(Fraction(1, 2))))
        if isinstance(e, Arcsin):
            return Mul(mi, Log(add_e(mul_e(i, u), root)))
        if isinstance(e, Arccos):
            return Mul(mi, Log(add_e(u, mul_e(i, root))))
        raise TypeError(f"not an Expr: {e!r}")

    return rw(e)


def contains_trig(e: Expr) -> bool:
    if isinstance(e, TRIG_TAGS):
        return True
    if isinstance(e, (Add, Sub, Mul, Div)):
        return contains_trig(e.left) or contains_trig(e.right)
    if isinstance(e, Pow):
        return contains_trig(e.base) or contains_trig(e.exponent)
    if isinstance(e, (Exp, Log)):
        return contains_trig(e.arg)
    return False
