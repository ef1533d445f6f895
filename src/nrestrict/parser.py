"""Polynomial expression parser and canonical renderer.

Grammar: integer or rational coefficients ("3", "-2/5"), variables x1/x2
(aliases x/y), "^" with a positive integer exponent or a parenthesized
positive rational ("x1^(3/2)"), operators + - * and parentheses.  Implicit
multiplication is a syntax error.  The renderer produces the canonical form
that parses back to the same polynomial.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .poly import PuiseuxPoly

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*^()/]))")


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | an operator character | "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            raise ParseError(f"unexpected character {text[pos:pos+1]!r}", pos)
        if m.group("num"):
            tokens.append(Token("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            tokens.append(Token("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            tokens.append(Token(op, op, m.start("op")))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


_VARIABLES = {"x1": 1, "x2": 2, "x": 1, "y": 2}


@dataclass(frozen=True)
class InputExpr:
    source: str
    poly: PuiseuxPoly


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end'!r}",
                             tok.offset)
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self) -> PuiseuxPoly:
        acc = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    # term := factor ('*' factor)*
    def term(self) -> PuiseuxPoly:
        acc = self.factor()
        while self.peek().kind == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    # factor := ('-'|'+')* atom ('^' exponent)?
    def factor(self) -> PuiseuxPoly:
        sign = 1
        while self.peek().kind in "+-":
            if self.take().kind == "-":
                sign = -sign
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            e = self.exponent()
            if e.denominator == 1:
                base = base ** int(e)
            elif base != PuiseuxPoly.x1():
                raise ParseError("fractional exponents apply to x1 only",
                                 self.peek().offset)
            else:
                base = PuiseuxPoly.monomial(1, e, 0)
        return base * sign if sign < 0 else base

    def atom(self) -> PuiseuxPoly:
        tok = self.take()
        if tok.kind == "num":
            value = Fraction(int(tok.text))
            if self.peek().kind == "/":
                self.take()
                den = self.expect("num")
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.offset)
                value = Fraction(int(tok.text), int(den.text))
            return PuiseuxPoly.constant(value)
        if tok.kind == "name":
            axis = _VARIABLES.get(tok.text)
            if axis is None:
                raise ParseError(f"unknown variable {tok.text!r}", tok.offset)
            return PuiseuxPoly.x1() if axis == 1 else PuiseuxPoly.x2()
        if tok.kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a value, found {tok.text or 'end'!r}",
                         tok.offset)

    # exponent := num | '(' num ('/' num)? ')'
    def exponent(self) -> Fraction:
        tok = self.take()
        if tok.kind == "num":
            return Fraction(int(tok.text))
        if tok.kind == "(":
            sign_tok = self.peek()
            if sign_tok.kind == "-":
                raise ParseError("negative exponents are not allowed",
                                 sign_tok.offset)
            num = self.expect("num")
            value = Fraction(int(num.text))
            if self.peek().kind == "/":
                self.take()
                den = self.expect("num")
                if int(den.text) == 0:
                    raise ParseError("zero denominator in exponent", den.offset)
                value = Fraction(int(num.text), int(den.text))
            self.expect(")")
            if value <= 0:
                raise ParseError("exponent must be positive", tok.offset)
            return value
        raise ParseError("expected an exponent", tok.offset)


def parse_expression(text: str) -> InputExpr:
    """Parse an expression into an exact polynomial; rejects the zero
    polynomial (not of finite type)."""
    parser = _Parser(text)
    poly = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected {tail.text!r} (implicit multiplication "
                         "is not allowed)", tail.offset)
    if poly.is_zero():
        raise ParseError("polynomial is identically zero", 0)
    return InputExpr(text, poly)


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0: "3", "-2/5"."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def render(poly: PuiseuxPoly) -> str:
    """Canonical textual form; ``parse_expression(render(p)).poly == p``."""
    if poly.is_zero():
        return "0"
    q, den, terms = poly.lattice()
    parts = []
    for (e, e2), n in sorted(terms.items()):
        factors = []
        negate = n == -den and (e or e2)
        if negate:
            n = den
        if n != den or not (e or e2):
            factors.append(_ratio(n, den))
        if e:
            factors.append("x1" if e == q else f"x1^{e // q}" if e % q == 0
                           else f"x1^({_ratio(e, q)})")
        if e2:
            factors.append("x2" if e2 == 1 else f"x2^{e2}")
        parts.append(("-" if negate else "") + "*".join(factors))
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out
