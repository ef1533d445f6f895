"""Polynomial expression parser and canonical renderer.

Grammar: integer or rational coefficients ("3", "-2/5"), variables x1/x2
(aliases x/y), "^" with a positive integer exponent or a parenthesized
positive rational ("x1^(3/2)"), operators + - * and parentheses.  Whitespace
between tokens and at either end is ignored; implicit multiplication is a
syntax error.  The renderer produces the canonical form that parses back to
the same polynomial.

Tokens are ``(kind, text, offset)`` tuples, where ``kind`` is "num",
"name", the operator character, or "end".  One reader, ``rational``, reads
``num ('/' num)?`` for coefficients and exponents alike; integers stay
``int`` all the way to the polynomial's lattice.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .poly import PuiseuxPoly

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z]\w*)"
                    r"|(?P<op>[-+*^()/])|(?P<end>\Z)|(?P<bad>.))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m.group(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", m.start(kind))
        tokens.append((tok if kind == "op" else kind, tok, m.start(kind)))
    return tokens


_VARIABLES = {"x1": 1, "x2": 2, "x": 1, "y": 2}


@dataclass(frozen=True)
class InputExpr:
    source: str
    poly: PuiseuxPoly


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        """The next token's kind."""
        return self.tokens[self.i][0]

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        """The next token, which must be of ``kind`` when one is given."""
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end'!r}",
                             tok[2])
        self.i += 1
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self) -> PuiseuxPoly:
        acc = self.term()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    # term := factor ('*' factor)*
    def term(self) -> PuiseuxPoly:
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    # factor := ('-'|'+')* atom ('^' exponent)?
    def factor(self) -> PuiseuxPoly:
        sign = 1
        while self.peek() in "+-":
            if self.take()[0] == "-":
                sign = -sign
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.exponent()
            if e.denominator == 1:
                base = base ** int(e)
            elif base != PuiseuxPoly.x1():
                raise ParseError("fractional exponents apply to x1 only",
                                 self.tokens[self.i][2])
            else:
                base = PuiseuxPoly.monomial(1, e, 0)
        return -base if sign < 0 else base

    # rational := num ('/' num)?
    def rational(self, zero_message: str) -> int | Fraction:
        num = int(self.take("num")[1])
        if self.peek() != "/":
            return num
        self.take()
        _, den, offset = self.take("num")
        if int(den) == 0:
            raise ParseError(zero_message, offset)
        return Fraction(num, int(den))

    # atom := rational | name | '(' expr ')'
    def atom(self) -> PuiseuxPoly:
        if self.peek() == "num":
            return PuiseuxPoly.constant(self.rational("zero denominator"))
        kind, text, offset = self.take()
        if kind == "name":
            axis = _VARIABLES.get(text)
            if axis is None:
                raise ParseError(f"unknown variable {text!r}", offset)
            return PuiseuxPoly.x1() if axis == 1 else PuiseuxPoly.x2()
        if kind == "(":
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"expected a value, found {text or 'end'!r}", offset)

    # exponent := num | '(' rational ')'
    def exponent(self) -> int | Fraction:
        kind, text, offset = self.take()
        if kind == "num":
            value = int(text)
        elif kind == "(":
            if self.peek() == "-":
                raise ParseError("negative exponents are not allowed",
                                 self.tokens[self.i][2])
            value = self.rational("zero denominator in exponent")
            self.take(")")
        else:
            raise ParseError("expected an exponent", offset)
        if value <= 0:
            raise ParseError("exponent must be positive", offset)
        return value


def parse_expression(text: str) -> InputExpr:
    """Parse an expression into an exact polynomial; rejects the zero
    polynomial (not of finite type)."""
    parser = _Parser(text)
    poly = parser.expr()
    kind, tail, offset = parser.take()
    if kind != "end":
        raise ParseError(f"unexpected {tail!r} (implicit multiplication "
                         "is not allowed)", offset)
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
