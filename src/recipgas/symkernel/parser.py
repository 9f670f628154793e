"""Recursive-descent parser for the textual expression grammar.

Infix `+ - * / ^` with integer literals (rationals are written a/b),
identifiers `[A-Za-z_][A-Za-z0-9_]*`, function application `h(S)`, and
derivative markers `h'(S)`.  A plain identifier must be a name declared
in the Context; a function name need not be.  Whitespace is insignificant;
errors carry line and column.  Parentheses, function applications and
exponent towers nest at most MAX_NESTING deep.
"""

from __future__ import annotations

from .context import Context
from .errors import DegreeOverflow, ParseError
from .expr import Expr
from .poly import MAX_DEGREE

# the deepest nesting of parentheses, function applications and exponent
# towers the parser takes; each level costs the recursive descent about
# five Python frames, so deeper text raises ParseError before the
# interpreter's recursion limit
MAX_NESTING = 100


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.depth = 0

    def error(self, msg):
        raise ParseError(msg, self.line, self.col)

    def nest(self):
        """Enter one more level of nesting; leave it with depth -= 1."""
        if self.depth == MAX_NESTING:
            self.error("nesting deeper than %d levels" % MAX_NESTING)
        self.depth += 1

    def _advance(self, n):
        for ch in self.text[self.pos:self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self._advance(1)

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self, ch):
        if self.peek() == ch:
            self._advance(1)
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            self.error("expected %r" % ch)

    def number(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self._advance(1)
        try:
            return int(self.text[start:self.pos])
        except ValueError:   # beyond Python's integer string limit
            self.error("integer literal too long")

    def ident(self):
        self.skip_ws()
        start = self.pos
        ch = self.text[self.pos]
        if not (ch.isalpha() or ch == "_"):
            self.error("expected identifier")
        while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self._advance(1)
        name = self.text[start:self.pos]
        primes = 0
        while self.pos < len(self.text) and self.text[self.pos] == "'":
            primes += 1
            self._advance(1)
        return name, primes


def parse(ctx: Context, text: str) -> Expr:
    toks = _Tokens(text)
    e = _expr(ctx, toks)
    toks.skip_ws()
    if toks.pos != len(toks.text):
        toks.error("trailing input")
    return e


def _expr(ctx, toks):
    e = _term(ctx, toks)
    while True:
        if toks.take("+"):
            e = e + _term(ctx, toks)
        elif toks.take("-"):
            e = e - _term(ctx, toks)
        else:
            return e


def _term(ctx, toks):
    e = _factor(ctx, toks)
    while True:
        if toks.take("*"):
            e = e * _factor(ctx, toks)
        elif toks.take("/"):
            line, col = toks.line, toks.col
            rhs = _factor(ctx, toks)
            if rhs.is_zero():
                raise ParseError("division by zero", line, col)
            e = e / rhs
        else:
            return e


def _factor(ctx, toks):
    sign = 1
    while True:
        if toks.take("-"):
            sign = -sign
        elif toks.take("+"):
            pass
        else:
            break
    e = _power(ctx, toks)
    return e if sign > 0 else -e


def _power(ctx, toks):
    base = _atom(ctx, toks)
    if toks.take("^"):
        n = _exponent(ctx, toks)
        if n < 0 and base.is_zero():
            toks.error("zero to a negative power")
        return base ** n
    return base


def _exponent(ctx, toks):
    """A signed integer exponent or right-associative tower, refused with
    DegreeOverflow before it is computed when beyond the degree limit."""
    sign = 1
    while toks.take("-"):
        sign = -sign
    if toks.take("("):
        toks.nest()
        n = _exponent(ctx, toks)
        toks.expect(")")
        toks.depth -= 1
    else:
        ch = toks.peek()
        if not ch.isdigit():
            toks.error("integer exponent expected")
        n = toks.number()
    if toks.take("^"):
        toks.nest()
        m = _exponent(ctx, toks)
        toks.depth -= 1
        if m < 0:
            toks.error("negative exponent tower")
        # |n| >= 2 with m above the limit's bit length puts |n|^m beyond it
        big = abs(n) > 1 and m > MAX_DEGREE.bit_length()
        n = MAX_DEGREE + 1 if big else n ** m
    if abs(n) > MAX_DEGREE:
        raise DegreeOverflow("exponent beyond the kernel limit %d"
                             % MAX_DEGREE)
    return sign * n


def _atom(ctx, toks):
    ch = toks.peek()
    if ch == "(":
        toks.take("(")
        toks.nest()
        e = _expr(ctx, toks)
        toks.expect(")")
        toks.depth -= 1
        return e
    if ch.isdigit():
        return Expr.const(ctx, toks.number())
    if ch.isalpha() or ch == "_":
        line, col = toks.line, toks.col
        name, primes = toks.ident()
        if toks.peek() == "(":
            toks.take("(")
            toks.nest()
            args = [_expr(ctx, toks)]
            while toks.take(","):
                args.append(_expr(ctx, toks))
            toks.expect(")")
            toks.depth -= 1
            if primes and len(args) != 1:
                toks.error("prime markers need a one-argument function")
            orders = (primes,) * 1 if len(args) == 1 else (0,) * len(args)
            return Expr.function(ctx, name, *args, orders=orders)
        if primes:
            toks.error("prime marker without function application")
        if name not in ctx.index:
            raise ParseError("unknown name %r" % name, line, col)
        return Expr.var(ctx, name)
    if ch == "":
        toks.error("unexpected end of input")
    toks.error("unexpected character %r" % ch)
