"""A small line-oriented file format for stratifications.

    # comments run to end of line
    dimension = 2
    gindex = 7
    symbol C0 chi = -1
    stratum { class = L - 1 ; N = [1/7, 0] ; nu = [3/7, 1] ; group = (1; 0,0) }

Class expressions are integer polynomials in ``L`` and declared bracket
symbols, with ``+ - * ^`` and no parentheses.  Rationals are ``INT`` or
``INT/INT``.  Group literals are ``(d1,...,dr; row1; ...; rowr)`` with a
single row allowed for cyclic groups.  The emitter below writes the
canonical form that :func:`parse_strata` reads back verbatim.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .groups import GroupAction, group_literal
from .motpoly import MAX_DIGITS
from .symring import MotPoly, render_poly
from .zetacore import DimensionMismatch, Stratification, Stratum

__all__ = [
    "ParseError",
    "UndeclaredSymbol",
    "StrataFile",
    "parse_strata",
    "render_strata",
]


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__("line %d, column %d: %s" % (line, col, msg))
        self.line = line
        self.col = col


class UndeclaredSymbol(ParseError):
    pass


class StrataFile(NamedTuple):
    stratification: Stratification
    chi_env: dict[str, int]


class _Tok(NamedTuple):
    kind: str  # NAME, INT, or the punctuation char itself
    text: str
    line: int
    col: int


_PUNCT = set("={};[],()+-*^/")

# The most decimal digits an integer in a strata file may have: the bound
# on printed integers, motpoly.MAX_DIGITS (4300).  The parser refuses a
# longer literal at its token, a power ``INT ^ e`` at the exponent before
# computing it, and a class coefficient that ``*``, ``+`` or ``-`` makes
# too long at that operator.
MAX_POWER_DIGITS = MAX_DIGITS
_INT_BOUND = 10**MAX_POWER_DIGITS


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > MAX_POWER_DIGITS:
                raise ParseError(
                    "integer literal has more than %d decimal digits" % MAX_POWER_DIGITS,
                    line,
                    start_col,
                )
            toks.append(_Tok("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(_Tok(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.symbols: dict[str, int | None] = {}
        self.dimension: int | None = None
        self.gindex: int | None = None
        self.strata: list[Stratum] = []

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def expect(self, kind: str, what: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            self.fail("expected %s, got %r" % (what or kind, t.text or "end of file"))
        return self.next()

    def expect_name(self, word: str):
        t = self.expect("NAME", "'%s'" % word)
        if t.text != word:
            self.fail("expected '%s', got %r" % (word, t.text), t)
        return t

    # -- top level ---------------------------------------------------------

    def parse(self) -> StrataFile:
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind != "NAME":
                self.fail("expected a declaration keyword, got %r" % t.text)
            if t.text == "dimension":
                self.next()
                self.expect("=")
                if self.dimension is not None:
                    self.fail("dimension declared twice", t)
                self.dimension = self.int_value()
            elif t.text == "gindex":
                self.next()
                self.expect("=")
                if self.gindex is not None:
                    self.fail("gindex declared twice", t)
                self.gindex = self.int_value()
            elif t.text == "symbol":
                self.next()
                name = self.expect("NAME", "symbol name").text
                if name in self.symbols:
                    self.fail("symbol %r declared twice" % name, t)
                chi = None
                if self.peek().kind == "NAME" and self.peek().text == "chi":
                    self.next()
                    self.expect("=")
                    chi = self.int_value()
                self.symbols[name] = chi
            elif t.text == "stratum":
                self.next()
                self.stratum()
            else:
                self.fail("unknown keyword %r" % t.text, t)
        if self.dimension is None:
            self.fail("file never declares a dimension")
        if self.gindex is None:
            self.fail("file never declares a gindex")
        strat = Stratification(self.dimension, self.gindex, tuple(self.strata))
        chi_env = {n: c for n, c in self.symbols.items() if c is not None}
        return StrataFile(strat, chi_env)

    def int_value(self) -> int:
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        t = self.expect("INT", "an integer")
        v = int(t.text)
        return -v if neg else v

    def rat_value(self) -> Fraction:
        num = self.int_value()
        if self.peek().kind == "/":
            self.next()
            den = self.expect("INT", "a denominator")
            if int(den.text) == 0:
                self.fail("zero denominator", den)
            return Fraction(num, int(den.text))
        return Fraction(num)

    # -- stratum blocks ------------------------------------------------------

    def stratum(self):
        open_tok = self.expect("{")
        if self.dimension is None:
            self.fail("stratum before the dimension declaration", open_tok)
        self.expect_name("class")
        self.expect("=")
        klass = self.expr()
        self.expect(";")
        self.expect_name("N")
        self.expect("=")
        Nvec = self.vector()
        self.expect(";")
        self.expect_name("nu")
        self.expect("=")
        nuvec = self.vector()
        self.expect(";")
        self.expect_name("group")
        self.expect("=")
        group = self.group()
        self.expect("}")
        if len(Nvec) != self.dimension or len(nuvec) != self.dimension:
            raise DimensionMismatch(
                "stratum vectors have lengths %d/%d, dimension is %d"
                % (len(Nvec), len(nuvec), self.dimension)
            )
        self.strata.append(Stratum(klass, tuple(Nvec), tuple(nuvec), group))

    def vector(self) -> list[Fraction]:
        self.expect("[")
        out = [self.rat_value()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.rat_value())
        self.expect("]")
        return out

    def group(self) -> GroupAction:
        open_tok = self.expect("(")

        def intlist() -> list[int]:
            out = [self.int_value()]
            while self.peek().kind == ",":
                self.next()
                out.append(self.int_value())
            return out

        orders = intlist()
        rows = []
        while self.peek().kind == ";":
            self.next()
            rows.append(intlist())
        self.expect(")")
        if len(rows) != len(orders):
            self.fail(
                "group literal needs %d generator rows, found %d"
                % (len(orders), len(rows)),
                open_tok,
            )
        if any(len(r) != self.dimension for r in rows):
            raise DimensionMismatch(
                "group rows must have %d entries" % self.dimension
            )
        try:
            return GroupAction(orders, rows, self.dimension)
        except ValueError as exc:
            self.fail(str(exc), open_tok)

    # -- class expressions ----------------------------------------------------

    def bound(self, acc: MotPoly, op: _Tok) -> MotPoly:
        """``acc``, or a failure at the operator ``op`` that made one of its
        coefficients too long."""
        if acc.height() >= _INT_BOUND:
            self.fail("coefficient has more than %d decimal digits" % MAX_POWER_DIGITS, op)
        return acc

    def expr(self) -> MotPoly:
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        acc = self.term()
        if neg:
            acc = -acc
        while self.peek().kind in ("+", "-"):
            op = self.next()
            t = self.term()
            acc = self.bound(acc + t if op.kind == "+" else acc - t, op)
        return acc

    def term(self) -> MotPoly:
        acc = self.factor()
        while self.peek().kind == "*":
            op = self.next()
            acc = self.bound(acc * self.factor(), op)
        return acc

    def factor(self) -> MotPoly:
        base_tok = self.peek()
        base = self.atom()
        if self.peek().kind == "^":
            self.next()
            e = self.expect("INT", "an exponent")
            n = int(e.text)
            if base_tok.kind == "INT":
                # L ^ e and [sym] ^ e are monomials and cost nothing; an
                # integer power is estimated first and computed in full
                # only when it is near the bound.
                b = int(base_tok.text)
                if b > 1 and (
                    n * math.log10(b) > MAX_POWER_DIGITS + 1
                    or b**n >= _INT_BOUND
                ):
                    self.fail(
                        "%s^%s has more than %d decimal digits"
                        % (base_tok.text, e.text, MAX_POWER_DIGITS),
                        e,
                    )
            return base ** n
        return base

    def atom(self) -> MotPoly:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return MotPoly.const(int(t.text))
        if t.kind == "NAME" and t.text == "L":
            self.next()
            return MotPoly.L()
        if t.kind == "[":
            self.next()
            name_tok = self.expect("NAME", "a symbol name")
            self.expect("]")
            if name_tok.text not in self.symbols:
                raise UndeclaredSymbol(
                    "symbol %r not declared" % name_tok.text,
                    name_tok.line,
                    name_tok.col,
                )
            return MotPoly.sym(name_tok.text)
        self.fail("expected an integer, 'L' or a [symbol]")


def parse_strata(text: str) -> StrataFile:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# canonical emission


def _expr_str(p: MotPoly) -> str:
    """Render a class polynomial in the grammar above (validating that it
    fits: integer nonnegative L powers, no T)."""
    for (tau, ell, _syms), _c in p.terms():
        if tau != 0:
            raise ValueError("class polynomial carries a T power")
        if ell.denominator != 1 or ell < 0:
            raise ValueError("class polynomial needs plain L powers, got L^%s" % ell)
    return render_poly(p)


def render_strata(strat: Stratification, chi_env: dict[str, int] | None = None) -> str:
    chi_env = chi_env or {}
    names = set(chi_env)
    for st in strat.strata:
        for (_tau, _ell, syms), _c in st.klass.terms():
            for name, _e in syms:
                names.add(name)
    lines = ["dimension = %d" % strat.n, "gindex = %d" % strat.r]
    for name in sorted(names):
        if name in chi_env:
            lines.append("symbol %s chi = %d" % (name, chi_env[name]))
        else:
            lines.append("symbol %s" % name)
    for st in strat.strata:
        lines.append(
            "stratum { class = %s ; N = [%s] ; nu = [%s] ; group = %s }"
            % (
                _expr_str(st.klass),
                ", ".join(str(x) for x in st.Nvec),
                ", ".join(str(x) for x in st.nuvec),
                group_literal(st.group),
            )
        )
    return "\n".join(lines) + "\n"
