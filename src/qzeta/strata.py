"""A small line-oriented file format for stratifications.

    # comments run to end of line
    dimension = 2
    gindex = 7
    symbol C0 chi = -1
    stratum { class = L - 1 ; N = [1/7, 0] ; nu = [3/7, 1] ; group = (1; 0,0) }

Class expressions are integer polynomials in ``L`` and declared bracket
symbols, with ``+ - * ^`` and no parentheses.  Integers are ASCII digits;
rationals are ``INT`` or ``INT/INT``.  Group literals are
``(d1,...,dr; row1; ...; rowr)``, one row per order.  The emitter below
writes the canonical form that :func:`parse_strata` reads back verbatim.

:func:`parse_strata` raises only :class:`ParseError`, which names a line
and a column.  The parser checks the grammar; the values are checked by
the constructors that own them (``GroupAction``, ``Stratum``,
``Stratification``), whose refusals it reports at the group literal's
``(``, the stratum's ``{`` or the refused declaration's keyword.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from .groups import GroupAction, SizeLimit, group_literal
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
    kind: str  # NAME, INT, EOF, or the punctuation char itself
    text: str
    pos: int  # offset in the file; _at gives its line and column


# The most decimal digits an integer in a strata file may have: the bound
# on printed integers, motpoly.MAX_DIGITS (4300).  The parser refuses a
# longer literal at its token, a power ``INT ^ e`` at the exponent before
# computing it, and a class coefficient that ``*``, ``+`` or ``-`` makes
# too long at that operator.
MAX_POWER_DIGITS = MAX_DIGITS
_INT_BOUND = 10**MAX_POWER_DIGITS

# Blanks, newlines and comments are skipped before each token; the named
# group that matches is the token's kind.  Digits are ASCII; a name starts
# with a word character other than a decimal digit.  Any other character
# is BAD.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:(?P<INT>[0-9]+)|(?P<NAME>[^\W\d]\w*)|(?P<PUNCT>[={};\[\],()+\-*^/])|(?P<BAD>.)|(?P<EOF>\Z))",
    re.DOTALL,
)


def _at(text: str, pos: int) -> tuple[int, int]:
    """The line and column, both from 1, of the offset ``pos``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        pos = m.start(kind)
        if kind == "PUNCT":
            toks.append(_Tok(m[kind], m[kind], pos))
        elif kind == "INT" and m.end() - pos > MAX_POWER_DIGITS:
            raise ParseError(
                "integer literal has more than %d decimal digits" % MAX_POWER_DIGITS, *_at(text, pos)
            )
        elif kind == "BAD":
            raise ParseError("unexpected character %r" % m[kind], *_at(text, pos))
        elif kind == "EOF":
            # the end sits at the "#" of a comment that ends the file
            hash_at = text.find("#", text.rfind("\n") + 1)
            toks.append(_Tok(kind, "", pos if hash_at < 0 else hash_at))
            break
        else:
            toks.append(_Tok(kind, m[kind], pos))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.symbols: dict[str, int | None] = {}
        self.dimension: int | None = None
        self.gindex: int | None = None
        self.declared: dict[str, _Tok] = {}  # keyword token of each declaration
        self.strata: list[Stratum] = []

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise ParseError(msg, *_at(self.text, tok.pos))

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
            if t.text in ("dimension", "gindex"):
                self.next()
                self.expect("=")
                if t.text in self.declared:
                    self.fail("%s declared twice" % t.text, t)
                self.declared[t.text] = t
                setattr(self, t.text, self.int_value())
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
        try:
            strat = Stratification(self.dimension, self.gindex, tuple(self.strata))
        except ValueError as exc:
            # the index is refused, unless the dimension is not positive
            key = "dimension" if self.dimension <= 0 else "gindex"
            self.fail(str(exc), self.declared[key])
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
        try:
            self.strata.append(Stratum(klass, tuple(Nvec), tuple(nuvec), group))
        except (ValueError, DimensionMismatch) as exc:
            self.fail(str(exc), open_tok)

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
        try:
            return GroupAction(orders, rows, self.dimension)
        except (ValueError, SizeLimit) as exc:
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
                    "symbol %r not declared" % name_tok.text, *_at(self.text, name_tok.pos)
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
