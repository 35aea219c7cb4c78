"""The topological zeta function: univariate rational functions of s.

Euler specialization (L -> 1) turns each standard factor Fac(N; nu) into
1/(N s + nu), so a zeta expression becomes a sum of rational functions
of s whose denominators are products of linear factors.  :class:`TopZeta`
sums them over one common denominator and keeps only the reduced
quotient, which equality and hashing read through one canonical form.

The module also holds the pieces of reduction and printing that the rest
of the package shares.  Dense polynomials are tuples of coefficients,
constant term first: :func:`pmul`, :func:`padd` and the exact division
:func:`pdiv` serve both ``TopZeta`` (Fraction coefficients in s) and
:meth:`qzeta.monodromy.CyclotomicProduct.expand` (integers in t).
:func:`cancel` is the one reduction rule for a quotient over a product
of factors, used here and by ``symring.RatFunc``.  Every printed sum
goes through one writer, :func:`_slices`: it makes one ``%``-template per
term shape and fills a run of terms with one ``%`` over the argument
columns.  ``symring`` writes its polynomials in L, T and class symbols,
its JSON lists and ``--eval-L`` blocks with it, and :func:`_spoly` the
dense polynomials in s.  Three syntaxes hold the tokens in which printed
sums differ: :data:`TEXT`, :data:`TEXT_S` (factors joined by "*", for
polynomials in s) and :data:`LATEX`.  The linear factors N s + nu and
``symring``'s binomials keep fixed-shape texts of their own.
:func:`quotient_slices` lays out every printed quotient.
"""

from __future__ import annotations

import math
import operator
from collections import Counter, namedtuple
from fractions import Fraction
from typing import Callable, Iterable, Mapping

__all__ = ["LATEX", "LinFactor", "Syntax", "TEXT", "TEXT_S", "TopZeta", "cancel", "frac_json",
           "frac_latex", "padd", "pdiv", "pmul", "quotient_slices"]

LinFactor = tuple[Fraction, Fraction]  # (N, nu) meaning N*s + nu, N > 0


# ---------------------------------------------------------------------------
# dense polynomials and the reduction rule


def _pnorm(p: list) -> tuple:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def pmul(a, b) -> tuple:
    """The product of two dense polynomials."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pnorm(out)


def padd(a, b) -> tuple:
    """The sum of two dense polynomials."""
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return _pnorm(out)


def pdiv(p, d):
    """The exact quotient p / d of dense polynomials, or None when d does
    not divide p.  d has a nonzero leading coefficient; the quotient's
    coefficients are Fractions."""
    if not p:
        return ()
    n = len(d) - 1
    if len(p) <= n:
        return None
    lead = Fraction(d[-1])
    rem = list(p)
    q = [0] * (len(p) - n)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + n] / lead
        q[k] = c
        if c:
            for j in range(n):
                if d[j]:
                    rem[k + j] -= c * d[j]
    if any(rem[:n]):
        return None
    return _pnorm(q)


def cancel(numer, pairs: Iterable, divide: Callable, skip=()) -> tuple[object, tuple]:
    """Reduce numer / prod f^m over the (f, m) ``pairs``: the reduced
    numerator and the (f, m) pairs of the factors left, in the given order.

    The factors are tried in the order of ``pairs`` (callers sort them),
    each for as long as ``divide(numer, f)`` returns an exact quotient
    rather than None.  Multiplicities <= 0 are skipped, and a zero
    numerator keeps no factor.  The order is part of the result: 1 - x^2
    over (1 - x)(1 - x^2) reduces to (1 + x)/(1 - x^2) in the sorted order
    and to 1/(1 - x) in the other.

    The result keeps an invariant: no factor left divides the numerator,
    since each later numerator divides the one that a factor failed on.
    A factor in ``skip`` is kept whole without a try; the caller must have
    proved that it does not divide.  ``symring.RatFunc`` proves it from
    the invariant of its operands and from coprimality: binomials on
    different rays are coprime, and so are an N > 0 factor and a
    monomial times (L - 1)^k.
    """
    if not numer:
        return numer, ()
    left = []
    for f, m in pairs:
        if f not in skip:
            while m > 0:
                q = divide(numer, f)
                if q is None:
                    break
                numer = q
                m -= 1
        if m > 0:
            left.append((f, m))
    return numer, tuple(left)


def _divide_linear(p, f: LinFactor):
    """p / (N*s + nu) for f = (N, nu) with N != 0, or None."""
    N, nu = f
    if N == 0:
        raise ValueError("linear factor must have N != 0")
    return pdiv(p, (nu, N))


def _poly_of(denom: Iterable[tuple[LinFactor, int]]):
    out = (Fraction(1),)
    for (N, nu), m in denom:
        for _ in range(m):
            out = pmul(out, (nu, N))
    return out


def _lowest_terms(numer, denom: Mapping[LinFactor, int]):
    """numer / prod (N s + nu)^m reduced: (numer_red, denom_red)."""
    return cancel(numer, sorted(denom.items()), _divide_linear)


class TopZeta:
    """A univariate rational function of s, held only as its reduced
    quotient: ``numer_red`` (dense, constant term first) over
    ``denom_red``, sorted ((N, nu), m) pairs for prod (N s + nu)^m."""

    __slots__ = ("numer_red", "denom_red")

    def __init__(self, terms: Iterable[tuple[Fraction, Mapping[LinFactor, int]]]):
        """Sum c / prod (N s + nu)^m over the terms (c, {(N, nu): m}): each
        term's share of the common denominator D is D / its own factors."""
        merged: dict[tuple, Fraction] = {}
        for c, lins in terms:
            key = tuple(sorted(Counter(lins).items()))
            merged[key] = merged.get(key, Fraction(0)) + Fraction(c)
        kept = [(c, key) for key, c in merged.items() if c != 0]
        denom: Counter = Counter()
        for _c, key in kept:
            denom |= Counter(dict(key))  # the largest positive multiplicity
        D = _poly_of(denom.items())
        numer = ()
        for c, key in kept:
            part = D
            for f, m in key:
                for _ in range(m):
                    part = _divide_linear(part, f)
                for _ in range(-m):
                    part = pmul(part, (f[1], f[0]))
            numer = padd(numer, [c * x for x in part])
        self.numer_red, self.denom_red = _lowest_terms(numer, denom)

    @classmethod
    def from_quotient(cls, numer_coeffs, denom: Mapping[LinFactor, int]) -> "TopZeta":
        """Build directly from a quotient (linear factors need N != 0 and
        multiplicities m >= 0; a negative one raises ValueError).

        Nothing in the package builds a quotient this way; it is the
        reference constructor that the tests compare against."""
        for (N, nu), m in sorted(denom.items()):
            if m < 0:
                raise ValueError(
                    "from_quotient needs multiplicities >= 0, got %d for (N, nu) = (%s, %s)"
                    % (m, N, nu)
                )
        tz = cls.__new__(cls)
        numer = _pnorm([Fraction(x) for x in numer_coeffs])
        tz.numer_red, tz.denom_red = _lowest_terms(numer, denom)
        return tz

    def _canonical(self):
        # The quotient is in lowest terms with no N = 0 factor, so making
        # each factor a primitive integer (N, nu) with N > 0, merging
        # proportional ones and rescaling the numerator is canonical.
        scale = Fraction(1)
        denom: Counter = Counter()
        for (N, nu), m in self.denom_red:
            k = math.lcm(N.denominator, nu.denominator)
            a, b = int(N * k), int(nu * k)
            g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
            denom[(a // g, b // g)] += m
            scale *= Fraction(k, g) ** m
        return tuple(c * scale for c in self.numer_red), tuple(sorted(denom.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TopZeta):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash(self._canonical())

    def poles(self) -> set[Fraction]:
        return {Fraction(-nu, 1) / N for (N, nu), _m in self.denom_red if N != 0}

    def __str__(self) -> str:
        den = [(_lin_str(f), m) for f, m in self.denom_red]
        return "".join(quotient_slices([_spoly(self.numer_red, TEXT_S)], den))

    def __repr__(self):
        return "TopZeta(%s)" % str(self)

    def json_obj(self):
        return {
            "kind": "topzeta",
            "numer": [frac_json(c) for c in self.numer_red],
            "denom": [
                {"N": frac_json(N), "nu": frac_json(nu), "mult": m}
                for (N, nu), m in self.denom_red
            ],
        }

    def latex(self) -> str:
        num = _spoly(self.numer_red, LATEX)
        if not self.denom_red:
            return num
        den = "".join(
            "\\left(%s\\right)%s"
            % (_lin_latex(f), "" if m == 1 else "^{%d}" % m)
            for f, m in self.denom_red
        )
        return "\\frac{%s}{%s}" % (num, den)


# ---------------------------------------------------------------------------
# rendering


def frac_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def frac_latex(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return "%s\\tfrac{%d}{%d}" % (sign, abs(x.numerator), x.denominator)


# The tokens in which printed sums differ: the power and fractional exponent
# formats, the coefficient text, the name of L, whether the power 1 of L and T
# is written out, and the separators between the factors of a term and
# before a positive and a negative term.
Syntax = namedtuple("Syntax", "power ratio coeff L unit times plus minus")
TEXT = Syntax("%s^%s", "(%s/%s)", str, "L", False, " * ", " + ", " - ")
TEXT_S = TEXT._replace(times="*")  # s-polynomials: 2*s^2 + 1
LATEX = Syntax("%s^{%s}", "%s/%s", frac_latex, "\\mathbb{L}", True, "", "+", "-")


class _Templates(dict):
    """The ``%``-template of each term shape, made by ``make`` when first asked."""

    def __missing__(self, shape):
        template = self[shape] = self.make(shape)
        return template


_SKIP_COMMA = operator.itemgetter(slice(2, None))  # a JSON list's first item has no ", "


def _slices(runs, make, lead=_SKIP_COMMA) -> list[str]:
    """The slices of a printed sequence of terms, one per run of shapes and
    columns of ``%`` arguments: ``"".join(templates) % args``, the columns
    interleaved term by term, and each shape's template made once per call
    by ``make``.  The very first template is replaced by ``lead`` of it,
    which drops the separator or sign spacing the others start with."""
    made = _Templates()
    made.make = make
    out = []
    for shapes, columns in runs:
        templates = list(map(made.__getitem__, shapes))
        if not out:
            templates[0] = lead(templates[0])
        k = len(columns)
        args = [None] * (k * len(templates))
        for j, column in enumerate(columns):
            args[j::k] = column
        out.append("".join(templates) % tuple(args))
    return out


def _sign_lead(syntax: Syntax):
    """The ``lead`` of a signed sum in ``syntax``: the first term loses the
    spacing around its sign, and a leading "+" is dropped."""
    plus, minus = syntax.plus, syntax.minus

    def lead(template: str) -> str:
        return template[len(plus):] if template.startswith(plus) else "-" + template[len(minus):]

    return lead


def quotient_slices(num: list[str], den: list[tuple[str, int]]) -> list[str]:
    """``(num) / ((f)^m * ...)`` over the slices ``num`` of the numerator's
    text and the (factor text, multiplicity) pairs ``den``, with no
    ``^1``, as slices: the numerator's own, between the two around them.
    The numerator alone when it is "0" or ``den`` is empty.
    ``symring.RatFunc`` and :class:`TopZeta` print through it."""
    if num == ["0"] or not den:
        return num
    parts = ("(%s)%s" % (f, "" if m == 1 else "^%d" % m) for f, m in den)
    return ["(", *num, ") / (%s)" % " * ".join(parts)]


def _spoly(p, syntax: Syntax) -> str:
    """The dense polynomial p in s, highest power first, through
    :func:`_slices`: a term's shape is (power k, c < 0, |c| = 1), and its
    template writes the sign, |c| unless it is 1 beside a power of s, and
    s^k, from the one column of the |c| texts.  "0" for no nonzero term."""
    ks = [k for k in range(len(p) - 1, -1, -1) if p[k]]
    if not ks:
        return "0"
    cs = [p[k] for k in ks]
    mags = list(map(abs, cs))

    def make(shape) -> str:
        k, negative, unit = shape
        factor = syntax.power % ("s", k) if k > 1 else "s" if k else ""
        head = "%.0s" if unit and factor else "%s" + syntax.times if factor else "%s"
        return (syntax.minus if negative else syntax.plus) + head + factor

    shapes = [(k, c < 0, m == 1) for k, c, m in zip(ks, cs, mags)]
    return _slices([(shapes, (map(syntax.coeff, mags),))], make, _sign_lead(syntax))[0]


def _lin_str(f: LinFactor) -> str:
    N, nu = f
    if N == 0:
        return str(nu)
    if N == 1:
        sp = "s"
    else:
        sp = "%s*s" % N
    return "%s + %s" % (sp, nu)


def _lin_latex(f: LinFactor) -> str:
    N, nu = f
    sp = "s" if N == 1 else "%ss" % frac_latex(N)
    return "%s+%s" % (sp, frac_latex(nu))
