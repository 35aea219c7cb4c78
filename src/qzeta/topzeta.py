"""The topological zeta function: univariate rational functions of s.

Euler specialization (L -> 1) turns each standard factor Fac(N; nu) into
1/(N s + nu), so a zeta expression becomes a sum of rational functions
of s whose denominators are products of linear factors.  :class:`TopZeta`
sums them over one common denominator and keeps only the reduced
quotient, which equality and hashing read through one canonical form.

The module also holds the two pieces of reduction that the rest of the
package shares.  Dense polynomials are tuples of coefficients, constant
term first: :func:`pmul`, :func:`padd` and the exact division
:func:`pdiv` serve both ``TopZeta`` (Fraction coefficients in s) and
:meth:`qzeta.monodromy.CyclotomicProduct.expand` (integers in t).
:func:`cancel` is the one reduction rule for a quotient over a product
of factors, used here and by ``symring.RatFunc``.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Mapping

__all__ = ["LinFactor", "TopZeta", "cancel", "frac_json", "frac_latex", "padd", "pdiv", "pmul"]

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


def cancel(numer, denom: Mapping, divide: Callable) -> tuple[object, Counter]:
    """Reduce numer / prod f^m over denom = {f: m}: the reduced numerator
    and a Counter of the factors left, filled in sorted order.

    The factors are tried in sorted order, each for as long as
    ``divide(numer, f)`` returns an exact quotient rather than None;
    multiplicities <= 0 are skipped, and a zero numerator keeps no factor.
    The order is part of the result: 1 - x^2 over (1 - x)(1 - x^2) reduces
    to (1 + x)/(1 - x^2) in this order and to 1/(1 - x) in the other.
    """
    left: Counter = Counter()
    if not numer:
        return numer, left
    for f in sorted(denom):
        m = denom[f]
        while m > 0:
            q = divide(numer, f)
            if q is None:
                break
            numer = q
            m -= 1
        if m > 0:
            left[f] = m
    return numer, left


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
    numer, left = cancel(numer, denom, _divide_linear)
    return numer, tuple(sorted(left.items()))


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

    def eval_at(self, s0) -> Fraction:
        s0 = Fraction(s0)
        num = sum((c * s0**k for k, c in enumerate(self.numer_red)), Fraction(0))
        den = Fraction(1)
        for (N, nu), m in self.denom_red:
            den *= (N * s0 + nu) ** m
        return num / den

    def poles(self) -> set[Fraction]:
        return {Fraction(-nu, 1) / N for (N, nu), _m in self.denom_red if N != 0}

    def __str__(self) -> str:
        if not self.numer_red:
            return "0"
        num = _spoly_str(self.numer_red)
        if not self.denom_red:
            return num
        den = " * ".join(
            "(%s)%s" % (_lin_str(f), "" if m == 1 else "^%d" % m)
            for f, m in self.denom_red
        )
        return "(%s) / (%s)" % (num, den)

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
        if not self.numer_red:
            return "0"
        num = _spoly_latex(self.numer_red)
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


def _spoly_str(p) -> str:
    # descending powers of s
    out = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            spow = "s" if k == 1 else "s^%d" % k
            body = spow if mag == 1 else "%s*%s" % (mag, spow)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out) if out else "0"


def _spoly_latex(p) -> str:
    out = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        if k == 0:
            body = frac_latex(abs(c))
        else:
            mag = abs(c)
            spow = "s" if k == 1 else "s^{%d}" % k
            body = spow if mag == 1 else "%s%s" % (frac_latex(mag), spow)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("-" if c < 0 else "+") + body)
    return "".join(out) if out else "0"


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
