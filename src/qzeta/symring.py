"""Exact symbolic arithmetic for motivic zeta functions.

Everything lives in a Laurent-monomial world built from two commuting
variables with rational exponents -- ``L`` (the class of the affine line)
and ``T = L^(-s)`` -- plus free commuting symbols standing for opaque
variety classes such as ``[C0]``.  A monomial ``L^(a*s + b)`` is stored
with T-exponent ``-a`` and L-exponent ``b``.

On top of the plain polynomials (:class:`MotPoly`, see
:mod:`qzeta.motpoly`) sit the standard one-coordinate factors

    Fac(N; nu) = (L - 1) * L^-(N*s + nu) / (1 - L^-(N*s + nu))

and finite sums  ``sum_k  c_k * prod_i Fac(N_i; nu_i)``
(:class:`ZetaExpr`), their reduced rational-function form, series and
the Euler specialization to :class:`TopZeta` (see :mod:`qzeta.topzeta`),
and their printers, which write a polynomial from the columns of its
sorted keys, :data:`SLICE_TERMS` terms at a time, through the one
writer of every printed sum, ``topzeta._slices``: it makes a
``%``-template per term shape and fills a slice of terms with one ``%``,
and each printer returns a list of slices that its ``str`` form joins.
All coefficients are integers and all exponents exact rationals: a
polynomial keeps its exponents as integers over one lattice scale r
(for a quotient by G they are ages, so r is the index), and prints them
from those integers; a factor keeps the integer triple (r, N*r, nu*r),
and the fold, which divides along that triple, and the series plan work
on integers too, while topological zetas are
:class:`fractions.Fraction` values.  Nothing is
approximated, and equality of zeta expressions is decided by exact
cross-multiplication.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from operator import add, attrgetter, eq, floordiv, lt, mul, sub
from typing import Iterable, Mapping

from .motpoly import (
    FractionalPowerUnevaluable,
    MissingChi,
    MotPoly,
    ValuesAtL,
    _mul_syms,
    _plus,
    _rescale,
    _times_binomial,
)
from .topzeta import LATEX, TEXT, Syntax, TopZeta, _lin_latex, cancel, frac_json, frac_latex
from .topzeta import _SKIP_COMMA, _sign_lead, _slices, quotient_slices

Rat = Fraction

# The largest bounds a series expansion may have (see series_expand): about
# 10 s and 1 GB for one command, as for groups.SIZE_LIMIT.  Each term the
# expansion can keep costs the most, as it is printed.  Measured on 2 shared
# vCPUs (CPython 3.11), `monomial --group "(1;0)" --N 1 --nu 1 --series M`
# took 2.3 s and 193 MB at M = 5*10^5 (10^6 terms) and 3.5 s and 301 MB at
# M = 7.5*10^5 (1.5*10^6 terms), and 255 and 394 MB with --json; the text
# is written in slices (see SLICE_TERMS), never joined whole.  A product
# that lands on a kept term costs less: with two factors on one ray,
# `monomial --group "(2;1,1)" --N 1,1 --nu 1,1 --series M` made 3.2*10^7 products in 8.4 s at M = 2000 and
# 3.9*10^7 in 10.2 s at M = 2200, in 22 MB.  Neither bound of a plan passes
# twice its coefficient length times the product of 2 * jmax over its
# factors; with the product limit at least twice the term limit, every plan
# within the term limit by that one measure is accepted.  The products are
# those of an expansion one factor at a time, which these figures timed.
# The expansion writes each term straight into one dict and forms no more
# products than the plan counts, so the limits bound its work from above:
# measured side by side, the M = 2000 command above takes 0.7 s, against
# 3.2 s one factor at a time.
SERIES_TERM_LIMIT = 15 * 10**5
SERIES_PRODUCT_LIMIT = 35 * 10**6

# The most sorted terms, or --eval-L columns, that one slice of printed text
# covers.  Each printer makes its text as a list of such slices, each from
# the columns of its own run of terms, and the CLI writes them one after
# another: so no column, text per term or values tuple as long as a big
# series or measure is held at once, and the text is never joined whole.
SLICE_TERMS = 512

__all__ = [
    "Rat",
    "MotPoly",
    "StdFactor",
    "ZetaExpr",
    "RatFunc",
    "TopZeta",
    "MissingChi",
    "FractionalPowerUnevaluable",
    "ze_to_ratfunc",
    "ze_equal",
    "euler_specialize",
    "series_expand",
    "candidate_poles",
]


# ---------------------------------------------------------------------------
# standard factors and zeta expressions


@functools.total_ordering
class StdFactor:
    """The factor (L-1) L^-(N s + nu) / (1 - L^-(N s + nu)).

    A point of the integer lattice: the factor holds its triple ``(r, N*r,
    nu*r)`` in lowest terms, r the least common denominator of N and nu,
    and its ray, the primitive pair on the line of ``(N, nu)``.  It reads
    the numerators and denominators of ints or Fractions (anything else
    goes through :class:`fractions.Fraction`) and makes no Fraction: the
    fold divides by its binomial along the integer direction ``(-nu*r,
    N*r)`` over r, and only the printers and the Euler specialization read
    ``N`` and ``nu``, as Fractions made from the triple on each read.
    Order and equality are those of the pair ``(N, nu)``, decided on the
    triple by cross-multiplication.
    """

    __slots__ = ("_lat", "_hash", "_ray")

    def __init__(self, N, nu):
        if not isinstance(N, (int, Fraction)):
            N = Fraction(N)
        if not isinstance(nu, (int, Fraction)):
            nu = Fraction(nu)
        (a, b), (c, d) = N.as_integer_ratio(), nu.as_integer_ratio()
        r = math.lcm(b, d)
        n, v = a * (r // b), c * (r // d)
        if n < 0:
            raise ValueError("factor needs N >= 0, got %s" % (Fraction(a, b),))
        if v <= 0:
            raise ValueError("factor needs nu > 0, got %s" % (Fraction(c, d),))
        # a prime of r divides b or d to its full power, and so not the
        # numerator scaled by r // b or r // d: the triple is in lowest terms
        self._lat = lat = (r, n, v)
        # the fold looks factors up in dicts several times per term
        self._hash = hash(lat)
        g = math.gcd(n, v)
        self._ray = (n // g, v // g)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, StdFactor):
            return NotImplemented
        return self._lat == other._lat

    def __lt__(self, other):
        if not isinstance(other, StdFactor):
            return NotImplemented
        r1, n1, v1 = self._lat
        r2, n2, v2 = other._lat
        a, b = n1 * r2, n2 * r1
        if a != b:
            return a < b
        return v1 * r2 < v2 * r1

    @property
    def N(self) -> Fraction:
        r, n, _v = self._lat
        return Fraction(n, r)

    @property
    def nu(self) -> Fraction:
        r, _n, v = self._lat
        return Fraction(v, r)

    @property
    def is_trivial(self) -> bool:
        # Fac(0; 1) = (L-1) L^-1 / (1 - L^-1) = 1.
        return self._lat == (1, 0, 1)

    def __str__(self) -> str:
        return "Fac(%s; %s)" % (self.N, self.nu)

    def __repr__(self) -> str:
        return "StdFactor(N=%r, nu=%r)" % (self.N, self.nu)


def fac(N, nu) -> StdFactor:
    return StdFactor(N, nu)


FacTuple = tuple[StdFactor, ...]


def _merge(pairs: Iterable[tuple[FacTuple, MotPoly]]) -> dict[FacTuple, MotPoly]:
    """The (factors, coefficient) pairs with equal factor tuples summed, in
    the order of each tuple's first insertion, and zero sums dropped."""
    acc: dict[FacTuple, MotPoly] = {}
    for key, c in pairs:
        s = acc.get(key)
        acc[key] = c if s is None else s + c
    return {k: v for k, v in acc.items() if not v.is_zero}


class ZetaExpr:
    """Finite sum of  coeff * prod of standard factors.

    Terms with identical factor multisets are merged; trivial factors
    Fac(0; 1) are dropped on construction.  Internal term order is the
    order of first insertion (rendering always sorts canonically); the
    rational-function fold adds neighbours in that order first (a
    balanced tree when the distinct factors lie on distinct rays, one term
    at a time otherwise, see :func:`ze_to_ratfunc`), which builders
    exploit so that telescoping cancellations happen early.

    An expression cannot be changed after construction: nothing writes
    to ``_terms`` once a constructor has set it, and its coefficients
    (:class:`MotPoly`) are never changed in place either.  So the
    expression caches its fold: :func:`ze_to_ratfunc` reduces it at most
    once and keeps the :class:`RatFunc`, which is not changed either, in
    ``_rf``.
    """

    __slots__ = ("_terms", "_rf")

    def __init__(self, terms: Iterable[tuple[MotPoly, Iterable[StdFactor]]] = ()):
        self._terms = _merge(
            (
                tuple(sorted(f for f in factors if not f.is_trivial)),
                coeff if isinstance(coeff, MotPoly) else MotPoly.const(coeff),
            )
            for coeff, factors in terms
        )
        self._rf = None

    @classmethod
    def _of(cls, terms: dict[FacTuple, MotPoly]) -> "ZetaExpr":
        """The expression with these merged, nonzero terms; taken over, not
        copied."""
        out = cls.__new__(cls)
        out._terms = terms
        out._rf = None
        return out

    @classmethod
    def zero(cls) -> "ZetaExpr":
        return cls()

    @classmethod
    def one(cls) -> "ZetaExpr":
        return cls([(MotPoly.one(), ())])

    @classmethod
    def of(cls, coeff: MotPoly, factors: Iterable[StdFactor] = ()) -> "ZetaExpr":
        return cls([(coeff, factors)])

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[FacTuple, MotPoly]]:
        """Canonically sorted (factors, coefficient) pairs."""
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def iter_terms(self):
        """(factors, coefficient) pairs in internal (insertion) order."""
        return self._terms.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted((k, hash(v)) for k, v in self._terms.items())))

    def __add__(self, other) -> "ZetaExpr":
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return ZetaExpr._of(_merge(itertools.chain(self._terms.items(), other._terms.items())))

    def __neg__(self) -> "ZetaExpr":
        return ZetaExpr._of({k: -v for k, v in self._terms.items()})

    def __sub__(self, other) -> "ZetaExpr":
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "ZetaExpr":
        if isinstance(other, (int, MotPoly)):
            return self.scale(other)
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return ZetaExpr._of(
            _merge(
                (tuple(sorted(f1 + f2)), c1 * c2)
                for f1, c1 in self._terms.items()
                for f2, c2 in other._terms.items()
            )
        )

    __rmul__ = __mul__

    def scale(self, c) -> "ZetaExpr":
        if isinstance(c, int):
            c = MotPoly.const(c)
        return ZetaExpr._of(_merge((k, v * c) for k, v in self._terms.items()))

    def __str__(self) -> str:
        return render_zeta(self)

    def __repr__(self) -> str:
        return "ZetaExpr(%s)" % render_zeta(self)

    def latex(self) -> str:
        return latex_zeta(self)

    def json_obj(self):
        out = []
        for facs, coeff in self.terms():
            out.append(
                {
                    "coeff": coeff.json_obj(),
                    "factors": [
                        {"N": frac_json(f.N), "nu": frac_json(f.nu), "mult": m}
                        for f, m in _pairs(facs)
                    ],
                }
            )
        return {"kind": "zeta", "terms": out}


# ---------------------------------------------------------------------------
# rational-function form


def _times_L_minus_one(terms: dict, k: int, R: int) -> dict:
    """The lattice terms on the scale R times (L - 1)^k: the sum over j of
    C(k, j) (-1)^(k - j) L^j times the terms, one pass over them per j."""
    acc = {key: (-1) ** k * c for key, c in terms.items()}
    get = acc.get
    for j in range(1, k + 1):
        w, shift = math.comb(k, j) * (-1) ** (k - j), j * R
        for (t, l, s), c in terms.items():
            key = (t, l + shift, s)
            if v := get(key, 0) + w * c:
                acc[key] = v
            else:
                del acc[key]
    return acc


class RatFunc:
    """numer / prod (1 - L^-nu T^N)^mult, with an exact-division reduction.

    A reduced quotient -- one that :meth:`from_term` or
    :func:`ze_to_ratfunc` returns -- keeps the invariant that no factor
    left in its denominator divides its numerator (and a zero numerator
    keeps no factor).  The fold relies on it to skip the divisions that
    provably fail.  A quotient that may keep a dividing factor -- built by
    hand, or by :meth:`unreduced`, which :func:`ze_equal` takes for a side
    of one term -- is valid only for :meth:`equivalent`.

    The skips rest on one fact.  A binomial 1 - L^-nu T^N is 1 - y^k for
    the primitive monomial y on its ray, so it is a product of cyclotomic
    polynomials in y; the Laurent ring over a common lattice is a UFD, so
    binomials on different rays, as well as integers, monomials and
    (L - 1) against an N > 0 factor, are coprime.

    The numerator is kept as ``(L - 1)^k * core``, the content (L - 1)^k
    that every factor's numerator (L - 1) L^-nu T^N brings held as the
    exponent k.  Each factor with N > 0 is coprime to L - 1, so it divides
    the numerator exactly when it divides the core, and the fold divides
    and raises to common denominators the core alone, about half the size
    of the numerator.  A factor with N = 0, 1 - L^-nu, shares a factor
    with L - 1: the core absorbs the content before one is tried.
    ``numer`` is expanded on its first read, and kept; the quotient is the
    same, term for term, as the one that divides whole numerators.  A
    quotient is not changed after it is made.

    The fold holds every quotient it makes as a :class:`RatFunc` whose
    core lies on the fold's one scale R, and reads R from the core.
    """

    __slots__ = ("_core", "_k", "_numer", "denom")

    def __init__(self, core: MotPoly, denom: tuple[tuple[StdFactor, int], ...], k: int = 0):
        """The quotient (L - 1)^k * core / denom, denom sorted (factor,
        multiplicity) pairs with multiplicities >= 1; with k = 0 the core
        is the numerator, and a zero core keeps k = 0."""
        self._core, self.denom = core, denom
        self._k = k if core else 0
        self._numer = None if self._k else core

    @property
    def numer(self) -> MotPoly:
        """The numerator (L - 1)^k * core, expanded on the first read."""
        numer = self._numer
        if numer is None:
            r = self._core._r
            numer = self._numer = MotPoly.from_lattice(_times_L_minus_one(self._core._terms, self._k, r), r)
        return numer

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.denom == other.denom and self.numer == other.numer

    def __hash__(self):
        return hash((self.numer, self.denom))

    def __repr__(self) -> str:
        return "RatFunc(%s)" % self

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(MotPoly.zero(), ())

    @classmethod
    def from_term(cls, coeff: MotPoly, factors: FacTuple) -> "RatFunc":
        """coeff * prod Fac(N; nu), reduced; ``factors`` is sorted.

        The core is the coefficient times the monomials L^-nu T^N, on the
        least common scale of the coefficient and the factors, and k counts
        the factors.  When the coefficient's coefficients sum to zero,
        L - 1 may divide it, and each L - 1 it takes out adds one to k; not
        when a factor has N = 0, since the core takes the content back
        before that factor is tried.  With a coefficient of T-span 0 (one
        T-power, as in a monomial or a T-free polynomial) no N > 0 factor
        is tried: the core has T-span 0 too, and a multiple of
        1 - L^-nu T^N has a T-span of at least N.
        """
        if not coeff:
            return cls.zero()
        pairs = _pairs(factors)
        taus = {key[0] for key in coeff._terms}
        skip = {f for f, _m in pairs if f._lat[1]} if len(taus) == 1 else ()
        k = len(factors)
        if not factors or factors[0]._lat[1]:  # the factors with N = 0 come first
            while (q := coeff.divide_L_minus_one()) is not None:
                coeff, k = q, k + 1
        return _reduce(_lifted(coeff, factors), k, pairs, skip)

    @classmethod
    def unreduced(cls, coeff: MotPoly, factors: FacTuple) -> "RatFunc":
        """coeff * prod Fac(N; nu) as the quotient coeff * prod (L - 1)
        L^-nu T^N over prod (1 - L^-nu T^N), with no division tried; valid
        for :meth:`equivalent` only.  ``factors`` is sorted."""
        return cls(_lifted(coeff, factors), tuple(_pairs(factors)), len(factors))

    def equivalent(self, other: "RatFunc") -> bool:
        """Equality as rational functions, for any two quotients, reduced
        or not: on one scale, brought to the lesser content exponent k and
        the least common denominator as the fold brings two sums (see
        :func:`_raised`), the cores agree (the ring is a domain, so the
        common (L - 1)^k cancels)."""
        R = math.lcm(self._core._r, other._core._r, *(f._lat[0] for f, _m in self.denom + other.denom))
        na, nb, _k, _rows = _raised(*(RatFunc(q._core.mul_monomial(R, (0, 0)), q.denom, q._k)
                                      for q in (self, other)))
        return na == nb

    def __str__(self) -> str:
        return "".join(render_ratfunc_slices(self))


def render_ratfunc_slices(q: RatFunc) -> list[str]:
    """The text of ``q`` as slices: its numerator's, with the common
    monomial pulled out front, between the parentheses and the factors of
    the denominator."""
    return quotient_slices(
        render_poly_factored_slices(q.numer), [(_binomial_text(f._lat), m) for f, m in q.denom]
    )


def _binomial_text(lat: tuple[int, int, int]) -> str:
    """The text ``1 - L^a * T^b`` of the binomial 1 - L^-nu T^N of the
    factor with the triple (r, N*r, nu*r), as :func:`render_poly` writes
    it: each exponent in lowest terms, a fractional one in parentheses,
    T^1 as ``T``, and no T for N = 0.  Here nu > 0, so L's power is never
    0 or 1 and is always written."""
    r, n, v = lat
    g = math.gcd(v, r)
    ell = "%d" % (-v // r) if g == r else "(%d/%d)" % (-v // g, r // g)
    if not n:
        return "1 - L^" + ell
    g = math.gcd(n, r)
    if g == r:
        return "1 - L^%s * T" % ell if n == r else "1 - L^%s * T^%d" % (ell, n // r)
    return "1 - L^%s * T^(%d/%d)" % (ell, n // g, r // g)


def _lifted(p: MotPoly, factors: FacTuple) -> MotPoly:
    """p times the monomials L^-nu T^N of the ``factors``' numerators, on
    the least common scale of p and the factors."""
    R = math.lcm(*(f._lat[0] for f in factors))
    tau = ell = 0
    for r, n, v in map(attrgetter("_lat"), factors):
        tau += n * (R // r)
        ell -= v * (R // r)
    return p.mul_monomial(R, (tau, ell))


def _pairs(factors: FacTuple) -> list[tuple[StdFactor, int]]:
    """The (factor, multiplicity) pairs of a sorted factor tuple."""
    return [(f, len(list(run))) for f, run in itertools.groupby(factors)]


def _reduce(core: MotPoly, k: int, pairs, skip) -> RatFunc:
    """(L - 1)^k * core over the (factor, multiplicity) ``pairs``, reduced
    by :func:`qzeta.topzeta.cancel` on the core, ``skip`` as there, each
    division staying on the core's scale.  The content goes into the core
    first when a factor with N = 0 is tried."""
    if not core:
        return RatFunc(core, ())
    left = tuple(pairs)
    if len(skip) < len(pairs):
        if k:
            for f, _m in pairs:  # the factors with N = 0 come first
                if f._lat[1]:
                    break
                if f not in skip:
                    R = core._r
                    core, k = MotPoly.from_lattice(_times_L_minus_one(core._terms, k, R), R), 0
                    break
        core, left = cancel(core, pairs, _divide_factor, skip)
    return RatFunc(core, left, k)


def _raised(a: RatFunc, b: RatFunc) -> tuple:
    """Two quotients whose cores lie on one scale R, over one denominator:
    (na, nb, k, rows) with a = (L - 1)^k * na / D and b = (L - 1)^k * nb
    / D, na and nb the lattice terms on R, k the lesser content exponent
    and D the least common denominator, and rows the (factor, multiplicity
    in a, multiplicity in b) of each factor of D, in sorted order."""
    R = a._core._r
    na, k, nb, kb = a._core._terms, a._k, b._core._terms, b._k
    if k > kb:
        na, k = _times_L_minus_one(na, k - kb, R), kb
    elif k < kb:
        nb = _times_L_minus_one(nb, kb - k, R)
    ma, mb = dict(a.denom), dict(b.denom)
    rows = [(f, ma.get(f, 0), mb.get(f, 0)) for f in sorted({**ma, **mb})]
    for f, x, y in rows:
        r, n, v = f._lat
        n, v = n * (R // r), v * (R // r)
        for _ in range(y - x):
            na = _times_binomial(na, 0, 0, n, -v)
        for _ in range(x - y):
            nb = _times_binomial(nb, 0, 0, n, -v)
    return na, nb, k, rows


def _add(a: RatFunc, b: RatFunc, alone: bool) -> RatFunc:
    """The reduced sum of two reduced quotients whose cores lie on one
    scale; ``alone`` says that no two distinct factors of the fold share
    a ray.

    A factor f with unequal multiplicities on the two sides, and no other
    factor of the common denominator on its ray, is not tried.  Say it has
    more in a.  Raised to the common denominator, b's numerator has f as a
    factor; a's is its own numerator (which f does not divide, by the
    invariant) times binomials on other rays, coprime to f, so f does not
    divide the sum.  Nor is any factor tried when one side is zero.
    """
    if not a._core:
        return b
    if not b._core:
        return a
    na, nb, k, rows = _raised(a, b)
    skip = {f for f, x, y in rows if x != y}
    if skip and not alone:
        seen = Counter(f._ray for f, _x, _y in rows)
        skip = {f for f in skip if seen[f._ray] == 1}
    core = MotPoly.from_lattice(_plus(na, nb), a._core._r)
    return _reduce(core, k, [(f, max(x, y)) for f, x, y in rows], skip)


def _divide_factor(p: MotPoly, f: StdFactor) -> MotPoly | None:
    """p / (1 - L^-nu T^N) for f = Fac(N; nu), or None."""
    r, n, v = f._lat
    return p.divide_one_minus(-v, n, r)


def ze_to_ratfunc(z: ZetaExpr) -> RatFunc:
    """Fold a zeta expression into a single reduced rational function.

    The fold runs on one lattice scale R, the lcm of every coefficient's
    and factor's scale, fixed before the first term.  Each term is reduced
    on its own by :meth:`RatFunc.from_term`, its coefficient put on R, and
    the quotients, each a :class:`RatFunc` whose core lies on R, are added
    by :func:`_add`, with a cancellation pass after each addition, so no
    step rescales.  Each division reads a factor's integer triple, so the
    fold makes no Fraction.
    Each step's quotient is reduced, so each step can skip the divisions
    that coprimality rules out; the result is the one that trying every
    division gives.

    When the distinct factors of ``z`` lie on pairwise distinct rays, the
    sum is taken in a balanced tree over the insertion order, neighbours
    pairwise, level by level: their binomials are coprime, so the reduced
    quotient does not depend on the order.  Builders put terms that share
    a factor next to each other, so the telescoping cancellations happen
    at the first merge that holds them, on numerators of the size of a
    few terms.  When two distinct factors share a ray, which factor a
    reduction keeps depends on the order (see :func:`qzeta.topzeta.cancel`),
    and the terms are added one by one in insertion order.  The result is
    kept on ``z``, so a later call (``--check`` after printing, say)
    returns the same object without folding again.
    """
    rf = z._rf
    if rf is None:
        terms = z._terms
        facs = {f for factors in terms for f in factors}
        alone = len({f._ray for f in facs}) == len(facs)
        R = math.lcm(*(c._r for c in terms.values()), *(f._lat[0] for f in facs))
        level = [RatFunc.from_term(MotPoly.from_lattice(_rescale(c._terms, R // c._r), R), factors)
                 for factors, c in terms.items()]
        if alone:
            while len(level) > 1:
                merged = [_add(a, b, True) for a, b in zip(level[::2], level[1::2])]
                level = merged + level[-1:] if len(level) % 2 else merged
        elif level:
            level = [functools.reduce(lambda a, b: _add(a, b, False), level)]
        rf = z._rf = level[0] if level else RatFunc.zero()
    return rf


def ze_equal(a: ZetaExpr, b: ZetaExpr) -> bool:
    """Exact equality as rational functions.

    Two expressions with the same terms are equal, and nothing is folded:
    the strata and the closed forms of the yomdin and tetra families
    meet this way.  Otherwise each side becomes a quotient.  A side with
    one term and no kept fold, such as the direct route of ``hj``, is
    taken as its unreduced quotient (:meth:`RatFunc.unreduced`); any
    other side is folded, at most once over its lifetime (see
    :func:`ze_to_ratfunc`), so a fold that was printed is not made again.
    Comparing quotients is sound because the ambient ring (Laurent
    monomials with bounded-denominator exponents over free symbols) is an
    integral domain, so cross-multiplied numerators agree iff the
    quotients do, reduced or not.
    """
    if a._terms == b._terms:
        return True
    return _quotient(a).equivalent(_quotient(b))


def _quotient(z: ZetaExpr) -> RatFunc:
    """The fold of ``z``, or its unreduced quotient when it has one term
    and no fold is kept."""
    if z._rf is None and len(z._terms) == 1:
        ((factors, coeff),) = z._terms.items()
        return RatFunc.unreduced(coeff, factors)
    return ze_to_ratfunc(z)


def candidate_poles(z: ZetaExpr) -> set[Fraction]:
    """All -nu/N over factors with N > 0 anywhere in the expression."""
    out = set()
    for facs in z._terms:
        for f in facs:
            _r, n, v = f._lat
            if n:
                out.add(Fraction(-v, n))
    return out


def series_expand(z: ZetaExpr, M) -> MotPoly:
    """Power-series expansion around T = 0, truncated to T-exponents <= M.

    Each factor expands as (L-1) * sum_{j>=1} L^(-j nu) T^(j N); a factor
    with N = 0 (and nu != 1, since Fac(0;1) never survives construction)
    has no such expansion.  When a term that the truncation keeps has one,
    the expression is folded instead: if no factor is left, the series is
    the reduced numerator, truncated; otherwise the expansion is refused.

    Each term is planned before any is expanded: a factor raises the least
    T-exponent lo by exactly N (the ring is a domain), so its sum stops at
    jmax = floor((M - lo) / N) with lo known in advance.  Two measures are
    bounded, each summed over the terms: the products that an expansion
    one factor at a time makes (a step multiplies the terms kept so far by
    2 * jmax), and the most terms it keeps at once.  The terms kept after a
    step are at most the products of that step, and at most the
    coefficient length times k + 1 times the tuples of T-exponents that
    the rays can reach: the factors of one ray move a monomial along that
    ray, and the k factors (L - 1) so far add an L-exponent from 0 to k.  A ray whose factors' N have gcd g
    and sum t reaches t + g*y for y >= 0.  The tuples y are counted for
    each ray alone up to M, and, since the rays share one budget, jointly:
    for each y with sum g*y <= c = M - lo0 - sum t, the box of sides g at
    the point g*y lies in the simplex u >= 0, sum u <= c + sum g, and the
    boxes are disjoint, so over r rays there are at most
    (c + sum g)^r / (r! * prod g).  The lesser count is taken.  Over
    :data:`SERIES_TERM_LIMIT` terms or :data:`SERIES_PRODUCT_LIMIT`
    products the expansion is refused.  The plan is made on integers, all
    its exponents and bounds taken times one common scale S.

    Each planned term is then written straight into one dict, on the
    least common scale of the coefficients and factors.  The coefficient
    times (L - 1)^k, spread with binomial weights, is grouped into rows of
    L-terms, one per (T-power, symbols).  The points of the term's cone,
    the monomials prod x_i^j_i with every j_i >= 1 for x_i = L^-nu_i T^N_i,
    are walked once (see :func:`_cone_runs`), each factor's room being the
    cut less the coefficient's least T-exponent and the least T that the
    other factors still add.  Each row takes the points in ascending T
    until its room runs out, so no product past T^M is formed, and each
    term of the row times each point is added into the dict.  Those
    products are at most the coefficient length times k + 1 times the
    tuples counted above, and so within both bounds.
    """
    M = Fraction(M)
    if M < 0:
        raise ValueError("truncation order must be >= 0")
    # the plan on the integer lattice of the scale S: every bound below is
    # its rational form times S, and a floor of a ratio is the same floor
    S = math.lcm(M.denominator, *(c.scale for c in z._terms.values()),
                 *(f._lat[0] for factors in z._terms for f in factors))
    top = M.numerator * (S // M.denominator)
    plan = []
    products = kept = 0
    for factors, coeff in z.iter_terms():
        cur = coeff.truncate_tau(M)
        if cur.is_zero:
            continue
        lo = lo0 = min(t for t, _l, _s in cur._terms) * (S // cur.scale)
        steps = []
        keys = most = len(cur)
        work = 0
        rays: dict = {}  # ray -> (gcd of its N*S, sum of its N*S)
        for f in sorted(factors):
            r, n, _v = f._lat
            if not n:
                return _fold_series(z, M, f)
            n *= S // r
            jmax = (top - lo) // n
            if jmax < 1:
                break
            steps.append(f)
            work += keys * 2 * jmax
            step, total = rays.get(f._ray, (0, 0))
            rays[f._ray] = (math.gcd(step, n), total + n)
            points = math.prod((top - lo0 - t) // g + 1 for g, t in rays.values())
            gs, ts = zip(*rays.values())
            c = top - lo0 - sum(ts)
            simplex = (c + sum(gs)) ** len(gs) // (math.factorial(len(gs)) * math.prod(gs))
            points = min(points, simplex)
            keys = min(keys * 2 * jmax, len(cur) * (len(steps) + 1) * points)
            most = max(most, keys)
            lo += n
        else:
            plan.append((cur, steps))
            products += work
            kept += most
    for n, limit, what in (
        (kept, SERIES_TERM_LIMIT, "terms"),
        (products, SERIES_PRODUCT_LIMIT, "products"),
    ):
        if n > limit:
            raise ValueError(
                "refusing to expand to T-order %s: about %d %s, over the limit %d"
                % (M, n, what, limit)
            )
    R = math.lcm(*(cur.scale for cur, _f in plan), *(f._lat[0] for _c, fs in plan for f in fs))
    cut = M.numerator * R // M.denominator
    acc: dict = {}
    get = acc.get
    for cur, factors in plan:
        # the coefficient times (L - 1)^k, an L-polynomial per (T, symbols)
        rows: dict = {}
        terms = _times_L_minus_one(_rescale(cur._terms, R // cur.scale), len(factors), R)
        for (t, l, s), c in terms.items():
            rows.setdefault((t, s), {})[l] = c
        runs = _cone_runs(factors, R, cut - min(t for t, _s in rows))
        for (t0, s), row in rows.items():
            for ts, ls, cs in runs:
                # the run's points within this row's room, moved to its T-power
                kept = list(map(add, ts[: bisect.bisect_right(ts, cut - t0)], itertools.repeat(t0)))
                for l0, w in row.items():
                    keys = zip(kept, map(add, ls, itertools.repeat(l0)), itertools.repeat(s))
                    for key, x in zip(keys, map(mul, cs, itertools.repeat(w))):
                        x += get(key, 0)
                        if x:
                            acc[key] = x
                        else:
                            del acc[key]
    return MotPoly.from_lattice(acc, R)


def _fold_series(z: ZetaExpr, M: Fraction, f: StdFactor) -> MotPoly:
    """The series of ``z``, one of whose terms has the factor ``f`` with
    N = 0, which has no expansion in T: the reduced quotient's numerator
    truncated at T^M when the fold leaves no factor.  Otherwise the
    expansion is refused: as a factor with no expansion, ``f``, when the
    fold leaves one with N = 0, and naming the factors left when it leaves
    only ones with N > 0, since ``f`` may then be gone from the quotient."""
    rf = ze_to_ratfunc(z)
    if not rf.denom:
        return rf.numer.truncate_tau(M)
    if rf.denom[0][0].N == 0:  # the factors with N = 0 come first
        raise ValueError("factor %s has no Laurent expansion in T" % (f,))
    left = ", ".join(str(g) if m == 1 else "%s^%d" % (g, m) for g, m in rf.denom)
    raise ValueError(
        "the factors with N = 0 cancel, but the reduced quotient keeps %s;"
        " it is expanded only when no factor is left" % left
    )


def _cone_runs(factors, R: int, room: int) -> list[tuple]:
    """The monomials prod x_i^j_i, every j_i >= 1, over the ``factors``'
    x_i = L^-nu_i T^N_i, up to the T-exponent ``room``, on the scale R:
    runs (ts, ls, cs), each ascending in T, of the points' T- and
    L-exponents and the number of ways each is reached.

    The factor of least N comes last: a run is its points from one point
    of the other factors' cone, made by range().  When it shares its ray
    with another factor, runs from different points would meet, so the
    whole cone is walked, its meeting points merged, and it is one run."""
    lats = sorted(((n * (R // r), v * (R // r)) for r, n, v in map(attrgetter("_lat"), factors)),
                  reverse=True)
    # (a, b) lies on the ray of (n, v) when a * v == b * n
    if not lats or any(a * lats[-1][1] == b * lats[-1][0] for a, b in lats[:-1]):
        points = _cone_points(lats, room)
        keys = sorted(points)
        return [([t for t, _l in keys], [l for _t, l in keys], list(map(points.__getitem__, keys)))]
    n, v = lats.pop()
    runs = []
    for (t, l), c in _cone_points(lats, room - n).items():
        j = (room - t) // n
        runs.append((range(t + n, t + (j + 1) * n, n), range(l - v, l - (j + 1) * v, -v), [c] * j))
    return runs


def _cone_points(lats, room: int) -> dict[tuple[int, int], int]:
    """The cone of the lattice steps ``lats`` = [(N_i*R, nu_i*R)] up to
    the T-exponent ``room``, as {(t, l): the number of ways it is
    reached}, walked one factor at a time, each up to ``room`` less the
    least T that the later factors still add."""
    tail = sum(n for n, _v in lats)
    points = {(0, 0): 1}
    for n, v in lats:
        tail -= n
        top = room - tail
        nxt: dict = {}
        get = nxt.get
        for (t, l), c in points.items():
            j = (top - t) // n
            for key in zip(range(t + n, t + (j + 1) * n, n), range(l - v, l - (j + 1) * v, -v)):
                nxt[key] = get(key, 0) + c
        points = nxt
    return points


# ---------------------------------------------------------------------------
# topological (Euler) specialization


def euler_specialize(z: ZetaExpr, chi_env: Mapping[str, int] | None = None) -> TopZeta:
    """Topological specialization: L -> 1.

    Each factor Fac(N; nu) contributes 1/(N s + nu); a factor with N = 0
    folds into the coefficient as the scalar 1/nu.  Coefficients go to
    their Euler characteristics (L -> 1, T = L^(-s) -> 1, symbols to
    their chi values; :class:`MissingChi` if one has none).
    """
    terms = []
    for factors, coeff in z.terms():
        c = Fraction(coeff.chi(chi_env))
        lins: Counter = Counter()
        for f in factors:
            if f.N == 0:
                c /= f.nu
            else:
                lins[(f.N, f.nu)] += 1
        if c != 0:
            terms.append((c, lins))
    return TopZeta(terms)


# ---------------------------------------------------------------------------
# rendering: through topzeta's one writer of slices, one template per term shape


def _exponents(xs, r: int, fixed: Mapping[int, int] | None = None, shift: int = 0):
    """The codes and reduced numerators of the exponents x/r of the column
    ``xs`` less ``shift``, by one gcd and one floordiv map: with g = gcd(x, r),
    x/r = (x//g)/(r//g), and the code is g, or ``fixed[x]`` for x in ``fixed``."""
    if shift:
        xs = list(map(sub, xs, itertools.repeat(shift)))
    gs = list(map(math.gcd, xs, itertools.repeat(r)))
    return gs if fixed is None else map(fixed.get, xs, gs), map(floordiv, xs, gs)


def _poly_slices(p: MotPoly, syntax: Syntax, tau: int = 0, ell: int = 0) -> list[str]:
    """The text of ``p`` over the monomial ``T^tau L^ell`` (on p's scale) in
    ``syntax``, a slice per :data:`SLICE_TERMS` sorted terms ("0" for none).
    A term's shape is (L code, T code, symbols, c < 0, |c| = 1), the codes of
    :func:`_exponents` with the exponents 0 and 1 fixed at 0 and -1.  Its
    template writes the sign, |c| unless it is 1 beside factors, and the powers
    of L, T and each symbol but no power 0 and, unless the syntax writes it, no
    power 1, from |c| and the L- and T-numerators (``%.0s`` where unwritten)."""
    r, power, ratio, times = p.scale, syntax.power, syntax.ratio, syntax.times
    plus, minus = syntax.plus, syntax.minus
    fixed, zeros, ones = {0: 0, r: -1}, itertools.repeat(0), itertools.repeat(1)

    def runs():
        for ts, ls, symss, cs in p.column_slices(SLICE_TERMS):
            lcodes, lnums = _exponents(ls, r, fixed, ell)
            tcodes, tnums = _exponents(ts, r, fixed, tau)
            mags = list(map(abs, cs))
            yield zip(lcodes, tcodes, symss, map(lt, cs, zeros), map(eq, mags, ones)), (mags, lnums, tnums)

    def make(shape) -> str:
        lcode, tcode, syms, negative, unit = shape
        factors, skipped = [], ""
        for base, code in ((syntax.L, lcode), ("T", tcode)):
            if not code:
                skipped += "%.0s"
                continue
            exp = "%s" if code in (-1, r) else ratio % ("%s", r // code)
            factors.append(skipped + (base + "%.0s" if code == -1 and not syntax.unit else power % (base, exp)))
            skipped = ""
        for n, e in syms:
            name = ("[%s]" % n).replace("%", "%%")
            factors.append(name if e == 1 else power % (name, e))
        head = "%.0s" if unit and factors else "%s" + times if factors else "%s"
        return (minus if negative else plus) + head + times.join(factors) + skipped

    return _slices(runs(), make, _sign_lead(syntax)) or ["0"]


def render_poly_slices(p: MotPoly) -> list[str]:
    return _poly_slices(p, TEXT)


def render_poly(p: MotPoly) -> str:
    return "".join(render_poly_slices(p))


def render_poly_factored_slices(p: MotPoly) -> list[str]:
    """Render with the common monomial pulled out front: ``L^-2 * (1 + L)``."""
    if len(p) <= 1:
        return render_poly_slices(p)
    tau, ell, syms = key = p.gcd_monomial()
    r = p.scale
    head = "(" if key == (0, 0, ()) else _poly_slices(MotPoly.from_lattice({key: 1}, r), TEXT)[0] + " * ("
    if syms:
        # dropping symbol powers can reorder the terms, so they are sorted again
        inv = tuple((n, -e) for n, e in syms)
        p = MotPoly.from_lattice({(t, l, _mul_syms(s, inv)): c for (t, l, s), c in p._terms.items()}, r)
    return [head, *_poly_slices(p, TEXT, tau, ell), ")"]


def render_poly_factored(p: MotPoly) -> str:
    return "".join(render_poly_factored_slices(p))


def render_zeta(z: ZetaExpr) -> str:
    terms = z.terms()
    if not terms:
        return "0"
    chunks = []
    for facs, coeff in terms:
        fparts = [str(f) if m == 1 else "%s^%d" % (f, m) for f, m in _pairs(facs)]
        if fparts and coeff == MotPoly.one():
            chunks.append(" * ".join(fparts))
        else:
            body = render_poly_factored(coeff)
            chunks.append(" * ".join([body] + fparts))
    return " + ".join(chunks)


def latex_poly_slices(p: MotPoly) -> list[str]:
    return _poly_slices(p, LATEX)


def latex_poly(p: MotPoly) -> str:
    return "".join(latex_poly_slices(p))


def latex_zeta(z: ZetaExpr) -> str:
    terms = z.terms()
    if not terms:
        return "0"
    chunks = []
    for facs, coeff in terms:
        fparts = []
        for f, m in _pairs(facs):
            e = frac_latex(f.nu) if f.N == 0 else _lin_latex((f.N, f.nu))
            frac = (
                "\\frac{(\\mathbb{L}-1)\\mathbb{L}^{-(%s)}}{1-\\mathbb{L}^{-(%s)}}"
                % (e, e)
            )
            fparts.append(frac if m == 1 else "\\left(%s\\right)^{%d}" % (frac, m))
        cpart = latex_poly(coeff)
        if "+" in cpart[1:] or "-" in cpart[1:]:
            cpart = "\\left(%s\\right)" % cpart
        if fparts and coeff == MotPoly.one():
            chunks.append("".join(fparts))
        else:
            chunks.append("".join([cpart] + fparts))
    return " + ".join(chunks)


def json_poly_slices(p: MotPoly) -> list[str]:
    """The JSON text of ``p.json_obj()``, written straight off the integer
    key columns, as slices: "[", one per :data:`SLICE_TERMS` sorted terms,
    and "]".  A term's shape is the gcd codes of its exponents and its
    symbols, which go through :func:`json.dumps` (so names are escaped as
    it escapes them); its template takes the L- and T-numerators and c."""
    r = p.scale

    def runs():
        for ts, ls, symss, cs in p.column_slices(SLICE_TERMS):
            (lgs, lnums), (tgs, tnums) = _exponents(ls, r), _exponents(ts, r)
            yield zip(lgs, tgs, symss), (lnums, tnums, cs)

    def make(shape) -> str:
        lg, tg, syms = shape
        syms = json.dumps(dict(syms), sort_keys=True).replace("%", "%%") if syms else "{}"
        return ', {"L": {"den": %d, "num": %%s}, "T": {"den": %d, "num": %%s}, "c": %%s, "syms": %s}' % (
            r // lg, r // tg, syms)

    return ["[", *_slices(runs(), make), "]"]


def json_poly(p: MotPoly) -> str:
    return "".join(json_poly_slices(p))


def _value_slices(vals: ValuesAtL, part: str, whole: str, lead, *getters) -> list[str]:
    """The slices of the columns of ``vals``, :data:`SLICE_TERMS` a slice: a
    column is ``whole`` for a whole T-exponent, else ``part`` with its reduced
    denominator, of its numerator, then its value or each of ``getters`` of it."""
    ts, values, r = vals

    def runs():
        for i in range(0, len(ts), SLICE_TERMS):
            gs, nums = _exponents(ts[i : i + SLICE_TERMS], r)
            run = values[i : i + SLICE_TERMS]
            yield gs, (nums, *(map(get, run) for get in getters)) if getters else (nums, run)

    return _slices(runs(), lambda g: whole if g == r else part % (r // g), lead)


def render_values_at_L_slices(p: Fraction, vals: ValuesAtL) -> list[str]:
    """The ``--eval-L`` block: the line ``series at L = p:``, then a line
    ``  T^e: v`` for each column of ``vals``, one slice per
    :data:`SLICE_TERMS` of them."""
    return ["series at L = %s:" % p, *_value_slices(vals, "\n  T^(%%s/%d): %%s", "\n  T^%s: %s", str)]


def render_values_at_L(p: Fraction, vals: ValuesAtL) -> str:
    return "".join(render_values_at_L_slices(p, vals))


def json_values_at_L_slices(vals: ValuesAtL) -> list[str]:
    """The JSON text of the list of ``{"T": T-exponent, "value": value}``,
    each a ``{"den", "num"}`` object, over the columns of ``vals``, as
    slices: "[", one per :data:`SLICE_TERMS` columns, and "]"."""
    part = ', {"T": {"den": %d, "num": %%s}, "value": {"den": %%s, "num": %%s}}'
    getters = attrgetter("denominator"), attrgetter("numerator")
    return ["[", *_value_slices(vals, part, part % 1, _SKIP_COMMA, *getters), "]"]


def json_values_at_L(vals: ValuesAtL) -> str:
    return "".join(json_values_at_L_slices(vals))


def json_dump_slices(obj: dict) -> list[str]:
    """A top-level dict as one line of JSON, keys in sorted order, as
    slices.

    A :class:`MotPoly` value is written by :func:`json_poly_slices`, a
    :class:`ValuesAtL` by :func:`json_values_at_L_slices`, every other
    value by :func:`json.dumps` with sorted keys.  The text is
    byte-identical to ``json.dumps(obj, sort_keys=True, separators=(", ",
    ": "))`` with each polynomial replaced by its ``json_obj()`` and each
    ``ValuesAtL`` by its list of ``{"T", "value"}`` dicts.  Each distinct
    polynomial is written once: a value that is, or is ``==`` to, one
    already written reuses its slices, as the Gorenstein and orbifold
    measures of a small action do.
    """
    written: list[tuple[MotPoly, list[str]]] = []

    def poly_slices(p: MotPoly) -> list[str]:
        for q, slices in written:
            if q is p or q == p:
                return slices
        slices = json_poly_slices(p)
        written.append((p, slices))
        return slices

    out = ["{"]
    for i, (k, v) in enumerate(sorted(obj.items())):
        out.append("%s%s: " % (", " * bool(i), json.dumps(k)))
        if isinstance(v, MotPoly):
            out += poly_slices(v)
        elif isinstance(v, ValuesAtL):
            out += json_values_at_L_slices(v)
        else:
            out.append(json.dumps(v, sort_keys=True, separators=(", ", ": ")))
    out.append("}")
    return out


def json_dump(obj: dict) -> str:
    return "".join(json_dump_slices(obj))
