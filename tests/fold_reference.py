"""Test helpers for standard factors and the rational-function fold.

- The product of a polynomial with a binomial on any scale, and a
  factor's two polynomials, its numerator (L - 1) L^-nu T^N and its
  binomial 1 - L^-nu T^N, made from its integer triple (r, N*r, nu*r).
  Only tests read them, so they live here and not on ``MotPoly`` or
  ``StdFactor``.
- :func:`make`, a quotient reduced by trying every factor in sorted
  order, and :func:`add`, the reduced sum of two reduced quotients made
  by the fold's own step (``symring._add``) with both quotients held on
  their least common scale.  They and the reference fold divide by a
  factor through the public :meth:`MotPoly.divide_one_minus`
  (:func:`divide_factor`), not through the fold's own helper, and
  :func:`direction` writes a rational direction as that method takes it.
- A reference copy of the fold as it was written on whole polynomials:
  each term reduced by itself, each sum raised to the least common
  denominator with plain ``MotPoly`` products, every step's quotient a
  ``RatFunc`` on the scale its operands meet on.  The fold on one
  lattice scale must give the same quotient, numerator, denominator and
  text alike.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from qzeta import symring
from qzeta.motpoly import MotPoly, _rescale, _times_binomial
from qzeta.symring import RatFunc, ZetaExpr
from qzeta.topzeta import cancel


def mul_binomial(p: MotPoly, r: int, a: tuple[int, int], b: tuple[int, int]) -> MotPoly:
    """p times the binomial x^a - x^b, whose monomials have the integer
    keys a = (tau*r, ell*r) and b on the scale r: the fold's product
    (``motpoly._times_binomial``) on the lcm of the two scales."""
    if not p:
        return MotPoly.zero()
    R = math.lcm(p.scale, r)
    terms = _rescale(p._terms, R // p.scale)
    m = R // r
    return MotPoly.from_lattice(_times_binomial(terms, a[0] * m, a[1] * m, b[0] * m, b[1] * m), R)


def numer_keys(f) -> tuple:
    """The numerator (L - 1) L^-nu T^N = x^(n, r - v) - x^(n, -v) on the
    factor's scale r, as :func:`mul_binomial` takes it."""
    r, n, v = f._lat
    return r, (n, r - v), (n, -v)


def binom_keys(f) -> tuple:
    """The binomial 1 - L^-nu T^N = x^(0, 0) - x^(n, -v) on the scale r."""
    r, n, v = f._lat
    return r, (0, 0), (n, -v)


def _monomial(f) -> MotPoly:
    """L^-nu T^N on the factor's scale r."""
    r, n, v = f._lat
    return MotPoly.from_lattice({(n, -v, ()): 1}, r)


def numer_poly(f) -> MotPoly:
    """(L - 1) * L^-nu * T^N, the numerator over 1 - L^-nu T^N."""
    return (MotPoly.L() - 1) * _monomial(f)


def binom_poly(f) -> MotPoly:
    """1 - L^-nu T^N."""
    return MotPoly.one() - _monomial(f)


def direction(ell, tau) -> tuple[int, int, int]:
    """The direction (ell, tau), two rationals, as the integers (ell*d,
    tau*d, d) over their least common denominator d, as
    :meth:`MotPoly.divide_one_minus` takes it."""
    ell, tau = Fraction(ell), Fraction(tau)
    d = math.lcm(ell.denominator, tau.denominator)
    return ell.numerator * (d // ell.denominator), tau.numerator * (d // tau.denominator), d


def divide_factor(p: MotPoly, f) -> MotPoly | None:
    """p / (1 - L^-nu T^N), the direction (-nu*r, N*r) over r, or None."""
    return p.divide_one_minus(-f._lat[2], f._lat[1], f._lat[0])


def make(numer: MotPoly, denom) -> RatFunc:
    """numer / prod f^m over denom = {f: m}, reduced by trying every
    factor in sorted order."""
    return RatFunc(*cancel(numer, sorted(denom.items()), divide_factor))


def add(a: RatFunc, b: RatFunc) -> RatFunc:
    """The reduced sum of two reduced quotients, by the fold's step on the
    least common scale of their cores and factors; a factor is skipped
    only when no other factor of the sum lies on its ray."""
    R = math.lcm(a._core.scale, b._core.scale, *(f._lat[0] for f, _m in a.denom + b.denom))
    sides = [RatFunc(MotPoly.from_lattice(_rescale(q._core._terms, R // q._core.scale), R), q.denom, q._k)
             for q in (a, b)]
    return symring._add(*sides, False)


# ---------------------------------------------------------------------------
# the fold on whole polynomials


def _times_L_minus_one(p: MotPoly, k: int) -> MotPoly:
    for _ in range(k):
        p = p * (MotPoly.L() - 1)
    return p


def _shifted(p: MotPoly, factors) -> MotPoly:
    if not factors:
        return p
    lats = [f._lat for f in factors]
    R = math.lcm(*(r for r, _n, _v in lats))
    tau = sum(n * (R // r) for r, n, _v in lats)
    ell = sum(v * (R // r) for r, _n, v in lats)
    return p.mul_monomial(R, (tau, -ell))


def _pairs(factors):
    return [(f, len(list(run))) for f, run in itertools.groupby(factors)]


def _reduced(core: MotPoly, k: int, pairs, skip) -> RatFunc:
    if k:
        for f, _m in pairs:
            if f._lat[1]:
                break
            if f not in skip:
                core, k = _times_L_minus_one(core, k), 0
                break
    core, left = cancel(core, pairs, divide_factor, skip)
    return RatFunc(core, left, k)


def ref_from_term(coeff: MotPoly, factors) -> RatFunc:
    """coeff * prod Fac(N; nu), reduced, as the fold on whole polynomials
    made each term."""
    if not coeff:
        return RatFunc.zero()
    core, k = coeff, len(factors)
    if not factors or factors[0]._lat[1]:
        while (q := core.divide_L_minus_one()) is not None:
            core, k = q, k + 1
    pairs = _pairs(factors)
    taus = {key[0] for key in coeff._terms}
    skip = {f for f, _m in pairs if f._lat[1]} if len(taus) == 1 else ()
    return _reduced(_shifted(core, factors), k, pairs, skip)


def ref_add(a: RatFunc, b: RatFunc) -> RatFunc:
    """The reduced sum of two reduced quotients, on whole polynomials."""
    if not a._core:
        return b
    if not b._core:
        return a
    na, nb, k = a._core, b._core, a._k
    if k > b._k:
        na, k = _times_L_minus_one(na, k - b._k), b._k
    elif k < b._k:
        nb = _times_L_minus_one(nb, b._k - k)
    da, db = dict(a.denom), dict(b.denom)
    rows = [(f, da.get(f, 0), db.get(f, 0)) for f in sorted(set(da) | set(db))]
    for f, x, y in rows:
        for _ in range(y - x):
            na = na * binom_poly(f)
        for _ in range(x - y):
            nb = nb * binom_poly(f)
    seen: dict = {}
    for f, _x, _y in rows:
        seen[f._ray] = seen.get(f._ray, 0) + 1
    skip = {f for f, x, y in rows if x != y and seen[f._ray] == 1}
    return _reduced(na + nb, k, [(f, max(x, y)) for f, x, y in rows], skip)


def ref_fold(z: ZetaExpr) -> RatFunc:
    """The fold of ``z`` on whole polynomials: a balanced tree over the
    insertion order when its distinct factors lie on distinct rays, one
    term at a time otherwise."""
    terms = z.iter_terms()
    facs = {f for factors in z._terms for f in factors}
    if len({f._ray for f in facs}) == len(facs):
        level = [ref_from_term(coeff, factors) for factors, coeff in terms]
        while len(level) > 1:
            merged = list(map(ref_add, level[::2], level[1::2]))
            level = merged + level[-1:] if len(level) % 2 else merged
        return level[0] if level else RatFunc.zero()
    rf = RatFunc.zero()
    for factors, coeff in terms:
        rf = ref_add(rf, ref_from_term(coeff, factors))
    return rf
