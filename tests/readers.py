"""Readers of polynomials and topological zeta functions that only tests use.

Nothing in the package or the benchmark calls them, so they live here and
not on ``MotPoly`` or ``TopZeta``: the series values of a polynomial as
Fractions, one T-coefficient, and a topological zeta function's value at
a rational s.
"""

from __future__ import annotations

from fractions import Fraction

from qzeta.motpoly import MotPoly, _fraction


def series_at_L(p: MotPoly, P) -> list[tuple[Fraction, Fraction]]:
    """[(tau, value at L = P of the coefficient of T^tau)], ascending in
    tau: ``p.values_at_L(P)`` with each exponent and value a Fraction."""
    ts, values, r = p.values_at_L(P)
    return [(Fraction(t, r), _fraction(v)) for t, v in zip(ts, values)]


def coeff_of_T(p: MotPoly, j) -> MotPoly:
    """The coefficient of T^j in p, as a polynomial with no T part."""
    j = _fraction(j)
    tj, rem = divmod(j.numerator * p.scale, j.denominator)
    if rem:
        return MotPoly.zero()
    return MotPoly.from_lattice({(0, l, s): c for (t, l, s), c in p._terms.items() if t == tj}, p.scale)


def eval_at(tz, s0) -> Fraction:
    """The topological zeta function ``tz`` at s = s0."""
    s0 = Fraction(s0)
    num = sum((c * s0**k for k, c in enumerate(tz.numer_red)), Fraction(0))
    den = Fraction(1)
    for (N, nu), m in tz.denom_red:
        den *= (N * s0 + nu) ** m
    return num / den
