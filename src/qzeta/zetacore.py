"""Motivic zeta functions of monomial pairs on abelian quotients.

The central objects: for a small diagonal action G on C^n and a monomial
divisor pair with multiplicities ``N`` and log-discrepancy data ``nu``,
the local zeta function at the image of the origin is

    L^-n * S_G(N, nu) * prod_i Fac(N_i; nu_i),

where S_G collects one Laurent monomial per group element (its nu-age
against L and its N-age against T).  The same shape summed over the
strata of an embedded resolution gives the stratified zeta function;
equality of the two routes is the main cross-check this package exists
to exercise.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import repeat
import math
from operator import neg, sub
from typing import Iterable, Sequence

from .groups import GroupAction, NotSmall, _dot, is_small, small_reduce
from .motpoly import _fraction
from .symring import MotPoly, StdFactor, ZetaExpr, fac

JET_BUDGET = 10**8

__all__ = [
    "TInCoefficient",
    "DimensionMismatch",
    "BudgetExceeded",
    "Stratum",
    "Stratification",
    "infer_gindex",
    "s_g_sum",
    "local_monomial_zeta",
    "affine_monomial_zeta",
    "stratified_zeta",
    "gor_measure_origin",
    "orb_measure_origin",
    "veys_det_713",
    "jet_count_oracle",
]


class TInCoefficient(ValueError):
    """A stratum class polynomial carries a T power."""


class DimensionMismatch(ValueError):
    """Vector or group dimension disagrees with the ambient dimension."""


class BudgetExceeded(ValueError):
    """The brute-force jet count would exceed the tuple budget."""


# ---------------------------------------------------------------------------
# group sums and local zetas


def s_g_sum(g: GroupAction, Nvec: Sequence[Fraction], nuvec: Sequence[Fraction]) -> MotPoly:
    """sum over gamma in G of  L^age_nu(gamma) * T^(-age_N(gamma)).

    With T = L^(-s) this is sum L^(age_N(gamma) s + age_nu(gamma)); ages
    of distinct elements can coincide, in which case terms merge.  Both
    ages are dot products down the group's columns, binned by one
    ``Counter``.
    """
    Nvec = tuple(map(_fraction, Nvec))
    nuvec = tuple(map(_fraction, nuvec))
    if len(Nvec) != g.n or len(nuvec) != g.n:
        raise DimensionMismatch(
            "group acts on %d coordinates, data has %d/%d"
            % (g.n, len(Nvec), len(nuvec))
        )
    # On the lattice (1/r)Z with r = d_exp * D, D the common denominator of
    # the data, an age is the integer sum of (k_i * D) * eps_i.
    D = reduce(math.lcm, (x.denominator for x in Nvec + nuvec), 1)
    kN = tuple(x.numerator * (D // x.denominator) for x in Nvec)
    knu = tuple(x.numerator * (D // x.denominator) for x in nuvec)
    cols = g.columns()
    acc = Counter(zip(_dot(cols, map(neg, kN)), _dot(cols, knu), repeat(())))
    return MotPoly.from_lattice(dict(acc), g.d_exp * D)


def _factors(Nvec, nuvec, made: dict) -> list[StdFactor]:
    """Fac(N_i; nu_i) over the int or Fraction pairs, each distinct factor
    built once: ``made`` keeps it by the integer ratios of its (N, nu)."""
    out = []
    for N, nu in zip(Nvec, nuvec, strict=True):
        key = N.as_integer_ratio() + nu.as_integer_ratio()
        f = made.get(key)
        if f is None:
            f = made[key] = StdFactor(N, nu)
        out.append(f)
    return out


def local_monomial_zeta(
    g: GroupAction,
    Nvec: Sequence[Fraction],
    nuvec: Sequence[Fraction],
    allow_nonsmall: bool = False,
) -> ZetaExpr:
    """Zeta function of the monomial pair at the origin of C^n / G."""
    if not allow_nonsmall and not is_small(g):
        raise NotSmall(
            "action %r has quasi-reflexions; reduce it or pass allow_nonsmall"
            % (g,)
        )
    Nvec, nuvec = tuple(map(_fraction, Nvec)), tuple(map(_fraction, nuvec))
    # times L^-n: each key's L-exponent shifted by -n
    coeff = s_g_sum(g, Nvec, nuvec).mul_monomial(1, (0, -g.n))
    return ZetaExpr.of(coeff, _factors(Nvec, nuvec, {}))


def affine_monomial_zeta(Nvec: Sequence[Fraction], nuvec: Sequence[Fraction]) -> ZetaExpr:
    """Zeta function of the monomial over *all* arcs of affine space.

    Per coordinate the arc space splits into units (measure 1 - L^-1,
    order 0) and the rest (measure L^-1 of the origin-centred cone), so
    the whole thing is the product of two-term expressions.
    """
    z = ZetaExpr.one()
    unit = MotPoly.one() - MotPoly.L(-1)
    for N, nu in zip(Nvec, nuvec, strict=True):
        z = z * ZetaExpr([(unit, ()), (MotPoly.L(-1), (fac(N, nu),))])
    return z


# ---------------------------------------------------------------------------
# strata


@dataclass(frozen=True)
class Stratum:
    """One stratum of an embedded resolution: class polynomial, the
    multiplicities / discrepancies of the divisors through it, and the
    small group acting transversally."""

    klass: MotPoly
    Nvec: tuple[Fraction, ...]
    nuvec: tuple[Fraction, ...]
    group: GroupAction

    def __post_init__(self):
        object.__setattr__(self, "Nvec", tuple(map(_fraction, self.Nvec)))
        object.__setattr__(self, "nuvec", tuple(map(_fraction, self.nuvec)))
        if self.klass.has_T():
            raise TInCoefficient(
                "stratum class %s carries a T power" % (self.klass,)
            )
        if not (len(self.Nvec) == len(self.nuvec) == self.group.n):
            raise DimensionMismatch(
                "stratum data lengths %d/%d vs group dimension %d"
                % (len(self.Nvec), len(self.nuvec), self.group.n)
            )
        if any(N.numerator < 0 for N in self.Nvec):
            raise ValueError("stratum N entries must be >= 0")
        if any(nu.numerator <= 0 for nu in self.nuvec):
            raise ValueError("stratum nu entries must be > 0")

    @classmethod
    def _of(cls, klass: MotPoly, Nvec: tuple[Fraction, ...], nuvec: tuple[Fraction, ...],
            group: GroupAction) -> "Stratum":
        """The stratum with these fields, not checked: for a builder whose
        data is valid by construction (Fraction entries, N >= 0, nu > 0,
        a class with no T power, as many entries as the group acts on)."""
        out = cls.__new__(cls)
        out.__dict__.update(klass=klass, Nvec=Nvec, nuvec=nuvec, group=group)
        return out


@dataclass(frozen=True)
class Stratification:
    """A full stratification of the fibre over the singular point."""

    n: int
    r: int
    strata: tuple[Stratum, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "strata", tuple(self.strata))
        if self.n <= 0 or self.r <= 0:
            raise ValueError("dimension and index must be positive")
        for st in self.strata:
            if st.group.n != self.n:
                raise DimensionMismatch(
                    "stratum group dimension %d != ambient %d" % (st.group.n, self.n)
                )
            for x in st.Nvec + st.nuvec:
                if self.r % x.denominator != 0:
                    raise ValueError(
                        "denominator of %s does not divide the index %d" % (x, self.r)
                    )
            # group exponents must only involve primes of r: strip the
            # shared part, and what is left is the foreign factor
            e = foreign = st.group.d_exp
            while (g := math.gcd(foreign, self.r)) > 1:
                foreign //= g
            if foreign > 1:
                raise ValueError(
                    "group exponent %d has the factor %d foreign to index %d"
                    % (e, foreign, self.r)
                )

    @classmethod
    def _of(cls, n: int, r: int, strata: tuple[Stratum, ...]) -> "Stratification":
        """The stratification with these fields, not checked: for a builder
        whose strata are valid by construction, of dimension n, with every
        entry denominator dividing r and no group exponent foreign to r."""
        out = cls.__new__(cls)
        out.__dict__.update(n=n, r=r, strata=strata)
        return out


def infer_gindex(strata: Iterable[Stratum]) -> int:
    """Smallest convenient index: lcm over strata of the group exponent
    times the lcm of the entry denominators (ages can mix the two)."""
    r = 1
    for st in strata:
        dens = [x.denominator for x in st.Nvec + st.nuvec]
        r = math.lcm(r, st.group.d_exp * reduce(math.lcm, dens, 1))
    return r


def stratified_zeta(strat: Stratification, allow_nonsmall: bool = False) -> ZetaExpr:
    """L^-n * sum over strata of  class * S_G(N, nu) * prod Fac(N_i; nu_i).

    Terms are emitted in the stratification's own order, which builders
    choose so that the rational-function fold, which adds neighbouring
    terms first (see :func:`qzeta.symring.ze_to_ratfunc`), telescopes.
    Neighbouring strata share divisors, so each distinct factor is built
    once, looked up by the integer numerators and denominators of its
    (N, nu).
    """
    shift = (0, -strat.n)  # L^-n on the scale 1
    terms = []
    made: dict[tuple[int, int, int, int], StdFactor] = {}
    for st in strat.strata:
        if st.group.d_exp == 1:  # the trivial group: small, and S_G is 1
            coeff = st.klass.mul_monomial(1, shift)
        elif not allow_nonsmall and not is_small(st.group):
            raise NotSmall("stratum group %r has quasi-reflexions" % (st.group,))
        else:
            coeff = (st.klass * s_g_sum(st.group, st.Nvec, st.nuvec)).mul_monomial(1, shift)
        terms.append((coeff, _factors(st.Nvec, st.nuvec, made)))
    return ZetaExpr(terms)


# ---------------------------------------------------------------------------
# motivic measures of the origin


def _age_measure(g: GroupAction) -> MotPoly:
    """sum over gamma in g of L^(age(gamma) - n), each age the column sum
    of gamma on the scale r = d_exp; the keys are built in ascending
    order, so that the sort in lattice() finds them in one run."""
    r = g.d_exp
    exps = Counter(map(sub, _dot(g.columns(), repeat(1)), repeat(g.n * r)))
    xs = sorted(exps)
    return MotPoly.from_lattice(dict(zip(zip(repeat(0), xs, repeat(())), map(exps.__getitem__, xs))), r)


def gor_measure_origin(g: GroupAction, reduced: GroupAction | None = None) -> MotPoly:
    """Gorenstein measure of the origin: sum L^(age(gamma) - n) over the
    smallified action; ``reduced`` is ``small_reduce(g)[0]`` if the caller
    already has it."""
    if reduced is None:
        reduced, _m = small_reduce(g)
    return _age_measure(reduced)


def orb_measure_origin(g: GroupAction) -> MotPoly:
    """Orbifold measure of the origin: sum L^(-w(gamma)) over the given
    action, where w(gamma) counts zero exponents at full weight.  For every
    diagonal gamma, w(gamma) = n - age(gamma^-1), and gamma -> gamma^-1
    permutes the group, so this is the age measure of the unreduced action:
    on a small action, the Gorenstein measure itself."""
    return _age_measure(g)


# ---------------------------------------------------------------------------
# determinant cross-check instance (the 1/7(1,3) plane)


def _det3(m: list[list[MotPoly]]) -> MotPoly:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def veys_det_713(N1, N2, nu1, nu2) -> MotPoly:
    """Determinantal form of S_G for the 1/7(1,3) action.

    Rows/columns follow the dual graph of the minimal resolution; the
    bracket <c> is the monomial L^((c . N) s / 7 + (c . nu) / 7) for the
    lattice coefficient pair c.
    """
    N1, N2, nu1, nu2 = (Fraction(x) for x in (N1, N2, nu1, nu2))

    def brack(cx: int, cy: int) -> MotPoly:
        Ns = (cx * N1 + cy * N2) / 7
        vs = (cx * nu1 + cy * nu2) / 7
        return MotPoly.monomial(1, ell=vs, tau=-Ns)

    m1 = brack(1, 3)
    m2 = brack(3, 2)
    m3 = brack(5, 1)
    m0 = brack(0, 7)  # N2 s + nu2
    m4 = brack(7, 0)  # N1 s + nu1
    one = MotPoly.one()
    zero = MotPoly.zero()
    K1 = one + m1 + m1 * m1
    K2 = one + m2
    K3 = one + m3
    matrix = [
        [K1, -m3, m2 - one],
        [-m0, K2, -m1],
        [zero, -m4, K3],
    ]
    return _det3(matrix)


# ---------------------------------------------------------------------------
# jet-counting oracle


def jet_count_oracle(Nvec: Sequence[int], p: int, j: int) -> Fraction:
    """Fraction of degree-<=j coefficient tuples over F_p whose monomial
    order is exactly j, i.e. the T^j mass of the all-arcs zeta at L = p.

    Brute force over all p^((j+1) n) jets; refuses over the budget.
    """
    Nvec = [int(N) for N in Nvec]
    if any(N < 1 for N in Nvec):
        raise ValueError("oracle multiplicities must be positive integers")
    if p < 2:
        raise ValueError("p must be at least 2")
    j = int(j)
    if j < 0:
        raise ValueError("jet order must be >= 0")
    n = len(Nvec)
    m = j
    total = p ** ((m + 1) * n)
    if total > JET_BUDGET:
        raise BudgetExceeded("%d jets exceed the budget" % total)
    width = m + 1
    count = 0
    for flat in itertools.product(range(p), repeat=width * n):
        v = 0
        ok = True
        for i in range(n):
            block = flat[i * width : (i + 1) * width]
            order = width
            for k, c in enumerate(block):
                if c:
                    order = k
                    break
            v += Nvec[i] * order
            if v > j:
                ok = False
                break
        if ok and v == j:
            count += 1
    return Fraction(count, total)
