"""Stratified resolutions: cyclic-quotient chains, a Yomdin-type
superisolated family, and the trihedral quotient family.

Each builder returns a :class:`~qzeta.zetacore.Stratification` (possibly
with a chi environment for the symbols it introduces).  Next to each
table-driven builder sits an independently assembled closed form of the
same zeta function, transcribed term by term rather than summed over
strata; tests compare the two routes exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .groups import GroupAction
from .symring import MotPoly, Rat, TopZeta, ZetaExpr, fac
from .tetra import TetraParams
from .zetacore import Stratification, Stratum, infer_gindex

__all__ = [
    "NotCoprime",
    "Chain2D",
    "hj_resolve",
    "hj_stratification",
    "YomdinParams",
    "yomdin_stratification",
    "yomdin_zeta_closed",
    "yomdin_top_closed",
    "TetraReduced",
    "tetra_stratification",
    "tetra_zeta_closed",
    "tetra_top_closed",
]


class NotCoprime(Exception):
    """Cyclic quotient data must be coprime to the order."""


class TetraReduced(UserWarning):
    """Notice: trihedral parameters were reduced to the small member."""


# ---------------------------------------------------------------------------
# Hirzebruch-Jung chains for 1/d(a, b)


@dataclass(frozen=True)
class Chain2D:
    """Minimal resolution data of the cyclic surface quotient 1/d(a, b).

    ``kappa`` holds the negative-regular continued fraction of d/e with
    e = a^(-1) b mod d; ``coeffs`` the interior lattice pairs c_1..c_r
    with the convention c_0 = (0, d), c_{r+1} = (d, 0) and the recurrence
    c_{i+1} = kappa_i * c_i - c_{i-1}.
    """

    d: int
    a: int
    b: int
    e: int
    kappa: tuple[int, ...]
    coeffs: tuple[tuple[int, int], ...]


def hj_resolve(d: int, a: int, b: int) -> Chain2D:
    d, a, b = int(d), int(a), int(b)
    if d < 1:
        raise ValueError("order must be >= 1")
    if math.gcd(d, a) != 1 or math.gcd(d, b) != 1:
        raise NotCoprime("1/%d(%d, %d) is not a coprime type" % (d, a, b))
    if d == 1:
        return Chain2D(1, a, b, 0, (), ())
    e = (pow(a, -1, d) * b) % d
    # negative-regular continued fraction d/e = [[kappa_1, ..., kappa_r]]
    kappa = []
    x, y = d, e
    while y:
        k = -(-x // y)
        kappa.append(k)
        x, y = y, k * y - x
    coeffs = []
    prev, cur = (0, d), (1, e)
    for k in kappa:
        coeffs.append(cur)
        prev, cur = cur, (k * cur[0] - prev[0], k * cur[1] - prev[1])
    assert cur == (d, 0), "chain recurrence did not close: %r" % (cur,)
    assert all(x > 0 and y > 0 for x, y in coeffs)
    return Chain2D(d, a, b, e, tuple(kappa), tuple(coeffs))


# The classes, data and group that every chain's strata share; none of them
# changes once made.
_L_MINUS_ONE = MotPoly.L() - 1
_UNIT = MotPoly.one()
_ZERO, _ONE = Fraction(0), Fraction(1)
_TRIVIAL_2 = GroupAction.trivial(2)


def hj_stratification(chain: Chain2D, N1, N2, nu1, nu2) -> Stratification:
    """Stratify the fibre over the singular point of 1/d(a,b).

    Strata walk the chain corner-curve-corner-...: the two endpoint
    corners meet the strict transforms of the original two divisors.
    Neighbouring strata share a divisor, so the rational-function fold,
    which adds neighbours first, telescopes.

    The data is checked once, here: with N1, N2 >= 0 and nu1, nu2 > 0,
    each curve's data is a combination of them with positive coefficients
    (the interior pairs, which :func:`hj_resolve` asserts positive), so
    every stratum is valid and is made unchecked.  Other data goes through
    the checking constructor, which refuses the first stratum with an
    entry out of range, with its message.
    """
    N1, N2, nu1, nu2 = (Fraction(x) for x in (N1, N2, nu1, nu2))
    d = chain.d
    # each curve's data is (cx * N1 + cy * N2) / d, made as one Fraction over
    # the integer numerators n_i = N_i * D of a common denominator D
    D = math.lcm(N1.denominator, N2.denominator, nu1.denominator, nu2.denominator)
    n1, n2, m1, m2 = (x.numerator * (D // x.denominator) for x in (N1, N2, nu1, nu2))
    dD = d * D
    data = [(N2, nu2)]
    for cx, cy in chain.coeffs:
        data.append((Fraction(cx * n1 + cy * n2, dD), Fraction(cx * m1 + cy * m2, dD)))
    data.append((N1, nu1))
    make = Stratum._of if min(n1, n2) >= 0 and min(m1, m2) > 0 else Stratum
    strata = []
    for i, ((Na, nua), (Nb, nub)) in enumerate(zip(data, data[1:])):
        if i:  # the curve of the interior point a, between its two corners
            strata.append(make(_L_MINUS_ONE, (Na, _ZERO), (nua, _ONE), _TRIVIAL_2))
        strata.append(make(_UNIT, (Na, Nb), (nua, nub), _TRIVIAL_2))
    # the index: d and every entry's denominator (the groups are trivial)
    r = math.lcm(d, *(x.denominator for pair in data for x in pair))
    return Stratification._of(2, r, tuple(strata))


# ---------------------------------------------------------------------------
# Yomdin-type superisolated family
#
#   f = (x^p z^(m+k-p) + y^q z^(m+k-q) + h_m(x, y)) , paired with z^(a-1),
# i.e. a degree-m curve C0 with one (p,q) cusp, deformed with weight k.


@dataclass(frozen=True)
class YomdinParams:
    m: int
    k: int
    p: int
    q: int
    a: int

    def __post_init__(self):
        if self.m < 2 or self.k < 1 or self.a < 1:
            raise ValueError("need m >= 2, k >= 1, a >= 1")
        if not (2 <= self.p < self.q) or math.gcd(self.p, self.q) != 1:
            raise ValueError("cusp pair needs 2 <= p < q coprime")

    @property
    def k1(self) -> int:
        return math.gcd(self.k, self.p)

    @property
    def k2(self) -> int:
        return math.gcd(self.k, self.q)

    @property
    def m1(self) -> int:
        return self.p * self.q * (self.m + self.k) // (self.k1 * self.k2)

    @property
    def nu1(self) -> int:
        kk = self.k1 * self.k2
        return (self.k * self.p + self.k * self.q + self.p * self.q * (self.a + 2)) // kk

    @property
    def chi_c0(self) -> int:
        # degree-m curve with one (p,q) cusp
        return -self.m**2 + 3 * self.m + (self.p - 1) * (self.q - 1)

    @property
    def chi_c1(self) -> int:
        return self.k1 + self.k2 + 1 - self.k1 * self.k2

    @property
    def realizable(self) -> bool:
        """Whether a degree-m plane curve with the (p,q) cusp exists:
        chi(P^2 - C0) >= 1, i.e. (m-1)(m-2) >= (p-1)(q-1)."""
        return (self.m - 1) * (self.m - 2) >= (self.p - 1) * (self.q - 1)


def yomdin_stratification(y: YomdinParams) -> tuple[Stratification, dict[str, int]]:
    """The fifteen strata of the two-chart embedded resolution.

    Returns the stratification together with the Euler numbers of the
    two curve symbols it introduces, [C0] and [C1].

    :class:`YomdinParams` has checked the parameters, and on them every
    stratum is valid: each N is >= 0 and each nu > 0, the classes carry
    no T power, the entries are integers and the index is the lcm of the
    group exponents.  So the strata are made unchecked.
    """
    m, k, p, q, a = y.m, y.k, y.p, y.q, y.a
    k1, k2, m1, nu1 = y.k1, y.k2, y.m1, y.nu1
    kk = k1 * k2
    L = MotPoly.L()
    C0 = MotPoly.sym("C0")
    C1 = MotPoly.sym("C1")
    one = MotPoly.one()
    triv = GroupAction.trivial(3)
    g6 = GroupAction.cyclic(q // k2, (k * p // kk, -1, 0))
    g7 = GroupAction.cyclic(p // k1, (-1, k * q // kk, 0))
    g8 = GroupAction.cyclic(k // kk, (0, -1, p * q // kk))
    g12 = GroupAction.cyclic(p * q // kk, (k * p // kk, k * q // kk, -1))
    g13 = GroupAction.cyclic(k * q // kk, (k * p // kk, -1, p * q // kk))
    g14 = GroupAction.cyclic(k * p // kk, (-1, k * q // kk, p * q // kk))

    def st(klass, N, nu, g=triv):
        return Stratum._of(klass, tuple(map(Fraction, N)), tuple(map(Fraction, nu)), g)

    strata = (
        st(L * L - C0 + m, (0, 0, m), (1, 1, a + 2)),
        st(C0 - m - 1, (1, 0, m), (1, 1, a + 2)),
        st(L + 1 - m, (0, 0, m), (1, a, a + 2)),
        st(MotPoly.const(m), (1, 0, m), (1, a, a + 2)),
        st(L * L - 2 * L - C1 + k1 + k2 + 2, (0, m1, 0), (1, nu1, 1)),
        st(C1 - k1 - k2 - 1, (1, m1, 0), (1, nu1, 1)),
        st(L - k1 - 1, (0, m1, 0), (1, nu1, 1), g6),
        st(L - k2 - 1, (m1, 0, 0), (nu1, 1, 1), g7),
        st(L - 2, (0, m1, m), (1, nu1, a + 2), g8),
        st(MotPoly.const(k1), (1, m1, 0), (1, nu1, 1), g6),
        st(MotPoly.const(k2), (m1, 1, 0), (nu1, 1, 1), g7),
        st(one, (1, m1, m), (1, nu1, a + 2), g8),
        st(one, (0, 0, m1), (1, 1, nu1), g12),
        st(one, (0, m1, m), (1, nu1, a + 2), g13),
        st(one, (m1, 0, m), (nu1, 1, a + 2), g14),
    )
    strat = Stratification._of(3, infer_gindex(strata), strata)
    return strat, {"C0": y.chi_c0, "C1": y.chi_c1}


def _cyclic_sum(d0: int, wvec, Nvec, nuvec) -> MotPoly:
    """Inline S-sum for a cyclic action, written directly from the ages:
    sum over t of L^( sum nu_j ((t w_j) mod d0) / d0 ) against T likewise.

    Deliberately independent of the group machinery: this is the display
    transcription used by the closed-form assembly.  The ages are summed
    as integers on the scale d0 * D, D the common denominator of the data:
    sum_j (N_j * D) * e_j with e_j = (t w_j) mod d0, and likewise for nu.
    """
    Nvec = [Fraction(x) for x in Nvec]
    nuvec = [Fraction(x) for x in nuvec]
    D = math.lcm(*(x.denominator for x in Nvec + nuvec))
    cols = [
        (w, N.numerator * (D // N.denominator), nu.numerator * (D // nu.denominator))
        for w, N, nu in zip(wvec, Nvec, nuvec, strict=True)
    ]
    acc: dict = {}
    for t in range(d0):
        tn = ln = 0
        for w, kN, knu in cols:
            e = (t * w) % d0
            tn += kN * e
            ln += knu * e
        key = (-tn, ln, ())
        acc[key] = acc.get(key, 0) + 1
    return MotPoly.from_lattice(acc, d0 * D)


def yomdin_zeta_closed(y: YomdinParams) -> ZetaExpr:
    """The same zeta assembled from the two displayed chart formulas,
    with every S-sum written as an explicit cyclic enumeration."""
    m, k, p, q, a = y.m, y.k, y.p, y.q, y.a
    k1, k2, m1, nu1 = y.k1, y.k2, y.m1, y.nu1
    kk = k1 * k2
    L = MotPoly.L()
    C0 = MotPoly.sym("C0")
    C1 = MotPoly.sym("C1")
    Lm3 = MotPoly.L(-3)
    f11 = ZetaExpr.of(MotPoly.one(), (fac(1, 1),))
    f0a = ZetaExpr.of(MotPoly.one(), (fac(0, a),))
    fE0 = ZetaExpr.of(MotPoly.one(), (fac(m, a + 2),))
    fE1 = ZetaExpr.of(MotPoly.one(), (fac(m1, nu1),))

    chart0 = (
        ZetaExpr.of(L * L - C0 + m)
        + f11 * (C0 - m - 1)
        + f0a * (L + 1 - m)
        + (f11 * f0a) * MotPoly.const(m)
    )
    e0 = fE0 * chart0 * Lm3

    s6 = _cyclic_sum(q // k2, (k * p // kk, -1, 0), (0, m1, 0), (1, nu1, 1))
    s7 = _cyclic_sum(p // k1, (-1, k * q // kk, 0), (m1, 0, 0), (nu1, 1, 1))
    s8 = _cyclic_sum(k // kk, (0, -1, p * q // kk), (0, m1, m), (1, nu1, a + 2))
    s9 = _cyclic_sum(q // k2, (k * p // kk, -1, 0), (1, m1, 0), (1, nu1, 1))
    s10 = _cyclic_sum(p // k1, (-1, k * q // kk, 0), (m1, 1, 0), (nu1, 1, 1))
    s11 = _cyclic_sum(k // kk, (0, -1, p * q // kk), (1, m1, m), (1, nu1, a + 2))
    s12 = _cyclic_sum(p * q // kk, (k * p // kk, k * q // kk, -1), (0, 0, m1), (1, 1, nu1))
    s13 = _cyclic_sum(
        k * q // kk, (k * p // kk, -1, p * q // kk), (0, m1, m), (1, nu1, a + 2)
    )
    s14 = _cyclic_sum(
        k * p // kk, (-1, k * q // kk, p * q // kk), (m1, 0, m), (nu1, 1, a + 2)
    )

    chart1 = (
        ZetaExpr.of(
            L * L - 2 * L - C1 + k1 + k2 + 2
            + (L - k1 - 1) * s6
            + (L - k2 - 1) * s7
            + s12
        )
        + f11 * (C1 * MotPoly.one() - k1 - k2 - 1 + k1 * s9 + k2 * s10)
        + fE0 * ((L - 2) * s8 + s13 + s14)
        + (f11 * fE0) * s11
    )
    e1 = fE1 * chart1 * Lm3
    return e0 + e1


def yomdin_top_closed(y: YomdinParams) -> TopZeta:
    """Closed-form topological zeta: eight explicit quotient terms."""
    m, k, p, q, a = y.m, y.k, y.p, y.q, y.a
    k1, k2, m1, nu1 = y.k1, y.k2, y.m1, y.nu1
    kk = Fraction(k1 * k2)
    chi0 = Fraction(y.chi_c0)
    e0f = (Fraction(m), Fraction(a + 2))
    e1f = (Fraction(m1), Fraction(nu1))
    u = (Fraction(1), Fraction(1))
    terms = [
        (1 - chi0 + m, {e0f: 1}),
        (chi0 - m - 1, {e0f: 1, u: 1}),
        (Fraction(2 - m, a), {e0f: 1}),
        (Fraction(m, a), {e0f: 1, u: 1}),
        (k1 * k2 - Fraction(k1 * q, k2) - Fraction(k2 * p, k1) + p * q / kk, {e1f: 1}),
        (-k1 * k2 + Fraction(k1 * q, k2) + Fraction(k2 * p, k1), {e1f: 1, u: 1}),
        ((k * p + k * q - k) / kk, {e1f: 1, e0f: 1}),
        (k / kk, {e1f: 1, e0f: 1, u: 1}),
    ]
    return TopZeta(terms)


# ---------------------------------------------------------------------------
# trihedral quotient family G(d, q) with a pair (x y z)^N dx^nu-ish data


def tetra_stratification(
    t: TetraParams, N, nu
) -> tuple[Stratification, dict[str, int]]:
    """Six strata of the quotient of C^3 by G(d, q), carrying the pair
    (N, nu) on the image of the coordinate hyperplane sum.

    Parameters with d not dividing q^3 + 1 are reduced to the small
    member G(d', q mod d') with a warning.

    The data is checked once, here, with the refusals a checked stratum
    would give: every N entry is N, a positive multiple of it or 0, and
    every nu entry nu, a positive multiple of it or 1.  The index is
    :func:`infer_gindex` of the strata, so the strata are made unchecked.
    """
    if not t.is_small_formula:
        reduced = t.small_member()
        warnings.warn(
            "G(%d, %d) has quasi-reflexions; using G(%d, %d)"
            % (t.d, t.q, reduced.d, reduced.q),
            TetraReduced,
            stacklevel=2,
        )
        t = reduced
    d, q = t.d, t.q
    b = t.beta
    N = Fraction(N)
    nu = Fraction(nu)
    if N < 0:
        raise ValueError("stratum N entries must be >= 0")
    if nu <= 0:
        raise ValueError("stratum nu entries must be > 0")
    NE = 3 * N / b
    nuE = 3 * nu / b
    E = MotPoly.sym("E")
    D = MotPoly.sym("D")
    one = MotPoly.one()
    triv = GroupAction.trivial(3)
    g_curve = GroupAction.cyclic(d // b, (q, 0, (q * q - q + 1) // b))
    g_point = GroupAction(
        (d, d // b), ((0, 1, q), (q, 0, (q * q - q + 1) // b)), 3
    )
    on_E = ((NE, _ZERO, _ZERO), (nuE, _ONE, _ONE))  # the data of the strata on E alone
    strata = [
        Stratum._of(E - D - 3, *on_E, triv),
        Stratum._of(D - one, (NE, _ZERO, N), (nuE, _ONE, nu), g_curve),
        Stratum._of(one, (NE, N, N), (nuE, nu, nu), g_point),
    ]
    for kk in range(3):
        if d % 3 != 0:
            w0 = (kk * b) % 3
        else:
            w0 = (-kk * ((q + 1) // t.alpha) * t.gamma_c) % 3
        strata.append(Stratum._of(one, *on_E, GroupAction.cyclic(3, (w0, 1, 2))))
    strat = Stratification._of(3, infer_gindex(strata), tuple(strata))
    return strat, {"E": 3, "D": 1}


def tetra_zeta_closed(t: TetraParams, N, nu) -> ZetaExpr:
    """Displayed closed form for the trihedral quotient, with the fixed-
    point sum written as the explicit double enumeration."""
    t = t.small_member()
    d, q = t.d, t.q
    b = t.beta
    N = Fraction(N)
    nu = Fraction(nu)
    NE = 3 * N / b
    nuE = 3 * nu / b
    E = MotPoly.sym("E")
    D = MotPoly.sym("D")
    fE = ZetaExpr.of(MotPoly.one(), (fac(NE, nuE),))
    fD = ZetaExpr.of(MotPoly.one(), (fac(N, nu),))
    Lm3 = MotPoly.L(-3)

    s_curve = _cyclic_sum(
        d // b, (q, 0, (q * q - q + 1) // b), (NE, 0, N), (nuE, 1, nu)
    )
    sq = MotPoly.zero()
    for kk in range(3):
        if d % 3 != 0:
            w0 = (kk * b) % 3
        else:
            w0 = (-kk * ((q + 1) // t.alpha) * t.gamma_c) % 3
        sq = sq + _cyclic_sum(3, (w0, 1, 2), (NE, 0, 0), (nuE, 1, 1))

    # rank-2 fixed-point sum, straight from the double display
    acc: dict = {}
    for t1 in range(d):
        for t2 in range(d // b):
            c = (
                3 * ((t2 * b * q) % d) // b
                + (t1 % d)
                + ((t1 * q + t2 * (q * q - q + 1)) % d)
            )
            key = (Fraction(-N * c, d), Fraction(nu * c, d), ())
            acc[key] = acc.get(key, 0) + 1
    s_point = MotPoly(acc)

    inner = (
        ZetaExpr.of(E - D - 3 + sq)
        + fD * (D - 1) * s_curve
        + (fD * fD) * s_point
    )
    return fE * inner * Lm3


def tetra_top_closed(t: TetraParams, N, nu) -> TopZeta:
    """(d^2 + 8 beta (N s + nu)^2) / (3 (N s + nu)^3), as a TopZeta."""
    t = t.small_member()
    N = Fraction(N)
    nu = Fraction(nu)
    d2 = Fraction(t.d**2)
    b8 = Fraction(8 * t.beta)
    if N == 0:
        val = (d2 + b8 * nu**2) / (3 * nu**3)
        return TopZeta([(val, {})])
    lin = (N, nu)
    return TopZeta(
        [
            (d2 / 3, {lin: 3}),
            (b8 / 3, {lin: 1}),
        ]
    )
