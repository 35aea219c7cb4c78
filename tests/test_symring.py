from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from qzeta.symring import (
    FractionalPowerUnevaluable,
    MissingChi,
    MotPoly,
    RatFunc,
    StdFactor,
    TopZeta,
    ZetaExpr,
    candidate_poles,
    euler_specialize,
    fac,
    json_dump,
    render_poly,
    render_poly_factored,
    render_zeta,
    series_expand,
    ze_equal,
    ze_to_ratfunc,
)
from qzeta import symring
from qzeta.groups import GroupAction
from qzeta.resolution import YomdinParams, hj_resolve, hj_stratification, yomdin_stratification
from qzeta.zetacore import local_monomial_zeta, stratified_zeta
from qzeta import topzeta
from qzeta.topzeta import LATEX, TEXT_S, frac_latex, padd, pdiv, pmul, quotient_slices

from fold_reference import add, binom_poly, direction, make, numer_poly
from readers import eval_at


def _rand_poly(rng: random.Random, nterms: int = 4) -> MotPoly:
    acc = MotPoly.zero()
    for _ in range(rng.randint(0, nterms)):
        tau = F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        ell = F(rng.randint(-4, 4), rng.choice((1, 1, 2)))
        syms = rng.choice(((), (("a", 1),), (("b", 2),)))
        acc = acc + MotPoly.monomial(rng.randint(-3, 3), ell=ell, tau=tau, syms=syms)
    return acc


def test_ring_laws_random():
    rng = random.Random(11)
    for _ in range(60):
        p, q, r = (_rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + MotPoly.zero() == p
        assert p * MotPoly.one() == p
        assert p - p == MotPoly.zero()


def test_integer_coefficients_enforced():
    with pytest.raises(TypeError):
        MotPoly({(F(0), F(0), ()): F(1, 2)})


def test_pow_matches_repeated_mul():
    rng = random.Random(12)
    for _ in range(10):
        p = _rand_poly(rng, 3)
        acc = MotPoly.one()
        for k in range(5):
            assert p**k == acc
            acc = acc * p


def test_T_is_L_to_minus_s():
    # a bare T carries tau=1 and no L part; L carries ell=1
    assert MotPoly.T().terms() == [((F(1), F(0), ()), 1)]
    assert MotPoly.L().terms() == [((F(0), F(1), ()), 1)]
    assert MotPoly.L(-2) * MotPoly.T(3) == MotPoly.monomial(1, ell=-2, tau=3)


def test_trivial_factor_dropped():
    assert fac(0, 1).is_trivial
    z = ZetaExpr.of(MotPoly.one(), (fac(0, 1), fac(1, 1), fac(0, 1)))
    ((facs, coeff),) = z.terms()
    assert facs == (fac(1, 1),)
    assert coeff == MotPoly.one()


def test_factor_validation():
    with pytest.raises(ValueError):
        StdFactor(F(-1), F(1))
    with pytest.raises(ValueError):
        StdFactor(F(1), F(0))


def test_divide_one_minus_roundtrip():
    rng = random.Random(13)
    for _ in range(40):
        q = _rand_poly(rng)
        if q.is_zero:
            continue
        ell_x, tau_x = F(rng.randint(-2, 2)), F(rng.randint(0, 3))
        if (ell_x, tau_x) == (F(0), F(0)):
            continue
        x = MotPoly.monomial(1, ell=ell_x, tau=tau_x)
        p = q - q * x
        got = p.divide_one_minus(*direction(ell_x, tau_x))
        assert got == q
    # 1 + x is not divisible by 1 - x
    assert (MotPoly.one() + MotPoly.T()).divide_one_minus(0, 1) is None


def test_ratfunc_cancellation():
    f = fac(2, 3)
    # (1 - L^-3 T^2) / (1 - L^-3 T^2) = 1
    rf = make(MotPoly.one() - MotPoly.monomial(1, ell=-3, tau=2), {f: 1})
    assert rf.numer == MotPoly.one()
    assert rf.denom == ()


def test_cancel_walks_factors_in_sorted_order():
    # x = L^-1 T: 1 - x^2 over (1 - x)(1 - x^2).  1 - x = Fac(1; 1) sorts
    # first, so the quotient is (1 + x)/(1 - x^2), not 1/(1 - x).
    f1, f2 = fac(1, 1), fac(2, 2)
    rf = make(binom_poly(f2), {f2: 1, f1: 1})
    assert rf.numer == MotPoly.one() + MotPoly.monomial(1, ell=-1, tau=1)
    assert rf.denom == ((f2, 1),)


def test_ratfunc_add_and_equivalent():
    f = fac(1, 1)
    one_minus = MotPoly.one() - MotPoly.monomial(1, ell=-1, tau=1)
    a = make(MotPoly.one(), {f: 1})
    b = make(-MotPoly.monomial(1, ell=-1, tau=1), {f: 1})
    s = add(a, b)
    assert s.numer == MotPoly.one() and s.denom == ()
    assert make(one_minus, {f: 1}).equivalent(make(MotPoly.one(), {}))


def test_ze_equal_positive_and_negative():
    f = fac(1, 1)
    # F = (L-1) L^-1 T / (1 - L^-1 T): two ways of writing the same thing
    lhs = ZetaExpr.of(MotPoly.one(), (f,))
    geom = MotPoly.monomial(1, ell=-1, tau=1)
    rhs = ZetaExpr([((MotPoly.L() - 1) * geom, ()), (geom, (f,))])
    assert ze_equal(lhs, rhs)
    assert not ze_equal(lhs, ZetaExpr.of(MotPoly.one() + MotPoly.one(), (f,)))


def _with_extra_monomial(z: ZetaExpr) -> ZetaExpr:
    """z with L^5 added to the coefficient of its first term."""
    factors, _coeff = next(iter(z.iter_terms()))
    return z + ZetaExpr.of(MotPoly.L(5), factors)


def test_ze_equal_negative_cases():
    # one coefficient gets an extra monomial: the term dicts differ in one
    # value, and the folds differ
    y = YomdinParams(4, 2, 2, 3, 1)
    z = stratified_zeta(yomdin_stratification(y)[0])
    assert not ze_equal(z, _with_extra_monomial(z))
    assert not ze_equal(_with_extra_monomial(z), z)
    # two different one-term expressions, both compared unreduced
    a, b = ZetaExpr.of(MotPoly.L(), (fac(1, 1),)), ZetaExpr.of(MotPoly.L(), (fac(1, 2),))
    assert not ze_equal(a, b) and not ze_equal(b, a)
    assert not ze_equal(ZetaExpr.of(MotPoly.L(), (fac(1, 1), fac(1, 1))), a)
    assert a._rf is None and b._rf is None
    # a side with its fold kept against an unreduced side
    chain = stratified_zeta(hj_stratification(hj_resolve(7, 1, 3), 1, 1, 1, 1))
    ze_to_ratfunc(chain)
    other = local_monomial_zeta(GroupAction.cyclic(7, (1, 3)), (1, 1), (1, 2))
    assert not ze_equal(chain, other) and not ze_equal(other, chain)
    assert other._rf is None
    # and the same pair with the matching direct route
    assert ze_equal(chain, local_monomial_zeta(GroupAction.cyclic(7, (1, 3)), (1, 1), (1, 1)))


def test_ze_to_ratfunc_single_factor():
    f = fac(2, 1)
    rf = ze_to_ratfunc(ZetaExpr.of(MotPoly.one(), (f,)))
    assert rf.denom == ((f, 1),)
    assert rf.numer == numer_poly(f)


def test_series_geometric():
    # single factor: (L-1) (L^-1 T + L^-2 T^2 + L^-3 T^3)
    z = ZetaExpr.of(MotPoly.one(), (fac(1, 1),))
    s = series_expand(z, 3)
    want = MotPoly.zero()
    for j in range(1, 4):
        want = want + (MotPoly.L() - 1) * MotPoly.monomial(1, ell=-j, tau=j)
    assert s == want


def test_series_truncated_product():
    rng = random.Random(14)
    for _ in range(10):
        z1 = ZetaExpr.of(
            _rand_poly(rng) + MotPoly.one(), (fac(rng.randint(1, 3), rng.randint(1, 3)),)
        )
        z2 = ZetaExpr.of(MotPoly.one(), (fac(rng.randint(1, 3), rng.randint(1, 2)),))
        M = 4
        lhs = series_expand(z1 * z2, M)
        rhs = (series_expand(z1, M) * series_expand(z2, M)).truncate_tau(F(M))
        assert lhs == rhs


def test_series_rejects_constant_factor():
    z = ZetaExpr.of(MotPoly.one(), (fac(0, 2),))
    with pytest.raises(ValueError):
        series_expand(z, 3)


def test_series_budget_is_the_planned_work():
    # one factor, coefficient length 1, jmax = 3: the bound is 1 * 2 * 3
    z = ZetaExpr.of(MotPoly.one(), (fac(1, 1),))
    old = symring.SERIES_TERM_LIMIT
    try:
        symring.SERIES_TERM_LIMIT = 6
        assert len(series_expand(z, 3)) == 6
        symring.SERIES_TERM_LIMIT = 5
        with pytest.raises(ValueError, match="about 6 terms, over the limit 5"):
            series_expand(z, 3)
    finally:
        symring.SERIES_TERM_LIMIT = old


def test_series_budget_refuses_before_expanding():
    z = ZetaExpr.of(MotPoly.one() + MotPoly.L(), (fac(1, 1), fac(1, 2)))
    with pytest.raises(ValueError, match="refusing to expand to T-order 1000000000"):
        series_expand(z, 10**9)
    # a factor with no expansion is reported first, wherever its term is
    z2 = z + ZetaExpr.of(MotPoly.one(), (fac(0, 2),))
    with pytest.raises(ValueError, match="has no Laurent expansion"):
        series_expand(z2, 10**9)


def test_series_refusal_names_the_factors_left_when_N_0_ones_cancel():
    # (1 + L^-1) * Fac(0; 2) = L^-1 (L - 1) / (1 - L^-1): the fold cancels
    # Fac(0; 2) and keeps Fac(1; 1), which the refusal names instead
    coeff = MotPoly.one() + MotPoly.L(-1)
    z = ZetaExpr.of(coeff, (fac(0, 2), fac(1, 1), fac(1, 1)))
    assert ze_to_ratfunc(z).denom == ((fac(1, 1), 2),)
    with pytest.raises(ValueError) as exc:
        series_expand(z, 3)
    assert str(exc.value) == (
        "the factors with N = 0 cancel, but the reduced quotient keeps Fac(1; 1)^2;"
        " it is expanded only when no factor is left"
    )
    # while a factor with N = 0 is left, the first one met is named
    with pytest.raises(ValueError) as exc:
        series_expand(z + ZetaExpr.of(MotPoly.one(), (fac(0, 3),)), 3)
    assert str(exc.value) == "factor Fac(0; 2) has no Laurent expansion in T"


def _series_budget(monkeypatch, z, M) -> tuple[int, int]:
    """The (terms, products) that series_expand(z, M) plans, read off its
    refusals with each limit set below its measure in turn."""
    out = []
    for terms, products in ((-1, 10**30), (10**30, -1)):
        monkeypatch.setattr(symring, "SERIES_TERM_LIMIT", terms)
        monkeypatch.setattr(symring, "SERIES_PRODUCT_LIMIT", products)
        with pytest.raises(ValueError, match="about") as exc:
            series_expand(z, M)
        out.append(int(str(exc.value).split("about ")[1].split()[0]))
    monkeypatch.undo()
    return out[0], out[1]


def _series_counted(z, M) -> tuple[int, int, int]:
    """The terms kept (the most at once, summed over the terms) and the
    products made when each term is expanded one factor at a time, and the
    coefficient length times the product of 2 * jmax over the factors."""
    kept = products = product_bound = 0
    for factors, coeff in z.iter_terms():
        cur = coeff.truncate_tau(M)
        if cur.is_zero:
            continue
        lo, most, work, bound = cur.min_tau(), len(cur), 0, len(cur)
        for f in sorted(factors):
            jmax = (M - lo) // f.N
            if jmax < 1:
                break
            geo = sum((MotPoly.monomial(1, ell=-j * f.nu, tau=j * f.N) for j in range(1, jmax + 1)),
                      MotPoly.zero())
            work += len(cur) * 2 * jmax
            bound *= 2 * jmax
            cur = (cur * (MotPoly.L() - 1) * geo).truncate_tau(M)
            most = max(most, len(cur))
            lo += f.N
        else:
            kept, products, product_bound = kept + most, products + work, product_bound + bound
    return kept, products, product_bound


def test_series_budget_bounds_the_work(monkeypatch):
    # factors on shared rays, (1, 1) and (2, 1), and on rays of their own
    pool = [fac(1, 1), fac(2, 2), fac(F(2, 3), F(2, 3)), fac(2, 1), fac(4, 2), fac(1, 2),
            fac(F(1, 2), F(3, 2)), fac(3, 1)]
    rng = random.Random(43)
    for _ in range(150):
        z = ZetaExpr.zero()
        for _ in range(rng.randint(1, 3)):
            coeff = _rand_poly(rng, 3) + MotPoly.monomial(1, ell=rng.randint(-2, 2))
            z = z + ZetaExpr.of(coeff, rng.sample(pool, rng.randint(1, 3)))
        M = F(rng.randint(0, 24), rng.choice((1, 2)))
        kept, products, bound = _series_counted(z, M)
        if not bound:
            continue
        terms, planned = _series_budget(monkeypatch, z, M)
        assert kept <= terms <= bound, (z, M)
        assert products <= planned < 2 * bound, (z, M)
    # one ray: the sums of two Fac(1; 1) reach the T-exponents 2..M, each
    # with an L-exponent from 0 to 2 added, so 3 * (M - 1) terms; the second
    # step multiplies the 2 * M terms of the first by 2 * (M - 1)
    z = ZetaExpr.of(MotPoly.one(), (fac(1, 1), fac(1, 1)))
    assert _series_budget(monkeypatch, z, 100) == (3 * 99, 2 * 100 + 200 * 2 * 99)
    assert _series_counted(z, 100)[:2] == (3 * 99, 2 * 100 + 200 * 2 * 99)
    # two rays share one T budget: the pairs 1 + y1 + 2 * (1 + y2) <= 1100
    # are at most (1097 + 3)^2 / (2! * 1 * 2) = 302500, where each ray alone
    # counts 1100 * 550; either is times 3, for the L-exponents 0 to 2
    z = ZetaExpr.of(MotPoly.one(), (fac(1, 1), fac(2, 1)))
    assert _series_budget(monkeypatch, z, 1100)[0] == 3 * 302500


def _fraction_plan(z, M) -> tuple[int, int]:
    """The (terms, products) of series_expand's plan, made in Fraction
    arithmetic as the plan was before it moved onto integers."""
    M = F(M)
    kept = products = 0
    for factors, coeff in z.iter_terms():
        cur = coeff.truncate_tau(M)
        if cur.is_zero:
            continue
        lo = lo0 = cur.min_tau()
        steps, keys, work, rays = 0, len(cur), 0, {}
        most = keys
        for f in sorted(factors):
            jmax = math.floor((M - lo) / f.N)
            if jmax < 1:
                break
            steps += 1
            work += keys * 2 * jmax
            step, total = rays.get(f._ray, (F(0), F(0)))
            d = math.lcm(step.denominator, f.N.denominator)
            g = F(math.gcd(step.numerator * (d // step.denominator), f.N.numerator * (d // f.N.denominator)), d)
            rays[f._ray] = (g, total + f.N)
            points = math.prod((M - lo0 - t) // g + 1 for g, t in rays.values())
            gs, ts = zip(*rays.values())
            simplex = (M - lo0 - sum(ts) + sum(gs)) ** len(gs) / (math.factorial(len(gs)) * math.prod(gs))
            points = min(points, math.floor(simplex))
            keys = min(keys * 2 * jmax, len(cur) * (steps + 1) * points)
            most = max(most, keys)
            lo += f.N
        else:
            kept, products = kept + most, products + work
    return kept, products


def test_series_plan_on_integers_matches_the_fraction_plan(monkeypatch):
    # shared rays, fractional N and nu, coefficients with fractional and
    # negative T-exponents, fractional M
    pool = [fac(1, 1), fac(2, 2), fac(F(2, 3), F(2, 3)), fac(2, 1), fac(4, 2), fac(1, 2),
            fac(F(1, 2), F(3, 2)), fac(3, 1), fac(F(5, 7), F(1, 3)), fac(F(3, 4), F(9, 8))]
    rng = random.Random(2403)
    planned = 0
    for _ in range(200):
        z = ZetaExpr.zero()
        for _ in range(rng.randint(1, 3)):
            coeff = _rand_poly(rng, 3) + MotPoly.monomial(1, ell=rng.randint(-2, 2))
            z = z + ZetaExpr.of(coeff, rng.sample(pool, rng.randint(1, 4)))
        M = F(rng.randint(0, 40), rng.choice((1, 2, 3, 7)))
        want = _fraction_plan(z, M)
        assert _series_budget(monkeypatch, z, M) == want, (z, M)
        planned += want[1] > 0
    assert planned > 150


def test_candidate_poles():
    z = ZetaExpr.of(MotPoly.one(), (fac(2, 3), fac(1, 1), fac(0, 2)))
    assert candidate_poles(z) == {F(-3, 2), F(-1)}


def test_euler_specialize_basic():
    # (L+1) L^-2 Fac(1;1) Fac(0;2) -> 2 / (2 (s+1))
    coeff = (MotPoly.L() + 1) * MotPoly.L(-2)
    z = ZetaExpr.of(coeff, (fac(1, 1), fac(0, 2)))
    tz = euler_specialize(z)
    assert tz == TopZeta.from_quotient([F(1)], {(F(1), F(1)): 1})
    assert eval_at(tz, 0) == 1
    assert tz.poles() == {F(-1)}


def test_euler_needs_chi_for_symbols():
    z = ZetaExpr.of(MotPoly.sym("E"), (fac(1, 1),))
    with pytest.raises(MissingChi):
        euler_specialize(z)
    tz = euler_specialize(z, {"E": 3})
    assert tz == TopZeta.from_quotient([F(3)], {(F(1), F(1)): 1})


def test_topzeta_semantic_equality():
    # 2/(s+1)^2 written against (2s+2)(s+1)
    a = TopZeta.from_quotient([F(2)], {(F(1), F(1)): 2})
    b = TopZeta.from_quotient([F(4)], {(F(2), F(2)): 1, (F(1), F(1)): 1})
    assert a == b
    c = TopZeta.from_quotient([F(2)], {(F(1), F(1)): 1})
    assert a != c


def test_eval_L():
    p = MotPoly.monomial(1, ell=F(1, 2)) + MotPoly.const(1)
    assert p.eval_L(4) == 3
    with pytest.raises(FractionalPowerUnevaluable):
        p.eval_L(2)
    with pytest.raises(ValueError):
        MotPoly.T().eval_L(2)
    # a class symbol has no value at L = p
    q = MotPoly.sym("a") * MotPoly.L()
    with pytest.raises(MissingChi, match="^a$"):
        q.eval_L(5)


def test_render_strings():
    p = MotPoly.monomial(1, ell=-2) + MotPoly.monomial(1, ell=-1)
    assert render_poly_factored(p) == "L^-2 * (1 + L)"
    assert render_poly(p) == "L^-2 + L^-1"
    z = ZetaExpr.of(MotPoly.one(), (fac(1, 1), fac(1, 1)))
    assert render_zeta(z) == "Fac(1; 1)^2"
    assert str(fac(F(1, 2), F(3, 2))) == "Fac(1/2; 3/2)"


def test_quotient_str_layout():
    def quotient_str(num, den):
        return "".join(quotient_slices([num], den))

    assert quotient_str("1 + s", []) == "1 + s"
    assert quotient_str("0", [("s + 1", 2)]) == "0"
    assert quotient_str("2", [("s + 1", 1), ("2*s + 3", 2)]) == "(2) / ((s + 1) * (2*s + 3)^2)"
    rf = make(MotPoly.one(), Counter({fac(1, 1): 2}))
    assert str(rf) == "(1) / ((1 - L^-1 * T)^2)"
    assert str(TopZeta([(F(1), {(F(1), F(1)): 2})])) == "(1) / ((s + 1)^2)"


def test_merge_keeps_first_position_through_zero():
    a, b = fac(1, 1), fac(1, 2)
    one = MotPoly.one()
    # (a, b) gets +1, then -1, then +1 again: it keeps its first place
    x = ZetaExpr([(one, ()), (one, (a,)), (one, (b,))])
    y = ZetaExpr([(one, (a, b)), (-one, (b,)), (one, (a,))])
    keys = [k for k, _ in (x * y).iter_terms()]
    assert keys == [(a, b), (b,), (a,), (a, a, b), (a, a), (a, b, b), (b, b)]
    z = ZetaExpr([(one, (a,)), (one, (b,)), (-one, (a,)), (one, ()), (one, (a,))])
    assert [k for k, _ in z.iter_terms()] == [(a,), (b,), ()]
    assert [k for k, _ in (z + (-z)).iter_terms()] == []
    assert [k for k, _ in z.scale(0).iter_terms()] == []


def test_json_deterministic():
    z = ZetaExpr.of(MotPoly.L(-1), (fac(1, 2),))
    assert json_dump(z.json_obj()) == json_dump(z.json_obj())
    tz = euler_specialize(z)
    s = json_dump(tz.json_obj())
    assert '"kind": "topzeta"' in s


def test_topzeta_hash_agrees_with_eq():
    # 1/(s+1) and 2/(2s+2): equal, so one hash and one set element
    a = TopZeta.from_quotient([F(1)], {(F(1), F(1)): 1})
    b = TopZeta.from_quotient([F(2)], {(F(2), F(2)): 1})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # proportional factors merge: 3/((s/3 + 1/2)(2s + 3)) = 18/(2s + 3)^2
    c = TopZeta.from_quotient([F(3)], {(F(1, 3), F(1, 2)): 1, (F(2), F(3)): 1})
    d = TopZeta.from_quotient([F(18)], {(F(2), F(3)): 2})
    assert c == d and hash(c) == hash(d)
    # the stored and printed forms are untouched
    assert str(b) == "(2) / ((2*s + 2))"
    assert b.denom_red == (((F(2), F(2)), 1),)
    assert len({a, TopZeta.from_quotient([F(1)], {(F(1), F(2)): 1})}) == 2


# The s-polynomial printers as they were written before text and LaTeX
# shared one term walker, kept here as the reference for both.


def _ref_spoly_str(p) -> str:
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


def _ref_spoly_latex(p) -> str:
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


def test_spoly_printers_match_reference():
    rng = random.Random(47)
    values = [F(0)] * 3 + [F(1), F(-1)] * 2 + [F(2), F(-3), F(3, 2), F(-5, 4), F(7, 3)]
    swapped_text = TEXT_S._replace(plus=TEXT_S.minus, minus=TEXT_S.plus)
    swapped_latex = LATEX._replace(plus=LATEX.minus, minus=LATEX.plus)
    caught = 0
    for _ in range(500):
        coeffs = [rng.choice(values) for _ in range(rng.randint(0, 7))]
        tz = TopZeta.from_quotient(coeffs, {})
        assert str(tz) == _ref_spoly_str(tz.numer_red), coeffs
        assert tz.latex() == _ref_spoly_latex(tz.numer_red), coeffs
        # over the numerator of a quotient with a denominator, too
        f = rng.choice(_LINS)
        tz = TopZeta.from_quotient(coeffs, {f: 1})
        if tz.denom_red:
            assert str(tz).startswith("(%s) / (" % _ref_spoly_str(tz.numer_red))
            assert tz.latex().startswith("\\frac{%s}{" % _ref_spoly_latex(tz.numer_red))
        # the comparison sees a walker with its plus and minus swapped
        p = _ref_pnorm(coeffs)
        if sum(1 for c in p if c) > 1:
            caught += 1
            assert topzeta._spoly(p, swapped_text) != _ref_spoly_str(p)
            assert topzeta._spoly(p, swapped_latex) != _ref_spoly_latex(p)
    assert caught > 200
    assert str(TopZeta.from_quotient([F(-1), F(-1)], {})) == "-s - 1"
    assert TopZeta.from_quotient([F(1, 2), F(0), F(-1)], {}).latex() == "-s^{2}+\\tfrac{1}{2}"


def test_whole_topzeta_prints_by_the_one_sum_rule():
    """A whole quotient, numerator and denominators, prints as the reference
    sum printers write it, each factor N s + nu (N, nu > 0) as the
    polynomial (nu, N): the fixed-shape factor texts keep the one sum rule."""
    rng = random.Random(53)
    values = [F(0), F(1), F(-1), F(2), F(-3), F(3, 2), F(-5, 4)]
    factors = 0
    while factors < 3000:
        coeffs = [rng.choice(values) for _ in range(rng.randint(0, 4))]
        denom = {}
        for _ in range(rng.randint(1, 4)):
            lin = (F(rng.randint(1, 9), rng.randint(1, 4)), F(rng.randint(1, 9), rng.randint(1, 4)))
            denom[lin] = rng.randint(1, 3)
        tz = TopZeta.from_quotient(coeffs, denom)
        text, latex = _ref_spoly_str(tz.numer_red), _ref_spoly_latex(tz.numer_red)
        if tz.denom_red:
            factors += len(tz.denom_red)
            text = "(%s) / (%s)" % (text, " * ".join(
                "(%s)%s" % (_ref_spoly_str((nu, N)), "" if m == 1 else "^%d" % m)
                for (N, nu), m in tz.denom_red))
            latex = "\\frac{%s}{%s}" % (latex, "".join(
                "\\left(%s\\right)%s" % (_ref_spoly_latex((nu, N)), "" if m == 1 else "^{%d}" % m)
                for (N, nu), m in tz.denom_red))
        assert str(tz) == text, (coeffs, denom)
        assert tz.latex() == latex, (coeffs, denom)


def test_topzeta_negative_N_equality():
    # 1/(s + 1) and -1/(-s - 1): equal, so one hash and one set element
    a = TopZeta.from_quotient([1], {(1, 1): 1})
    b = TopZeta.from_quotient([-1], {(-1, -1): 1})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert str(b) == "(-1) / ((-1*s + -1))"


def _ref_cross_equal(a, b):
    # TopZeta.__eq__ as it stood before equality read the canonical form:
    # cross-multiply the two reduced quotients.
    def poly_of(denom):
        out = (F(1),)
        for (N, nu), m in denom:
            for _ in range(m):
                out = _ref_pmul(out, (nu, N))
        return out

    lhs = _ref_pmul(a.numer_red, poly_of(b.denom_red))
    return lhs == _ref_pmul(b.numer_red, poly_of(a.denom_red))


def _rand_terms(rng: random.Random):
    return [
        (F(rng.randint(-3, 3), rng.randint(1, 2)),
         {f: rng.randint(-1, 2) for f in rng.sample(_LINS, rng.randint(0, 3))})
        for _ in range(rng.randint(0, 4))
    ]


def _rescaled(rng: random.Random, terms):
    # the same sum, shuffled, with each factor occurrence scaled by its own
    # nonzero k (a sign flip included) and the coefficient scaled to match
    out = []
    for c, lins in terms:
        c, scaled = F(c), {}
        for (N, nu), m in lins.items():
            k = F(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
            scaled[(N * k, nu * k)] = scaled.get((N * k, nu * k), 0) + m
            c *= k**m
        out.append((c, scaled))
    rng.shuffle(out)
    return out


def test_topzeta_equality_matches_cross_multiplication():
    rng = random.Random(43)
    equal = 0
    for i in range(600):
        terms = _rand_terms(rng)
        a = TopZeta(terms)
        assert (a.numer_red, a.denom_red) == _ref_topzeta_reduce(*_ref_topzeta_numer(terms))
        kind = i % 3
        if kind == 0:
            other = _rescaled(rng, terms)
        elif kind == 1:  # a rescaled copy with one more term, often zero
            other = _rescaled(rng, terms) + [(F(rng.randint(-1, 1)), {rng.choice(_LINS): 1})]
        else:
            other = _rand_terms(rng)
        b = TopZeta(other)
        same = a == b
        assert same == _ref_cross_equal(a, b), (terms, other)
        assert (b == a) == same
        if same:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
        equal += same
    assert 250 < equal < 550


# ---------------------------------------------------------------------------
# Reference copies of the reduction code as it stood before RatFunc and
# TopZeta shared one cancellation routine and one set of dense-polynomial
# helpers.  The shared code must agree with them exactly.


def _ref_pnorm(p):
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _ref_pmul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ref_pnorm(out)


def _ref_padd(a, b):
    out = [F(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return _ref_pnorm(out)


def _ref_pdiv_linear(p, N, nu):
    if not p:
        return ()
    if N == 0:
        raise ValueError("linear factor must have N != 0")
    q = []
    prev = F(0)
    for k in range(len(p) - 1):
        prev = (p[k] - N * prev) / nu
        q.append(prev)
    if p[-1] - N * prev != 0:
        return None
    return _ref_pnorm(q)


def _ref_topzeta_reduce(numer, denom):
    nred = numer
    dred = Counter(denom)
    if not nred:
        dred = Counter()
    else:
        for f in sorted(dred):
            while dred[f] > 0:
                q = _ref_pdiv_linear(nred, f[0], f[1])
                if q is None:
                    break
                nred = q
                dred[f] -= 1
    return nred, tuple(sorted((f, m) for f, m in dred.items() if m > 0))


def _ref_topzeta_numer(terms):
    merged = {}
    for c, lins in terms:
        key = tuple(sorted(Counter(lins).items()))
        merged[key] = merged.get(key, F(0)) + F(c)
    kept = [(c, key) for key, c in sorted(merged.items()) if c != 0]
    denom = Counter()
    for _c, key in kept:
        for f, m in key:
            denom[f] = max(denom[f], m)
    numer = ()
    for c, key in kept:
        own = dict(key)
        part = (F(c),)
        for f, m in sorted(denom.items()):
            for _ in range(m - own.get(f, 0)):
                part = _ref_pmul(part, (f[1], f[0]))
        numer = _ref_padd(numer, part)
    return numer, denom


def _ref_make(numer, denom):
    denom = Counter(denom)
    if numer.is_zero:
        return RatFunc(numer, ())
    for f in sorted(denom):
        while denom[f] > 0:
            q = numer.divide_one_minus(*direction(-f.nu, f.N))
            if q is None:
                break
            numer = q
            denom[f] -= 1
    return RatFunc(numer, tuple(sorted((f, m) for f, m in denom.items() if m > 0)))


def _ref_from_term(coeff, factors):
    numer = coeff
    for f in factors:
        numer = numer * numer_poly(f)
    return _ref_make(numer, Counter(factors))


def _ref_add(a, b):
    da, db = Counter(dict(a.denom)), Counter(dict(b.denom))
    dmax = Counter()
    for f in set(da) | set(db):
        dmax[f] = max(da[f], db[f])
    na = a.numer
    for f in dmax:
        for _ in range(dmax[f] - da[f]):
            na = na * binom_poly(f)
    nb = b.numer
    for f in dmax:
        for _ in range(dmax[f] - db[f]):
            nb = nb * binom_poly(f)
    return _ref_make(na + nb, dmax)


def _ref_equivalent(a, b):
    da, db = Counter(dict(a.denom)), Counter(dict(b.denom))
    na, nb = a.numer, b.numer
    for f in set(da) | set(db):
        for _ in range(max(da[f], db[f]) - da[f]):
            na = na * binom_poly(f)
        for _ in range(max(da[f], db[f]) - db[f]):
            nb = nb * binom_poly(f)
    return na == nb


def _rand_spoly(rng: random.Random, n: int):
    return _ref_pnorm([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])


_LINS = [(F(1), F(1)), (F(2), F(2)), (F(1), F(2)), (F(3), F(5, 2)), (F(1, 2), F(3, 4))]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def test_dense_helpers_match_reference():
    rng = random.Random(41)
    exact = 0
    for _ in range(400):
        a, b = _rand_spoly(rng, rng.randint(0, 5)), _rand_spoly(rng, rng.randint(0, 5))
        assert pmul(a, b) == _ref_pmul(a, b)
        assert padd(a, b) == _ref_padd(a, b)
        N = F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
        nu = F(rng.randint(1, 4), rng.randint(1, 3))
        p = _ref_pmul(a, (nu, N)) if rng.random() < 0.5 else a
        got = pdiv(p, (nu, N))
        assert got == _ref_pdiv_linear(p, N, nu), (p, N, nu)
        exact += got is not None and bool(p)
    assert 100 < exact < 300  # both exact and inexact divisions were tried
    assert pdiv((), (F(1), F(1))) == ()


def test_topzeta_reduction_matches_reference():
    rng = random.Random(42)
    reduced = refused = 0
    for _ in range(300):
        numer = _rand_spoly(rng, rng.randint(0, 3))
        for _ in range(rng.randint(0, 3)):
            N, nu = rng.choice(_LINS)
            numer = _ref_pmul(numer, (nu, N))
        denom = {f: rng.randint(-1, 3) for f in rng.sample(_LINS, rng.randint(0, 4))}
        negative = sorted(f for f, m in denom.items() if m < 0)
        if negative:
            # a negative multiplicity is refused, naming the first such factor
            N, nu = negative[0]
            assert _outcome(_reduced, numer, denom) == (
                "ValueError",
                "from_quotient needs multiplicities >= 0, got -1 for (N, nu) = (%s, %s)" % (N, nu),
            )
            refused += 1
            # the same quotient without those factors still reduces
            denom = {f: m for f, m in denom.items() if m >= 0}
        tz = TopZeta.from_quotient(numer, denom)
        assert (tz.numer_red, tz.denom_red) == _ref_topzeta_reduce(numer, denom)
        reduced += tz.numer_red != numer

        terms = [
            (F(rng.randint(-3, 3), rng.randint(1, 2)),
             {f: rng.randint(1, 2) for f in rng.sample(_LINS, rng.randint(0, 3))})
            for _ in range(rng.randint(0, 4))
        ]
        tz = TopZeta(terms)
        ref_numer, ref_denom = _ref_topzeta_numer(terms)
        assert (tz.numer_red, tz.denom_red) == _ref_topzeta_reduce(ref_numer, ref_denom)
    assert reduced > 50 and refused > 50


def test_topzeta_reduction_edge_cases():
    # a zero numerator keeps no factor, multiplicity 0 included
    tz = TopZeta.from_quotient([F(0)], {(F(1), F(1)): 2, (F(2), F(1)): 0})
    assert (tz.numer_red, tz.denom_red) == ((), ())
    # multiplicity 0 is never divided by
    tz = TopZeta.from_quotient([F(1), F(1)], {(F(1), F(1)): 0})
    assert (tz.numer_red, tz.denom_red) == ((F(1), F(1)), ())
    # N = 0: refused once a division is tried, as before
    cases = [
        ([F(2), F(1)], {(F(0), F(2)): 1}),
        ([F(1)], {(F(0), F(3)): 1, (F(1), F(1)): 1}),
        ([F(0)], {(F(0), F(2)): 1}),
    ]
    got = [_outcome(_reduced, numer, denom) for numer, denom in cases]
    assert got == [_outcome(_ref_topzeta_reduce, _ref_pnorm(list(n)), d) for n, d in cases]
    refused = ("ValueError", "linear factor must have N != 0")
    assert got == [refused, refused, ((), ())]
    # a sum of terms with an N = 0 factor is refused even when it is zero
    # (2/(0 s + 2) - 1): each term is divided by its own factors
    with pytest.raises(ValueError, match="N != 0"):
        TopZeta([(F(2), {(F(0), F(2)): 1}), (F(-1), {})])


def _reduced(numer, denom):
    tz = TopZeta.from_quotient(numer, denom)
    return tz.numer_red, tz.denom_red


_FACS = [fac(1, 1), fac(2, 2), fac(1, 2), fac(F(1, 2), F(1, 2)), fac(3, 1), fac(0, 2)]


def _rand_zeta(rng: random.Random) -> ZetaExpr:
    terms = []
    for _ in range(rng.randint(0, 4)):
        facs = [rng.choice(_FACS) for _ in range(rng.randint(0, 3))]
        terms.append((_rand_poly(rng, 3), facs))
    return ZetaExpr(terms)


def test_ratfunc_fold_matches_reference():
    rng = random.Random(43)
    fired = 0
    for _ in range(150):
        z = _rand_zeta(rng)
        got, want = RatFunc.zero(), RatFunc.zero()
        for factors, coeff in z.iter_terms():
            got = add(got, RatFunc.from_term(coeff, factors))
            want = _ref_add(want, _ref_from_term(coeff, factors))
        assert got.numer == want.numer and got.denom == want.denom
        assert str(got) == str(want)
        assert got == ze_to_ratfunc(z)
        # the sum with its negation has a zero numerator and no factor
        neg = ze_to_ratfunc(-z)
        assert add(got, neg) == _ref_add(want, neg) == RatFunc.zero()

        # the same quotient over one more factor, another expression, and
        # a numerator that differs
        f = rng.choice(_FACS)
        padded = RatFunc(
            got.numer * binom_poly(f),
            tuple(sorted((Counter(dict(got.denom)) + Counter({f: 1})).items())),
        )
        assert got.equivalent(padded) and padded.equivalent(got)
        for other in (
            padded,
            ze_to_ratfunc(_rand_zeta(rng)),
            RatFunc(padded.numer + MotPoly.one(), padded.denom),
        ):
            assert got.equivalent(other) == _ref_equivalent(got, other)
            assert other.equivalent(got) == _ref_equivalent(other, got)
            fired += not got.equivalent(other)
    assert fired > 150


# Three factors on the ray (1, 2), two with N = 0 on (0, 1), and others
# alone on their rays.  Each draw builds a new factor, so equal factors
# need not be the same object.
_RAY_DATA = [(1, 2), (2, 4), (F(3, 2), 3), (0, 2), (0, F(1, 2)), (1, 1), (3, 1), (F(1, 2), F(5, 4))]


def _ray_fac(rng: random.Random) -> StdFactor:
    return fac(*rng.choice(_RAY_DATA))


def _rand_coeff(rng: random.Random) -> MotPoly:
    """A monomial or a sum of terms, with class symbols in some of them,
    and now and then a multiple of a factor's binomial, which some
    division then takes out."""
    mono = MotPoly.monomial(
        rng.choice((-2, -1, 1, 3)),
        ell=F(rng.randint(-4, 4), rng.choice((1, 2, 3))),
        tau=F(rng.randint(0, 4), rng.choice((1, 2))),
        syms=rng.choice(((), (("C0", 1),), (("C0", 1), ("C1", 2)))),
    )
    kind = rng.randrange(3)
    if kind == 0:
        return mono
    if kind == 1:
        return mono + _rand_poly(rng, 3)
    return mono * binom_poly(_ray_fac(rng))


def _assert_reduced(rf: RatFunc):
    if not rf.numer:
        assert rf.denom == ()
    for f, _m in rf.denom:
        assert rf.numer.divide_one_minus(*direction(-f.nu, f.N)) is None, (str(rf), str(f))


def test_fold_matches_the_fold_that_tries_every_division():
    rng = random.Random(47)
    monomial = multi = cut = divided = 0
    for _ in range(250):
        got, want = RatFunc.zero(), RatFunc.zero()
        for _ in range(rng.randint(1, 5)):
            coeff = _rand_coeff(rng)
            factors = tuple(sorted(_ray_fac(rng) for _ in range(rng.randint(0, 3))))
            term, ref = RatFunc.from_term(coeff, factors), _ref_from_term(coeff, factors)
            assert term.numer.lattice() == ref.numer.lattice() and term.denom == ref.denom
            _assert_reduced(term)
            cut += sum(m for _f, m in term.denom) < len(factors)
            monomial += len(coeff) == 1
            multi += len(coeff) > 1
            common = Counter(dict(got.denom)) | Counter(dict(term.denom))
            got, want = add(got, term), _ref_add(want, ref)
            assert got.numer.lattice() == want.numer.lattice()
            assert got.denom == want.denom and str(got) == str(want)
            _assert_reduced(got)
            divided += sum(m for _f, m in got.denom) < sum(common.values())
    assert monomial > 200 and multi > 200 and cut > 100 and divided > 15

    # Coefficients with the content (L - 1)^j and T-free sums of several
    # terms, against the same factors (N = 0 ones among them): the fold
    # keeps (L - 1)^k apart from its numerators, so its quotients meet and
    # are compared across different k.
    pulled = tfree = absorbed = mixed = 0
    for _ in range(250):
        got, want = RatFunc.zero(), RatFunc.zero()
        for _ in range(rng.randint(1, 4)):
            coeff, j = _rand_content_coeff(rng)
            factors = tuple(sorted(_ray_fac(rng) for _ in range(rng.randint(0, 3))))
            term, ref = RatFunc.from_term(coeff, factors), _ref_from_term(coeff, factors)
            assert term.numer.lattice() == ref.numer.lattice() and term.denom == ref.denom
            _assert_reduced(term)
            has_n0 = any(f.N == 0 for f in factors)
            pulled += not has_n0 and term._k >= len(factors) + j > len(factors)
            absorbed += has_n0 and term._k == 0 and j > 0
            tfree += len(coeff) > 1 and not coeff.has_T()
            mixed += bool(got._k != term._k and got.numer and term.numer)
            got, want = add(got, term), _ref_add(want, ref)
            assert got.numer.lattice() == want.numer.lattice()
            assert got.denom == want.denom and str(got) == str(want)
            _assert_reduced(got)
        # the same quotient held with k = 0, raised over one more factor,
        # and moved off by a constant
        flat = RatFunc(got.numer, got.denom)
        f = _ray_fac(rng)
        padded = RatFunc(
            got.numer * binom_poly(f),
            tuple(sorted((Counter(dict(got.denom)) + Counter({f: 1})).items())),
        )
        for other in (flat, padded, RatFunc(got.numer + MotPoly.one(), got.denom)):
            assert got.equivalent(other) == other.equivalent(got) == _ref_equivalent(got, other)
        assert got.equivalent(flat) and got == flat
        doubled = add(got, flat)
        assert doubled == _ref_add(want, want) and str(doubled) == str(_ref_add(want, want))
    assert pulled > 200 and tfree > 200 and absorbed > 80 and mixed > 150


def _rand_content_coeff(rng: random.Random) -> tuple[MotPoly, int]:
    """A coefficient of :func:`_rand_coeff` or a T-free sum of several
    terms, times (L - 1)^j; and j."""
    if rng.randrange(2):
        coeff = _rand_coeff(rng)
    else:
        coeff = MotPoly.zero()
        while len(coeff) < 2 or coeff.chi({"C0": 1}) == 0:
            coeff = coeff + MotPoly.monomial(
                rng.choice((-2, -1, 1, 2)), ell=F(rng.randint(-3, 3), rng.choice((1, 2))),
                syms=rng.choice(((), (("C0", 1),))),
            )
    j = rng.randint(0, 2)
    return coeff * (MotPoly.L() - 1) ** j, j


def test_fold_is_memoised():
    rng = random.Random(44)
    for _ in range(30):
        z = _rand_zeta(rng)
        assert ze_to_ratfunc(z) is ze_to_ratfunc(z)


def test_equal_then_print_folds_each_side_once(monkeypatch):
    from_term = RatFunc.from_term
    calls = []

    def counted(cls, coeff, factors):
        calls.append(factors)
        return from_term(coeff, factors)

    monkeypatch.setattr(RatFunc, "from_term", classmethod(counted))
    rng = random.Random(45)
    for _ in range(30):
        a, b = _rand_zeta(rng), _rand_zeta(rng)
        calls.clear()
        same = ze_equal(a, b)
        assert ze_to_ratfunc(a).equivalent(ze_to_ratfunc(b)) == same
        assert ze_equal(b, a) == same
        assert len(calls) == len(a.terms()) + len(b.terms())


def test_new_expressions_start_without_a_fold():
    rng = random.Random(43)
    for _ in range(150):
        z, w = _rand_zeta(rng), _rand_zeta(rng)
        ze_to_ratfunc(z)
        ze_to_ratfunc(w)
        c = _rand_poly(rng, 2)
        built = [
            z + w,
            z + ZetaExpr.zero(),
            -z,
            z * w,
            z * ZetaExpr.one(),
            z.scale(c),
            z.scale(1),
            z * 2,
            ZetaExpr((coeff, facs) for facs, coeff in z.iter_terms()),
        ]
        for r in built:
            assert r._rf is None
            fresh = ZetaExpr((coeff, facs) for facs, coeff in r.iter_terms())
            assert ze_to_ratfunc(r) == ze_to_ratfunc(fresh)


def test_binomial_text_matches_the_column_printer():
    """Each denominator binomial 1 - L^-nu T^N is written with one format,
    as the column printer writes the sum 1 - L^-nu T^N: N = 0, the
    exponents 1 and -1, whole and fractional exponents."""
    rng = random.Random(31)
    picks = [0, 1, 2, 7, F(1, 2), F(3, 4), F(5, 3)]
    seen = set()
    for _ in range(600):
        N = rng.choice(picks + [F(rng.randint(0, 40), rng.randint(1, 12))])
        nu = rng.choice(picks[1:] + [F(rng.randint(1, 40), rng.randint(1, 12))])
        f = fac(N, nu)
        r, n, v = f._lat
        monomial = render_poly(MotPoly.from_lattice({(n, -v, ()): 1}, r))
        assert symring._binomial_text(f._lat) == "1 - " + monomial
        seen.add((n == 0, n == r, v == r, n % r == 0, v % r == 0))
    assert len(seen) >= 8
