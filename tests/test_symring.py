from __future__ import annotations

import random
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
        got = p.divide_one_minus(ell_x, tau_x)
        assert got == q
    # 1 + x is not divisible by 1 - x
    assert (MotPoly.one() + MotPoly.T()).divide_one_minus(F(0), F(1)) is None


def test_ratfunc_cancellation():
    f = fac(2, 3)
    # (1 - L^-3 T^2) / (1 - L^-3 T^2) = 1
    rf = RatFunc.make(MotPoly.one() - MotPoly.monomial(1, ell=-3, tau=2), {f: 1})
    assert rf.numer == MotPoly.one()
    assert rf.denom == ()


def test_ratfunc_add_and_equivalent():
    f = fac(1, 1)
    one_minus = MotPoly.one() - MotPoly.monomial(1, ell=-1, tau=1)
    a = RatFunc.make(MotPoly.one(), {f: 1})
    b = RatFunc.make(-MotPoly.monomial(1, ell=-1, tau=1), {f: 1})
    s = a.add(b)
    assert s.numer == MotPoly.one() and s.denom == ()
    assert RatFunc.make(one_minus, {f: 1}).equivalent(RatFunc.make(MotPoly.one(), {}))


def test_ze_equal_positive_and_negative():
    f = fac(1, 1)
    # F = (L-1) L^-1 T / (1 - L^-1 T): two ways of writing the same thing
    lhs = ZetaExpr.of(MotPoly.one(), (f,))
    geom = MotPoly.monomial(1, ell=-1, tau=1)
    rhs = ZetaExpr([((MotPoly.L() - 1) * geom, ()), (geom, (f,))])
    assert ze_equal(lhs, rhs)
    assert not ze_equal(lhs, ZetaExpr.of(MotPoly.one() + MotPoly.one(), (f,)))


def test_ze_to_ratfunc_single_factor():
    f = fac(2, 1)
    rf = ze_to_ratfunc(ZetaExpr.of(MotPoly.one(), (f,)))
    assert rf.denom == ((f, 1),)
    assert rf.numer == f.numer_poly()


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


def test_candidate_poles():
    z = ZetaExpr.of(MotPoly.one(), (fac(2, 3), fac(1, 1), fac(0, 2)))
    assert candidate_poles(z) == {F(-3, 2), F(-1)}


def test_euler_specialize_basic():
    # (L+1) L^-2 Fac(1;1) Fac(0;2) -> 2 / (2 (s+1))
    coeff = (MotPoly.L() + 1) * MotPoly.L(-2)
    z = ZetaExpr.of(coeff, (fac(1, 1), fac(0, 2)))
    tz = euler_specialize(z)
    assert tz == TopZeta.from_quotient([F(1)], {(F(1), F(1)): 1})
    assert tz.eval_at(0) == 1
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
    q = MotPoly.sym("a") * MotPoly.L()
    assert q.eval_L(5, {"a": F(2)}) == 10
    with pytest.raises(MissingChi):
        q.eval_L(5)


def test_render_strings():
    p = MotPoly.monomial(1, ell=-2) + MotPoly.monomial(1, ell=-1)
    assert render_poly_factored(p) == "L^-2 * (1 + L)"
    assert render_poly(p) == "L^-2 + L^-1"
    z = ZetaExpr.of(MotPoly.one(), (fac(1, 1), fac(1, 1)))
    assert render_zeta(z) == "Fac(1; 1)^2"
    assert str(fac(F(1, 2), F(3, 2))) == "Fac(1/2; 3/2)"


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
