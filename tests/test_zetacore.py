from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from qzeta.groups import GroupAction, NotSmall
from qzeta.symring import MotPoly, ZetaExpr, fac, series_expand, ze_equal
from qzeta.zetacore import (
    BudgetExceeded,
    DimensionMismatch,
    Stratification,
    Stratum,
    TInCoefficient,
    affine_monomial_zeta,
    gor_measure_origin,
    infer_gindex,
    jet_count_oracle,
    local_monomial_zeta,
    orb_measure_origin,
    s_g_sum,
    stratified_zeta,
    veys_det_713,
)

from readers import coeff_of_T


def test_s_g_sum_half():
    g = GroupAction.cyclic(2, (1, 1))
    s = s_g_sum(g, (1, 1), (1, 1))
    # identity contributes 1; (1,1) contributes L^(s+1) = L T^-1
    assert s == MotPoly.one() + MotPoly.monomial(1, ell=1, tau=-1)


def test_s_g_sum_713_pairs():
    g = GroupAction.cyclic(7, (1, 3))
    N1, N2, nu1, nu2 = F(1), F(1), F(1), F(1)
    s = s_g_sum(g, (N1, N2), (nu1, nu2))
    pairs = set()
    for j in range(7):
        e1, e2 = j % 7, (3 * j) % 7
        aN = F(e1 * N1 + e2 * N2, 7)
        anu = F(e1 * nu1 + e2 * nu2, 7)
        pairs.add((-aN, anu, ()))
    assert set(dict(s.terms())) == pairs
    assert len(s) == 7


def test_s_g_sum_dimension_check():
    g = GroupAction.cyclic(2, (1, 1))
    with pytest.raises(DimensionMismatch):
        s_g_sum(g, (1,), (1,))


def test_local_monomial_zeta_small_guard():
    g = GroupAction.cyclic(4, (1, 2))
    with pytest.raises(NotSmall):
        local_monomial_zeta(g, (1, 1), (1, 1))
    # with the escape hatch it computes the same shape of expression
    z = local_monomial_zeta(g, (1, 1), (1, 1), allow_nonsmall=True)
    ((facs, _),) = z.terms()
    assert facs == (fac(1, 1), fac(1, 1))


def test_local_zeta_gor_example():
    # 1/2(1,1) with N = 0: factors Fac(0;1) vanish and the coefficient
    # alone remains: L^-2 (1 + L)
    g = GroupAction.cyclic(2, (1, 1))
    z = local_monomial_zeta(g, (0, 0), (1, 1))
    ((facs, coeff),) = z.terms()
    assert facs == ()
    assert coeff == MotPoly.monomial(1, ell=-2) + MotPoly.monomial(1, ell=-1)


def test_affine_zeta_unit_split():
    z = affine_monomial_zeta((1,), (1,))
    # (1 - L^-1) + L^-1 Fac(1;1)
    want = ZetaExpr(
        [
            (MotPoly.one() - MotPoly.L(-1), ()),
            (MotPoly.L(-1), (fac(1, 1),)),
        ]
    )
    assert z == want


def test_measures_verbatim():
    g2 = GroupAction.cyclic(2, (1, 1))
    g4 = GroupAction.cyclic(4, (1, 2))
    gor = MotPoly.monomial(1, ell=-2) + MotPoly.monomial(1, ell=-1)
    assert gor_measure_origin(g2) == gor
    assert gor_measure_origin(g4) == gor  # intrinsic: reduces to 1/2(1,1)
    orb = (
        MotPoly.monomial(1, ell=-2)
        + MotPoly.monomial(1, ell=F(-3, 4))
        + MotPoly.monomial(1, ell=F(-3, 2))
        + MotPoly.monomial(1, ell=F(-5, 4))
    )
    assert orb_measure_origin(g4) == orb
    # the two measures differ on the unreduced presentation
    assert orb_measure_origin(g2) == MotPoly.monomial(1, ell=-2) + MotPoly.monomial(1, ell=-1)


def test_veys_determinant_matches_group_sum():
    rng = random.Random(7)
    g = GroupAction.cyclic(7, (1, 3))
    for _ in range(10):
        N = (F(rng.randint(0, 6), rng.choice((1, 2))), F(rng.randint(0, 6), 1))
        nu = (F(rng.randint(1, 5), 1), F(rng.randint(1, 5), rng.choice((1, 2))))
        assert veys_det_713(N[0], N[1], nu[0], nu[1]) == s_g_sum(g, N, nu)


def test_stratum_validation():
    triv = GroupAction.trivial(2)
    with pytest.raises(TInCoefficient):
        Stratum(MotPoly.T(), (1, 1), (1, 1), triv)
    with pytest.raises(DimensionMismatch):
        Stratum(MotPoly.one(), (1,), (1, 1), triv)
    with pytest.raises(ValueError):
        Stratum(MotPoly.one(), (-1, 0), (1, 1), triv)
    with pytest.raises(ValueError):
        Stratum(MotPoly.one(), (1, 1), (0, 1), triv)


def test_stratification_index_checks():
    triv = GroupAction.trivial(1)
    st = Stratum(MotPoly.one(), (F(1, 3),), (F(1),), triv)
    Stratification(1, 3, (st,))
    with pytest.raises(ValueError):
        Stratification(1, 2, (st,))  # denominator 3 does not divide 2
    g5 = GroupAction.cyclic(5, (1,))
    st5 = Stratum(MotPoly.one(), (F(1),), (F(1),), g5)
    with pytest.raises(ValueError, match="group exponent 5 has the factor 5 foreign to index 3"):
        Stratification(1, 3, (st5,))
    st12 = Stratum(MotPoly.one(), (F(1),), (F(1),), GroupAction.cyclic(12, (1,)))
    Stratification(1, 6, (st12,))  # 12 = 2^2 * 3: only primes of 6
    with pytest.raises(ValueError, match="group exponent 12 has the factor 3 foreign to index 4"):
        Stratification(1, 4, (st12,))


def test_infer_gindex():
    g = GroupAction.cyclic(4, (1, 3))
    st = Stratum(MotPoly.one(), (F(1, 6), F(0)), (F(1), F(1)), g)
    assert infer_gindex([st]) == 24  # 4 * lcm(6,1)


def test_stratified_zeta_is_plain_sum():
    g = GroupAction.cyclic(3, (1, 2))
    st1 = Stratum(MotPoly.L() - 1, (1, 0), (1, 1), GroupAction.trivial(2))
    st2 = Stratum(MotPoly.one(), (1, 2), (1, 1), g)
    strat = Stratification(2, 3, (st1, st2))
    z = stratified_zeta(strat)
    Ln = MotPoly.L(-2)
    want = ZetaExpr(
        [
            ((MotPoly.L() - 1) * Ln, (fac(1, 1),)),
            (s_g_sum(g, (1, 2), (1, 1)) * Ln, (fac(1, 1), fac(2, 1))),
        ]
    )
    assert z == want


def test_jet_oracle_values():
    # ord(x) = 0 over F_2: half the level-0 jets have x(0) != 0
    assert jet_count_oracle((1,), 2, 0) == F(1, 2)
    assert jet_count_oracle((1,), 2, 1) == F(1, 4)
    assert jet_count_oracle((2,), 3, 1) == 0  # x^2 has even order only
    assert jet_count_oracle((2,), 3, 2) == F(2, 9)
    assert jet_count_oracle((1, 1), 2, 1) == F(2) * F(1, 2) * F(1, 4)


def test_jet_oracle_matches_series():
    for Nvec in ((1,), (2,), (1, 2)):
        n = len(Nvec)
        z = affine_monomial_zeta(Nvec, (1,) * n)
        for p in (2, 3):
            for j in range(4):
                coeff = coeff_of_T(series_expand(z, j), j)
                assert jet_count_oracle(Nvec, p, j) == coeff.eval_L(p)


def test_jet_oracle_guards():
    with pytest.raises(BudgetExceeded):
        jet_count_oracle((1, 1, 1), 10, 8)
    with pytest.raises(ValueError):
        jet_count_oracle((0,), 2, 1)
    with pytest.raises(ValueError):
        jet_count_oracle((1,), 1, 1)


def test_direct_vs_resolution_consistency():
    # the same data via the group sum and via a 2-strata resolution of the
    # blow-up of the plane: E has (N, nu) = (N1+N2, 2)
    N1, N2 = 2, 3
    strat = Stratification(
        2,
        1,
        (
            Stratum(MotPoly.one(), (N1, N1 + N2), (1, 2), GroupAction.trivial(2)),
            Stratum(MotPoly.L() - 1, (N1 + N2, 0), (2, 1), GroupAction.trivial(2)),
            Stratum(MotPoly.one(), (N1 + N2, N2), (2, 1), GroupAction.trivial(2)),
        ),
    )
    z_res = stratified_zeta(strat)
    z_dir = local_monomial_zeta(GroupAction.trivial(2), (N1, N2), (1, 1))
    assert ze_equal(z_res, z_dir)
