from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction as F

import pytest

from qzeta.groups import GroupAction
from qzeta.motpoly import MotPoly
from qzeta.resolution import (
    NotCoprime,
    YomdinParams,
    _cyclic_sum,
    hj_resolve,
    hj_stratification,
    tetra_stratification,
    tetra_top_closed,
    tetra_zeta_closed,
    yomdin_stratification,
    yomdin_top_closed,
    yomdin_zeta_closed,
)
from qzeta.symring import TopZeta, euler_specialize, ze_equal
from qzeta.tetra import TetraParams
from qzeta.zetacore import (
    Stratification,
    Stratum,
    infer_gindex,
    local_monomial_zeta,
    s_g_sum,
    stratified_zeta,
)

from readers import eval_at


# ---------------------------------------------------------------------------
# Hirzebruch-Jung chains


def test_chain_713():
    ch = hj_resolve(7, 1, 3)
    assert ch.e == 3
    assert ch.kappa == (3, 2, 2)
    assert ch.coeffs == ((1, 3), (3, 2), (5, 1))


def test_chain_211_and_smooth():
    ch = hj_resolve(2, 1, 1)
    assert ch.kappa == (2,)
    assert ch.coeffs == ((1, 1),)
    assert hj_resolve(1, 1, 1).coeffs == ()


def test_chain_rejects_noncoprime():
    with pytest.raises(NotCoprime):
        hj_resolve(4, 2, 1)


def test_chain_recurrence_and_reversal():
    rng = random.Random(31)
    for _ in range(25):
        d = rng.randint(2, 40)
        a = rng.choice([x for x in range(1, d) if math.gcd(x, d) == 1])
        b = rng.choice([x for x in range(1, d) if math.gcd(x, d) == 1])
        ch = hj_resolve(d, a, b)
        assert all(k >= 2 for k in ch.kappa)
        assert ch.e == (pow(a, -1, d) * b) % d
        pts = ((0, d),) + ch.coeffs + ((d, 0),)
        for i in range(1, len(pts) - 1):
            k = ch.kappa[i - 1]
            assert (
                k * pts[i][0] - pts[i - 1][0],
                k * pts[i][1] - pts[i - 1][1],
            ) == pts[i + 1]
        # x strictly increases, y strictly decreases along the chain
        assert all(p[0] < q[0] and p[1] > q[1] for p, q in zip(pts, pts[1:]))
        assert hj_resolve(d, b, a).kappa == tuple(reversed(ch.kappa))


def test_hj_stratification_shape():
    strat = hj_stratification(hj_resolve(7, 1, 3), 1, 1, 1, 1)
    assert strat.n == 2
    assert strat.r == 7
    assert len(strat.strata) == 7  # corner, curve, ..., corner
    curve_classes = [st.klass for st in strat.strata[1::2]]
    assert all(len(c) == 2 for c in curve_classes)  # each is L - 1


@pytest.mark.parametrize(
    "d,a,b,N,nu",
    [
        (7, 1, 3, (1, 1), (1, 1)),
        (7, 1, 3, (2, 3), (1, 2)),
        (5, 2, 3, (1, 4), (2, 1)),
        (11, 3, 7, (2, 0), (1, 3)),
        (12, 5, 7, (1, 1), (1, 1)),
        (5, 1, 2, (0, 2), (3, 1)),
        (1, 1, 1, (2, 5), (1, 1)),
    ],
)
def test_hj_vs_direct(d, a, b, N, nu):
    g = GroupAction.cyclic(d, (a, b))
    direct = local_monomial_zeta(g, N, nu)
    via_chain = stratified_zeta(hj_stratification(hj_resolve(d, a, b), *N, *nu))
    assert ze_equal(via_chain, direct)


# ---------------------------------------------------------------------------
# the Yomdin-type family


def test_yomdin_invariants():
    y = YomdinParams(3, 1, 2, 3, 3)
    assert (y.k1, y.k2) == (1, 1)
    assert y.m1 == 24
    assert y.nu1 == 35
    assert y.chi_c0 == 2
    assert y.chi_c1 == 2
    assert y.realizable


def test_yomdin_validation():
    with pytest.raises(ValueError):
        YomdinParams(1, 1, 2, 3, 1)
    with pytest.raises(ValueError):
        YomdinParams(3, 0, 2, 3, 1)
    with pytest.raises(ValueError):
        YomdinParams(3, 1, 3, 2, 1)  # p >= q
    with pytest.raises(ValueError):
        YomdinParams(3, 1, 2, 4, 1)  # not coprime
    assert not YomdinParams(2, 1, 2, 5, 1).realizable


def test_yomdin_strata_shape():
    strat, chi = yomdin_stratification(YomdinParams(3, 1, 2, 3, 3))
    assert strat.n == 3
    assert len(strat.strata) == 15
    assert chi == {"C0": 2, "C1": 2}


@pytest.mark.parametrize("params", [(3, 1, 2, 3, 3), (5, 2, 2, 5, 1)])
def test_yomdin_two_routes_agree(params):
    y = YomdinParams(*params)
    strat, chi = yomdin_stratification(y)
    assert ze_equal(stratified_zeta(strat), yomdin_zeta_closed(y))
    assert euler_specialize(stratified_zeta(strat), chi) == yomdin_top_closed(y)


def test_yomdin_top_value():
    strat, chi = yomdin_stratification(YomdinParams(3, 1, 2, 3, 3))
    top = euler_specialize(stratified_zeta(strat), chi)
    want = TopZeta.from_quotient(
        [F(175, 3), F(319, 3), 46], {(1, 1): 1, (3, 5): 1, (24, 35): 1}
    )
    assert top == want
    assert top.poles() == {F(-1), F(-5, 3), F(-35, 24)}
    assert eval_at(top, 0) == F(1, 3)


# ---------------------------------------------------------------------------
# the trihedral family


def test_tetra_strata_shape():
    strat, chi = tetra_stratification(TetraParams(3, 2), 1, 1)
    assert strat.n == 3
    assert len(strat.strata) == 6
    assert chi == {"E": 3, "D": 1}


@pytest.mark.parametrize("d,q,N,nu", [(3, 2, 1, 1), (7, 3, 2, 3), (2, 1, 1, 2)])
def test_tetra_two_routes_agree(d, q, N, nu):
    t = TetraParams(d, q)
    strat, chi = tetra_stratification(t, N, nu)
    z = stratified_zeta(strat)
    assert ze_equal(z, tetra_zeta_closed(t, N, nu))
    assert euler_specialize(z, chi) == tetra_top_closed(t, N, nu)


def test_tetra_autoreduce_is_quiet():
    """A non-small G(d, q) is built as its small member, with no warning:
    the notice is the CLI's to print."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strat, _ = tetra_stratification(TetraParams(5, 2), 1, 1)
        want, _ = tetra_stratification(TetraParams(1, 0), 1, 1)
    assert strat == want


@pytest.mark.parametrize(
    "build",
    [
        lambda: yomdin_stratification(YomdinParams(3, 1, 2, 3, 3)),
        lambda: yomdin_stratification(YomdinParams(9, 4, 5, 7, 2)),
        lambda: yomdin_stratification(YomdinParams(2, 6, 2, 9, 1)),
        lambda: tetra_stratification(TetraParams(7, 3), F(2, 3), 3),
        lambda: tetra_stratification(TetraParams(9, 2), 0, F(1, 2)),
    ],
    ids=["yomdin-3", "yomdin-9", "yomdin-2", "tetra-7", "tetra-9"],
)
def test_unchecked_strata_pass_the_checks(build):
    # the yomdin and tetra builders make their strata unchecked; the
    # checking constructors accept each stratum and the whole as they are
    strat, _chi = build()
    checked = Stratification(
        strat.n, strat.r, tuple(Stratum(st.klass, st.Nvec, st.nuvec, st.group) for st in strat.strata)
    )
    assert checked == strat
    assert strat.r == infer_gindex(strat.strata)


def test_tetra_top_closed_values():
    top = tetra_top_closed(TetraParams(3, 2), 1, 1)
    assert str(top) == "(8*s^2 + 16*s + 11) / ((s + 1)^3)"
    assert top.poles() == {F(-1)}
    assert eval_at(top, 0) == 11
    const = tetra_top_closed(TetraParams(3, 2), 0, 2)
    assert const == TopZeta([(F(35, 8), {})])


# ---------------------------------------------------------------------------
# the two routes of each family on random data, with Q-divisors (rational
# N and nu) where the family takes them


def _rats(hi: int, lo: int):
    st = pytest.importorskip("hypothesis.strategies")
    return st.builds(F, st.integers(lo, hi), st.integers(1, 4))


def test_hj_routes_agree_on_q_divisors():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def quotients(draw):
        d = draw(st.integers(1, 24))
        units = [x for x in range(1, d + 1) if math.gcd(x, d) == 1]
        return d, draw(st.sampled_from(units)), draw(st.sampled_from(units))

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(quotients(), _rats(12, 0), _rats(12, 0), _rats(12, 1), _rats(12, 1))
    def check(dab, N1, N2, nu1, nu2):
        d, a, b = dab
        direct = local_monomial_zeta(GroupAction.cyclic(d, (a, b)), (N1, N2), (nu1, nu2))
        strat = hj_stratification(hj_resolve(d, a, b), N1, N2, nu1, nu2)
        # the builder makes its strata unchecked; the checking constructors
        # and the inferred index give the same stratification
        strata = tuple(Stratum(s.klass, s.Nvec, s.nuvec, s.group) for s in strat.strata)
        assert strat == Stratification(2, math.lcm(d, infer_gindex(strata)), strata)
        via_chain = stratified_zeta(strat)
        assert ze_equal(via_chain, direct)
        assert euler_specialize(via_chain) == euler_specialize(direct)

    check()


def test_yomdin_routes_agree_on_random_parameters():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def params(draw):
        p = draw(st.integers(2, 4))
        q = draw(st.sampled_from([x for x in range(p + 1, 9) if math.gcd(p, x) == 1]))
        return YomdinParams(draw(st.integers(2, 6)), draw(st.integers(1, 4)), p, q, draw(st.integers(1, 4)))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(params())
    def check(y):
        strat, chi = yomdin_stratification(y)
        z = stratified_zeta(strat)
        assert ze_equal(z, yomdin_zeta_closed(y))
        assert euler_specialize(z, chi) == yomdin_top_closed(y)

    check()


def test_tetra_routes_agree_on_q_divisors():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def members(draw):
        d = draw(st.integers(1, 40))
        q = draw(st.sampled_from([x for x in range(d) if math.gcd(d, x) == 1] or [0]))
        return TetraParams(d, q)

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(members(), _rats(9, 0), _rats(9, 1))
    # members with quasi-reflexions, which both routes reduce
    @hyp.example(TetraParams(5, 2), F(1, 2), F(3, 4))
    @hyp.example(TetraParams(20, 3), F(3), F(2, 3))
    @hyp.example(TetraParams(39, 5), F(0), F(5, 2))
    def check(t, N, nu):
        strat, chi = tetra_stratification(t, N, nu)
        z = stratified_zeta(strat)
        assert ze_equal(z, tetra_zeta_closed(t, N, nu))
        assert euler_specialize(z, chi) == tetra_top_closed(t, N, nu)

    check()


def _cyclic_sum_fractions(d0, wvec, Nvec, nuvec):
    """The S-sum of a cyclic action with one Fraction age per coordinate
    and t: the reference that the integer ages of ``_cyclic_sum`` meet."""
    acc: dict = {}
    for t in range(d0):
        ln = F(0)
        tn = F(0)
        for w, N, nu in zip(wvec, Nvec, nuvec, strict=True):
            e = (t * w) % d0
            ln += F(nu) * e
            tn += F(N) * e
        key = (-tn / d0, ln / d0, ())
        acc[key] = acc.get(key, 0) + 1
    return MotPoly(acc)


def test_cyclic_sum_matches_the_fraction_transcription():
    rnd = random.Random(20)

    def rat():
        return rnd.choice([0, rnd.randint(-6, 9), F(rnd.randint(-9, 9), rnd.randint(1, 6))])

    with_group = 0
    for i in range(320):
        d0 = i % 40 + 1
        n = rnd.randint(1, 4)
        w = tuple(rnd.randint(-2 * d0, 2 * d0) for _ in range(n))
        N = tuple(rat() for _ in range(n))
        nu = tuple(rat() for _ in range(n))
        got, want = _cyclic_sum(d0, w, N, nu), _cyclic_sum_fractions(d0, w, N, nu)
        assert got == want and hash(got) == hash(want), (d0, w, N, nu)
        # a third route, where t -> t * w is faithful so that the group
        # sum counts each t once: the group machinery's own S_G
        if math.gcd(d0, *w) == 1:
            with_group += 1
            assert got == s_g_sum(GroupAction.cyclic(d0, w), N, nu), (d0, w, N, nu)
    assert with_group > 100
    for args in ((5, (1, 2), (1,), (1, 1)), (5, (1,), (1, 2), (1,)), (1, (0, 0), (1, 1), (1,))):
        with pytest.raises(ValueError):
            _cyclic_sum(*args)


def test_closed_forms_meet_the_strata_term_by_term():
    # The closed forms assemble the same terms as the strata, so ze_equal
    # answers from the term dicts and folds neither side.
    rng = random.Random(23)
    for _ in range(40):
        p = rng.randint(2, 4)
        q = rng.choice([x for x in range(p + 1, 9) if math.gcd(p, x) == 1])
        y = YomdinParams(rng.randint(2, 7), rng.randint(1, 4), p, q, rng.randint(1, 4))
        z, closed = stratified_zeta(yomdin_stratification(y)[0]), yomdin_zeta_closed(y)
        assert ze_equal(z, closed), y
        assert z._rf is None and closed._rf is None, y
    for _ in range(40):
        d = rng.randint(1, 40)
        t = TetraParams(d, rng.choice([x for x in range(d) if math.gcd(d, x) == 1] or [0]))
        N, nu = F(rng.randint(0, 9), rng.randint(1, 4)), F(rng.randint(1, 9), rng.randint(1, 4))
        strat, _chi = tetra_stratification(t, N, nu)
        z, closed = stratified_zeta(strat), tetra_zeta_closed(t, N, nu)
        assert ze_equal(z, closed), (t, N, nu)
        assert z._rf is None and closed._rf is None, (t, N, nu)
