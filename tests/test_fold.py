"""The rational-function fold: a pinned sweep, exact division, factor order.

The pin hashes the reduced quotient of both routes of acceptance
criterion 4 (HJ chain and direct group sum) over a seeded sweep, so any
change to the fold's divisions, its cancellation order or the printed
factor order shows up here.  It was recorded while ``divide_one_minus``
built the translation classes of every numerator before it could reject
one, and while ``StdFactor`` compared its Fraction fields.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from qzeta.groups import GroupAction
from qzeta.resolution import hj_resolve, hj_stratification
from qzeta.symring import MotPoly, RatFunc, StdFactor, ZetaExpr, fac, ze_equal, ze_to_ratfunc
from qzeta.zetacore import local_monomial_zeta, stratified_zeta

FOLD_PIN = (509328, "c3c19380539928e5b248ecfe9ae60f2f67d8302099e1e321696dbc50e42d4ac0")


def _hj_chain(d, a, b, N, nu):
    return stratified_zeta(hj_stratification(hj_resolve(d, a, b), *N, *nu))


def _criterion_4_sweep():
    """The pinned sweep's 200 seeded draws, as (chain, direct) expressions."""
    rng = random.Random(4011)
    for _ in range(200):
        d = rng.randint(1, 40)
        units = [x for x in range(1, d + 1) if math.gcd(x, d) == 1]
        a, b = rng.choice(units), rng.choice(units)
        N = (rng.randint(0, 3), rng.randint(0, 3))
        nu = (rng.randint(1, 3), rng.randint(1, 3))
        yield _hj_chain(d, a, b, N, nu), local_monomial_zeta(GroupAction.cyclic(d, (a, b)), N, nu)


def test_criterion_4_fold_pinned():
    h = hashlib.sha256()
    size = 0
    for pair in _criterion_4_sweep():
        for z in pair:
            text = str(ze_to_ratfunc(z))
            size += len(text)
            h.update(text.encode())
            h.update(b"\n")
    assert (size, h.hexdigest()) == FOLD_PIN


# The divisions the pinned sweep may try.  The fold that tried every factor
# of every common denominator made 9990 calls, 1097 of them exact; skipping
# the divisions that coprimality rules out left 4153, and skipping every
# N > 0 factor of a term whose coefficient has one T-power leaves 3125,
# with the same 1097 exact ones.  A change that brings futile divisions
# back fails here.
FOLD_DIVISIONS = 3125
# The terms of the numerators those divisions take, summed.  They were
# 118323 while each numerator kept the factor (L - 1)^k that its terms'
# factors bring, and 57111 while the terms were added one by one in
# insertion order, each division running on the growing sum; the fold
# divides the core without the content, and adds neighbours pairwise.
FOLD_DIVISION_TERMS = 34306


def _divisions(monkeypatch, zs):
    """Fold each z: for each division tried, whether it was exact, and the
    terms of the numerator it took."""
    exact, terms = [], []
    divide = MotPoly.divide_one_minus

    def counted(self, ell_x, tau_x):
        q = divide(self, ell_x, tau_x)
        exact.append(q is not None)
        terms.append(len(self))
        return q

    monkeypatch.setattr(MotPoly, "divide_one_minus", counted)
    for z in zs:
        ze_to_ratfunc(z)
    return exact, terms


def test_criterion_4_check_folds_only_the_chain():
    # The direct route is one term: ze_equal compares it as its unreduced
    # quotient and leaves it unfolded, and agrees with folding both sides.
    folded = 0
    for chain, direct in _criterion_4_sweep():
        assert ze_equal(chain, direct)
        assert direct._rf is None
        folded += chain._rf is not None
        assert ze_to_ratfunc(chain).equivalent(ze_to_ratfunc(direct))
    # every chain of more than one term is folded: 197 of the 200
    assert folded == 197


def test_criterion_4_fold_divides_no_more_than_recorded(monkeypatch):
    calls, terms = _divisions(monkeypatch, (z for pair in _criterion_4_sweep() for z in pair))
    assert len(calls) <= FOLD_DIVISIONS
    assert sum(calls) > 0
    assert sum(terms) <= FOLD_DIVISION_TERMS


# The 1/301(1, 300) chain (299 curves): its 600 divisions took 135450
# numerator terms while the terms were added one by one, each division on
# the running sum, quadratic in the chain length; adding neighbours
# pairwise, they take 5500.
HJ_301_DIVISIONS = 600
HJ_301_DIVISION_TERMS = 5500


def test_long_chain_fold_divides_no_more_than_recorded(monkeypatch):
    calls, terms = _divisions(monkeypatch, [_hj_chain(301, 1, 300, (2, 3), (1, 2))])
    assert len(calls) <= HJ_301_DIVISIONS
    assert sum(terms) <= HJ_301_DIVISION_TERMS


def _assert_reduced(rf: RatFunc):
    """The invariant of a reduced quotient: no factor left in the
    denominator divides the numerator, and a zero numerator keeps none."""
    if not rf.numer:
        assert rf.denom == ()
    for f, m in rf.denom:
        assert m >= 1
        assert rf.numer.divide_one_minus(-f.nu, f.N) is None, (str(rf), str(f))


def test_criterion_4_folds_are_reduced():
    for pair in _criterion_4_sweep():
        for z in pair:
            _assert_reduced(ze_to_ratfunc(z))


# ---------------------------------------------------------------------------
# exact division


def _class_walk(p: MotPoly, ell_x, tau_x) -> MotPoly | None:
    """Quotient by 1 - L^ell_x T^tau_x by the translation-class walk alone:
    every term is filed under its class along the direction, and each class
    is divided by a running sum, exact iff its coefficients sum to zero."""
    tau_x, ell_x = F(tau_x), F(ell_x)
    terms, r = dict(p.lattice()[0]), p.scale
    if not terms:
        return MotPoly.zero()
    dx = math.lcm(tau_x.denominator, ell_x.denominator)
    if r % dx:
        m = dx // math.gcd(r, dx)
        terms, r = {(t * m, l * m, s): c for (t, l, s), c in terms.items()}, r * m
    tx = tau_x.numerator * (r // tau_x.denominator)
    lx = ell_x.numerator * (r // ell_x.denominator)
    classes: dict = {}
    for (t, l, s), c in terms.items():
        j = t // tx if tx else l // lx
        classes.setdefault((t - j * tx, l - j * lx, s), {})[j] = c
    out = {}
    for (t0, l0, s), col in classes.items():
        js = sorted(col)
        run = 0
        for j in range(js[0], js[-1]):
            run += col.get(j, 0)
            if run:
                out[(t0 + j * tx, l0 + j * lx, s)] = run
        if run + col[js[-1]]:
            return None
    return MotPoly.from_lattice(out, r)


def _strategies():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    symmonos = st.sampled_from(((), (("a", 1),), (("a", 1), ("b", 2)), (("b", -1),)))
    polys = st.builds(
        lambda r, terms: MotPoly.from_lattice(
            {k: c for k, c in {(t, l, s): c for t, l, s, c in terms}.items() if c}, r
        ),
        st.sampled_from((1, 2, 3, 6, 7, 12)),
        st.lists(
            st.tuples(st.integers(-12, 12), st.integers(-12, 12), symmonos, st.integers(-3, 3)),
            max_size=7,
        ),
    )
    rats = st.one_of(
        st.integers(-3, 3),
        st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 5, 7, 12))),
    )
    dirs = st.tuples(rats, rats).filter(lambda x: x[0] != 0 or x[1] != 0)
    return hyp, st, polys, dirs


def test_divide_exact_multiples():
    hyp, _st, polys, dirs = _strategies()

    @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hyp.given(polys, dirs)
    def check(q, x):
        ell_x, tau_x = x
        mono = MotPoly.monomial(1, ell=ell_x, tau=tau_x)
        assert (q - q * mono).divide_one_minus(ell_x, tau_x) == q

    check()


def test_divide_agrees_with_class_walk():
    hyp, st, polys, dirs = _strategies()

    # p alone is rarely divisible; p * (1 - x) + e, with e a small error,
    # often passes the one-pass test and fails only in the class walk
    @hyp.settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @hyp.given(polys, dirs, polys, st.integers(0, 2))
    def check(p, x, e, kind):
        ell_x, tau_x = x
        if kind:
            p = p - p * MotPoly.monomial(1, ell=ell_x, tau=tau_x)
        if kind == 2:
            p = p + e
        want = _class_walk(p, ell_x, tau_x)
        got = p.divide_one_minus(ell_x, tau_x)
        if want is None:
            assert got is None
        else:
            assert got is not None and got == want and got.scale == want.scale

    check()


def test_divide_rejects_where_only_the_classes_differ():
    # Each class sum of 1 - L along L^2 is +-1, while the one-pass level
    # sums (one level per T power) are 0; the class walk must still reject.
    p = MotPoly.one() - MotPoly.L()
    assert p.divide_one_minus(2, 0) is None
    assert _class_walk(p, 2, 0) is None
    # the same on a finer lattice, with a symbol riding along
    p = (MotPoly.one() - MotPoly.L(F(1, 3))) * MotPoly.sym("C")
    assert p.divide_one_minus(F(2, 3), 0) is None
    assert p.divide_one_minus(F(1, 3), 0) == MotPoly.sym("C")
    with pytest.raises(ValueError):
        p.divide_one_minus(0, F(0))


def test_mul_binomial_is_the_product_and_division_inverts_it():
    hyp, st, polys, dirs = _strategies()
    scales = st.sampled_from((1, 2, 3, 5, 6, 12))
    keys = st.tuples(st.integers(-12, 12), st.integers(-12, 12))

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(polys, scales, keys, keys)
    def check(p, r, a, b):
        hyp.assume(a != b and b != (0, 0))
        want = p * MotPoly.from_lattice({a + ((),): 1, b + ((),): -1}, r)
        got = p.mul_binomial(r, a, b)
        assert got == want and got.lattice() == want.lattice()
        # x^(0, 0) - x^b = 1 - L^(b_ell/r) T^(b_tau/r)
        assert p.mul_binomial(r, (0, 0), b).divide_one_minus(F(b[1], r), F(b[0], r)) == p

    check()
    # a factor's two binomials, on a scale finer than the polynomial's
    f = fac(F(3, 2), F(5, 4))
    p = MotPoly.sym("C") * MotPoly.L(F(1, 3)) - MotPoly.T(2)
    assert p.mul_binomial(*f._numer_keys) == p * f.numer_poly()
    assert p.mul_binomial(*f._binom_keys) == p * f.binom_poly()
    assert p.mul_binomial(*f._binom_keys).scale == 12
    assert p.mul_binomial(*f._binom_keys).divide_one_minus(*f._direction) == p
    assert MotPoly.zero().mul_binomial(*f._binom_keys) == MotPoly.zero()


def test_factor_rays_are_the_primitive_pairs():
    # Fac(1; 2), Fac(2; 4) and Fac(3/2; 3) lie on one ray; the fold must
    # try each of them, as their binomials share the factor 1 - L^-2 T
    rays = {fac(1, 2)._ray, fac(2, 4)._ray, fac(F(3, 2), 3)._ray}
    assert rays == {(1, 2)}
    assert fac(0, F(7, 3))._ray == (0, 1) and fac(F(2, 3), F(4, 9))._ray == (3, 2)


# ---------------------------------------------------------------------------
# standard factors


def test_factor_order_is_the_fraction_order():
    hyp, st, _polys, _dirs = _strategies()
    Ns = st.builds(F, st.integers(0, 30), st.sampled_from((1, 2, 3, 4, 6, 9, 500)))
    nus = st.builds(F, st.integers(1, 30), st.sampled_from((1, 2, 3, 5, 8, 1000)))
    pairs = st.tuples(Ns, nus)

    @hyp.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hyp.given(st.lists(pairs, min_size=2, max_size=8))
    def check(data):
        facs = [fac(N, nu) for N, nu in data]
        a, b = facs[0], facs[1]
        assert (a < b) == (data[0] < data[1])
        assert (a <= b) == (data[0] <= data[1])
        assert (a > b) == (data[0] > data[1])
        assert (a == b) == (data[0] == data[1])
        if a == b:
            assert hash(a) == hash(b)
        order = sorted(range(len(data)), key=lambda i: data[i])
        assert sorted(facs) == [facs[i] for i in order]
        assert len(set(facs)) == len(set(data))

    check()


def test_factor_keeps_fractions_and_its_polynomials():
    f = StdFactor(F(9, 500), F(23, 1000))
    assert str(f) == "Fac(9/500; 23/1000)"
    assert f._lattice() == (1000, 18, 23)
    assert f.numer_poly().scale == f.binom_poly().scale == 1000
    assert f.numer_poly() == (MotPoly.L() - 1) * MotPoly.monomial(1, ell=F(-23, 1000), tau=F(9, 500))
    assert f.binom_poly() == MotPoly.one() - MotPoly.monomial(1, ell=F(-23, 1000), tau=F(9, 500))
    g = fac(3, 2)
    assert type(g.N) is F and type(g.nu) is F and g == StdFactor(F(3), F(2))
    assert fac(0, 1).is_trivial and not fac(0, 2).is_trivial
    assert (g == (3, 2)) is False


# ---------------------------------------------------------------------------
# the balanced fold against the insertion-order loop


def _insertion_order_fold(z) -> RatFunc:
    """The fold that adds the terms one by one, in insertion order."""
    rf = RatFunc.zero()
    for factors, coeff in z.iter_terms():
        rf = rf.add(RatFunc.from_term(coeff, factors))
    return rf


def _rays_distinct(z) -> bool:
    facs = {f for factors, _c in z.iter_terms() for f in factors}
    return len({f._ray for f in facs}) == len(facs)


def _assert_folds_agree(z):
    got, want = ze_to_ratfunc(z), _insertion_order_fold(z)
    assert got == want
    assert str(got) == str(want)


def test_balanced_fold_matches_insertion_order_on_distinct_rays():
    hyp, st, polys, _dirs = _strategies()
    # one factor per ray: a primitive pair (n, v), v > 0, scaled by k / r
    rays = st.tuples(st.integers(0, 4), st.integers(1, 4)).filter(lambda x: math.gcd(*x) == 1)
    factors = st.builds(
        lambda ray, k, r: fac(F(ray[0] * k, r), F(ray[1] * k, r)),
        rays, st.integers(1, 3), st.sampled_from((1, 2, 3)),
    )

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(
        st.lists(factors, min_size=1, max_size=4, unique_by=lambda f: f._ray),
        st.lists(st.tuples(polys, st.lists(st.integers(0, 3), max_size=3)), max_size=7),
    )
    def check(facs, terms):
        z = ZetaExpr([(c, [facs[i % len(facs)] for i in picks]) for c, picks in terms])
        assert _rays_distinct(z)
        _assert_folds_agree(z)

    check()


@pytest.mark.parametrize("d", [97, 301])
def test_balanced_fold_matches_insertion_order_on_long_chains(d):
    z = _hj_chain(d, 1, d - 1, (2, 3), (1, 2))
    assert _rays_distinct(z)
    _assert_folds_agree(z)


# 1/33(31, 26) with N = nu = (2, 2): every factor lies on the ray (1, 1), so
# the reduced quotient depends on the order of the reductions.  In insertion
# order the fold keeps Fac(4/11; 4/11); adding neighbours pairwise would
# keep Fac(6/11; 6/11).
SHARED_RAY_QUOTIENT = (
    "(L^(-48/11) * T^(4/11) * (L^2 - 2 * L^3 + L^4 + L^(20/11) * T^(2/11)"
    " - 2 * L^(31/11) * T^(2/11) + L^(42/11) * T^(2/11) + L^(14/11) * T^(8/11)"
    " - 2 * L^(25/11) * T^(8/11) + L^(36/11) * T^(8/11) + L^(12/11) * T^(10/11)"
    " - 2 * L^(23/11) * T^(10/11) + L^(34/11) * T^(10/11) + L^(6/11) * T^(16/11)"
    " - 2 * L^(17/11) * T^(16/11) + L^(28/11) * T^(16/11) + T^2 - 2 * L * T^2"
    " + L^2 * T^2)) / ((1 - L^(-4/11) * T^(4/11)) * (1 - L^-2 * T^2))"
)


def test_shared_ray_fold_keeps_insertion_order():
    z = _hj_chain(33, 31, 26, (2, 2), (2, 2))
    assert not _rays_distinct(z)
    assert str(ze_to_ratfunc(z)) == SHARED_RAY_QUOTIENT
    _assert_folds_agree(z)
