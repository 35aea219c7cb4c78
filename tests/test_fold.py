"""The rational-function fold: a pinned sweep, exact division, factor order.

The pin hashes the reduced quotient of both routes of acceptance
criterion 4 (HJ chain and direct group sum) over a seeded sweep, so any
change to the fold's divisions, its cancellation order or the printed
factor order shows up here.  It was recorded while ``divide_one_minus``
built the translation classes of every numerator before it could reject
one, and while ``StdFactor`` compared its Fraction fields.
"""

from __future__ import annotations

import cProfile
import hashlib
import math
import pstats
import random
from fractions import Fraction as F

import pytest

from qzeta.groups import GroupAction
from qzeta.resolution import YomdinParams, hj_resolve, hj_stratification, yomdin_stratification
from qzeta.symring import MotPoly, RatFunc, StdFactor, ZetaExpr, fac, ze_equal, ze_to_ratfunc
from qzeta.zetacore import local_monomial_zeta, stratified_zeta

from fold_reference import (add, binom_keys, binom_poly, direction, divide_factor, mul_binomial, numer_keys,
                            numer_poly, ref_fold)

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

    def counted(self, *args):
        q = divide(self, *args)
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


def _fractions_made(run) -> int:
    """The Fractions that ``run()`` makes: calls of Fraction.__new__."""
    prof = cProfile.Profile()
    prof.runcall(run)
    return sum(nc for (path, _line, name), (_cc, nc, *_rest) in pstats.Stats(prof).stats.items()
               if name == "__new__" and path.endswith("fractions.py"))


def test_fold_makes_no_fraction(monkeypatch):
    # The fold reads each factor's integer triple and divides along it, so
    # folding makes no Fraction, and every division takes ints: over the
    # pinned sweep, a shared-ray yomdin stratification and the long
    # 1/1000(1, 3) chain, each expression built fresh before the count.
    assert _fractions_made(lambda: F(1, 3)) == 1
    zs = [z for pair in _criterion_4_sweep() for z in pair]
    zs.append(stratified_zeta(yomdin_stratification(YomdinParams(3, 1, 2, 3, 1))[0]))
    zs.append(_hj_chain(1000, 1, 3, (3, 5), (2, 7)))
    assert not _rays_distinct(zs[-2]) and _rays_distinct(zs[-1])
    args = []
    divide = MotPoly.divide_one_minus

    def counted(self, *a):
        args.append(a)
        return divide(self, *a)

    monkeypatch.setattr(MotPoly, "divide_one_minus", counted)
    assert _fractions_made(lambda: [ze_to_ratfunc(z) for z in zs]) == 0
    assert len(args) > 1000 and {type(x) for a in args for x in a} == {int}
    assert all(z._rf is not None for z in zs)


def _assert_reduced(rf: RatFunc):
    """The invariant of a reduced quotient: no factor left in the
    denominator divides the numerator, and a zero numerator keeps none."""
    if not rf.numer:
        assert rf.denom == ()
    for f, m in rf.denom:
        assert m >= 1
        assert rf.numer.divide_one_minus(*direction(-f.nu, f.N)) is None, (str(rf), str(f))


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
        assert (q - q * mono).divide_one_minus(*direction(ell_x, tau_x)) == q

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
        got = p.divide_one_minus(*direction(ell_x, tau_x))
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
    assert p.divide_one_minus(2, 0, 3) is None
    assert p.divide_one_minus(1, 0, 3) == MotPoly.sym("C")
    with pytest.raises(ValueError):
        p.divide_one_minus(0, 0)


def test_mul_binomial_is_the_product_and_division_inverts_it():
    hyp, st, polys, dirs = _strategies()
    scales = st.sampled_from((1, 2, 3, 5, 6, 12))
    keys = st.tuples(st.integers(-12, 12), st.integers(-12, 12))

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(polys, scales, keys, keys)
    def check(p, r, a, b):
        hyp.assume(a != b and b != (0, 0))
        want = p * MotPoly.from_lattice({a + ((),): 1, b + ((),): -1}, r)
        got = mul_binomial(p, r, a, b)
        assert got == want and got.lattice() == want.lattice()
        # x^(0, 0) - x^b = 1 - L^(b_ell/r) T^(b_tau/r)
        assert mul_binomial(p, r, (0, 0), b).divide_one_minus(b[1], b[0], r) == p

    check()
    # a factor's two binomials, on a scale finer than the polynomial's
    f = fac(F(3, 2), F(5, 4))
    p = MotPoly.sym("C") * MotPoly.L(F(1, 3)) - MotPoly.T(2)
    assert mul_binomial(p, *numer_keys(f)) == p * numer_poly(f)
    assert mul_binomial(p, *binom_keys(f)) == p * binom_poly(f)
    assert mul_binomial(p, *binom_keys(f)).scale == 12
    assert divide_factor(mul_binomial(p, *binom_keys(f)), f) == p
    assert mul_binomial(MotPoly.zero(), *binom_keys(f)) == MotPoly.zero()


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
    assert f._lat == (1000, 18, 23)
    assert numer_poly(f).scale == binom_poly(f).scale == 1000
    assert numer_poly(f) == (MotPoly.L() - 1) * MotPoly.monomial(1, ell=F(-23, 1000), tau=F(9, 500))
    assert binom_poly(f) == MotPoly.one() - MotPoly.monomial(1, ell=F(-23, 1000), tau=F(9, 500))
    g = fac(3, 2)
    assert type(g.N) is F and type(g.nu) is F and g == StdFactor(F(3), F(2))
    assert fac(0, 1).is_trivial and not fac(0, 2).is_trivial
    assert (g == (3, 2)) is False


def test_factor_is_built_from_ints_fractions_and_strings():
    # Fac(3/2; 5/6) on its lattice: r = 6, N*r = 9, nu*r = 5
    want = StdFactor(F(3, 2), F(5, 6))
    for N, nu in ((F(3, 2), F(5, 6)), ("3/2", "5/6"), (" 6/4 ", F(10, 12)), (1.5, "5/6")):
        for f in (StdFactor(N, nu), fac(N, nu)):
            assert f._lat == (6, 9, 5) and f == want and hash(f) == hash(want)
            assert str(f) == "Fac(3/2; 5/6)"
    for N, nu in ((3, 2), (F(3), F(2)), ("3", "2"), (F(6, 2), "4/2")):
        assert fac(N, nu)._lat == (1, 3, 2) and fac(N, nu) == StdFactor(3, 2)


def test_factor_triple_order_and_fractions_follow_the_pairs():
    rng = random.Random(2401)
    pairs, facs = [], []
    for _ in range(300):
        N = F(rng.randint(0, 40), rng.choice((1, 2, 3, 4, 6, 9, 12, 500)))
        nu = F(rng.randint(1, 40), rng.choice((1, 2, 3, 5, 8, 12, 1000)))
        # the same pair as a Fraction, an int where it is whole, or a string
        args = [x if rng.randrange(3) else str(x) for x in (N, nu)]
        args = [int(x) if isinstance(x, F) and x.denominator == 1 and rng.randrange(2) else x for x in args]
        f = rng.choice((StdFactor, fac))(*args)
        r, n, v = f._lat
        assert math.gcd(r, n, v) == 1 and (F(n, r), F(v, r)) == (N, nu)
        assert type(f.N) is F and type(f.nu) is F and (f.N, f.nu) == (N, nu)
        g = math.gcd(n, v)
        assert f._ray == (n // g, v // g) and direction(-f.nu, f.N) == (-v, n, r)
        pairs.append((N, nu))
        facs.append(f)
    for _ in range(2000):
        i, j = rng.randrange(len(facs)), rng.randrange(len(facs))
        if rng.randrange(4) == 0:
            j = i
        a, b = facs[i], facs[j]
        assert (a == b) == (pairs[i] == pairs[j]) and (a != b) == (pairs[i] != pairs[j])
        assert (a < b) == (pairs[i] < pairs[j]) and (a >= b) == (pairs[i] >= pairs[j])
        if a == b:
            assert hash(a) == hash(b)
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    assert sorted(facs) == [facs[i] for i in order]
    assert len(set(facs)) == len(set(pairs))


def test_factor_refusals_keep_their_messages():
    cases = [
        ((-1, 1), "factor needs N >= 0, got -1"),
        ((F(-1, 2), 1), "factor needs N >= 0, got -1/2"),
        (("-3/6", 0), "factor needs N >= 0, got -1/2"),
        ((1, 0), "factor needs nu > 0, got 0"),
        ((F(1, 3), F(-2, 3)), "factor needs nu > 0, got -2/3"),
        ((0, "0/5"), "factor needs nu > 0, got 0"),
    ]
    for args, message in cases:
        for make in (StdFactor, fac):
            with pytest.raises(ValueError) as exc:
                make(*args)
            assert str(exc.value) == message


# ---------------------------------------------------------------------------
# the balanced fold against the insertion-order loop


def _insertion_order_fold(z) -> RatFunc:
    """The fold that adds the terms one by one, in insertion order."""
    rf = RatFunc.zero()
    for factors, coeff in z.iter_terms():
        rf = add(rf, RatFunc.from_term(coeff, factors))
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


# ---------------------------------------------------------------------------
# the fold on one lattice scale against the fold on whole polynomials


# Three factors on the ray (1, 2), three on (1, 1), two with N = 0, and
# others alone on their rays; fractional N and nu among them.
_FOLD_DATA = [(1, 2), (2, 4), (F(3, 2), 3), (1, 1), (2, 2), (F(1, 2), F(1, 2)), (0, 2),
              (0, F(1, 2)), (3, 1), (F(2, 3), F(5, 4)), (F(1, 3), F(7, 3))]


def _fold_coeff(rng: random.Random) -> MotPoly:
    """One to three monomials with fractional exponents and class symbols."""
    c = MotPoly.zero()
    for _ in range(rng.randint(1, 3)):
        c = c + MotPoly.monomial(
            rng.choice((-2, -1, 1, 3)),
            ell=F(rng.randint(-4, 4), rng.choice((1, 2, 3))),
            tau=F(rng.randint(-1, 4), rng.choice((1, 2, 5))),
            syms=rng.choice(((), (), (("C0", 1),), (("C0", 1), ("C1", 2)))),
        )
    return c


def _rewritten(z: ZetaExpr) -> ZetaExpr:
    """z with the first factor f of each term written as Fac = (L - 1) x +
    x Fac for x = L^-nu T^N: the same rational function in other terms."""
    out = ZetaExpr.zero()
    for factors, coeff in z.iter_terms():
        if not factors:
            out = out + ZetaExpr.of(coeff)
            continue
        f, rest = factors[0], factors[1:]
        x = MotPoly.monomial(1, ell=-f.nu, tau=f.N)
        out = out + ZetaExpr([(coeff * (MotPoly.L() - 1) * x, rest), (coeff * x, factors)])
    return out


def test_lattice_fold_matches_the_fold_on_whole_polynomials():
    rng = random.Random(2402)
    shared = n0 = zero = symbols = 0
    for _ in range(300):
        z = ZetaExpr(
            (_fold_coeff(rng), [fac(*rng.choice(_FOLD_DATA)) for _ in range(rng.randint(0, 3))])
            for _ in range(rng.randint(1, 6))
        )
        if rng.randrange(4) == 0:
            z = z - _rewritten(z)
        if rng.randrange(3) == 0:
            z = z + _rewritten(ZetaExpr(
                (_fold_coeff(rng), [fac(*rng.choice(_FOLD_DATA))]) for _ in range(rng.randint(1, 3))
            ))
        got, want = ze_to_ratfunc(z), ref_fold(z)
        assert got.numer == want.numer and got.denom == want.denom
        assert str(got) == str(want)
        facs = {f for factors, _c in z.iter_terms() for f in factors}
        shared += len({f._ray for f in facs}) < len(facs)
        n0 += any(f.N == 0 for f in facs)
        zero += not got.numer and not z.is_zero
        symbols += any(syms for _t, _l, syms in got.numer._terms)
    assert shared > 100 and n0 > 100 and zero > 30 and symbols > 100
