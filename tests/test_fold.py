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
from qzeta.symring import MotPoly, StdFactor, fac, ze_to_ratfunc
from qzeta.zetacore import local_monomial_zeta, stratified_zeta

FOLD_PIN = (509328, "c3c19380539928e5b248ecfe9ae60f2f67d8302099e1e321696dbc50e42d4ac0")


def test_criterion_4_fold_pinned():
    rng = random.Random(4011)
    h = hashlib.sha256()
    size = 0
    for _ in range(200):
        d = rng.randint(1, 40)
        units = [x for x in range(1, d + 1) if math.gcd(x, d) == 1]
        a, b = rng.choice(units), rng.choice(units)
        N = (rng.randint(0, 3), rng.randint(0, 3))
        nu = (rng.randint(1, 3), rng.randint(1, 3))
        chain = stratified_zeta(hj_stratification(hj_resolve(d, a, b), *N, *nu))
        direct = local_monomial_zeta(GroupAction.cyclic(d, (a, b)), N, nu)
        for z in (chain, direct):
            text = str(ze_to_ratfunc(z))
            size += len(text)
            h.update(text.encode())
            h.update(b"\n")
    assert (size, h.hexdigest()) == FOLD_PIN


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
    assert f.numer_poly() is f.numer_poly() and f.binom_poly() is f.binom_poly()
    assert f.binom_poly() == MotPoly.one() - MotPoly.monomial(1, ell=F(-23, 1000), tau=F(9, 500))
    g = fac(3, 2)
    assert type(g.N) is F and type(g.nu) is F and g == StdFactor(F(3), F(2))
    assert fac(0, 1).is_trivial and not fac(0, 2).is_trivial
    assert (g == (3, 2)) is False
