"""Invariants of the integer exponent lattice behind ``MotPoly``.

Each polynomial stores its exponents as integers over its own scale r.
Operands on different scales must combine, compare and hash as the
rational-exponent polynomials they stand for.  The seeded checks at the
end compare against a small Fraction-keyed dict implementation written
here, an independent second route for product, sum, exact division and
the JSON form, and against copies of the evaluation and the printers as
they worked on Fraction exponents, one exact power per monomial.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from collections import namedtuple
from fractions import Fraction as F
from itertools import groupby

import pytest

from qzeta.motpoly import TooManyDigits, _digits_bound, _laurent_value, _mul_syms
from qzeta.resolution import hj_resolve, hj_stratification
from qzeta.symring import (
    FractionalPowerUnevaluable,
    MissingChi,
    MotPoly,
    RatFunc,
    ZetaExpr,
    fac,
    json_dump,
    json_poly,
    json_values_at_L,
    latex_poly,
    render_poly,
    render_poly_factored,
    render_values_at_L,
    series_expand,
)
from qzeta import symring, topzeta
from qzeta.topzeta import frac_latex
from qzeta.zetacore import stratified_zeta

from fold_reference import direction
from readers import coeff_of_T, series_at_L

# ---------------------------------------------------------------------------
# mixed scales


def test_mixed_scale_product_and_equality():
    assert MotPoly.L(F(1, 7)) * MotPoly.L(F(-1, 7)) * MotPoly.L() == MotPoly.L()
    assert MotPoly.T(F(1, 2)) * MotPoly.T(F(1, 3)) == MotPoly.T(F(5, 6))
    p = MotPoly.L(F(1, 2)) + MotPoly.T(F(2, 3))
    assert p * p == MotPoly.L() + 2 * MotPoly.monomial(1, ell=F(1, 2), tau=F(2, 3)) + MotPoly.T(F(4, 3))
    assert p - MotPoly.L(F(1, 2)) == MotPoly.T(F(2, 3))
    assert p != MotPoly.L(F(1, 2)) + MotPoly.T(F(2, 5))


def test_mixed_scale_sum_cancels():
    a = MotPoly.L(F(1, 4)) + MotPoly.sym("E") * MotPoly.T(F(-3, 5))
    b = -MotPoly.L(F(2, 8)) + MotPoly.const(3)
    assert a + b == MotPoly.sym("E") * MotPoly.T(F(-3, 5)) + 3
    assert (a + b) - (a + b) == MotPoly.zero()


def test_equal_polynomials_hash_equal_across_scales():
    coarse = MotPoly.L() + MotPoly.monomial(2, ell=F(-1, 3), tau=F(1, 2))
    fine = MotPoly.from_lattice({(0, 12, ()): 1, (6, -4, ()): 2}, 12)
    finer = MotPoly.from_lattice({(0, 60, ()): 1, (30, -20, ()): 2}, 60)
    assert coarse == fine == finer
    assert hash(coarse) == hash(fine) == hash(finer)
    assert len({coarse, fine, finer}) == 1
    # one stays L^(1/7) T^(-1/7) after the round trip through 1/7 * 7
    assert hash(MotPoly.L(F(1, 7)) * MotPoly.L(F(-1, 7)) * MotPoly.L()) == hash(MotPoly.L())
    zeros = {MotPoly.zero(), MotPoly.from_lattice({}, 5), MotPoly.L(F(1, 3)) - MotPoly.L(F(1, 3))}
    assert zeros == {MotPoly.zero()}


def test_ring_laws_across_scales():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    symmonos = st.sampled_from(((), (), (("a", 1),), (("a", 2), ("b", 1)), (("b", -1),)))
    exps = st.integers(-14, 14)
    polys = st.builds(
        lambda r, terms: MotPoly({(F(t, r), F(l, r), s): c for t, l, s, c in terms}),
        st.sampled_from((1, 2, 3, 6, 7)),
        st.lists(st.tuples(exps, exps, symmonos, st.sampled_from((-3, -1, 1, 2))), max_size=5),
    )

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(polys, polys, polys, st.sampled_from((1, 2, 3, 6, 7)), st.integers(0, 3))
    def check(a, b, c, m, n):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == MotPoly.zero() and (a - a).is_zero
        assert a * 1 == a and a * MotPoly.one() == a
        power = MotPoly.one()
        for _ in range(n):
            power = power * a
        assert a**n == power
        # the same polynomial stored on a lattice m times finer
        fine = MotPoly.from_lattice(
            {(t * m, l * m, s): k for (t, l, s), k in a.lattice()[0]}, a.scale * m
        )
        assert fine == a and hash(fine) == hash(a)
        assert (fine == b) == (a == b)
        if a == b:
            assert hash(a) == hash(b)

    check()


def test_from_lattice_reads_back_as_fractions():
    p = MotPoly.from_lattice({(-3, 10, (("C", 1),)): 4, (0, 0, ()): -1}, 6)
    assert p.terms() == [((F(-1, 2), F(5, 3), (("C", 1),)), 4), ((F(0), F(0), ()), -1)]
    assert str(p) == "4 * L^(5/3) * T^(-1/2) * [C] - 1"


# ---------------------------------------------------------------------------
# exact division


def test_divide_along_a_direction_off_the_lattice():
    # 1 - T has integer exponents; 1 - T^(1/3) needs the lattice (1/3)Z.
    q = (MotPoly.one() - MotPoly.T()).divide_one_minus(0, 1, 3)
    assert q == MotPoly.one() + MotPoly.T(F(1, 3)) + MotPoly.T(F(2, 3))
    # 1 - L^-1 T^2 by 1 - L^(-1/5) T^(2/5): a five-term geometric sum.
    x = MotPoly.monomial(1, ell=F(-1, 5), tau=F(2, 5))
    q = (MotPoly.one() - MotPoly.monomial(1, ell=-1, tau=2)).divide_one_minus(-1, 2, 5)
    assert q == sum((x**k for k in range(5)), MotPoly.zero())
    # off the lattice and not divisible
    assert (MotPoly.one() - MotPoly.T()).divide_one_minus(0, 2, 7) is None


def test_divide_with_negative_exponents():
    rng = random.Random(31)
    for _ in range(30):
        q = _rand_poly(rng, neg=True)
        if q.is_zero:
            continue
        ell_x = F(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        tau_x = F(rng.randint(-3, 3), rng.choice((1, 2, 5)))
        if ell_x == 0 and tau_x == 0:
            continue
        x = MotPoly.monomial(1, ell=ell_x, tau=tau_x)
        assert (q - q * x).divide_one_minus(*direction(ell_x, tau_x)) == q
    # a direction pointing down in T: 1 - L^2 T^-3
    p = MotPoly.monomial(1, ell=-2, tau=-1) * (MotPoly.one() - MotPoly.monomial(1, ell=2, tau=-3))
    assert p.divide_one_minus(2, -3) == MotPoly.monomial(1, ell=-2, tau=-1)


# ---------------------------------------------------------------------------
# second route: Fraction-keyed dicts


def _rand_poly(rng: random.Random, nterms: int = 5, neg: bool = False) -> MotPoly:
    acc = MotPoly.zero()
    lo = -5 if neg else 0
    for _ in range(rng.randint(0, nterms)):
        tau = F(rng.randint(lo, 5), rng.choice((1, 2, 3, 5)))
        ell = F(rng.randint(-5, 5), rng.choice((1, 2, 7)))
        syms = rng.choice(((), (("a", 1),), (("a", 1), ("b", 2))))
        acc = acc + MotPoly.monomial(rng.randint(-3, 3), ell=ell, tau=tau, syms=syms)
    return acc


def _ref(p: MotPoly) -> dict:
    return dict(p.terms())


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (t1, l1, s1), c1 in a.items():
        for (t2, l2, s2), c2 in b.items():
            syms = dict(s1)
            for n, e in s2:
                syms[n] = syms.get(n, 0) + e
            k = (t1 + t2, l1 + l2, tuple(sorted(syms.items())))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _ref_divide(p: dict, ell_x: F, tau_x: F) -> dict | None:
    """Quotient by 1 - x, x = L^ell_x T^tau_x, by peeling the lowest term.

    Each step moves the term lowest along x into the quotient and takes
    that term times (1 - x) off the remainder.  A remainder term beyond
    the highest position in p can never cancel: p is not divisible.
    """

    def pos(key):
        return key[0] / tau_x if tau_x else key[1] / ell_x

    top = max(pos(k) for k in p) if p else 0
    rem, quot = dict(p), {}
    while rem:
        key = min(rem, key=lambda k: (pos(k), k))
        if pos(key) >= top:
            return None
        c = rem.pop(key)
        quot[key] = c
        shifted = (key[0] + tau_x, key[1] + ell_x, key[2])
        rem[shifted] = rem.get(shifted, 0) + c
        if rem[shifted] == 0:
            del rem[shifted]
    return quot


def test_ring_ops_match_fraction_reference():
    rng = random.Random(41)
    for _ in range(80):
        a, b = _rand_poly(rng, neg=True), _rand_poly(rng, neg=True)
        assert _ref(a + b) == _ref_add(_ref(a), _ref(b))
        assert _ref(a * b) == _ref_mul(_ref(a), _ref(b))
        assert (a * b == b * a) and hash(a * b) == hash(b * a)


def test_divide_matches_fraction_reference():
    rng = random.Random(43)
    hits = misses = 0
    for _ in range(150):
        ell_x = F(rng.randint(-3, 3), rng.choice((1, 2, 3, 7)))
        tau_x = F(rng.randint(0, 3), rng.choice((1, 2, 5)))
        if ell_x == 0 and tau_x == 0:
            continue
        q = _rand_poly(rng, neg=True)
        one_minus_x = {(F(0), F(0), ()): 1, (tau_x, ell_x, ()): -1}
        # divisible half the time, usually not otherwise
        p = _ref_mul(_ref(q), one_minus_x) if rng.random() < 0.5 else _ref(q)
        want = _ref_divide(p, ell_x, tau_x)
        got = MotPoly(p).divide_one_minus(*direction(ell_x, tau_x))
        if want is None:
            assert got is None
            misses += 1
        else:
            assert got is not None and _ref(got) == want
            hits += 1
    assert hits > 40 and misses > 20


def _ref_json(p: MotPoly) -> list:
    """json_obj built from the Fraction keys, sorted as Fractions."""
    return [
        {
            "c": c,
            "L": {"num": ell.numerator, "den": ell.denominator},
            "T": {"num": tau.numerator, "den": tau.denominator},
            "syms": dict(syms),
        }
        for (tau, ell, syms), c in sorted(p.terms(), key=lambda kv: kv[0])
    ]


def test_json_obj_matches_fraction_reference():
    rng = random.Random(47)
    for _ in range(80):
        a, b = _rand_poly(rng, neg=True), _rand_poly(rng, neg=True)
        # a on a scale finer than its exponents need: reduction is json_obj's
        r = math.lcm(*(x.denominator for k, _c in a.terms() for x in k[:2])) * rng.choice((1, 4, 15))
        fine = MotPoly.from_lattice(
            {(int(tau * r), int(ell * r), s): c for (tau, ell, s), c in a.terms()}, r
        )
        assert fine == a
        for p in (a, a + b, a * b, fine, fine * b - a):
            assert p.json_obj() == _ref_json(p)
    assert MotPoly.zero().json_obj() == []
    p = MotPoly.from_lattice({(-3, 10, (("C", 1),)): 4, (0, 0, ()): -1}, 6)
    assert p.json_obj() == [
        {"c": 4, "L": {"num": 5, "den": 3}, "T": {"num": -1, "den": 2}, "syms": {"C": 1}},
        {"c": -1, "L": {"num": 0, "den": 1}, "T": {"num": 0, "den": 1}, "syms": {}},
    ]


def _json_text(p: MotPoly) -> str:
    """The JSON text of p as the dict route writes it."""
    return json.dumps(p.json_obj(), sort_keys=True, separators=(", ", ": "))


# ASCII and non-ASCII class symbol names; all pass str.isalnum, as strata
# files require, and the last one lies outside the Basic Multilingual Plane.
_NAMES = ("a", "C0", "C\u00e90", "\u03a9", "\u6570x", "E\U0001d7d8")


def test_json_poly_matches_dict_route():
    rng = random.Random(53)
    for _ in range(150):
        a, b = _rand_poly(rng, neg=True), _rand_poly(rng, neg=True)
        for _ in range(rng.randint(0, 2)):
            a = a + MotPoly.sym(rng.choice(_NAMES), rng.choice((-1, 1, 2))) * _rand_poly(rng, 3)
        r = rng.choice((1, 4, 15, 60))
        # one polynomial read off a lattice finer than its exponents need
        fine = MotPoly.from_lattice({(t * r, l * r, s): c for (t, l, s), c in a.lattice()[0]}, a.scale * r)
        for p in (a, b, a + b, a * b, fine, fine * b - a, a**3):
            assert json_poly(p) == _json_text(p)
    assert json_poly(MotPoly.zero()) == _json_text(MotPoly.zero()) == "[]"
    p = MotPoly.from_lattice({(-3, 10, (("C\u00e90", 1), ("b", -2))): 4, (0, 0, ()): -1}, 6)
    assert json_poly(p) == (
        '[{"L": {"den": 3, "num": 5}, "T": {"den": 2, "num": -1}, "c": 4, '
        '"syms": {"C\\u00e90": 1, "b": -2}}, '
        '{"L": {"den": 1, "num": 0}, "T": {"den": 1, "num": 0}, "c": -1, "syms": {}}]'
    )


def test_json_dump_matches_json_dumps():
    p = MotPoly.from_lattice({(-3, 10, (("C\u00e90", 1),)): 4, (0, 0, ()): -1}, 6)
    obj = {
        "series": p,
        "zero": MotPoly.zero(),
        "a": [1, {"z": True, "y": None}],
        "\u00e9": "C\u00e90",
        "kind": {"num": -1, "den": 3},
    }
    want = {k: v.json_obj() if isinstance(v, MotPoly) else v for k, v in obj.items()}
    assert json_dump(obj) == json.dumps(want, sort_keys=True, separators=(", ", ": "))
    assert json_dump({}) == "{}"


def test_json_poly_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    names = st.one_of(
        st.sampled_from(_NAMES),
        st.text(st.characters(categories=("Lu", "Ll", "Lo", "Nd")), min_size=1, max_size=3),
    )
    symmonos = st.dictionaries(names, st.sampled_from((-2, -1, 1, 3)), max_size=2).map(
        lambda d: tuple(sorted(d.items()))
    )
    coeffs = st.one_of(st.integers(-5, 5), st.integers(-(10**30), 10**30)).filter(bool)
    exps = st.integers(-40, 40)
    polys = st.builds(
        lambda r, terms: MotPoly.from_lattice({(t, l, s): c for t, l, s, c in terms}, r),
        st.sampled_from((1, 2, 3, 6, 7, 12, 35)),
        st.lists(st.tuples(exps, exps, symmonos, coeffs), max_size=8),
    )

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(polys)
    def check(p):
        assert json_poly(p) == _json_text(p)
        assert json_dump({"p": p, "n": len(p), "r": p.scale}) == json.dumps(
            {"p": p.json_obj(), "n": len(p), "r": p.scale}, sort_keys=True, separators=(", ", ": ")
        )

    check()


def test_json_dump_writes_each_distinct_polynomial_once(monkeypatch):
    # json_dump writes a polynomial == to one already written with that one's
    # slices: the text stays json.dumps over json_obj(), and json_poly_slices
    # runs once per distinct value
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from qzeta import symring

    exps = st.integers(-20, 20)
    terms = st.dictionaries(
        st.tuples(exps, exps, st.sampled_from(((), (("A", 1),), (("B", -2),)))),
        st.integers(-5, 5).filter(bool),
        min_size=1,
        max_size=8,
    )
    calls = []
    json_poly_slices = symring.json_poly_slices
    monkeypatch.setattr(symring, "json_poly_slices", lambda p: calls.append(p) or json_poly_slices(p))

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(terms, st.sampled_from((1, 2, 6, 35)), st.integers(2, 4))
    def check(terms, r, k):
        p = MotPoly.from_lattice(dict(terms), r)
        # equal to p on the scale k * r
        p_fine = MotPoly.from_lattice({(t * k, l * k, s): c for (t, l, s), c in terms.items()}, k * r)
        # as long as p, and unequal: one coefficient moved off its value
        key = next(iter(terms))
        q = MotPoly.from_lattice({**terms, key: terms[key] + (1 if terms[key] != -1 else 2)}, r)
        zero, zero_fine = MotPoly.zero(), MotPoly.from_lattice({}, k * r)
        assert p == p_fine and p != q and len(p) == len(q) and zero == zero_fine
        obj = {"a": p, "b": q, "c": p_fine, "d": zero, "e": zero_fine, "f": p, "n": 3}
        calls.clear()
        want = {name: v.json_obj() if isinstance(v, MotPoly) else v for name, v in obj.items()}
        assert json_dump(obj) == json.dumps(want, sort_keys=True, separators=(", ", ": "))
        assert calls == [p, q, zero]

    check()


# Names a library caller may give a class symbol: a "%" the run template
# must not read as a conversion, JSON's own delimiters and escapes, and a
# character outside the Basic Multilingual Plane.
_ODD_NAMES = ("%", "a%d", "%%s", "{x}", '"q"', "back\\slash", "\U0001f600", "%\U0001d7d8{")


def test_json_poly_escapes_odd_symbol_names():
    rng = random.Random(71)
    for name in _ODD_NAMES:
        for _ in range(10):
            p = _rand_poly(rng, neg=True) + MotPoly.sym(name, rng.choice((-1, 2))) * _rand_poly(rng, 3)
            p = p * (MotPoly.sym(rng.choice(_ODD_NAMES)) + MotPoly.T(F(1, 3)))
            assert json_poly(p) == _json_text(p), name
    p = MotPoly.sym("%d%%", 2) * MotPoly.L(F(1, 2))
    assert json_poly(p) == (
        '[{"L": {"den": 2, "num": 1}, "T": {"den": 1, "num": 0}, "c": 1, "syms": {"%d%%": 2}}]'
    )


def test_json_poly_runs_of_one_term():
    # inside each T-power the symbol monomial changes from one L-power to
    # the next, so every run of equal (T, syms) holds a single term
    rng = random.Random(72)
    for r in (1, 6, 35):
        syms = ((("A", 1),), (), (("%B", -2), ("C", 1)))
        terms = {
            (t, l, syms[(t + l) % 3]): rng.choice((-3, -1, 1, 2, 10**25))
            for t in range(-4, 5)
            for l in range(-6, 7)
        }
        p = MotPoly.from_lattice(terms, r)
        keys = [k for k, _ in p.lattice()[0]]
        assert all((a[0], a[2]) != (b[0], b[2]) for a, b in zip(keys, keys[1:]))
        assert json_poly(p) == _json_text(p)


# The --series 10 polynomial of the d = 1000 hj anchor: 9993 terms in 3165
# runs, and its JSON text as the dict route writes it.
_SERIES_PIN = (868962, "0670d129d406d6e1243a085ced57aad9c649e80f3cad9387eb1542f1e840e0a7")


def test_json_poly_on_the_d1000_series():
    z = stratified_zeta(hj_stratification(hj_resolve(1000, 1, 3), 3, 5, 2, 7))
    ser = series_expand(z, 10)
    text = json_poly(ser)
    assert text == _json_text(ser)
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == _SERIES_PIN

    # one pass over the integer keys must stay faster than the dict route,
    # which it took about a third of the time of when this was written
    def best(f):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            f(ser)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best(json_poly) < best(_json_text)


def test_one_template_per_shape_on_the_d1000_series(monkeypatch):
    """Printing the anchor series makes at most one template per distinct
    term shape, the shapes counted here from its sorted keys: in text the
    reduced denominators of the L- and T-exponents (the powers 0 and 1 apart),
    the symbols, the sign and whether |c| = 1; in JSON the denominators and
    the symbols."""
    z = stratified_zeta(hj_stratification(hj_resolve(1000, 1, 3), 3, 5, 2, 7))
    ser = series_expand(z, 10)
    terms, r = ser.lattice()

    def den(x: int, fixed=True):
        return x if fixed and x in (0, r) else F(x, r).denominator

    text_shapes = {(den(l), den(t), s, c < 0, abs(c) == 1) for (t, l, s), c in terms}
    json_shapes = {(den(l, False), den(t, False), s) for (t, l, s), c in terms}
    made = []
    missing = topzeta._Templates.__missing__

    def counted(self, shape):
        made.append(shape)
        return missing(self, shape)

    monkeypatch.setattr(topzeta._Templates, "__missing__", counted)
    for printer, shapes in ((render_poly, text_shapes), (json_poly, json_shapes)):
        made.clear()
        assert printer(ser)
        assert len(made) == len(set(made)) <= len(shapes), printer
    assert len(text_shapes) < 40 and len(json_shapes) < 20


# ---------------------------------------------------------------------------
# second route: evaluation and printing as they were done on Fraction keys


def _ref_int_nth_root(a: int, n: int) -> int | None:
    if n == 1:
        return a
    if a < 0:
        if n % 2 == 0:
            return None
        r = _ref_int_nth_root(-a, n)
        return None if r is None else -r
    if a in (0, 1):
        return a
    x = max(1, int(round(a ** (1.0 / n))))
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    for cand in (x - 1, x, x + 1, x + 2):
        if cand >= 0 and cand**n == a:
            return cand
    return None


def _ref_rat_pow(p: F, e: F) -> F:
    if e.denominator == 1:
        if p == 0 and e < 0:
            raise ZeroDivisionError("0 to a negative power")
        return p ** e.numerator
    rn = _ref_int_nth_root(p.numerator, e.denominator)
    rd = _ref_int_nth_root(p.denominator, e.denominator)
    if rn is None or rd is None:
        raise FractionalPowerUnevaluable("%s has no exact rational %d-th root" % (p, e.denominator))
    return F(rn, rd) ** e.numerator


def _ref_eval_L(terms, p) -> F:
    """One Fraction power per monomial, in canonical order; a class symbol
    has no value."""
    p = F(p)
    total = F(0)
    for (tau, ell, syms), c in terms:
        if tau != 0:
            raise ValueError("monomial carries a T power; cannot evaluate at L only")
        v = F(c) * _ref_rat_pow(p, ell)
        for name, _e in syms:
            raise MissingChi(name)
        total += v
    return total


def _ref_series_values(ser: MotPoly, p) -> list:
    """Group the Fraction terms by T and evaluate each group's coefficient."""
    return [
        (tau, _ref_eval_L([((F(0), ell, syms), c) for (_t, ell, syms), c in grp], p))
        for tau, grp in groupby(ser.terms(), key=lambda kv: kv[0][0])
    ]


def _ref_exp_str(e: F) -> str:
    return str(e.numerator) if e.denominator == 1 else "(%s)" % e


def _ref_pow_str(base: str, e: F) -> str:
    return base if e == 1 else "%s^%s" % (base, _ref_exp_str(e))


def _ref_mono_str(key, c: int, lead: bool) -> str:
    tau, ell, syms = key
    parts = []
    if ell != 0:
        parts.append(_ref_pow_str("L", ell))
    if tau != 0:
        parts.append(_ref_pow_str("T", tau))
    for name, e in syms:
        parts.append(_ref_pow_str("[%s]" % name, F(e)))
    mag = abs(c)
    if not parts or mag != 1:
        parts.insert(0, str(mag))
    body = " * ".join(parts)
    if lead:
        return ("-" if c < 0 else "") + body
    return ("- " if c < 0 else "+ ") + body


def _ref_render(p: MotPoly) -> str:
    terms = p.terms()
    if not terms:
        return "0"
    return " ".join(_ref_mono_str(key, c, i == 0) for i, (key, c) in enumerate(terms))


def _ref_render_factored(p: MotPoly) -> str:
    terms = p.terms()
    if len(terms) <= 1:
        return _ref_render(p)
    tau = min(k[0] for k, _c in terms)
    ell = min(k[1] for k, _c in terms)
    names = dict(terms[0][0][2])
    for (_t, _l, syms), _c in terms[1:]:
        d = dict(syms)
        names = {n: min(e, d[n]) for n, e in names.items() if n in d}
    syms = tuple(sorted(names.items()))
    if (tau, ell, syms) == (0, 0, ()):
        return "(%s)" % _ref_render(p)
    rest = p * MotPoly.monomial(1, ell=-ell, tau=-tau, syms=[(n, -e) for n, e in syms])
    return "%s * (%s)" % (_ref_mono_str((tau, ell, syms), 1, True), _ref_render(rest))


def _ref_exp_latex(e: F) -> str:
    if e.denominator == 1:
        return str(e.numerator)
    return ("-" if e < 0 else "") + "%d/%d" % (abs(e.numerator), e.denominator)


def _ref_latex(p: MotPoly) -> str:
    terms = p.terms()
    if not terms:
        return "0"
    out = []
    for i, ((tau, ell, syms), c) in enumerate(terms):
        parts = []
        if ell != 0:
            parts.append("\\mathbb{L}^{%s}" % _ref_exp_latex(ell))
        if tau != 0:
            parts.append("T^{%s}" % _ref_exp_latex(tau))
        for name, e in syms:
            body = "[%s]" % name
            parts.append(body if e == 1 else "%s^{%d}" % (body, e))
        mag = abs(c)
        if not parts or mag != 1:
            parts.insert(0, str(mag))
        body = "".join(parts)
        out.append(("-" if c < 0 else "" if i == 0 else "+") + body)
    return "".join(out)


_P_VALUES = (F(0), F(1), F(-1), F(4), F(-8), F(2), F(2**12), F(3**12, 2**12))


def _rand_lattice_poly(rng: random.Random, with_T: bool) -> MotPoly:
    """Up to 8 terms on a random scale, some of them with symbols."""
    r = rng.choice((1, 2, 3, 4, 6, 12, 5, 35))
    acc: dict = {}
    for _ in range(rng.randint(0, 8)):
        t = rng.randint(-r, 3 * r) if with_T else 0
        l = rng.randint(-3 * r, 3 * r)
        syms = rng.choice(((),) * 4 + ((("a", 1),), (("a", 2), ("b", 1)), (("b", -1),)))
        k = (t, l, syms)
        c = acc.get(k, 0) + rng.choice((-3, -2, -1, 1, 1, 2, 5))
        if c:
            acc[k] = c
        else:
            acc.pop(k, None)
    return MotPoly.from_lattice(acc, r)


def _outcome(f, *args):
    try:
        return ("value", f(*args))
    except (ValueError, ZeroDivisionError, MissingChi, FractionalPowerUnevaluable) as exc:
        return (type(exc), str(exc))


def test_eval_L_matches_fraction_reference():
    rng = random.Random(53)
    seen: set = set()
    for _ in range(400):
        p = _rand_lattice_poly(rng, with_T=rng.random() < 0.15)
        P = rng.choice(_P_VALUES)
        got = _outcome(p.eval_L, P)
        assert got == _outcome(_ref_eval_L, p.terms(), P), (p, P)
        seen.add(got[0])
    # values and every failure: T power, no exact root, 0^-k, missing chi
    assert seen == {"value", ValueError, FractionalPowerUnevaluable, ZeroDivisionError, MissingChi}


def test_series_values_match_fraction_reference():
    rng = random.Random(59)
    seen: set = set()
    for _ in range(300):
        ser = _rand_lattice_poly(rng, with_T=True)
        P = rng.choice(_P_VALUES)
        got = _outcome(series_at_L, ser, P)
        assert got == _outcome(_ref_series_values, ser, P), (ser, P)
        seen.add(got[0])
    # a T power is a column here, not a failure; every other outcome shows
    assert seen == {"value", FractionalPowerUnevaluable, ZeroDivisionError, MissingChi}
    ser = MotPoly.from_lattice({(4, -2, ()): 3, (0, 6, ()): 1}, 4)
    assert series_at_L(ser, 16) == [(F(0), F(64)), (F(1), F(3, 4))]
    # a class symbol has no value, and is named
    ser = ser + MotPoly.from_lattice({(4, 1, (("a", 1),)): -1}, 4)
    assert _outcome(series_at_L, ser, 16) == (MissingChi, "a")


def test_series_values_on_one_common_root():
    # Exponent denominators 2, 3, 4 and 6 in one series: 2^12 has a root
    # of each order, so one 12-th root values every column.
    ser = MotPoly.from_lattice(
        {(0, 6, ()): 1, (12, -4, ()): -2, (12, 3, ()): 5, (18, -2, ()): 1,
         (18, 9, ()): 3, (24, 0, ()): -1}, 12
    )
    for P in (2**12, F(3**12, 5**12), -(2**12), -(2**15), 2**13, 0):
        got = _outcome(series_at_L, ser, P)
        assert got == _outcome(_ref_series_values, ser, P), P
        for t, v in series_at_L(ser, 2**12):
            col = coeff_of_T(ser, t)
            assert v == _ref_eval_L(col.terms(), 2**12)
    assert series_at_L(ser, 2**12)[0] == (F(0), F(2**6))
    assert _outcome(series_at_L, ser, -(2**15)) == (
        FractionalPowerUnevaluable, "-32768 has no exact rational 2-th root"
    )
    # odd denominators 3, 5 and 15 all have roots of -(2^15): with the
    # 15-th root x = -2, the key (t, l) is x^l * T^(t/15)
    odd = MotPoly.from_lattice(
        {(0, 5, ()): 1, (0, -3, ()): 2, (15, 10, ()): -1, (15, 1, ()): 4, (30, -6, ()): 7}, 15
    )
    got = series_at_L(odd, -(2**15))
    assert got == _ref_series_values(odd, -(2**15))
    x = F(-2)
    assert got == [(F(0), x**5 + 2 * x**-3), (F(1), -(x**10) + 4 * x), (F(2), 7 * x**-6)]
    assert [coeff_of_T(odd, t).eval_L(-(2**15)) for t, _v in got] == [v for _t, v in got]
    # the root is of the order the exponents need, not of the scale: on
    # scale 12 with integer exponents, p = 2 has no 12-th root but needs none
    ints = MotPoly.from_lattice({(12, 24, ()): 1, (24, -12, ()): 3, (24, 0, ()): 1}, 12)
    assert series_at_L(ints, 2) == [(F(1), F(4)), (F(2), F(3, 2) + 1)]
    # the error names the first failing term's own order, L^(-1/5), not 15
    assert _outcome(series_at_L, odd, 2**14) == (
        FractionalPowerUnevaluable, "16384 has no exact rational 5-th root"
    )


def test_series_values_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    scales = (1, 2, 3, 4, 6, 12, 5, 15, 35)
    symmonos = ((), (), (), (("a", 1),), (("a", 2), ("b", 1)), (("b", -1),))
    P_values = _P_VALUES + (F(-(2**15)), F(3**60, 2**60), F(-1, 3**15))

    @st.composite
    def series(draw, with_T=True):
        r = draw(st.sampled_from(scales))
        acc: dict = {}
        for _ in range(draw(st.integers(0, 10))):
            t = draw(st.integers(-r, 3 * r)) if with_T else 0
            k = (t, draw(st.integers(-3 * r, 3 * r)), draw(st.sampled_from(symmonos)))
            c = acc.get(k, 0) + draw(st.sampled_from((-3, -1, 1, 2, 5)))
            if c:
                acc[k] = c
            else:
                acc.pop(k, None)
        return MotPoly.from_lattice(acc, r)

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(series(), series(with_T=False), st.sampled_from(P_values))
    def check(ser, col, P):
        assert _outcome(series_at_L, ser, P) == _outcome(_ref_series_values, ser, P)
        assert _outcome(col.eval_L, P) == _outcome(_ref_eval_L, col.terms(), P)
        assert _outcome(ser.eval_L, P) == _outcome(_ref_eval_L, ser.terms(), P)

    check()


def test_digits_bound_covers_every_value():
    rng = random.Random(67)
    roots = ((1, 1), (-1, 1), (2, 1), (1, 3), (-5, 2), (0, 1), (10**30, 7), (3, 10**20))
    tight = 0
    for _ in range(400):
        col = {rng.randint(-60, 60): rng.choice((-7, -1, 1, 2, 9)) for _ in range(rng.randint(1, 5))}
        a, b = rng.choice(roots)
        if a == 0 and min(col) < 0:
            continue
        v = _laurent_value(col, a, b)
        bound = _digits_bound(min(col), max(col), sum(map(abs, col.values())), a, b)
        digits = max(len(str(abs(v.numerator))), len(str(v.denominator)))
        assert digits <= bound, (col, a, b)
        tight += digits == bound
    assert tight > 100
    # one power: the bound is the exact digit count on either side of the limit
    assert MotPoly.L(-14284).eval_L(2) == F(1, 2**14284)  # 4300 digits
    with pytest.raises(TooManyDigits, match="4301 decimal digits, over the limit 4300"):
        MotPoly.L(-14285).eval_L(2)
    # each column is bounded on its own: 2^10000 and 2^-10000 print, though
    # the exponents of the whole series span 20000
    ser = MotPoly.from_lattice({(0, 10000, ()): 1, (1, -10000, ()): 1}, 1)
    assert series_at_L(ser, 2) == [(F(0), F(2**10000)), (F(1), F(1, 2**10000))]
    # the first column over the bound, in T order, is named
    ser = MotPoly.from_lattice({(2, 15000, ()): 1, (1, 14300, ()): 1, (0, 1, ()): 1}, 1)
    with pytest.raises(TooManyDigits, match=r"^the coefficient of T\^1 at L = 2 may have 4305 "):
        series_at_L(ser, 2)


def test_printing_matches_fraction_reference():
    rng = random.Random(61)
    for _ in range(500):
        p = _rand_lattice_poly(rng, with_T=True)
        if rng.random() < 0.3:
            p = p * _rand_lattice_poly(rng, with_T=True)
        assert render_poly(p) == _ref_render(p)
        assert render_poly_factored(p) == _ref_render_factored(p)
        assert latex_poly(p) == _ref_latex(p)
    # a common factor made of symbols alone is still pulled out front
    p = MotPoly.from_lattice({(0, 0, (("a", 1),)): 1, (0, 6, (("a", 2),)): -2}, 4)
    assert render_poly_factored(p) == _ref_render_factored(p) == "[a] * (1 - 2 * L^(3/2) * [a])"


# ---------------------------------------------------------------------------
# the series views: the expansion, the unit roots L = 1 and L = -1,
# and the key-only sort of lattice()


def _old_series_expand(z, M) -> MotPoly:
    """series_expand as it worked before its products were truncated:
    each step forms the whole product, then truncates it, and the terms
    are summed one by one.  The budget is left out."""
    M = F(M)
    total = MotPoly.zero()
    for factors, coeff in z.iter_terms():
        cur = coeff.truncate_tau(M)
        if cur.is_zero:
            continue
        lo = cur.min_tau()
        for f in sorted(factors):
            jmax = math.floor((M - lo) / f.N)
            if jmax < 1:
                break  # every product of this term lies past T^M
            r, n, v = f._lat
            geo = MotPoly.from_lattice({(j * n, -j * v, ()): 1 for j in range(1, jmax + 1)}, r)
            cur = (cur * ((MotPoly.L() - 1) * geo)).truncate_tau(M)
            lo += f.N
        else:
            total = total + cur
    return total


def _reference_series(z, M) -> tuple[MotPoly, int]:
    """series_expand(z, M) by plain products: each coefficient times, for
    each factor, (L - 1) times its geometric sum taken far enough that no
    product at or below T^M is missed, then truncate_tau(M).  Also the
    scale the expansion keeps: the lcm of the scales of the products that
    leave a term at or below T^M."""
    M = F(M)
    total, scales = MotPoly.zero(), []
    for factors, coeff in z.iter_terms():
        lo = min(coeff.min_tau(), 0)
        prod = coeff
        for f in factors:
            geo = MotPoly.zero()
            for j in range(1, math.floor((M - lo) / f.N) + 1):
                geo = geo + MotPoly.monomial(1, ell=-j * f.nu, tau=j * f.N)
            prod = prod * (MotPoly.L() - 1) * geo
        prod = prod.truncate_tau(M)
        if prod:
            total = total + prod
            scales.append(prod.scale)
    return total.truncate_tau(M), math.lcm(*scales)


# Factors on shared rays, where the points of a cone meet: (1, 1), (2, 2)
# and (2/3, 2/3), with N = nu; (2, 1) and (4, 2).  The rest have rays of
# their own.
_SERIES_FACTORS = [fac(1, 1), fac(2, 2), fac(F(2, 3), F(2, 3)), fac(2, 1), fac(4, 2), fac(1, 2),
                   fac(F(1, 2), F(3, 2)), fac(3, 1), fac(F(5, 7), F(1, 3))]


def test_series_expand_matches_reference_products():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    symmonos = st.sampled_from(((), (), (("a", 1),), (("a", 1), ("b", 2))))
    coeffs = st.builds(
        lambda terms: MotPoly({(F(t, q), F(l, e), s): c for t, q, l, e, s, c in terms}),
        st.lists(st.tuples(st.integers(-3, 6), st.sampled_from((1, 2, 3)), st.integers(-4, 4),
                           st.sampled_from((1, 2)), symmonos, st.sampled_from((-2, -1, 1, 3))),
                 min_size=1, max_size=4),
    )
    exprs = st.builds(
        lambda terms: sum((ZetaExpr.of(c, fs) for c, fs in terms), ZetaExpr.zero()),
        st.lists(st.tuples(coeffs, st.lists(st.sampled_from(_SERIES_FACTORS), max_size=3)),
                 min_size=1, max_size=4),
    )
    orders = st.builds(F, st.integers(0, 18), st.sampled_from((1, 2, 3)))
    one, a = MotPoly.one(), MotPoly.sym("a")

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(exprs, orders)
    # M below every N: nothing is kept
    @hyp.example(ZetaExpr.of(one, (fac(3, 1), fac(2, 1))), F(1))
    # three factors on one ray, with a symbol and a T^-1 in the coefficient
    @hyp.example(ZetaExpr.of(a + MotPoly.T(-1), (fac(1, 1), fac(2, 2), fac(F(2, 3), F(2, 3)))),
                 F(17, 2))
    # one ray shared by the first two factors, not by the last
    @hyp.example(ZetaExpr.of(one + MotPoly.L(F(1, 2)), (fac(2, 1), fac(4, 2), fac(1, 1))), F(9))
    def check(z, M):
        got = series_expand(z, M)
        want, scale = _reference_series(z, M)
        assert got == want
        assert got.scale == scale
        assert render_poly(got) == render_poly(want)
        assert got.lattice() == (sorted(got._terms.items()), got.scale)

    check()
    assert series_expand(ZetaExpr.of(one, (fac(3, 1), fac(2, 1))), 1).lattice() == ([], 1)


def test_series_expand_matches_product_then_truncate():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    symmonos = st.sampled_from(((), (), (("a", 1),), (("b", 2),)))
    coeffs = st.builds(
        lambda terms: MotPoly({(F(t, q), F(l, q), s): c for t, q, l, s, c in terms}),
        st.lists(st.tuples(st.integers(-3, 6), st.sampled_from((1, 2, 3)), st.integers(-4, 4),
                           symmonos, st.sampled_from((-2, -1, 1, 3))), min_size=1, max_size=4),
    )
    factors = st.lists(
        st.builds(fac, st.builds(F, st.integers(1, 5), st.sampled_from((1, 2, 3))),
                  st.builds(F, st.integers(1, 7), st.sampled_from((1, 2, 7)))),
        max_size=3,
    )
    exprs = st.builds(
        lambda terms: sum((ZetaExpr.of(c, fs) for c, fs in terms), ZetaExpr.zero()),
        st.lists(st.tuples(coeffs, factors), max_size=4),
    )
    orders = st.builds(F, st.integers(0, 18), st.sampled_from((1, 2, 3)))

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(exprs, orders)
    def check(z, M):
        got = series_expand(z, M)
        want = _old_series_expand(z, M)
        assert got == want
        assert render_poly(got) == render_poly(want)

    check()


def test_unit_root_values_match_fraction_reference():
    # D = r / gcd(r, every ell*r) is the order of the common root; at
    # P = -1 it must be odd.
    odd = MotPoly.from_lattice(
        {(0, 5, ()): 1, (0, -3, ()): 2, (15, 10, ()): -1, (15, 1, ()): 4, (30, -6, ()): 7,
         (30, 0, ()): -7, (-15, 2, ()): 3}, 15
    )
    even = MotPoly.from_lattice(
        {(0, 6, ()): 1, (12, -4, ()): -2, (12, 3, ()): 5, (18, -2, ()): 1, (18, 9, ()): 3}, 12
    )
    ints = MotPoly.from_lattice({(4, 8, ()): 1, (4, -4, ()): 3, (8, 0, ()): -1, (8, 12, ()): 1}, 4)
    for ser in (odd, even, ints, MotPoly.zero()):
        for P in (1, -1):
            assert _outcome(series_at_L, ser, P) == _outcome(_ref_series_values, ser, P), (ser, P)
    # the columns of odd at -1: each term signed by (-1)^k, k its exponent on the root
    assert series_at_L(odd, -1) == [(F(-1), F(3)), (F(0), F(-3)), (F(1), F(-5)), (F(2), F(0))]
    assert series_at_L(odd, 1) == [(F(-1), F(3)), (F(0), F(3)), (F(1), F(3)), (F(2), F(0))]
    # D = 12 is even: -1 has no 12-th root, and the first term that needs one is named
    assert _outcome(series_at_L, even, -1) == (
        FractionalPowerUnevaluable, "-1 has no exact rational 2-th root"
    )
    rng = random.Random(71)
    for _ in range(300):
        ser = _rand_lattice_poly(rng, with_T=True)
        P = rng.choice((1, -1))
        assert _outcome(series_at_L, ser, P) == _outcome(_ref_series_values, ser, P), (ser, P)


def test_unit_root_refusals():
    big = 10**4300  # 4301 digits
    # no column has a coefficient sum past the limit, though all the
    # terms together have: the values are returned
    under = MotPoly.from_lattice({(0, 0, ()): 6 * 10**4299, (1, 1, ()): -6 * 10**4299}, 1)
    for P in (1, -1):
        assert series_at_L(under, P) == [(F(0), F(6 * 10**4299)), (F(1), F(-6 * 10**4299) * P)]
    # the first column past the limit, in T order, is named, though its
    # value is 0, a later column is larger, and the dict holds that one first
    over = MotPoly.from_lattice(
        {(2, 0, ()): 10 * big, (0, 0, ()): 1, (1, 0, ()): big, (1, 3, ()): -big}, 1
    )
    for P in (1, -1):
        with pytest.raises(TooManyDigits, match=r"^the coefficient of T\^1 at L = %d may have 4301 " % P):
            series_at_L(over, P)
    # a class symbol is reported before any digit bound, and the one named
    # is the first in canonical order, not in the order of the dict
    syms = over + MotPoly.from_lattice(
        {(5, 0, (("b", 1),)): 1, (3, 1, (("z", 1),)): 1, (3, 1, (("a", 1),)): 2}, 1
    )
    for P in (1, -1):
        assert _outcome(series_at_L, syms, P) == (MissingChi, "a")
        assert _outcome(series_at_L, syms - over + under, P) == (MissingChi, "a")


# ---------------------------------------------------------------------------
# the column printers against the per-term printers they replaced: every
# term of a sum was a tuple of factor texts, and each exponent's power was
# memoised on its first term


_OldSyntax = namedtuple("_OldSyntax", "power ratio coeff L unit times plus minus")
_OLD_TEXT = _OldSyntax("%s^%s", "(%d/%d)", str, "L", False, " * ", " + ", " - ")
_OLD_LATEX = _OldSyntax("%s^{%s}", "%d/%d", frac_latex, "\\mathbb{L}", True, "", "+", "-")


def _old_lattice_terms(terms, r, syntax):
    power, ratio, unit, L = syntax.power, syntax.ratio, syntax.unit, syntax.L

    def pow_of(memo, base, x):
        g = math.gcd(x, r)
        e = x // g if g == r else ratio % (x // g, r // g)
        memo[x] = s = (base if e == 1 and not unit else power % (base, e),)
        return s

    Ls = {0: ()}
    Ts = {0: ()}
    out = []
    for (tau, ell, syms), c in terms:
        f = Ls[ell] if ell in Ls else pow_of(Ls, L, ell)
        f += Ts[tau] if tau in Ts else pow_of(Ts, "T", tau)
        if syms:
            f += tuple("[%s]" % n if e == 1 else power % ("[%s]" % n, e) for n, e in syms)
        out.append((f, c))
    return out


def _old_sum_str(terms, syntax):
    times, coeff, plus, minus = syntax.times, syntax.coeff, syntax.plus, syntax.minus
    out = []
    for factors, c in terms:
        if c:
            mag = -c if c < 0 else c
            if mag != 1 or not factors:
                factors = (coeff(mag), *factors)
            out += minus if c < 0 else plus, times.join(factors)
    if not out:
        return "0"
    out[0] = "-" if out[0] == minus else ""
    return "".join(out)


def _ref_gcd_monomial(p: MotPoly):
    """The componentwise least key over the terms, one dict per term."""
    keys = list(p._terms)
    names = dict(keys[0][2])
    for _t, _l, syms in keys[1:]:
        d = dict(syms)
        names = {n: min(e, d[n]) for n, e in names.items() if n in d}
    return (min(k[0] for k in keys), min(k[1] for k in keys), tuple(sorted(names.items())))


def _old_render(p: MotPoly, syntax=_OLD_TEXT) -> str:
    return _old_sum_str(_old_lattice_terms(*p.lattice(), syntax), syntax)


def _old_render_factored(p: MotPoly) -> str:
    if len(p) <= 1:
        return _old_render(p)
    g = _ref_gcd_monomial(p)
    if g == (0, 0, ()):
        return "(%s)" % _old_render(p)
    tau, ell, syms = g
    inv = tuple((n, -e) for n, e in syms)
    terms, r = p.lattice()
    shifted = [((t - tau, l - ell, _mul_syms(s, inv)), c) for (t, l, s), c in terms]
    shifted.sort()
    (head, _one), *body = _old_lattice_terms([(g, 1), *shifted], r, _OLD_TEXT)
    return "%s * (%s)" % (" * ".join(head), _old_sum_str(body, _OLD_TEXT))


def _old_ratfunc_str(rf: RatFunc) -> str:
    den = []
    for f, m in rf.denom:
        r, n, v = f._lat
        binom = _old_lattice_terms([((0, 0, ()), 1), ((n, -v, ()), -1)], r, _OLD_TEXT)
        den.append("(%s)%s" % (_old_sum_str(binom, _OLD_TEXT), "" if m == 1 else "^%d" % m))
    num = _old_render_factored(rf.numer)
    if num == "0" or not den:
        return num
    return "(%s) / (%s)" % (num, " * ".join(den))


def _old_values_at_L(ser: MotPoly, P) -> tuple[str, str]:
    """The --eval-L text block and JSON array as they were written from
    Fractions, the values from the Fraction reference."""
    vals = _ref_series_values(ser, P)
    lines = ["series at L = %s:" % F(P)]
    for t, v in vals:
        lines.append("  T^%s: %s" % (t if t.denominator == 1 else "(%s)" % t, v))
    array = [{"T": {"num": t.numerator, "den": t.denominator},
              "value": {"num": v.numerator, "den": v.denominator}} for t, v in vals]
    return "\n".join(lines), json.dumps(array, sort_keys=True, separators=(", ", ": "))


def test_gcd_monomial_matches_reference():
    rng = random.Random(83)
    names = ("a", "b", "Cé0", "%")
    for _ in range(400):
        r = rng.choice((1, 2, 3, 6, 12))
        shared = {n: rng.randint(1, 3) for n in rng.sample(names, rng.randint(0, 2))}
        terms = {}
        for _ in range(rng.randint(1, 8)):
            syms = dict(shared) if rng.random() < 0.8 else {}
            for n in rng.sample(names, rng.randint(0, 2)):
                syms[n] = syms.get(n, 0) + rng.choice((-2, -1, 1, 2))
            key = (rng.randint(-3 * r, 3 * r), rng.randint(-3 * r, 3 * r),
                   tuple(sorted((n, e) for n, e in syms.items() if e)))
            terms[key] = rng.choice((-2, -1, 1, 3))
        p = MotPoly.from_lattice(terms, r)
        assert p.gcd_monomial() == _ref_gcd_monomial(p), terms
    # a symbol shared by every term is pulled out, also with negative exponents
    p = MotPoly.from_lattice({(1, 2, (("a", 2), ("b", -1))): 1, (0, 5, (("a", 1), ("b", -3))): 2}, 1)
    assert p.gcd_monomial() == (0, 2, (("a", 1), ("b", -3)))


def test_column_printers_match_the_per_term_printers():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    names = st.one_of(
        st.sampled_from(_NAMES + _ODD_NAMES),
        st.text(st.characters(categories=("Lu", "Ll", "Lo", "Nd")), min_size=1, max_size=2),
    )
    symmonos = st.one_of(
        st.just(()),
        st.dictionaries(names, st.sampled_from((-2, -1, 1, 3)), min_size=1, max_size=2).map(
            lambda d: tuple(sorted(d.items()))
        ),
    )
    coeffs = st.one_of(st.sampled_from((-1, 1, -1, 1, 2, -3)), st.integers(-(10**25), 10**25)).filter(bool)

    @st.composite
    def polys(draw):
        r = draw(st.integers(1, 12))
        exps = st.one_of(st.just(0), st.just(r), st.just(-r), st.integers(-4 * r, 4 * r))
        terms = {}
        for t, l, s, c in draw(st.lists(st.tuples(exps, exps, symmonos, coeffs), max_size=9)):
            terms[t, l, s] = c
        if draw(st.booleans()):
            terms[0, 0, ()] = draw(st.sampled_from((1, -1, 5)))  # a coefficient with no factor
        return MotPoly.from_lattice(terms, r)

    factors = st.lists(
        st.tuples(st.builds(fac, st.builds(F, st.integers(0, 6), st.integers(1, 12)),
                            st.builds(F, st.integers(1, 9), st.integers(1, 12))),
                  st.integers(1, 3)),
        max_size=3,
    ).map(lambda pairs: tuple(sorted(dict(pairs).items())))

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(polys(), factors)
    def check(p, denom):
        assert render_poly(p) == _old_render(p)
        assert latex_poly(p) == _old_render(p, _OLD_LATEX)
        assert render_poly_factored(p) == _old_render_factored(p)
        assert json_poly(p) == _json_text(p)
        rf = RatFunc(p, denom)
        assert str(rf) == _old_ratfunc_str(rf)
        if p:
            assert p.gcd_monomial() == _ref_gcd_monomial(p)

    check()
    empty = MotPoly.zero()
    assert render_poly(empty) == latex_poly(empty) == _old_render(empty) == "0"
    assert json_poly(empty) == "[]" and str(RatFunc(empty, ())) == "0"
    for c in (1, -1):
        assert render_poly(MotPoly.const(c)) == latex_poly(MotPoly.const(c)) == str(c)


def test_printers_on_edge_shapes():
    """The exponents whose templates differ -- 0, 1 (x = r), whole (+-r, +-2r)
    and the fractions next to them (r +- 1) -- on scales up to 1000, with
    unit, small and huge coefficients of both signs and symbol names that a
    template must escape, print as the per-term references do."""
    rng = random.Random(89)
    names = _NAMES + _ODD_NAMES
    valued = 0
    for r in (1, 2, 12, 720, 1000):
        exps = sorted({0, r, -r, 2 * r, -2 * r, r + 1, r - 1, -r + 1, -r - 1})
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 12)):
                syms = ()
                if rng.random() < 0.3:
                    picked = rng.sample(names, rng.randint(1, 2))
                    syms = tuple(sorted((n, rng.choice((-2, -1, 1, 3))) for n in picked))
                key = (rng.choice(exps), rng.choice(exps), syms)
                terms[key] = rng.choice((1, -1, 2, -2, 10**25, -(10**25)))
            p = MotPoly.from_lattice(terms, r)
            assert render_poly(p) == _ref_render(p) == _old_render(p)
            assert render_poly_factored(p) == _ref_render_factored(p)
            assert latex_poly(p) == _ref_latex(p)
            assert json_poly(p) == _json_text(p)
            plain = MotPoly.from_lattice({k: c for k, c in terms.items() if not k[2]}, r)
            for P in (F(1), F(-1), F(4)):
                got, want = _outcome(plain.values_at_L, P), _outcome(_old_values_at_L, plain, P)
                if got[0] != "value":
                    assert got == want
                    continue
                assert (render_values_at_L(P, got[1]), json_values_at_L(got[1])) == want[1]
                valued += 1
    assert valued > 300


def test_values_at_L_print_as_the_fraction_values_did():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def series(draw):
        r = draw(st.sampled_from((1, 2, 3, 4, 6, 12, 5)))
        acc: dict = {}
        for _ in range(draw(st.integers(0, 10))):
            k = (draw(st.integers(-r, 4 * r)), draw(st.integers(-3 * r, 3 * r)),
                 draw(st.sampled_from(((),) * 6 + ((("a", 1),),))))
            c = acc.get(k, 0) + draw(st.sampled_from((-3, -1, 1, 2, 5)))
            if c:
                acc[k] = c
            else:
                acc.pop(k, None)
        return MotPoly.from_lattice(acc, r)

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(series(), st.sampled_from((F(1), F(-1), F(4), F(1, 4), F(-8))))
    def check(ser, P):
        got = _outcome(ser.values_at_L, P)
        want = _outcome(_old_values_at_L, ser, P)
        if got[0] != "value":
            assert got == want
            return
        vals = got[1]
        assert (render_values_at_L(P, vals), json_values_at_L(vals)) == want[1]
        assert json_dump({"series_at_L": vals}) == '{"series_at_L": %s}' % want[1][1]
        assert series_at_L(ser, P) == _ref_series_values(ser, P)

    check()
