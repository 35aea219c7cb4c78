"""Invariants of the integer exponent lattice behind ``MotPoly``.

Each polynomial stores its exponents as integers over its own scale r.
Operands on different scales must combine, compare and hash as the
rational-exponent polynomials they stand for.  The seeded checks at the
end compare against a small Fraction-keyed dict implementation written
here, an independent second route for product, sum, exact division and
the JSON form.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

from qzeta.symring import MotPoly

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


def test_from_lattice_reads_back_as_fractions():
    p = MotPoly.from_lattice({(-3, 10, (("C", 1),)): 4, (0, 0, ()): -1}, 6)
    assert p.terms() == [((F(-1, 2), F(5, 3), (("C", 1),)), 4), ((F(0), F(0), ()), -1)]
    assert str(p) == "4 * L^(5/3) * T^(-1/2) * [C] - 1"


# ---------------------------------------------------------------------------
# exact division


def test_divide_along_a_direction_off_the_lattice():
    # 1 - T has integer exponents; 1 - T^(1/3) needs the lattice (1/3)Z.
    q = (MotPoly.one() - MotPoly.T()).divide_one_minus(0, F(1, 3))
    assert q == MotPoly.one() + MotPoly.T(F(1, 3)) + MotPoly.T(F(2, 3))
    # 1 - L^-1 T^2 by 1 - L^(-1/5) T^(2/5): a five-term geometric sum.
    x = MotPoly.monomial(1, ell=F(-1, 5), tau=F(2, 5))
    q = (MotPoly.one() - MotPoly.monomial(1, ell=-1, tau=2)).divide_one_minus(F(-1, 5), F(2, 5))
    assert q == sum((x**k for k in range(5)), MotPoly.zero())
    # off the lattice and not divisible
    assert (MotPoly.one() - MotPoly.T()).divide_one_minus(0, F(2, 7)) is None


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
        assert (q - q * x).divide_one_minus(ell_x, tau_x) == q
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
        got = MotPoly(p).divide_one_minus(ell_x, tau_x)
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
