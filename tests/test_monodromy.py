from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from qzeta.monodromy import (
    EXPAND_DEGREE_LIMIT,
    CyclotomicProduct,
    yomdin_charpoly,
)
from qzeta.resolution import YomdinParams


def test_charpoly_313():
    cp = yomdin_charpoly(YomdinParams(3, 1, 2, 3, 3))
    assert cp.factors == ((1, -1), (3, 1), (4, 1), (8, -1), (12, -1), (24, 1))
    assert cp.degree() == 10
    assert str(cp) == (
        "(t^3 - 1) * (t^4 - 1) * (t^24 - 1)"
        " / ((t - 1) * (t^8 - 1) * (t^12 - 1))"
    )
    # the survivors are the primitive parts of orders 3 and 24
    assert cp.expand() == [1, 1, 1, 0, -1, -1, -1, 0, 1, 1, 1]


def test_charpoly_degree_identity():
    for m in range(2, 7):
        for k in range(1, 5):
            for p, q in ((2, 3), (2, 5), (3, 4), (3, 5)):
                y = YomdinParams(m, k, p, q, 1)
                assert yomdin_charpoly(y).degree() == (m - 1) ** 3 + k * (p - 1) * (
                    q - 1
                )


def test_charpoly_213():
    cp = yomdin_charpoly(YomdinParams(2, 1, 2, 3, 1))
    assert cp.factors == ((1, -1), (2, -1), (3, 1), (6, -1), (9, -1), (18, 1))
    assert cp.degree() == 3
    with pytest.raises(ValueError):
        cp.expand()  # the order-1 part has multiplicity -2


def test_phi_multiplicity():
    c6 = CyclotomicProduct.from_dict({6: 1})
    assert [c6.phi_multiplicity(o) for o in (1, 2, 3, 6, 4)] == [1, 1, 1, 1, 0]
    cp = yomdin_charpoly(YomdinParams(3, 1, 2, 3, 3))
    assert cp.phi_multiplicity(1) == 0
    assert cp.phi_multiplicity(3) == 1
    assert cp.phi_multiplicity(24) == 1
    assert cp.phi_multiplicity(8) == 0
    with pytest.raises(ValueError):
        cp.phi_multiplicity(0)


def test_is_eigenvalue_pole():
    cp = yomdin_charpoly(YomdinParams(3, 1, 2, 3, 3))
    assert cp.is_eigenvalue_pole(F(-35, 24))
    assert cp.is_eigenvalue_pole(F(-5, 3))
    assert not cp.is_eigenvalue_pole(-1)  # unit eigenvalue is absent here


def test_expand_basics():
    assert CyclotomicProduct.from_dict({2: 1, 1: -1}).expand() == [1, 1]
    assert CyclotomicProduct.from_dict({1: 1}).expand() == [-1, 1]
    assert CyclotomicProduct.from_dict({2: 0}).expand() == [1]
    with pytest.raises(ValueError):
        CyclotomicProduct.from_dict({3: 1, 2: -1}).expand()  # remainder
    with pytest.raises(ValueError):
        CyclotomicProduct.from_dict({2: -1}).expand()  # negative degree
    with pytest.raises(ValueError):
        CyclotomicProduct.from_dict({300: 1}).expand()  # over the limit


def test_from_dict_merges_and_validates():
    c = CyclotomicProduct.from_dict({4: 2})
    assert c.factors == ((4, 2),)
    assert str(CyclotomicProduct.from_dict({3: 1, 1: -1})) == "(t^3 - 1) / (t - 1)"
    assert str(CyclotomicProduct.from_dict({})) == "1"
    with pytest.raises(ValueError):
        CyclotomicProduct.from_dict({0: 1})


# Reference copy of CyclotomicProduct.expand as it stood before it shared
# the dense-polynomial helpers of qzeta.topzeta: multiply the numerator
# and the denominator out separately, then one long division.


def _ref_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ref_poly_divmod(num, den):
    num = list(num)
    quot = [0] * max(1, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] // den[-1]
        quot[k] = c
        if c:
            for j, y in enumerate(den):
                num[k + j] -= c * y
    return quot, num


def _ref_expand(cp):
    deg = cp.degree()
    if deg < 0:
        raise ValueError("product has negative degree; not a polynomial")
    if deg > EXPAND_DEGREE_LIMIT:
        raise ValueError("degree %d exceeds the expansion limit" % deg)
    num, den = [1], [1]
    for M, e in cp.factors:
        binom = [-1] + [0] * (M - 1) + [1]
        for _ in range(abs(e)):
            if e > 0:
                num = _ref_poly_mul(num, binom)
            else:
                den = _ref_poly_mul(den, binom)
    quot, rem = _ref_poly_divmod(num, den)
    if any(rem):
        raise ValueError("product is not a polynomial")
    return quot


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def test_expand_matches_reference():
    rng = random.Random(44)
    seen = set()
    for _ in range(300):
        acc = {}
        if rng.random() < 0.6:
            # (t^(ak) - 1) / (t^a - 1) is a polynomial; so is a product of them
            for _ in range(rng.randint(1, 3)):
                a, k = rng.randint(1, 6), rng.randint(1, 5)
                acc[a * k] = acc.get(a * k, 0) + 1
                acc[a] = acc.get(a, 0) - 1
        for _ in range(rng.randint(0, 2)):
            M = rng.randint(1, 12)
            acc[M] = acc.get(M, 0) + rng.randint(-2, 2)
        cp = CyclotomicProduct.from_dict(acc)
        got = _outcome(cp.expand)
        assert got == _outcome(_ref_expand, cp), cp
        assert all(type(c) is int for c in got if isinstance(got, list))
        seen.add(got[1] if isinstance(got, tuple) else "polynomial")
    assert seen == {
        "polynomial",
        "product is not a polynomial",
        "product has negative degree; not a polynomial",
    }
    big = CyclotomicProduct.from_dict({EXPAND_DEGREE_LIMIT + 1: 1})
    assert _outcome(big.expand) == _outcome(_ref_expand, big)


def test_expand_error_messages():
    cases = [
        ({2: -1}, "product has negative degree; not a polynomial"),
        ({300: 1}, "degree 300 exceeds the expansion limit"),
        ({3: 1, 2: -1}, "product is not a polynomial"),
    ]
    for acc, msg in cases:
        cp = CyclotomicProduct.from_dict(acc)
        assert _outcome(cp.expand) == ("ValueError", msg) == _outcome(_ref_expand, cp)
