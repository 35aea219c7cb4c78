from __future__ import annotations

import math
import random

import pytest

from qzeta.cli import main
from qzeta.groups import NotSmall
from qzeta.tetra import (
    BadParams,
    TetraGroup,
    TetraParams,
    build_tetra,
    conjugacy_count,
    is_small_tetra,
    stringy_euler_tetra,
)


def test_params_validation():
    with pytest.raises(BadParams):
        TetraParams(4, 2)  # gcd != 1
    with pytest.raises(BadParams):
        TetraParams(3, 5)  # q >= d
    with pytest.raises(BadParams):
        TetraParams(0, 0)
    p = TetraParams(1, 0)
    assert p.order == 3


def test_order_formula():
    for d in range(1, 9):
        for q in range(d) if d > 1 else (0,):
            if math.gcd(d, q) != 1:
                continue
            t = build_tetra(d, q)
            dp = math.gcd(d, q**3 + 1)
            assert len(t.elements) == 3 * d**3 // dp


def test_elements_match_the_parametrisation():
    # every diag(xi^(jq+k), xi^(i+kq), xi^(iq+j)) with every shift, by brute force
    for d in range(1, 13):
        for q in range(d) if d > 1 else (0,):
            if math.gcd(d, q) != 1:
                continue
            want = {
                (a, ((j * q + k) % d, (i + k * q) % d, (i * q + j) % d))
                for i in range(d)
                for j in range(d)
                for k in range(d)
                for a in range(3)
            }
            assert build_tetra(d, q).elements == tuple(sorted(want))


def test_group_axioms_spot():
    rng = random.Random(9)
    t = build_tetra(5, 4)
    els = t.elements
    e = (0, (0, 0, 0))
    for _ in range(60):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert t.mul(t.mul(a, b), c) == t.mul(a, t.mul(b, c))
        assert t.mul(a, t.inv(a)) == e
        assert t.mul(e, a) == a


def test_smallness_matches_divisibility():
    for d in range(1, 9):
        for q in range(d) if d > 1 else (0,):
            if math.gcd(d, q) != 1:
                continue
            t = build_tetra(d, q)
            # is_small_tetra internally asserts scan == formula
            assert is_small_tetra(t) == ((q**3 + 1) % d == 0)


def test_conjugacy_counts():
    expected = {(1, 0): 3, (2, 1): 4, (3, 2): 11, (7, 3): 35}
    for (d, q), want in expected.items():
        assert conjugacy_count(build_tetra(d, q)) == want


def test_stringy_equals_conjugacy():
    for d, q in [(1, 0), (2, 1), (3, 2), (4, 3), (7, 3), (9, 2)]:
        t = build_tetra(d, q)
        assert stringy_euler_tetra(t) == conjugacy_count(t)
        beta = math.gcd(d, q * q - q + 1)
        assert stringy_euler_tetra(t) == (d * d + 8 * beta) // 3


def test_stringy_rejects_nonsmall():
    t = build_tetra(5, 2)  # 5 does not divide 9
    with pytest.raises(NotSmall):
        stringy_euler_tetra(t)


def test_invariant_arithmetic():
    t = TetraParams(7, 3)
    assert t.alpha == math.gcd(7, 4) == 1
    assert t.beta == math.gcd(7, 7) == 7
    assert t.gamma_c == t.alpha * t.beta // 7 == 1
    u = TetraParams(3, 2)
    assert u.alpha == 3 and u.beta == 3 and u.gamma_c == 3


def test_small_member():
    assert TetraParams(5, 2).small_member() == TetraParams(1, 0)
    assert TetraParams(13, 4).small_member() == TetraParams(13, 4)
    for d in range(1, 14):
        for q in range(d) if d > 1 else (0,):
            if math.gcd(d, q) == 1:
                assert TetraParams(d, q).small_member().is_small_formula


def _conjugacy_count_all_conjugators(t) -> int:
    """Reference: partition G by conjugating each new representative by
    every element of G, O(|G| * #classes)."""
    elements = t.elements
    assigned = set()
    count = 0
    for g in elements:
        if g in assigned:
            continue
        count += 1
        for c in elements:
            assigned.add(t.mul(t.mul(c, g), t.inv(c)))
    return count


def test_conjugacy_count_matches_all_conjugators():
    pairs = [
        (d, q)
        for d in range(1, 14)
        for q in (range(d) if d > 1 else (0,))
        if math.gcd(d, q) == 1 and TetraParams(d, q).order <= 600
    ]
    assert len(pairs) == 26
    assert sum(not TetraParams(d, q).is_small_formula for d, q in pairs) == 7
    for d, q in pairs:
        t = build_tetra(d, q)
        assert conjugacy_count(t) == _conjugacy_count_all_conjugators(t), (d, q)


def test_stringy_d31_pinned(capsys):
    assert main(["tetra", "--d", "31", "--q", "30", "--stringy"]) == 0
    assert capsys.readouterr().out == "323\nconjugacy classes: 323 (match)\n"


def _conjugacy_count_all_conjugators_np(t) -> int:
    """The reference above with its products taken over all of G at once.

    The arrays hold the shifts j and the diagonals e of the elements, and
    the products transcribe ``TetraGroup.mul``/``inv``: (j1, e1)(j2, e2) =
    (j1 + j2, sigma^j2(e1) + e2), with sigma^1(u, v, w) = (w, u, v), and
    (j, e)^-1 = (-j, -sigma^-j(e)).  Each new representative g is
    conjugated by every c in G: c g c^-1.
    """
    np = pytest.importorskip("numpy")
    d = t.params.d
    rot = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]])  # row j: the indices of sigma^j
    js = np.array([j for j, _ in t.elements], dtype=np.int32)
    es = np.array([e for _, e in t.elements], dtype=np.int32).reshape(-1, 3)

    def mod_d(x):  # x mod d for 0 <= x < 2d
        return x - d * (x >= d)

    def code(j, e):
        return j * d**3 + e @ np.array([d * d, d, 1], dtype=np.int32)

    ij = (-js) % 3
    flat = np.arange(len(js))[:, None] * 3 + rot[ij]  # sigma^-j(e) row by row, on e.ravel()
    ie = (-es.ravel()[flat]) % d  # c^-1 = (ij, ie) for every c = (j, e)
    index = np.full(3 * d**3, -1)
    index[code(js, es)] = np.arange(len(js))
    assigned = np.zeros(len(js), dtype=bool)
    count = 0
    for i in range(len(js)):
        if assigned[i]:
            continue
        count += 1
        cg_j, cg_e = (js + js[i]) % 3, mod_d(es[:, rot[js[i]]] + es[i])
        image = index[code((cg_j + ij) % 3, mod_d(cg_e.ravel()[flat] + ie))]
        assert (image >= 0).all(), "conjugate outside G"
        assigned[image] = True
    return count


def _small_members(dmax):
    return [
        (d, q)
        for d in range(1, dmax + 1)
        for q in (range(d) if d > 1 else (0,))
        if math.gcd(d, q) == 1 and (q**3 + 1) % d == 0
    ]


def test_array_reference_matches_the_reference():
    pytest.importorskip("numpy")
    # small members, and non-small ones whose classes meet the shifts unevenly
    for d, q in _small_members(9) + [(13, 4), (5, 2), (6, 1), (4, 1)]:
        t = build_tetra(d, q)
        assert _conjugacy_count_all_conjugators_np(t) == _conjugacy_count_all_conjugators(t), (d, q)


def test_conjugacy_count_on_every_small_member_to_d40():
    pytest.importorskip("numpy")
    members = _small_members(40)
    assert len(members) == 72
    for d, q in members:
        t = build_tetra(d, q)
        assert conjugacy_count(t) == _conjugacy_count_all_conjugators_np(t), (d, q)


# The TetraGroup.mul calls conjugacy_count may make on G(31, 30), order
# 2883.  Conjugating every element by each of the four generators made
# 8 |G| = 23,064; reading each conjugation's affine map off six
# conjugations, for each of the two generators it conjugates by, makes
# 2 * 6 * 2 = 24, whatever the order.
CONJUGACY_MULS = 24


def test_conjugacy_count_makes_no_product_per_element(monkeypatch):
    calls = []
    mul = TetraGroup.mul

    def counted(self, a, b):
        calls.append(None)
        return mul(self, a, b)

    t = build_tetra(31, 30)
    monkeypatch.setattr(TetraGroup, "mul", counted)
    assert conjugacy_count(t) == 323
    assert 0 < len(calls) <= CONJUGACY_MULS


def test_conjugacy_count_is_the_closed_form_to_d60():
    """The orbit search under B and one diagonal generator against the
    closed form (d^2 + 8 beta)/3 on every small member with d <= 60."""
    members = _small_members(60)
    for d, q in members:
        assert conjugacy_count(build_tetra(d, q)) == (d * d + 8 * TetraParams(d, q).beta) // 3, (d, q)
    assert len(members) > 72
