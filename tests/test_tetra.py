from __future__ import annotations

import math
import random

import pytest

from qzeta.cli import main
from qzeta.groups import NotSmall
from qzeta.tetra import (
    BadParams,
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
    e = t.identity
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
