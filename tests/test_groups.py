from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from qzeta.groups import (
    SIZE_LIMIT,
    GroupAction,
    NotSmall,
    SizeLimit,
    group_literal,
    is_small,
    parse_group_literal,
    small_reduce,
)
from qzeta.motpoly import MotPoly
from qzeta.zetacore import gor_measure_origin, orb_measure_origin, s_g_sum

L = MotPoly.L


def test_cyclic_enumeration():
    g = GroupAction.cyclic(7, (1, 3))
    eps = sorted(g.elements())
    assert eps == sorted(((j % 7, (3 * j) % 7) for j in range(7)))
    assert g.order == 7
    assert g.exponent() == 7


def test_cyclic_with_shared_factor():
    g = GroupAction.cyclic(4, (1, 2))
    assert sorted(g.elements()) == [(0, 0), (1, 2), (2, 0), (3, 2)]


def test_two_generator_products():
    # second generator lands inside the first one's subgroup
    g = GroupAction((4, 2), ((1, 2), (2, 0)), 2)
    assert g.order == 4
    # and one that genuinely enlarges it
    h = GroupAction((4, 2), ((1, 2), (0, 1)), 2)
    assert h.order == 8
    assert sorted(h.elements()) == [
        (0, 0), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2), (3, 0), (3, 2),
    ]


def test_ages_and_weights():
    g = GroupAction.cyclic(4, (1, 2))
    # weights of 1/4(1,2): 2, 3/4, 3/2, 5/4, zeros counting fully
    assert orb_measure_origin(g) == sum(
        (L(-w) for w in (F(3, 4), F(5, 4), F(3, 2), F(2))), MotPoly.zero()
    )
    # ages of (0,0), (2,0), (1,2), (3,2): 0, 1/2, 3/4, 5/4
    assert s_g_sum(g, (0, 0), (1, 1)) == sum(
        (L(a) for a in (0, F(1, 2), F(3, 4), F(5, 4))), MotPoly.zero()
    )


def test_weight_age_duality():
    # w(gamma) = n - age(gamma^-1), so on a small action the orbifold
    # measure sum L^-w equals the Gorenstein measure sum L^(age - n)
    rng = random.Random(5)
    for _ in range(250):
        n = rng.randint(1, 4)
        orders = [rng.randint(1, 10) for _ in range(rng.randint(1, 2))]
        rows = [[rng.randrange(o) for _ in range(n)] for o in orders]
        g, _m = small_reduce(GroupAction(orders, rows, n))
        assert is_small(g)
        assert orb_measure_origin(g) == gor_measure_origin(g)


def test_is_small():
    assert is_small(GroupAction.cyclic(2, (1, 1)))
    assert not is_small(GroupAction.cyclic(4, (1, 2)))  # (2,0) fixes a line
    assert is_small(GroupAction.cyclic(7, (1, 3)))
    assert is_small(GroupAction.trivial(3))


def test_small_reduce_412():
    g = GroupAction.cyclic(4, (1, 2))
    reduced, m = small_reduce(g)
    assert m == (2, 1)
    assert sorted(reduced.elements()) == [(0, 0), (1, 1)]
    assert is_small(reduced)
    assert reduced == GroupAction.cyclic(2, (1, 1))


def test_small_reduce_to_trivial():
    g = GroupAction((4, 2), ((1, 0), (0, 1)), 2)
    reduced, m = small_reduce(g)
    assert m == (4, 2)
    assert reduced.order == 1


def test_small_reduce_fixpoint_on_small():
    g = GroupAction.cyclic(7, (1, 3))
    reduced, m = small_reduce(g)
    assert m == (1, 1)
    assert reduced == g


def test_canonical_equality():
    # scaling every exponent by the overall gcd does not change the action
    assert GroupAction.cyclic(4, (2, 2)) == GroupAction.cyclic(2, (1, 1))
    assert GroupAction.cyclic(4, (1, 2)) != GroupAction.cyclic(2, (1, 1))
    assert hash(GroupAction.cyclic(4, (2, 2))) == hash(GroupAction.cyclic(2, (1, 1)))


def test_exponent_from_generators_matches_canonical():
    rng = random.Random(2000)
    for _ in range(2000):
        n = rng.randint(1, 4)
        orders = [rng.randint(1, 12) for _ in range(rng.randint(1, 3))]
        rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in orders]
        g = GroupAction(orders, rows, n)
        assert g.exponent() == g.canonical()[0]


def test_from_elements_below_the_given_exponent():
    g = GroupAction.from_elements([(2,)], 4, 1)
    assert g == GroupAction.cyclic(2, (1,))
    assert (g.d_exp, g.elements(), g.exponent()) == (2, ((0,), (1,)), 2)
    # any subgroup, handed over on a multiple of its exponent
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 3)
        orders = [rng.randint(1, 12) for _ in range(rng.randint(1, 2))]
        rows = [[rng.randrange(o) for _ in range(n)] for o in orders]
        g = GroupAction(orders, rows, n)
        k = rng.randint(1, 4)
        vecs = [tuple(x * k for x in v) for v in g.elements()]
        h = GroupAction.from_elements(vecs, g.d_exp * k, n)
        assert h == g and h.d_exp == g.exponent()


def test_literal_roundtrip():
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(1, 3)
        rank = rng.randint(1, 2)
        orders = [rng.randint(1, 9) for _ in range(rank)]
        rows = [[rng.randrange(o) for _ in range(n)] for o in orders]
        g = GroupAction(orders, rows, n)
        assert parse_group_literal(group_literal(g)) == g


def test_literal_parsing():
    g = parse_group_literal("(4,2; 1,2; 0,1)")
    assert g.order == 8
    assert parse_group_literal("(2;1,1)") == GroupAction.cyclic(2, (1, 1))
    for bad in ("4;1,2", "(4)", "(4; 1; 2)", "(4,2; 1,1)", "(0; 1)"):
        with pytest.raises(ValueError):
            parse_group_literal(bad)


def test_size_limit():
    with pytest.raises(SizeLimit):
        GroupAction((10**4, 10**4), ((1, 0), (0, 1)), 2)


def test_reduction_presentation_is_not_size_checked():
    # order 5278; the greedy presentation of its reduction has order 2639
    # but a product of orders of 240,149, over the size bound
    g = parse_group_literal("(13,29,14;0,6,11;11,22,22;0,2,5)")
    reduced, m = small_reduce(g)
    assert (group_literal(reduced), m) == ("(91,2639; 0,1,47; 91,8,103)", (1, 1, 2))
    assert reduced.order == 2639 < SIZE_LIMIT < math.prod(reduced.orders)


def test_not_small_is_exception_type():
    assert issubclass(NotSmall, Exception)


# Reference enumeration and reduction: closure of the generators under
# addition by breadth-first search, and the greedy presentation that takes
# the smallest vector not yet spanned, each span closed from scratch.


def _ref_close(seed: set, d: int) -> set:
    seen, frontier, gens = set(seed), list(seed), sorted(seed)
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % d for a, b in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _ref_elements(orders, rows, n) -> set:
    d = math.lcm(*orders)
    gens = {tuple(a * (d // o) % d for a in row) for o, row in zip(orders, rows)}
    return _ref_close({(0,) * n} | gens, d)


def _ref_small_reduce(orders, rows, n) -> tuple[str, tuple[int, ...]]:
    """(literal of the reduced action, m) by the reference routines."""
    m_total = [1] * n
    while True:
        d = math.lcm(*orders)
        elems = _ref_elements(orders, rows, n)
        if not any(v.count(0) == n - 1 for v in elems):
            break
        m_pass = []
        for i in range(n):
            axis = [v[i] for v in elems if all(x == 0 for j, x in enumerate(v) if j != i)]
            m_pass.append(d // math.gcd(d, math.gcd(d, *axis)))
        vecs = {tuple(mi * x % d for mi, x in zip(m_pass, v)) for v in elems}
        g0 = math.gcd(d, *(x for v in vecs for x in v))
        d //= g0
        vecs = {tuple(x // g0 for x in v) for v in vecs}
        span, orders, rows = {(0,) * n}, [], []
        for vec in sorted(vecs):
            if vec in span:
                continue
            span = _ref_close(span | {vec}, d)
            order = d // math.gcd(d, *vec)
            orders.append(order)
            rows.append(tuple(x // (d // order) for x in vec))
        assert span == vecs
        if not rows:
            orders, rows = [1], [(0,) * n]
        m_total = [a * b for a, b in zip(m_total, m_pass)]
    lit = "(%s; %s)" % (
        ",".join(map(str, orders)),
        "; ".join(",".join(str(a % o) for a in row) for o, row in zip(orders, rows)),
    )
    return lit, tuple(m_total)


def test_coset_walk_matches_reference():
    rng = random.Random(10)
    nonsmall = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        orders = [rng.randint(1, 12) for _ in range(rng.randint(1, 3))]
        rows = [[rng.randrange(o) for _ in range(n)] for o in orders]
        g = GroupAction(orders, rows, n)
        ref = _ref_elements(orders, rows, n)
        assert g.elements() == tuple(sorted(ref))
        d = math.lcm(*orders)
        assert g.exponent() == d // math.gcd(d, *(x for v in ref for x in v))
        reduced, m = small_reduce(g)
        assert (group_literal(reduced), m) == _ref_small_reduce(orders, rows, n)
        nonsmall += not is_small(g)
    assert nonsmall > 100
