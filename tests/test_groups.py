from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from qzeta.groups import (
    GroupAction,
    NotSmall,
    SizeLimit,
    group_literal,
    is_small,
    parse_group_literal,
    small_reduce,
)


def test_cyclic_enumeration():
    g = GroupAction.cyclic(7, (1, 3))
    eps = sorted(e.eps for e in g.elements())
    assert eps == sorted(((j % 7, (3 * j) % 7) for j in range(7)))
    assert g.order == 7
    assert g.exponent() == 7


def test_cyclic_with_shared_factor():
    g = GroupAction.cyclic(4, (1, 2))
    assert sorted(e.eps for e in g.elements()) == [(0, 0), (1, 2), (2, 0), (3, 2)]


def test_two_generator_products():
    # second generator lands inside the first one's subgroup
    g = GroupAction((4, 2), ((1, 2), (2, 0)), 2)
    assert g.order == 4
    # and one that genuinely enlarges it
    h = GroupAction((4, 2), ((1, 2), (0, 1)), 2)
    assert h.order == 8
    assert sorted(e.eps for e in h.elements()) == [
        (0, 0), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2), (3, 0), (3, 2),
    ]


def test_ages_and_weights():
    g = GroupAction.cyclic(4, (1, 2))
    by_eps = {e.eps: e for e in g.elements()}
    k = (F(1), F(1))
    assert by_eps[(1, 2)].age(k) == F(3, 4)
    assert by_eps[(0, 0)].age(k) == 0
    # weights of 1/4(1,2): 2, 3/4, 3/2, 5/4
    ws = sorted(e.weight(k) for e in g.elements())
    assert ws == [F(3, 4), F(5, 4), F(3, 2), F(2)]


def test_weight_age_duality():
    # w(gamma) + age(gamma^-1) = sum k_i, zeros counting fully on the w side
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 3)
        d = rng.randint(1, 10)
        g = GroupAction.cyclic(d, tuple(rng.randrange(d) for _ in range(n)))
        k = tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n))
        for gamma in g.elements():
            assert gamma.weight(k) + gamma.inverse().age(k) == sum(k)


def test_is_small():
    assert is_small(GroupAction.cyclic(2, (1, 1)))
    assert not is_small(GroupAction.cyclic(4, (1, 2)))  # (2,0) fixes a line
    assert is_small(GroupAction.cyclic(7, (1, 3)))
    assert is_small(GroupAction.trivial(3))


def test_small_reduce_412():
    g = GroupAction.cyclic(4, (1, 2))
    reduced, m = small_reduce(g)
    assert m == (2, 1)
    assert sorted(e.eps for e in reduced.elements()) == [(0, 0), (1, 1)]
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


def test_not_small_is_exception_type():
    assert issubclass(NotSmall, Exception)
