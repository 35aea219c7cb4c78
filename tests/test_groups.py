from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from qzeta.cli import _group_report
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
from qzeta.symring import json_dump
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
    # an optional "-" and ASCII digits, as in a strata file; int() alone
    # would read the first three as 10, 7 and 3
    for bad in ("(1_0;1,3)", "(+7;1,3)", "(\u0663;1,2)", "(7;1,\u00b3)", "(7;1,- 3)"):
        with pytest.raises(ValueError, match="bad integer in group literal"):
            parse_group_literal(bad)
    assert parse_group_literal(" ( 7 ; -1 , 10 ) ") == GroupAction.cyclic(7, (6, 3))


def test_size_limit():
    with pytest.raises(SizeLimit):
        GroupAction((10**4, 10**4), ((1, 0), (0, 1)), 2)


def test_size_limit_bounds_the_exact_order():
    # the product of the cyclic orders is 10^6, the order 1000
    g = GroupAction((1000, 1000), ((1, 1), (1, 1)), 2)
    assert g.order == 1000 and g._elements is None
    assert len(g.elements()) == 1000
    # one wide row: the order is read without a quadratic table of rows
    wide = GroupAction((4,), ((3, 1) * 5000,))
    assert wide.order == 4 and wide._elements is None


def test_exact_order_matches_enumeration():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def actions(draw):
        n = draw(st.integers(1, 4))
        orders = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
        rows = [draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n)) for _ in orders]
        return GroupAction(orders, rows, n)

    @hyp.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hyp.given(actions())
    def check(g):
        assert g.order == len(g.elements())

    check()


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


# The column-wise kernels against per-element loops: enumeration against
# every sum of generator multiples, the quasi-reflection scan and the
# measures as they were binned one element at a time, and the reduction
# against the reference above.


def _sum_closure(g: GroupAction) -> tuple:
    """Every sum of multiples k_j * gen_j, k_j below the order of row j, sorted."""
    d = g.d_exp
    gens = g._generators()
    return tuple(sorted({
        tuple(sum(k * gen[i] for k, gen in zip(ks, gens)) % d for i in range(g.n))
        for ks in itertools.product(*(range(o) for o in g.orders))
    }))


def _loop_s_g_sum(g: GroupAction, Nvec, nuvec) -> MotPoly:
    """S_G summed one element at a time on Fraction ages."""
    acc: dict = {}
    for eps in _sum_closure(g):
        key = (
            -sum(F(N) * e for N, e in zip(Nvec, eps)) / g.d_exp,
            sum(F(nu) * e for nu, e in zip(nuvec, eps)) / g.d_exp,
            (),
        )
        acc[key] = acc.get(key, 0) + 1
    return MotPoly(acc)


def _loop_measures(g: GroupAction, reduced: GroupAction) -> tuple[MotPoly, MotPoly]:
    r = reduced.d_exp
    gor: dict = {}
    for eps in _sum_closure(reduced):
        key = (0, sum(eps) - g.n * r, ())
        gor[key] = gor.get(key, 0) + 1
    r = g.d_exp
    orb: dict = {}
    for eps in _sum_closure(g):
        key = (0, -sum(e or r for e in eps), ())
        orb[key] = orb.get(key, 0) + 1
    return MotPoly.from_lattice(gor, reduced.d_exp), MotPoly.from_lattice(orb, r)


def test_column_kernels_match_per_element_loops():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def actions(draw):
        n = draw(st.integers(1, 4))
        entries = st.one_of(st.just(0), st.integers(-30, 30))
        orders = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
        rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in orders]
        if len(orders) < 3 and draw(st.booleans()):
            # a redundant row: a multiple of a row already there
            j = draw(st.integers(0, len(orders) - 1))
            k = draw(st.integers(0, 5))
            orders.append(orders[j])
            rows.append([k * a for a in rows[j]])
        return GroupAction(orders, rows, n)

    seen = {"nonsmall": 0, "redundant": 0}

    @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hyp.given(actions(), st.integers(0, 2**32))
    def check(g, seed):
        elems = _sum_closure(g)
        cols = g.columns()
        # each element once, in n columns as long as the order
        assert len(cols) == g.n and {len(col) for col in cols} == {g.order}
        assert len(set(zip(*cols))) == g.order and set(zip(*cols)) == set(elems)
        assert g.elements() == elems
        # fractional data from a seeded Random: N >= 0 and nu > 0
        rng = random.Random(seed)
        Nvec = [F(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(g.n)]
        nuvec = [F(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(g.n)]
        assert s_g_sum(g, Nvec, nuvec) == _loop_s_g_sum(g, Nvec, nuvec)
        assert is_small(g) == (not any(v.count(0) == g.n - 1 for v in elems))
        reduced, m = small_reduce(g)
        assert (group_literal(reduced), m) == _ref_small_reduce(g.orders, g.rows, g.n)
        gor, orb = _loop_measures(g, reduced)
        assert gor_measure_origin(g, reduced).lattice() == gor.lattice()
        assert orb_measure_origin(g).lattice() == orb.lattice()
        seen["nonsmall"] += not is_small(g)
        seen["redundant"] += len(elems) < math.prod(g.orders)

    check()
    assert seen["nonsmall"] > 50 and seen["redundant"] > 50


def _seeded_action(rng: random.Random, shape: str) -> GroupAction:
    """A seeded action of rank 1-3 on 1-4 coordinates, or, for ``shape ==
    "enum"``, the benchmark's rank-2 shape: Z/d1 x Z/d2 with d1 and d2
    coprime, one row of units mod d1 and one reflection row, a unit mod d2
    on one axis."""
    n = rng.randint(1, 4)
    if shape == "enum":
        while True:
            d1, d2 = rng.randint(2, 24), rng.randint(2, 12)
            if math.gcd(d1, d2) == 1:
                break
        units = [a for a in range(1, d1) if math.gcd(a, d1) == 1]
        reflection = [0] * n
        reflection[rng.randrange(n)] = rng.choice([a for a in range(1, d2) if math.gcd(a, d2) == 1])
        return GroupAction((d1, d2), ([rng.choice(units) for _ in range(n)], reflection), n)
    orders = [rng.randint(1, 12) for _ in range(rng.randint(1, 3))]
    rows = [[rng.choice((0, rng.randint(-30, 30))) for _ in range(n)] for _ in orders]
    return GroupAction(orders, rows, n)


def test_measures_and_reduction_on_seeded_actions():
    """The orbifold measure is the age measure of the action itself, equal to
    the weight sum; a report holds one object for both measures exactly
    when the action is small, and writes the JSON the weight sum writes;
    the reduction of each pass's generator images agrees with the
    reference."""
    rng = random.Random(25)
    seen = {"small": 0, "nonsmall": 0, "enum": 0}
    for i in range(600):
        shape = "enum" if i % 3 == 0 else "rank"
        g = _seeded_action(rng, shape)
        reduced, m = small_reduce(g)
        assert (group_literal(reduced), m) == _ref_small_reduce(g.orders, g.rows, g.n)
        assert (reduced is g) == is_small(g)
        gor, orb = _loop_measures(g, reduced)
        assert orb_measure_origin(g).lattice() == orb.lattice()
        assert gor_measure_origin(g, reduced).lattice() == gor.lattice()
        rep = _group_report(group_literal(g))
        assert rep["small"] == is_small(g)
        assert (rep["gor_measure"] is rep["orb_measure"]) == rep["small"]
        assert rep["orb_measure"].lattice() == orb.lattice()
        assert json_dump(rep) == json_dump({**rep, "orb_measure": orb, "gor_measure": gor})
        seen["small" if rep["small"] else "nonsmall"] += 1
        seen["enum"] += shape == "enum" and not rep["small"]
    assert seen["small"] > 100 and seen["nonsmall"] > 250 and seen["enum"] == 200
