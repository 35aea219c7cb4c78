"""Finite abelian groups acting diagonally on affine space.

An action of type ``(d_1, ..., d_r; A)`` is generated by the diagonal
matrices ``diag(xi_{d_j}^{a_j1}, ..., xi_{d_j}^{a_jn})`` for each row
``a_j`` of ``A``.  Everything is stored over the common exponent
``dExp = lcm(d_j)``: a group element is the vector of its character
exponents ``eps_i`` mod dExp, a plain tuple of ints, so the generator for
row ``j`` is ``a_j * (dExp / d_j) mod dExp``.

Every subgroup is built by one coset walk (``_span``): each generator adds
the cosets of the span so far by its multiples, up to the first multiple
already in it, so each element is made once whatever the presentation.
Ages and weights are read off the vectors where they are summed, in
``zetacore``.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable

# The largest product of cyclic orders an action may have: it bounds the
# group order before anything is enumerated.  The budget is about 10 s and
# 1 GB for one `group` command.  Measured per command on 2 shared vCPUs
# (CPython 3.11): "(10^5;1,3)" 0.8-1.1 s and 87 MB, "(10^6;1,3)" 9.9-11.7 s
# and 686 MB, the non-small "(5*10^5;1,2,2,2)" 11.4 s and 586 MB, and
# "(2*10^5;1,2,2,2)" 3.3 s and 290 MB with --json.
SIZE_LIMIT = 2 * 10**5

__all__ = [
    "GroupAction",
    "SizeLimit",
    "NotSmall",
    "is_small",
    "small_reduce",
    "parse_group_literal",
    "group_literal",
]


class SizeLimit(Exception):
    """The requested enumeration is over the hard size bound."""


class NotSmall(Exception):
    """The action has a quasi-reflection (an element fixing a hyperplane)."""


class GroupAction:
    """A finite abelian diagonal action of type (d_1,...,d_r; A)."""

    __slots__ = ("orders", "rows", "n", "d_exp", "_elements", "_canon")

    def __init__(
        self,
        orders: Iterable[int],
        rows: Iterable[Iterable[int]],
        n: int | None = None,
    ):
        orders = tuple(int(d) for d in orders)
        rows = tuple(tuple(int(a) for a in row) for row in rows)
        if len(orders) != len(rows):
            raise ValueError("need one generator row per cyclic order")
        if any(d <= 0 for d in orders):
            raise ValueError("cyclic orders must be positive")
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("generator rows must all have the same length")
            n_rows = widths.pop()
            if n is not None and n != n_rows:
                raise ValueError("row length disagrees with the given dimension")
            n = n_rows
        if n is None or n <= 0:
            raise ValueError("dimension must be a positive integer")
        prod = math.prod(orders)
        if prod > SIZE_LIMIT:
            raise SizeLimit("refusing to enumerate %d tuples" % prod)
        self._set(orders, rows, n)

    def _set(self, orders: tuple[int, ...], rows: tuple[tuple[int, ...], ...], n: int):
        self.orders = orders
        self.rows = rows
        self.n = n
        self.d_exp = reduce(math.lcm, orders, 1)
        self._elements = None
        self._canon = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def cyclic(cls, d: int, exps: Iterable[int]) -> "GroupAction":
        return cls((d,), (tuple(exps),))

    @classmethod
    def trivial(cls, n: int) -> "GroupAction":
        return cls((1,), ((0,) * n,))

    @classmethod
    def from_elements(
        cls, vectors: Iterable[tuple[int, ...]], d_exp: int, n: int
    ) -> "GroupAction":
        """Present an explicit subgroup by a greedy generating set: in
        sorted order, each vector not yet in the span becomes a generator.

        The action is stored over the subgroup's exact exponent, which may
        be a proper divisor of ``d_exp``: ``from_elements([(2,)], 4, 1)``
        is the action of type (2; 1).
        """
        want = {tuple(v % d_exp for v in vec) for vec in vectors}
        want.add((0,) * n)
        gens: list[tuple[int, ...]] = []
        span = {(0,) * n}
        for vec in sorted(want):
            if vec in span:
                continue
            gens.append(vec)
            span = _span(span, vec, d_exp)
        if span != want:
            raise ValueError("vector set is not closed under addition")
        orders = []
        rows = []
        for vec in gens:
            order = d_exp // math.gcd(d_exp, reduce(math.gcd, vec, 0))
            step = d_exp // order  # divides every entry of vec
            rows.append(tuple(v // step for v in vec))
            orders.append(order)
        if not rows:
            return cls.trivial(n)
        # No size check: the subgroup is enumerated already, and the product
        # of the greedy orders can exceed its order many times over.
        act = cls.__new__(cls)
        act._set(tuple(orders), tuple(rows), n)
        # on the exact exponent act.d_exp, each vector of want is divided by step
        step = d_exp // act.d_exp
        assert set(act.elements()) == {tuple(x // step for x in vec) for vec in want}
        return act

    # -- enumeration -------------------------------------------------------

    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All distinct exponent vectors mod d_exp, sorted.

        The generators are folded in one at a time by ``_span``, so each
        element is built once, whatever the presentation.
        """
        if self._elements is None:
            d = self.d_exp
            span = {(0,) * self.n}
            for order, row in zip(self.orders, self.rows):
                span = _span(span, tuple(a * (d // order) % d for a in row), d)
            self._elements = tuple(sorted(span))
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements())

    def exponent(self) -> int:
        """The least common multiple of the element orders.

        Every element is a sum of multiples of the generators, so the gcd
        of d_exp with all element entries is its gcd with the generator
        entries, each row scaled by d_exp // order; no element is made.
        """
        d = self.d_exp
        gens = (a * (d // order) for order, row in zip(self.orders, self.rows) for a in row)
        return d // math.gcd(d, *gens)

    def canonical(self) -> tuple[int, frozenset]:
        """(exponent, exponent vectors rescaled to it) -- presentation-free."""
        if self._canon is None:
            vecs = self.elements()
            g = reduce(math.gcd, (math.gcd(self.d_exp, *v) for v in vecs))
            self._canon = (
                self.d_exp // g,
                frozenset(tuple(x // g for x in v) for v in vecs),
            )
        return self._canon

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAction):
            return NotImplemented
        return self.n == other.n and self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.n, self.canonical()))

    def __repr__(self):
        return "GroupAction(%s)" % group_literal(self)


def _span(span: set, gen: tuple[int, ...], d_exp: int) -> set:
    """The subgroup generated by the subgroup ``span`` and ``gen``.

    It is the union of the cosets span + k*gen for k = 0, 1, ..., up to the
    first multiple of ``gen`` that lies in ``span``.  Those cosets are
    disjoint, so each element is made once.
    """
    mults = [(0,) * len(gen)]
    step = gen
    while step not in span:
        mults.append(step)
        step = tuple((a + b) % d_exp for a, b in zip(step, gen))
    if len(span) == 1:  # span is {0}: the multiples are the elements, no sums needed
        return set(mults)
    return {tuple((a + b) % d_exp for a, b in zip(v, k)) for k in mults for v in span}


def is_small(g: GroupAction) -> bool:
    """No nontrivial element fixes a hyperplane pointwise.

    For a diagonal action that means: no element has exactly n-1 zero
    exponents.
    """
    n = g.n
    return not any(v.count(0) == n - 1 for v in g.elements())


def small_reduce(g: GroupAction) -> tuple[GroupAction, tuple[int, ...]]:
    """Quotient out the quasi-reflections.

    Returns ``(reduced, m)`` where coordinate i of the original space maps
    to its m_i-th power; the reduced action is small and has the same
    quotient space.  Each pass divides by the subgroup acting on a single
    coordinate; passes repeat until no quasi-reflection is left.
    """
    n = g.n
    cur = g
    m_total = [1] * n
    while True:
        elems = cur.elements()
        # a quasi-reflection is nonzero on one axis only, so coordinate i
        # of the others adds nothing to the gcd that gives the axis order
        refl = [v for v in elems if v.count(0) == n - 1]
        if not refl:
            break
        d = cur.d_exp
        m_pass = [d // math.gcd(d, *(v[i] for v in refl)) for i in range(n)]
        vecs = {
            tuple((mi * x) % d for mi, x in zip(m_pass, v)) for v in elems
        }
        g0 = reduce(math.gcd, (reduce(math.gcd, v, 0) for v in vecs), d)
        new_d = d // g0
        vecs = {tuple(x // g0 for x in v) for v in vecs}
        cur = GroupAction.from_elements(vecs, new_d, n)
        m_total = [a * b for a, b in zip(m_total, m_pass)]
    return cur, tuple(m_total)


# ---------------------------------------------------------------------------
# literals: (d; a_1,...,a_n)  or  (d_1,...,d_r; row_1; ...; row_r)


def parse_group_literal(text: str) -> GroupAction:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError("group literal must be parenthesized: %r" % text)
    body = s[1:-1]
    segments = [seg.strip() for seg in body.split(";")]
    if len(segments) < 2:
        raise ValueError("group literal needs orders and generator rows: %r" % text)

    def ints(seg: str) -> tuple[int, ...]:
        if not seg:
            raise ValueError("empty number list in group literal %r" % text)
        try:
            return tuple(int(tok.strip()) for tok in seg.split(","))
        except ValueError:
            raise ValueError("bad integer in group literal %r" % text) from None

    orders = ints(segments[0])
    rows = [ints(seg) for seg in segments[1:]]
    if len(orders) == 1 and len(rows) != 1:
        raise ValueError("cyclic literal takes exactly one generator row")
    if len(rows) != len(orders):
        raise ValueError(
            "expected %d generator rows, got %d" % (len(orders), len(rows))
        )
    return GroupAction(orders, rows)


def group_literal(g: GroupAction) -> str:
    """Canonical literal for the stored presentation (entries mod order)."""
    orders = ",".join(str(d) for d in g.orders)
    rows = "; ".join(
        ",".join(str(a % d) for a in row) for d, row in zip(g.orders, g.rows)
    )
    return "(%s; %s)" % (orders, rows)
