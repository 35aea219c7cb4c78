"""Finite abelian groups acting diagonally on affine space.

An action of type ``(d_1, ..., d_r; A)`` is generated by the diagonal
matrices ``diag(xi_{d_j}^{a_j1}, ..., xi_{d_j}^{a_jn})`` for each row
``a_j`` of ``A``.  Everything is stored over the common exponent
``dExp = lcm(d_j)``: a group element is the vector of its character
exponents ``eps_i`` mod dExp, so the generator for row ``j`` is
``a_j * (dExp / d_j) mod dExp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

Rat = Fraction

SIZE_LIMIT = 10**7

__all__ = [
    "GroupElement",
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


@dataclass(frozen=True)
class GroupElement:
    """A diagonal element, stored by its exponent vector mod d_exp."""

    eps: tuple[int, ...]
    d_exp: int

    @property
    def n(self) -> int:
        return len(self.eps)

    def zero_coords(self) -> int:
        return sum(1 for e in self.eps if e == 0)

    def age(self, k: Sequence[Rat]) -> Fraction:
        """(1/d_exp) * sum k_i * eps_i  (the k-weighted age)."""
        return sum(
            (Fraction(ki) * ei for ki, ei in zip(k, self.eps, strict=True)),
            Fraction(0),
        ) / self.d_exp

    def weight(self, k: Sequence[Rat]) -> Fraction:
        """Like age but zero exponents count as d_exp instead of 0."""
        return sum(
            (
                Fraction(ki) * (ei if ei else self.d_exp)
                for ki, ei in zip(k, self.eps, strict=True)
            ),
            Fraction(0),
        ) / self.d_exp

    def inverse(self) -> "GroupElement":
        return GroupElement(
            tuple((-e) % self.d_exp for e in self.eps), self.d_exp
        )


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
        prod = 1
        for d in orders:
            prod *= d
        if prod > SIZE_LIMIT:
            raise SizeLimit("refusing to enumerate %d tuples" % prod)
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
        """Present an explicit subgroup by a greedy generating set."""
        want = {tuple(v % d_exp for v in vec) for vec in vectors}
        want.add((0,) * n)
        gens: list[tuple[int, ...]] = []
        span = {(0,) * n}
        for vec in sorted(want):
            if vec in span:
                continue
            gens.append(vec)
            span = _close(span | {vec}, d_exp)
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
        act = cls(orders, rows, n)
        assert set(e.eps for e in act.elements()) == want
        return act

    # -- enumeration -------------------------------------------------------

    def elements(self) -> tuple[GroupElement, ...]:
        """All distinct elements, sorted by exponent vector."""
        if self._elements is None:
            gens = [
                tuple((a * (self.d_exp // d)) % self.d_exp for a in row)
                for d, row in zip(self.orders, self.rows)
            ]
            vecs = _close({(0,) * self.n} | set(gens), self.d_exp)
            self._elements = tuple(
                GroupElement(v, self.d_exp) for v in sorted(vecs)
            )
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements())

    def exponent(self) -> int:
        g = reduce(
            math.gcd, (math.gcd(self.d_exp, *e.eps) for e in self.elements())
        )
        return self.d_exp // g

    def canonical(self) -> tuple[int, frozenset]:
        """(exponent, exponent vectors rescaled to it) -- presentation-free."""
        if self._canon is None:
            vecs = [e.eps for e in self.elements()]
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


def _close(seed: set, d_exp: int) -> set:
    """Closure of a vector set under addition mod d_exp (BFS)."""
    seen = set(seed)
    frontier = list(seed)
    gens = sorted(seed)
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % d_exp for a, b in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def is_small(g: GroupAction) -> bool:
    """No nontrivial element fixes a hyperplane pointwise.

    For a diagonal action that means: no element has exactly n-1 zero
    exponents.
    """
    n = g.n
    return not any(e.zero_coords() == n - 1 for e in g.elements())


def small_reduce(g: GroupAction) -> tuple[GroupAction, tuple[int, ...]]:
    """Quotient out the quasi-reflections.

    Returns ``(reduced, m)`` where coordinate i of the original space maps
    to its m_i-th power; the reduced action is small and has the same
    quotient space.  Each pass divides by the subgroup acting on a single
    coordinate; passes repeat until no quasi-reflection is left.
    """
    cur = g
    m_total = [1] * g.n
    while not is_small(cur):
        d = cur.d_exp
        elems = [e.eps for e in cur.elements()]
        m_pass = []
        for i in range(cur.n):
            axis = [v[i] for v in elems if all(x == 0 for j, x in enumerate(v) if j != i)]
            sub = reduce(math.gcd, axis, d)
            m_pass.append(d // math.gcd(d, sub))
        vecs = {
            tuple((mi * x) % d for mi, x in zip(m_pass, v)) for v in elems
        }
        g0 = reduce(math.gcd, (reduce(math.gcd, v, 0) for v in vecs), d)
        new_d = d // g0
        vecs = {tuple(x // g0 for x in v) for v in vecs}
        cur = GroupAction.from_elements(vecs, new_d, cur.n)
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
