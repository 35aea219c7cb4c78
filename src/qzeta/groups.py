"""Finite abelian groups acting diagonally on affine space.

An action of type ``(d_1, ..., d_r; A)`` is generated by the diagonal
matrices ``diag(xi_{d_j}^{a_j1}, ..., xi_{d_j}^{a_jn})`` for each row
``a_j`` of ``A``.  Everything is stored over the common exponent
``dExp = lcm(d_j)``: a group element is the vector of its character
exponents ``eps_i`` mod dExp, so the generator for row ``j`` is
``a_j * (dExp / d_j) mod dExp``.  The elements are kept as n integer
columns, one list per coordinate (:meth:`GroupAction.columns`); the sorted
tuples of :meth:`GroupAction.elements` are made only when asked for.

Every subgroup is built by one coset walk (``_walk``): each generator adds
the cosets of the span so far by its multiples, up to the first multiple
already in it, so each element is made once whatever the presentation.
Membership is read off integer codes of the vectors (``_codes``).  Ages
are summed down the columns (``_dot``), here and in ``zetacore``, and the
quasi-reflections found by the zero count of each element
(``_zero_counts``).  ``small_reduce`` walks each quotient's image once and
presents it by greedy generators, one walk each; their last span is the
reduced action's columns, so no element is walked twice.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain, compress, count, filterfalse, islice, repeat
from operator import add, eq, floordiv, mod, mul
from typing import Iterable

from .motpoly import MAX_DIGITS

# The largest order an action may have, taken exactly from its generators
# (see _order) before anything is enumerated.  The budget is about 10 s and
# 1 GB for one `group` command.  Measured per command with --json, two runs
# (with the bound raised where needed) each in a fresh interpreter, on 2
# shared vCPUs (CPython 3.11.7), with the measures written in slices:
# "(10^5;1,3)" 0.18-0.20 s and 36 MB, the non-small "(2*10^5;1,2,2,2)"
# 0.96-0.99 s and 126 MB, and, with the bound raised, "(10^6;1,3)"
# 1.3-1.7 s and 202 MB and "(5*10^5;1,2,2,2)" 2.3-2.8 s and 288 MB.
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


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of n > 0, with no str() of n.

    k = floor(bit_length * log10(2)) is log10(2^bit_length) rounded down,
    and 2^(bit_length - 1) <= n < 2^bit_length, so n has k or k + 1 digits."""
    k = int(n.bit_length() * math.log10(2))
    return k + (n >= 10**k)


class SizeLimit(ValueError):
    """The requested enumeration is over the hard size bound."""


class NotSmall(ValueError):
    """The action has a quasi-reflection (an element fixing a hyperplane)."""


class GroupAction:
    """A finite abelian diagonal action of type (d_1,...,d_r; A)."""

    __slots__ = ("orders", "rows", "n", "d_exp", "_cols", "_elements", "_canon")

    def __init__(
        self,
        orders: Iterable[int],
        rows: Iterable[Iterable[int]],
        n: int | None = None,
    ):
        orders = tuple(int(d) for d in orders)
        rows = tuple(tuple(int(a) for a in row) for row in rows)
        if len(orders) != len(rows):
            raise ValueError(
                "%d cyclic orders need as many generator rows, got %d" % (len(orders), len(rows))
            )
        if any(d <= 0 for d in orders):
            raise ValueError("cyclic orders must be positive")
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("generator rows must all have the same length")
            n_rows = widths.pop()
            if n is not None and n != n_rows:
                raise ValueError("generator rows have length %d, dimension is %d" % (n_rows, n))
            n = n_rows
        if n is None or n <= 0:
            raise ValueError("dimension must be a positive integer")
        self.orders = orders
        self.rows = rows
        self.n = n
        self.d_exp = reduce(math.lcm, orders, 1)
        self._cols = None
        self._elements = None
        self._canon = None
        order = self.order
        if order > SIZE_LIMIT:
            digits = _decimal_digits(order)
            if digits > MAX_DIGITS:
                # str() of the order would itself fail; give its length
                raise SizeLimit("refusing to enumerate a %d-digit number of tuples" % digits)
            raise SizeLimit("refusing to enumerate %d tuples" % order)

    # -- constructors -----------------------------------------------------

    @classmethod
    def cyclic(cls, d: int, exps: Iterable[int]) -> "GroupAction":
        return cls((d,), (tuple(exps),))

    @classmethod
    def trivial(cls, n: int) -> "GroupAction":
        return cls((1,), ((0,) * n,))

    @classmethod
    def _from_columns(cls, cols: list[list[int]], d_exp: int, n: int) -> "GroupAction":
        """Present a subgroup by a greedy generating set: in sorted order,
        each vector not yet in the span becomes a generator.

        ``cols`` holds the subgroup as n columns of entries in [0, d_exp),
        each vector once.  It must be closed under addition, hold 0 and have
        exponent exactly ``d_exp``, as a ``_walk`` output does when ``d_exp``
        and all the entries of its generators have gcd 1.  The greedy vectors
        are then the action's generators on ``d_exp`` itself, which
        :meth:`columns` would walk in the same order from {0}; so the last
        greedy span is kept as the action's columns, and no element is
        walked or coded twice.
        """
        codes = _codes(cols, d_exp)
        gens: list[tuple[int, ...]] = []
        span = [[0]] * n
        # the span lies in the closed set, so it is the whole set once it is
        # as large; codes order as the vectors do, so the least code outside
        # the span is the next vector a walk in sorted order would take
        while len(span[0]) < len(codes):
            have = set(_codes(span, d_exp))
            i = codes.index(min(filterfalse(have.__contains__, codes)))
            gens.append(tuple(col[i] for col in cols))
            span = _walk(span, gens[-1], d_exp)
        orders = [d_exp // math.gcd(d_exp, *vec) for vec in gens]
        # d_exp // order divides every entry of its vector
        rows = [tuple(v // (d_exp // order) for v in vec) for order, vec in zip(orders, gens)]
        act = cls(orders, rows, n) if rows else cls.trivial(n)
        assert act.d_exp == d_exp and act.order == len(codes)
        act._cols = span
        return act

    # -- enumeration -------------------------------------------------------

    def _generators(self) -> list[tuple[int, ...]]:
        """The generator rows as exponent vectors mod d_exp."""
        d = self.d_exp
        return [
            tuple(a * (d // order) % d for a in row) for order, row in zip(self.orders, self.rows)
        ]

    def columns(self) -> list[list[int]]:
        """The elements as n columns: entry k of column i is coordinate i
        of the k-th element, each element once, in the walk's order.  The
        lists are cached and shared, so callers only read them.

        The generators are folded in one at a time by ``_walk``, so each
        element is built once, whatever the presentation.
        """
        if self._cols is None:
            cols = [[0]] * self.n
            for gen in self._generators():
                cols = _walk(cols, gen, self.d_exp)
            self._cols = cols
        return self._cols

    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All distinct exponent vectors mod d_exp, sorted: the tuple view
        of :meth:`columns`, made on the first call."""
        if self._elements is None:
            self._elements = tuple(sorted(zip(*self.columns())))
        return self._elements

    @property
    def order(self) -> int:
        """The number of elements, with none enumerated (see ``_order``)."""
        return _order(self._generators(), self.d_exp, self.n)

    def exponent(self) -> int:
        """The least common multiple of the element orders.

        Every element is a sum of multiples of the generators, so the gcd
        of d_exp with all element entries is its gcd with the generator
        entries, each row scaled by d_exp // order; no element is made.
        """
        return self.d_exp // math.gcd(self.d_exp, *chain(*self._generators()))

    def canonical(self) -> tuple[int, frozenset]:
        """(exponent, exponent vectors rescaled to it) -- presentation-free."""
        if self._canon is None:
            cols = self.columns()
            g = math.gcd(self.d_exp, *(math.gcd(*col) for col in cols))
            self._canon = (
                self.d_exp // g,
                frozenset(zip(*(map(floordiv, col, repeat(g)) for col in cols))),
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


def _order(gens: list[tuple[int, ...]], d: int, n: int) -> int:
    """The order of the subgroup of (Z/d)^n generated by ``gens``: d^n over
    the index in Z^n of the lattice spanned by the generators and d * Z^n,
    the product of the pivots of its Hermite normal form.  The form is made
    a column at a time by Euclid's algorithm on the rows nonzero there and
    the row d * e_col; the rows d * e_j of later columns stay implicit, so
    entries there are reduced mod d.  A column with a pivot below d at
    least doubles the order, so at most log2(order) columns cost more than
    a scan of the rows."""
    rows = [list(g) for g in gens if any(g)]
    order = 1
    for col in range(n):
        live = [r for r in rows if r[col]]
        if not live:
            continue
        unit = [0] * n
        unit[col] = d
        rows.append(unit)
        live.append(unit)
        while len(live) > 1:
            piv = min(live, key=lambda r: r[col])
            for r in live:
                if r is not piv:
                    q = r[col] // piv[col]
                    r[col] -= q * piv[col]
                    for j in range(col + 1, n):
                        r[j] = (r[j] - q * piv[j]) % d
            live = [r for r in live if r[col]]
        (piv,) = live
        order *= d // piv[col]
        rows = [r for r in rows if r is not piv and any(r)]
    return order


def _codes(cols: list[list[int]], d: int) -> list[int]:
    """The code (..(v_0 d + v_1) d + ..) d + v_(n-1) of each vector v with
    entries in [0, d), made down the columns.  Distinct vectors have
    distinct codes, which order as the vectors do.

    Neighbouring runs of columns are merged pairwise, the left one scaled
    by d to the width of the right, so a code of n entries is made by
    log2(n) rounds of products of balanced size, not by n - 1 products on
    an ever longer number."""
    parts = [(col, d) for col in cols]  # (codes of a run, d^(run width))
    while len(parts) > 1:
        merged = [
            (list(map(add, map(mul, a, repeat(scale_b)), b)), scale_a * scale_b)
            for (a, scale_a), (b, scale_b) in zip(parts[::2], parts[1::2])
        ]
        parts = merged + parts[2 * len(merged):]
    return parts[0][0]


def _walk(cols: list[list[int]], gen: tuple[int, ...], d_exp: int) -> list[list[int]]:
    """The columns of the subgroup generated by the subgroup held in
    ``cols`` and ``gen``.

    It is the union of the cosets span + j*gen for j = 0, 1, ..., k - 1,
    where k*gen is the first multiple of ``gen`` in the span, found by its
    code.  Those cosets are disjoint, so each element is made once.  The
    order o of ``gen`` is k times the order of k*gen, so o <= k*|span|:
    making all o multiples costs no more than the result.  Every column is
    built by ``map``, so no Python code runs per element.
    """
    o = d_exp // math.gcd(d_exp, *gen)
    mult_cols = [list(map(mod, range(0, a * o, a), repeat(d_exp))) if a else [0] * o for a in gen]
    size = len(cols[0])
    if size == 1:  # the span is {0}: the multiples are the elements, no sums needed
        return mult_cols
    have = set(_codes(cols, d_exp))
    k = next(compress(count(1), map(have.__contains__, islice(_codes(mult_cols, d_exp), 1, None))), o)
    # column i of the cosets: the span's column i, k times over, plus entry
    # i of j*gen repeated |span| times for each j < k
    return [
        list(map(
            mod,
            map(add, chain.from_iterable(repeat(col, k)), chain.from_iterable(map(repeat, mcol[:k], repeat(size)))),
            repeat(d_exp),
        ))
        for col, mcol in zip(cols, mult_cols)
    ]


def _dot(cols: list[list[int]], ks: Iterable[int]) -> Iterable[int]:
    """sum_i k_i * v_i for each element v, made down the columns; a column
    with k_i = 0 is skipped, and one with k_i = 1 is added as it is."""
    acc = None
    for k, col in zip(ks, cols):
        if k:
            term = col if k == 1 else map(mul, col, repeat(k))
            acc = term if acc is None else list(map(add, acc, term))
    return repeat(0, len(cols[0])) if acc is None else acc


def _zero_counts(cols: list[list[int]]) -> Iterable[int]:
    """The number of zero entries of each element, one at a time.  ``zip``
    reuses its tuple once ``count`` lets go of it, so no vector is kept."""
    return map(tuple.count, zip(*cols), repeat(0))


def is_small(g: GroupAction) -> bool:
    """No nontrivial element fixes a hyperplane pointwise.

    For a diagonal action that means: no element has exactly n-1 zero
    exponents.
    """
    return g.n - 1 not in _zero_counts(g.columns())


def small_reduce(g: GroupAction) -> tuple[GroupAction, tuple[int, ...]]:
    """Quotient out the quasi-reflections.

    Returns ``(reduced, m)`` where coordinate i of the original space maps
    to its m_i-th power; the reduced action is small and has the same
    quotient space, and a small ``g`` is returned itself.  Each pass
    divides by the subgroup acting on a single coordinate; passes repeat
    until no quasi-reflection is left.

    A pass maps the current action's generators only, x_i -> m_i x_i and
    then each entry divided by g0, the gcd of d_exp and every image entry
    (an element is a sum of generator multiples, so its entries add
    nothing to that gcd).  The image is the subgroup those vectors span:
    one ``_walk`` per generator makes each of its elements once, and
    :meth:`GroupAction._from_columns` presents it by greedy generators,
    one walk each, whose last span is the reduced action's columns.
    """
    n = g.n
    cur = g
    m_total = [1] * n
    while True:
        cols = cur.columns()
        # the places of the quasi-reflections: a quasi-reflection is nonzero
        # on one axis only, so coordinate i of the others adds nothing to
        # the gcd that gives the axis order
        refl = list(compress(count(), map(eq, _zero_counts(cols), repeat(n - 1))))
        if not refl:
            break
        d = cur.d_exp
        m_pass = [d // math.gcd(d, *map(col.__getitem__, refl)) for col in cols]
        gens = [tuple(mi * a % d for mi, a in zip(m_pass, gen)) for gen in cur._generators()]
        g0 = math.gcd(d, *chain(*gens))
        d //= g0
        image = [[0]] * n
        for gen in gens:
            image = _walk(image, tuple(a // g0 for a in gen), d)
        cur = GroupAction._from_columns(image, d, n)
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
        toks = [tok.strip() for tok in seg.split(",")]
        # as in a strata file, an optional "-" and ASCII digits: int() alone
        # would also read "+7", "1_0" and the digits of other scripts
        if all(tok.isascii() and tok.removeprefix("-").isdigit() for tok in toks):
            try:
                return tuple(map(int, toks))
            except ValueError:  # over the 4300 digits int() reads
                pass
        raise ValueError("bad integer in group literal %r" % text)

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
