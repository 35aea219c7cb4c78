"""The trihedral family G(d, q) in GL(3, C).

G(d, q) is generated by the cyclic shift

    B = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

together with the diagonal matrices diag(xi^(jq+k), xi^(i+kq), xi^(iq+j))
for all i, j, k, where xi = exp(2 pi I / d).  Elements are stored as
``(shift, (u, v, w))`` meaning ``B^shift * diag(xi^u, xi^v, xi^w)``.

The group has order 3 d^3 / d' with d' = gcd(d, q^3 + 1), and acts without
quasi-reflexions exactly when d | q^3 + 1 (order 3 d^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, itemgetter, mod, mul, not_

from .groups import NotSmall, SizeLimit, _codes, _walk

# The largest group order build_tetra enumerates, checked before it starts.
# The budget is about 10 s and 1 GB for one `tetra --stringy`, whose
# conjugacy search costs most per element on the small members (order
# 3 d^2).  Measured per command, four runs (two with the bound raised) each
# in a fresh interpreter, on 2 shared vCPUs (CPython 3.11.7): --d 258
# --q 257 (order 199,692) 0.68-0.70 s and 88 MB, and, with the bound
# raised, --d 400 --q 399 (order 480,000) 1.9-2.1 s and 189 MB.
TETRA_SIZE_LIMIT = 2 * 10**5

__all__ = [
    "BadParams",
    "TetraParams",
    "TetraGroup",
    "build_tetra",
    "is_small_tetra",
    "conjugacy_count",
    "stringy_euler_tetra",
]


class BadParams(ValueError):
    """(d, q) outside the family's parameter domain."""


@dataclass(frozen=True)
class TetraParams:
    d: int
    q: int

    def __post_init__(self):
        d, q = self.d, self.q
        if d < 1 or not (0 <= q < d or (d == 1 and q == 0)):
            raise BadParams("need d >= 1 and 0 <= q < d, got (%d, %d)" % (d, q))
        if math.gcd(d, q) != 1:
            raise BadParams("need gcd(d, q) = 1, got (%d, %d)" % (d, q))

    @property
    def d_prime(self) -> int:
        return math.gcd(self.d, self.q**3 + 1)

    @property
    def alpha(self) -> int:
        return math.gcd(self.d, self.q + 1)

    @property
    def beta(self) -> int:
        return math.gcd(self.d, self.q**2 - self.q + 1)

    @property
    def gamma_c(self) -> int:
        # alpha * beta / d, which is 1 or 3 whenever d | q^3 + 1.
        ab = self.alpha * self.beta
        assert ab % self.d == 0, "alpha*beta not divisible by d at %r" % (self,)
        return ab // self.d

    @property
    def order(self) -> int:
        return 3 * self.d**3 // self.d_prime

    @property
    def is_small_formula(self) -> bool:
        return (self.q**3 + 1) % self.d == 0

    def small_member(self) -> "TetraParams":
        """G(d', q mod d'): the member without quasi-reflexions that a
        non-small G(d, q) reduces to; a small member maps to itself."""
        dp = self.d_prime
        return TetraParams(dp, self.q % dp if dp > 1 else 0)


Element = tuple[int, tuple[int, int, int]]


def _sigma(e: tuple[int, int, int], t: int) -> tuple[int, int, int]:
    # conjugation by B^t rotates the diagonal: sigma(u, v, w) = (w, u, v)
    t %= 3
    if t == 0:
        return e
    if t == 1:
        return (e[2], e[0], e[1])
    return (e[1], e[2], e[0])


class TetraGroup:
    __slots__ = ("params", "elements")

    def __init__(self, params: TetraParams, elements: tuple[Element, ...]):
        self.params = params
        self.elements = elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: Element, b: Element) -> Element:
        d = self.params.d
        j1, e1 = a
        j2, e2 = b
        e1r = _sigma(e1, j2)
        return ((j1 + j2) % 3, tuple((x + y) % d for x, y in zip(e1r, e2)))

    def inv(self, a: Element) -> Element:
        d = self.params.d
        j, e = a
        er = _sigma(e, -j)
        return ((-j) % 3, tuple((-x) % d for x in er))


def build_tetra(d: int, q: int) -> TetraGroup:
    params = TetraParams(d, q)
    if params.order > TETRA_SIZE_LIMIT:
        raise SizeLimit("group order %d over the limit" % params.order)
    # The diagonal part is the image of (i, j, k) -> (jq + k, i + kq, iq + j),
    # the subgroup of (Z/d)^3 spanned by the three columns of that map,
    # walked as three integer columns
    cols = [[0]] * 3
    for col in ((0, 1, q), (q, 0, 1), (1, q, 0)):
        cols = _walk(cols, tuple(x % d for x in col), d)
    # sorted by shift, then by diagonal: each shift takes the sorted diagonals
    diags = sorted(zip(*cols))
    elements = tuple(chain.from_iterable(zip(repeat(a), diags) for a in range(3)))
    assert len(elements) == params.order, (
        "enumerated %d elements, expected %d" % (len(elements), params.order)
    )
    return TetraGroup(params, elements)


def is_small_tetra(t: TetraGroup) -> bool:
    """Smallness via eigenvalue scan, cross-checked against d | q^3 + 1.

    Only shift-free elements can fix a hyperplane: an element with a
    nontrivial shift has the three distinct cube roots of one number as
    eigenvalues, so eigenvalue 1 never has multiplicity 2.
    """
    shift_free = compress(map(itemgetter(1), t.elements), map(not_, map(itemgetter(0), t.elements)))
    scan_small = 2 not in map(tuple.count, shift_free, repeat(0))
    formula = t.params.is_small_formula
    assert scan_small == formula, (
        "eigenvalue scan disagrees with divisibility at %r" % (t.params,)
    )
    return scan_small


def conjugacy_count(t: TetraGroup) -> int:
    """Number of conjugacy classes, by orbit search under two generators.

    G is generated by the shift B and the three diagonal generators (the
    images of the unit vectors i, j, k of the parametrisation), and the
    last two of those are B^-1 g B and B g B^-1 for the first one, g:
    conjugation by B rotates a diagonal's entries.  So conjugation by B
    and by g alone closes each class.  Each element not yet reached opens
    a class, which a stack search closes under h -> s h s^-1 for s = B and
    s = g.  Each s permutes the finite group, so a set closed under s is
    closed under s^-1 too, and so under conjugation by every product of B
    and g.  All four generators are still checked to lie in G.

    The two permutations are made without a group product per element.
    The shift-free elements form a normal subgroup A, and c(h) = s h s^-1
    is an automorphism, so on (j, e) = (j, 0) (0, e) it is

        c(j, e) = c(j, 0) c(0, e) = (j, tau_j + M e),

    with the translation tau_j read off c(j, 0) for j = 0, 1, 2 and the
    linear map M off c(0, e_i) for the three unit vectors: six
    conjugations by ``t.mul`` per generator, on the semidirect product
    (Z/d)^3 x| Z/3 that holds G.  The map is then applied a column at a
    time to the elements coded as the integers ((j d + u) d + v) d + w,
    which increase in the sorted order, and each image is looked up in the
    element index: an image outside G fails that closure check.

    The count stays an independent route to the closed form of
    :func:`stringy_euler_tetra`, (d^2 + 8 beta)/3: it searches orbits on all
    of G, and counts nothing over A alone.
    """
    d, q = t.params.d, t.params.q
    gens = [(1, (0, 0, 0))] + [
        (0, tuple(x % d for x in diag)) for diag in ((0, 1, q), (q, 0, 1), (1, q, 0))
    ]
    shifts = list(map(itemgetter(0), t.elements))
    diags = list(map(itemgetter(1), t.elements))
    cols = [list(map(itemgetter(i), diags)) for i in range(3)]
    index = dict(zip(_codes([shifts, *cols], d), range(len(shifts))))
    for j, e in gens:
        assert _codes([[j], *zip(e)], d)[0] in index, (
            "generator %r not in G%r" % ((j, e), (d, q))
        )
    perms = []
    for s in gens[:2]:
        s_inv = t.inv(s)
        tau = [t.mul(t.mul(s, (j, (0, 0, 0))), s_inv) for j in range(3)]
        lin = [t.mul(t.mul(s, (0, e)), s_inv) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        assert [j for j, _ in tau] == [0, 1, 2] and all(j == 0 for j, _ in lin)
        images = []
        for i in range(3):
            col = map((tau[0][1][i], tau[1][1][i], tau[2][1][i]).__getitem__, shifts)
            for (_, m), x in zip(lin, cols):
                if m[i]:
                    col = map(add, col, x if m[i] == 1 else map(mul, x, repeat(m[i])))
            images.append(map(mod, col, repeat(d)))
        perm = list(map(index.get, _codes([shifts, *images], d)))
        assert None not in perm, "conjugacy orbits leave G%r" % ((d, q),)
        perms.append(perm)
    neighbours = list(zip(*perms))
    assigned = bytearray(len(shifts))
    count = 0
    g = assigned.find(0)
    while g >= 0:
        count += 1
        assigned[g] = 1
        stack = [g]
        while stack:
            for c in neighbours[stack.pop()]:
                if not assigned[c]:
                    assigned[c] = 1
                    stack.append(c)
        g = assigned.find(0, g + 1)
    return count


def stringy_euler_tetra(t: TetraGroup) -> int:
    """Stringy Euler number of C^3 / G(d,q) = (d^2 + 8 beta)/3.

    Only defined for the small members of the family.
    """
    p = t.params
    if not is_small_tetra(t):
        raise NotSmall("G(%d, %d) has quasi-reflexions" % (p.d, p.q))
    num = p.d**2 + 8 * p.beta
    assert num % 3 == 0, "stringy count %d not divisible by 3" % num
    return num // 3
