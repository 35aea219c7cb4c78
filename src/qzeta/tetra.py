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

from .groups import NotSmall, SizeLimit, _span

# The largest group order build_tetra enumerates, checked before it starts.
# The budget is about 10 s and 1 GB for one `tetra --stringy`, whose
# conjugacy search costs most per element on the small members (order
# 3 d^2).  Measured on 2 shared vCPUs (CPython 3.11): d = 258 (order
# 199,692) 3.5 s and 80 MB, d = 400 (order 480,000) 10.2-11.9 s and 179 MB.
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


class BadParams(Exception):
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

    @property
    def identity(self) -> Element:
        return (0, (0, 0, 0))


def build_tetra(d: int, q: int) -> TetraGroup:
    params = TetraParams(d, q)
    if params.order > TETRA_SIZE_LIMIT:
        raise SizeLimit("group order %d over the limit" % params.order)
    # The diagonal part is the image of (i, j, k) -> (jq + k, i + kq, iq + j),
    # the subgroup of (Z/d)^3 spanned by the three columns of that map.
    diags = {(0, 0, 0)}
    for col in ((0, 1, q), (q, 0, 1), (1, q, 0)):
        diags = _span(diags, tuple(x % d for x in col), d)
    elements = tuple(sorted((a, diag) for a in range(3) for diag in diags))
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
    scan_small = True
    for shift, diag in t.elements:
        if shift != 0:
            continue
        zeros = sum(1 for x in diag if x == 0)
        if zeros == 2:
            scan_small = False
            break
    formula = t.params.is_small_formula
    assert scan_small == formula, (
        "eigenvalue scan disagrees with divisibility at %r" % (t.params,)
    )
    return scan_small


def conjugacy_count(t: TetraGroup) -> int:
    """Number of conjugacy classes, by orbit search under the generators.

    Conjugation by the shift B and by the three diagonal generators (the
    unit vectors i, j, k of the parametrisation) closes each class.  Each
    element not yet reached opens a class, which a stack search closes
    under h -> s h s^-1 for every generator s: 4 |G| conjugations in all.
    Each s permutes the finite group, so a set closed under s is closed
    under s^-1 too.
    """
    d, q = t.params.d, t.params.q
    gens = [(1, (0, 0, 0))] + [
        (0, tuple(x % d for x in diag)) for diag in ((0, 1, q), (q, 0, 1), (1, q, 0))
    ]
    elements = t.elements
    members = set(elements)
    for s in gens:
        assert s in members, "generator %r not in G%r" % (s, (d, q))
    conjugators = [(s, t.inv(s)) for s in gens]
    assigned = set()
    count = 0
    for g in elements:
        if g in assigned:
            continue
        count += 1
        assigned.add(g)
        stack = [g]
        while stack:
            h = stack.pop()
            for s, s_inv in conjugators:
                c = t.mul(t.mul(s, h), s_inv)
                if c not in assigned:
                    assigned.add(c)
                    stack.append(c)
    assert assigned == members, "conjugacy orbits leave G%r" % ((d, q),)
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
