"""Monodromy zeta functions / characteristic polynomials as products of
cyclotomic-style binomials  prod_M (t^M - 1)^(e_M),  with integer
(possibly negative) exponents.  Expanding a product uses the dense
polynomial helpers of :mod:`qzeta.topzeta`."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .resolution import YomdinParams
from .topzeta import pdiv, pmul

EXPAND_DEGREE_LIMIT = 200

__all__ = [
    "CyclotomicProduct",
    "yomdin_charpoly",
    "euler_phi",
]


@dataclass(frozen=True)
class CyclotomicProduct:
    """prod over (M, e) of (t^M - 1)^e, exponents merged and nonzero."""

    factors: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "CyclotomicProduct":
        acc: dict[int, int] = {}
        for M, e in d.items():
            if M < 1:
                raise ValueError("binomial order must be >= 1, got %d" % M)
            acc[M] = acc.get(M, 0) + e
        return cls(tuple(sorted((M, e) for M, e in acc.items() if e)))

    def degree(self) -> int:
        return sum(M * e for M, e in self.factors)

    def phi_multiplicity(self, o: int) -> int:
        """Multiplicity of the primitive o-th cyclotomic polynomial:
        (t^M - 1) = prod over divisors j of M of Phi_j(t)."""
        if o < 1:
            raise ValueError("order must be positive")
        return sum(e for M, e in self.factors if M % o == 0)

    def is_eigenvalue_pole(self, s0) -> bool:
        """Does exp(2 pi i s0) occur as a root, i.e. is the primitive
        part of order denominator(s0) present with positive multiplicity?"""
        o = Fraction(s0).denominator
        return self.phi_multiplicity(o) > 0

    def expand(self) -> list[int]:
        """Dense coefficient list (ascending), when the product really is
        a polynomial of degree at most the expansion limit."""
        deg = self.degree()
        if deg < 0:
            raise ValueError("product has negative degree; not a polynomial")
        if deg > EXPAND_DEGREE_LIMIT:
            raise ValueError("degree %d exceeds the expansion limit" % deg)
        # Multiply out every numerator binomial before dividing by any.
        p = (1,)
        for M, e in sorted(self.factors, key=lambda f: f[1] < 0):
            binom = (-1,) + (0,) * (M - 1) + (1,)  # t^M - 1
            for _ in range(abs(e)):
                p = pmul(p, binom) if e > 0 else pdiv(p, binom)
                if p is None:
                    raise ValueError("product is not a polynomial")
        # The binomials are monic, so the quotient's Fractions are integers.
        return [int(c) for c in p]

    def __str__(self) -> str:
        if not self.factors:
            return "1"

        def part(M: int, e: int) -> str:
            base = "(t^%d - 1)" % M if M > 1 else "(t - 1)"
            return base if abs(e) == 1 else "%s^%d" % (base, abs(e))

        num = [part(M, e) for M, e in self.factors if e > 0]
        den = [part(M, e) for M, e in self.factors if e < 0]
        out = " * ".join(num) if num else "1"
        if den:
            out += " / " + (" * ".join(den) if len(den) == 1 else "(%s)" % " * ".join(den))
        return out


def euler_phi(n: int) -> int:
    out = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


def yomdin_charpoly(y: YomdinParams) -> CyclotomicProduct:
    """Characteristic polynomial of the monodromy at the origin for the
    superisolated family, via the A'Campo-style product over the chart
    data.  deg = (m-1)^3 + k (p-1)(q-1)."""
    m, k, p, q = y.m, y.k, y.p, y.q
    k1, k2 = y.k1, y.k2
    kk = k1 * k2
    acc: dict[int, int] = {}

    def put(M: int, e: int):
        acc[M] = acc.get(M, 0) + e

    put(m, m * m - 3 * m + 3 - (p - 1) * (q - 1))
    put(1, -1)
    put(m + k, 1)
    put(p * q * (m + k) // kk, kk)
    put(p * (m + k) // k1, -k1)
    put(q * (m + k) // k2, -k2)
    return CyclotomicProduct.from_dict(acc)
