"""Exact symbolic arithmetic for motivic zeta functions.

Everything lives in a Laurent-monomial world built from two commuting
variables with rational exponents -- ``L`` (the class of the affine line)
and ``T = L^(-s)`` -- plus free commuting symbols standing for opaque
variety classes such as ``[C0]``.  A monomial ``L^(a*s + b)`` is stored
with T-exponent ``-a`` and L-exponent ``b``.

On top of the plain polynomials (:class:`MotPoly`, see
:mod:`qzeta.motpoly`) sit the standard one-coordinate factors

    Fac(N; nu) = (L - 1) * L^-(N*s + nu) / (1 - L^-(N*s + nu))

and finite sums  ``sum_k  c_k * prod_i Fac(N_i; nu_i)``
(:class:`ZetaExpr`), their reduced rational-function form, series and
the Euler specialization to :class:`TopZeta` (see :mod:`qzeta.topzeta`).
All coefficients are integers and all exponents exact rationals: a
polynomial keeps its exponents as integers over one lattice scale r
(for a quotient by G they are ages, so r is the index), while factor
data, topological zetas and everything printed are
:class:`fractions.Fraction` values.  Nothing is approximated, and
equality of zeta expressions is decided by exact cross-multiplication.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .motpoly import (
    FractionalPowerUnevaluable,
    LatKey,
    MissingChi,
    MotPoly,
    _fraction,
    _mul_syms,
    reduce_exp,
)
from .topzeta import TopZeta, _lin_latex, cancel, frac_json, frac_latex

Rat = Fraction

__all__ = [
    "Rat",
    "MotPoly",
    "StdFactor",
    "ZetaExpr",
    "RatFunc",
    "TopZeta",
    "MissingChi",
    "FractionalPowerUnevaluable",
    "ze_to_ratfunc",
    "ze_equal",
    "euler_specialize",
    "series_expand",
    "candidate_poles",
]


# ---------------------------------------------------------------------------
# standard factors and zeta expressions


@functools.total_ordering
@dataclass(frozen=True, eq=False)
class StdFactor:
    """The factor (L-1) L^-(N s + nu) / (1 - L^-(N s + nu)).

    ``N`` and ``nu`` are Fractions.  The factor also keeps its integer
    lattice ``(r, N*r, nu*r)``, r the least common denominator of N and nu,
    and its two polynomials, all made once on construction: the fold reads
    them for every term and every division.  Order and equality are those
    of the pair ``(N, nu)``, decided on the lattice by cross-multiplication.
    """

    N: Fraction
    nu: Fraction

    def __post_init__(self):
        N, nu = _fraction(self.N), _fraction(self.nu)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "nu", nu)
        r = math.lcm(N.denominator, nu.denominator)
        n = N.numerator * (r // N.denominator)
        v = nu.numerator * (r // nu.denominator)
        if n < 0:
            raise ValueError("factor needs N >= 0, got %s" % (N,))
        if v <= 0:
            raise ValueError("factor needs nu > 0, got %s" % (nu,))
        lat = (r, n, v)
        object.__setattr__(self, "_lat", lat)
        # The fold looks factors up in dicts several times per term.
        object.__setattr__(self, "_hash", hash(lat))
        # The direction (ell, tau) = (-nu, N) of the binomial 1 - L^-nu T^N.
        object.__setattr__(self, "_direction", (-nu, N))
        object.__setattr__(
            self, "_numer", MotPoly.from_lattice({(n, r - v, ()): 1, (n, -v, ()): -1}, r)
        )
        object.__setattr__(
            self, "_binom", MotPoly.from_lattice({(0, 0, ()): 1, (n, -v, ()): -1}, r)
        )

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, StdFactor):
            return NotImplemented
        return self._lat == other._lat

    def __lt__(self, other):
        if not isinstance(other, StdFactor):
            return NotImplemented
        r1, n1, v1 = self._lat
        r2, n2, v2 = other._lat
        a, b = n1 * r2, n2 * r1
        if a != b:
            return a < b
        return v1 * r2 < v2 * r1

    @property
    def is_trivial(self) -> bool:
        # Fac(0; 1) = (L-1) L^-1 / (1 - L^-1) = 1.
        return self._lat == (1, 0, 1)

    def _lattice(self) -> tuple[int, int, int]:
        """(r, N*r, nu*r) with r the least common denominator of N and nu."""
        return self._lat

    def numer_poly(self) -> MotPoly:
        """(L - 1) * L^-nu * T^N, the numerator over 1 - L^-nu T^N."""
        return self._numer

    def binom_poly(self) -> MotPoly:
        """1 - L^-nu T^N."""
        return self._binom

    def __str__(self) -> str:
        return "Fac(%s; %s)" % (self.N, self.nu)


def fac(N, nu) -> StdFactor:
    return StdFactor(N, nu)


FacTuple = tuple[StdFactor, ...]


class ZetaExpr:
    """Finite sum of  coeff * prod of standard factors.

    Terms with identical factor multisets are merged; trivial factors
    Fac(0; 1) are dropped on construction.  Internal term order is the
    order of first insertion (rendering always sorts canonically); the
    rational-function fold walks terms in insertion order, which builders
    exploit so that telescoping cancellations happen early.

    An expression cannot be changed after construction: nothing writes
    to ``_terms`` once a constructor has set it, and its coefficients
    (:class:`MotPoly`) are never changed in place either.  So the
    expression caches its fold: :func:`ze_to_ratfunc` reduces it at most
    once and keeps the (frozen) :class:`RatFunc` in ``_rf``.
    """

    __slots__ = ("_terms", "_rf")

    def __init__(self, terms: Iterable[tuple[MotPoly, Iterable[StdFactor]]] = ()):
        acc: dict[FacTuple, MotPoly] = {}
        for coeff, factors in terms:
            if not isinstance(coeff, MotPoly):
                coeff = MotPoly.const(coeff)
            key = tuple(sorted(f for f in factors if not f.is_trivial))
            if key in acc:
                acc[key] = acc[key] + coeff
            else:
                acc[key] = coeff
        self._terms = {k: v for k, v in acc.items() if not v.is_zero}
        self._rf = None

    @classmethod
    def _of(cls, terms: dict[FacTuple, MotPoly]) -> "ZetaExpr":
        """The expression with these merged, nonzero terms; taken over, not
        copied."""
        out = cls.__new__(cls)
        out._terms = terms
        out._rf = None
        return out

    @classmethod
    def zero(cls) -> "ZetaExpr":
        return cls()

    @classmethod
    def one(cls) -> "ZetaExpr":
        return cls([(MotPoly.one(), ())])

    @classmethod
    def of(cls, coeff: MotPoly, factors: Iterable[StdFactor] = ()) -> "ZetaExpr":
        return cls([(coeff, factors)])

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[FacTuple, MotPoly]]:
        """Canonically sorted (factors, coefficient) pairs."""
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def iter_terms(self):
        """(factors, coefficient) pairs in internal (insertion) order."""
        return self._terms.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted((k, hash(v)) for k, v in self._terms.items())))

    def __add__(self, other) -> "ZetaExpr":
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        acc = dict(self._terms)
        for k, v in other._terms.items():
            s = acc.get(k)
            s = v if s is None else s + v
            if s.is_zero:
                acc.pop(k, None)
            else:
                acc[k] = s
        return ZetaExpr._of(acc)

    def __neg__(self) -> "ZetaExpr":
        return ZetaExpr._of({k: -v for k, v in self._terms.items()})

    def __sub__(self, other) -> "ZetaExpr":
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "ZetaExpr":
        if isinstance(other, (int, MotPoly)):
            return self.scale(other)
        if not isinstance(other, ZetaExpr):
            return NotImplemented
        out: dict[FacTuple, MotPoly] = {}
        for f1, c1 in self._terms.items():
            for f2, c2 in other._terms.items():
                key = tuple(sorted(f1 + f2))
                c = c1 * c2
                if key in out:
                    s = out[key] + c
                    if s.is_zero:
                        del out[key]
                    else:
                        out[key] = s
                else:
                    out[key] = c
        return ZetaExpr._of(out)

    __rmul__ = __mul__

    def scale(self, c) -> "ZetaExpr":
        if isinstance(c, int):
            c = MotPoly.const(c)
        out: dict[FacTuple, MotPoly] = {}
        for k, v in self._terms.items():
            s = v * c
            if not s.is_zero:
                out[k] = s
        return ZetaExpr._of(out)

    def __str__(self) -> str:
        return render_zeta(self)

    def __repr__(self) -> str:
        return "ZetaExpr(%s)" % render_zeta(self)

    def latex(self) -> str:
        return latex_zeta(self)

    def json_obj(self):
        out = []
        for facs, coeff in self.terms():
            cnt = Counter(facs)
            out.append(
                {
                    "coeff": coeff.json_obj(),
                    "factors": [
                        {"N": frac_json(f.N), "nu": frac_json(f.nu), "mult": m}
                        for f, m in sorted(cnt.items())
                    ],
                }
            )
        return {"kind": "zeta", "terms": out}


# ---------------------------------------------------------------------------
# rational-function form


@dataclass(frozen=True)
class RatFunc:
    """numer / prod (1 - L^-nu T^N)^mult, with an exact-division reduction."""

    numer: MotPoly
    denom: tuple[tuple[StdFactor, int], ...]  # sorted, multiplicities >= 1

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(MotPoly.zero(), ())

    @classmethod
    def make(cls, numer: MotPoly, denom: Mapping[StdFactor, int]) -> "RatFunc":
        numer, left = cancel(numer, denom, _divide_factor)
        # cancel fills ``left`` in sorted order
        return cls(numer, tuple(left.items()))

    @classmethod
    def from_term(cls, coeff: MotPoly, factors: FacTuple) -> "RatFunc":
        numer = coeff
        for f in factors:
            numer = numer * f.numer_poly()
        return cls.make(numer, Counter(factors))

    def _common(self, other: "RatFunc"):
        """Both numerators over the least common denominator: (na, nb, dmax)."""
        da, db = dict(self.denom), dict(other.denom)
        na, nb = self.numer, other.numer
        dmax = {}
        for f in da.keys() | db.keys():
            a, b = da.get(f, 0), db.get(f, 0)
            dmax[f] = m = max(a, b)
            for _ in range(m - a):
                na = na * f.binom_poly()
            for _ in range(m - b):
                nb = nb * f.binom_poly()
        return na, nb, dmax

    def add(self, other: "RatFunc") -> "RatFunc":
        na, nb, dmax = self._common(other)
        return RatFunc.make(na + nb, dmax)

    def equivalent(self, other: "RatFunc") -> bool:
        na, nb, _dmax = self._common(other)
        return na == nb

    def __str__(self) -> str:
        if self.numer.is_zero:
            return "0"
        num = render_poly_factored(self.numer)
        if not self.denom:
            return num
        parts = []
        for f, m in self.denom:
            r, n, v = f._lattice()
            mono = _mono_str((n, -v, ()), 1, True, _lattice_pow_str(r))
            parts.append("(1 - %s)%s" % (mono, "" if m == 1 else "^%d" % m))
        return "(%s) / (%s)" % (num, " * ".join(parts))


def _divide_factor(p: MotPoly, f: StdFactor) -> MotPoly | None:
    """p / (1 - L^-nu T^N) for f = Fac(N; nu), or None."""
    return p.divide_one_minus(*f._direction)


def ze_to_ratfunc(z: ZetaExpr) -> RatFunc:
    """Fold a zeta expression into a single reduced rational function.

    Terms are folded in insertion order with a cancellation pass after
    each addition; builders order their terms so that the telescoping
    divisions fire as early as possible.  The result is kept on ``z``,
    so a later call (``--check`` after printing, say) returns the same
    object without folding again.
    """
    rf = z._rf
    if rf is None:
        rf = RatFunc.zero()
        for factors, coeff in z.iter_terms():
            rf = rf.add(RatFunc.from_term(coeff, factors))
        z._rf = rf
    return rf


def ze_equal(a: ZetaExpr, b: ZetaExpr) -> bool:
    """Exact equality as rational functions.

    Sound because the ambient ring (Laurent monomials with bounded-
    denominator exponents over free symbols) is an integral domain, so
    cross-multiplied numerators agree iff the quotients do.  Each side
    is folded at most once over its lifetime (see :func:`ze_to_ratfunc`).
    """
    return ze_to_ratfunc(a).equivalent(ze_to_ratfunc(b))


def candidate_poles(z: ZetaExpr) -> set[Fraction]:
    """All -nu/N over factors with N > 0 anywhere in the expression."""
    out = set()
    for facs in z._terms:
        for f in facs:
            if f.N > 0:
                out.add(Fraction(-f.nu, 1) / f.N)
    return out


def series_expand(z: ZetaExpr, M) -> MotPoly:
    """Power-series expansion around T = 0, truncated to T-exponents <= M.

    Each factor expands as (L-1) * sum_{j>=1} L^(-j nu) T^(j N); a factor
    with N = 0 (and nu != 1, since Fac(0;1) never survives construction)
    has no such expansion and is rejected.
    """
    M = Fraction(M)
    if M < 0:
        raise ValueError("truncation order must be >= 0")
    total = MotPoly.zero()
    for factors, coeff in z.iter_terms():
        cur = coeff.truncate_tau(M)
        for f in sorted(factors):
            if cur.is_zero:
                break
            if f.N == 0:
                raise ValueError(
                    "factor %s has no Laurent expansion in T" % (f,)
                )
            lo = cur.min_tau()
            jmax = math.floor((M - lo) / f.N)
            if jmax < 1:
                cur = MotPoly.zero()
                break
            r, n, v = f._lattice()
            geo = MotPoly.from_lattice(
                {(j * n, -j * v, ()): 1 for j in range(1, jmax + 1)}, r
            )
            cur = (cur * ((MotPoly.L() - 1) * geo)).truncate_tau(M)
        total = total + cur
    return total


# ---------------------------------------------------------------------------
# topological (Euler) specialization


def euler_specialize(z: ZetaExpr, chi_env: Mapping[str, int] | None = None) -> TopZeta:
    """Topological specialization: L -> 1.

    Each factor Fac(N; nu) contributes 1/(N s + nu); a factor with N = 0
    folds into the coefficient as the scalar 1/nu.  Coefficients go to
    their Euler characteristics (L -> 1, T = L^(-s) -> 1, symbols to
    their chi values; :class:`MissingChi` if one has none).
    """
    terms = []
    for factors, coeff in z.terms():
        c = Fraction(coeff.chi(chi_env))
        lins: Counter = Counter()
        for f in factors:
            if f.N == 0:
                c /= f.nu
            else:
                lins[(f.N, f.nu)] += 1
        if c != 0:
            terms.append((c, lins))
    return TopZeta(terms)


# ---------------------------------------------------------------------------
# rendering helpers


def _exp_str(x: int, r: int = 1) -> str:
    num, den = reduce_exp(x, r)
    return str(num) if den == 1 else "(%d/%d)" % (num, den)


def _pow_str(base: str, x: int, r: int = 1) -> str:
    """base^(x/r), or just base for the exponent 1."""
    if x == r:
        return base
    return "%s^%s" % (base, _exp_str(x, r))


def _lattice_pow_str(r: int):
    """_pow_str for the exponents x/r of one polynomial, memoised on
    (base, x): the L and T exponents of a long polynomial repeat."""
    memo: dict[tuple[str, int], str] = {}

    def pow_str(base: str, x: int) -> str:
        s = memo.get((base, x))
        if s is None:
            s = memo[(base, x)] = _pow_str(base, x, r)
        return s

    return pow_str


def _mono_str(key: LatKey, c: int, lead: bool, pow_str) -> str:
    tau, ell, syms = key
    parts = []
    if ell:
        parts.append(pow_str("L", ell))
    if tau:
        parts.append(pow_str("T", tau))
    for name, e in syms:
        parts.append(_pow_str("[%s]" % name, e))
    mag = abs(c)
    if not parts or mag != 1:
        parts.insert(0, str(mag))
    body = " * ".join(parts)
    if lead:
        return ("-" if c < 0 else "") + body
    return ("- " if c < 0 else "+ ") + body


def render_poly(p: MotPoly) -> str:
    terms, r = p.lattice()
    if not terms:
        return "0"
    return _render_terms(terms, _lattice_pow_str(r))


def _render_terms(terms: list[tuple[LatKey, int]], pow_str) -> str:
    return " ".join(_mono_str(key, c, i == 0, pow_str) for i, (key, c) in enumerate(terms))


def render_poly_factored(p: MotPoly) -> str:
    """Render with the common monomial pulled out front: ``L^-2 * (1 + L)``."""
    if p.is_zero:
        return "0"
    if len(p) == 1:
        return render_poly(p)
    g = p.gcd_monomial()
    if g == (0, 0, ()):
        return "(%s)" % render_poly(p)
    # the quotient by g, made by shifting the keys of the sorted terms
    tau, ell, syms = g
    inv = tuple((n, -e) for n, e in syms)
    terms, r = p.lattice()
    shifted = [((t - tau, l - ell, _mul_syms(s, inv)), c) for (t, l, s), c in terms]
    if inv:
        shifted.sort()  # dropping symbol powers can reorder the terms
    pow_str = _lattice_pow_str(r)
    return "%s * (%s)" % (_mono_str(g, 1, True, pow_str), _render_terms(shifted, pow_str))


def render_zeta(z: ZetaExpr) -> str:
    terms = z.terms()
    if not terms:
        return "0"
    chunks = []
    for facs, coeff in terms:
        cnt = Counter(facs)
        fparts = []
        for f, m in sorted(cnt.items()):
            fparts.append(str(f) if m == 1 else "%s^%d" % (f, m))
        if fparts and coeff == MotPoly.one():
            chunks.append(" * ".join(fparts))
        else:
            body = render_poly_factored(coeff)
            chunks.append(" * ".join([body] + fparts))
    return " + ".join(chunks)


def _exp_latex(x: int, r: int) -> str:
    num, den = reduce_exp(x, r)
    return str(num) if den == 1 else "%d/%d" % (num, den)


def latex_poly(p: MotPoly) -> str:
    terms, r = p.lattice()
    if not terms:
        return "0"
    out = []
    for i, ((tau, ell, syms), c) in enumerate(terms):
        parts = []
        if ell:
            parts.append("\\mathbb{L}^{%s}" % _exp_latex(ell, r))
        if tau:
            parts.append("T^{%s}" % _exp_latex(tau, r))
        for name, e in syms:
            body = "[%s]" % name
            parts.append(body if e == 1 else "%s^{%d}" % (body, e))
        mag = abs(c)
        if not parts or mag != 1:
            parts.insert(0, str(mag))
        body = "".join(parts)
        if i == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("-" if c < 0 else "+") + body)
    return "".join(out)


def _lin_exp_latex(f: StdFactor) -> str:
    if f.N == 0:
        return frac_latex(f.nu)
    return _lin_latex((f.N, f.nu))


def latex_zeta(z: ZetaExpr) -> str:
    terms = z.terms()
    if not terms:
        return "0"
    chunks = []
    for facs, coeff in terms:
        cnt = Counter(facs)
        fparts = []
        for f, m in sorted(cnt.items()):
            e = _lin_exp_latex(f)
            frac = (
                "\\frac{(\\mathbb{L}-1)\\mathbb{L}^{-(%s)}}{1-\\mathbb{L}^{-(%s)}}"
                % (e, e)
            )
            fparts.append(frac if m == 1 else "\\left(%s\\right)^{%d}" % (frac, m))
        cpart = latex_poly(coeff)
        if "+" in cpart[1:] or "-" in cpart[1:]:
            cpart = "\\left(%s\\right)" % cpart
        if fparts and coeff == MotPoly.one():
            chunks.append("".join(fparts))
        else:
            chunks.append("".join([cpart] + fparts))
    return " + ".join(chunks)


def json_poly(p: MotPoly) -> str:
    """The JSON text of ``p.json_obj()``, written in one pass over the
    integer keys with no intermediate objects.  The ``{"den": d, "num": n}``
    fragment of each exponent x/r is memoised on x, and ``syms`` goes
    through :func:`json.dumps`, so symbol names are escaped as it escapes
    them."""
    terms, r = p.lattice()
    fracs: dict[int, str] = {}

    def frac(x: int) -> str:
        s = fracs.get(x)
        if s is None:
            num, den = reduce_exp(x, r)
            s = fracs[x] = '{"den": %d, "num": %d}' % (den, num)
        return s

    return "[%s]" % ", ".join(
        '{"L": %s, "T": %s, "c": %d, "syms": %s}'
        % (frac(l), frac(t), c, json.dumps(dict(syms), sort_keys=True) if syms else "{}")
        for (t, l, syms), c in terms
    )


def json_dump(obj: dict) -> str:
    """A top-level dict as one line of JSON, keys in sorted order.

    A :class:`MotPoly` value is written by :func:`json_poly`, every other
    value by :func:`json.dumps` with sorted keys.  The text is byte-identical
    to ``json.dumps(obj, sort_keys=True, separators=(", ", ": "))`` with each
    polynomial replaced by its ``json_obj()``.
    """
    return "{%s}" % ", ".join(
        "%s: %s"
        % (
            json.dumps(k),
            json_poly(v)
            if isinstance(v, MotPoly)
            else json.dumps(v, sort_keys=True, separators=(", ", ": ")),
        )
        for k, v in sorted(obj.items())
    )
