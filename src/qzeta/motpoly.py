"""Sparse exact polynomials in L, T and class symbols on an integer lattice.

A :class:`MotPoly` is a finite sum of monomials ``c * L^ell * T^tau *
[C0]^e ...`` with integer coefficients and rational exponents.  All the
exponents of one polynomial lie in (1/r)Z for an integer scale r -- on a
quotient by G they are ages, so r is the index -- and each monomial is
stored under the integer key ``(tau*r, ell*r, symbols)``.  Outside this
module, polynomials are built and read with Fraction exponents, except
where a builder already holds the integer exponents (the group sums of
``zetacore``, the fold of ``symring``) and hands them over
through :meth:`MotPoly.from_lattice`.  The exact divisions by binomials
take integers too: :meth:`MotPoly.divide_one_minus` reads its direction
as an integer pair over one denominator, as the fold's factors hold it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple

__all__ = ["MotPoly", "MissingChi", "FractionalPowerUnevaluable", "TooManyDigits", "MAX_DIGITS",
           "ValuesAtL", "reduce_exp"]


class MissingChi(ValueError):
    """A class symbol has no Euler characteristic assigned."""


class FractionalPowerUnevaluable(ValueError):
    """A rational exponent has no exact rational value at the given base."""


class TooManyDigits(ValueError):
    """An exact value would have more than MAX_DIGITS decimal digits."""


# The most decimal digits an exact integer may have where it is printed.
# 4300 is Python's default limit for converting an int to a string, so a
# longer one could never be printed.  The strata parser bounds its
# integers by it, and MotPoly.values_at_L the values it returns.
MAX_DIGITS = 4300


# A symbol monomial: sorted ((name, exponent), ...) with exponents > 0.
SymMono = tuple[tuple[str, int], ...]
# Monomial key at the boundary: (T-exponent, L-exponent, symbol monomial).
MonoKey = tuple[Fraction, Fraction, SymMono]
# Monomial key on the lattice (1/r)Z: (T-exponent * r, L-exponent * r, symbols).
LatKey = tuple[int, int, SymMono]


class ValuesAtL(NamedTuple):
    """A series valued at L = p, as columns: ``ts`` the T-exponents on the
    lattice (1/r)Z, ascending, and ``values`` the value of each T-power's
    coefficient, an int at the roots 1 and -1 and a Fraction otherwise."""

    ts: list[int]
    values: list
    r: int


def _norm_syms(syms) -> SymMono:
    if not syms:
        return ()
    if isinstance(syms, dict):
        items = syms.items()
    else:
        items = syms
    acc: dict[str, int] = {}
    for name, e in items:
        if e:
            acc[name] = acc.get(name, 0) + int(e)
    return tuple(sorted((n, e) for n, e in acc.items() if e))


def _mul_syms(a: SymMono, b: SymMono) -> SymMono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for name, e in b:
        d[name] = d.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in d.items() if e))


def _fraction(x) -> Fraction:
    """x as a Fraction; a Fraction is passed through, not copied."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _rescale(terms: dict[LatKey, int], m: int) -> dict[LatKey, int]:
    """The same terms on a lattice m times finer; the terms when m = 1."""
    if m == 1:
        return terms
    return {(t * m, l * m, s): c for (t, l, s), c in terms.items()}


def _plus(a: dict[LatKey, int], b: dict[LatKey, int]) -> dict[LatKey, int]:
    """The sum of two term dicts on one scale, zero sums dropped."""
    acc = dict(a)
    get = acc.get
    for k, c in b.items():
        v = get(k, 0) + c
        if v:
            acc[k] = v
        else:
            del acc[k]
    return acc


def _times_binomial(terms: dict[LatKey, int], ta: int, la: int, tb: int, lb: int) -> dict[LatKey, int]:
    """The terms times the binomial x^(ta, la) - x^(tb, lb), all on one
    scale, made in one pass that shifts each key by both exponents: the
    inverse of :meth:`MotPoly.divide_one_minus` when (ta, la) = (0, 0)."""
    if ta or la:
        acc = {(t + ta, l + la, s): c for (t, l, s), c in terms.items()}
    else:
        acc = dict(terms)
    get = acc.get
    for (t, l, s), c in terms.items():
        k = (t + tb, l + lb, s)
        v = get(k, 0) - c
        if v:
            acc[k] = v
        else:
            del acc[k]
    return acc


def _class_quotient(terms: dict[LatKey, int], r: int, tx: int, lx: int) -> "MotPoly | None":
    """The quotient of the terms on the scale r by 1 - x^(tx, lx), the
    direction on that scale, or None: every term is filed under its
    translation class along the direction, and each class is divided by a
    running sum, exact iff its coefficients sum to zero."""
    classes: dict[LatKey, dict[int, int]] = {}
    for (t, l, s), c in terms.items():
        j = t // tx if tx else l // lx
        rep = (t - j * tx, l - j * lx, s)
        col = classes.get(rep)
        if col is None:
            classes[rep] = {j: c}
        else:
            col[j] = c
    out: dict[LatKey, int] = {}
    for (t0, l0, s), col in classes.items():
        js = sorted(col)
        last = js[-1]
        run = 0
        for j in range(js[0], last):
            run += col.get(j, 0)
            if run:
                out[(t0 + j * tx, l0 + j * lx, s)] = run
        if run + col[last]:
            return None
    return MotPoly.from_lattice(out, r)


class MotPoly:
    """Sparse exact polynomial in L^(1/r), T^(1/r) and class symbols.

    Every exponent lies on the lattice (1/r)Z for the polynomial's scale
    ``r``, so a term is stored under the integer key ``(tau*r, ell*r,
    symmono)`` with ``tau`` the T-exponent and ``ell`` the L-exponent;
    values are nonzero ints and the zero polynomial has no terms.
    Operands on different scales meet on the lcm of the two.  Fractions
    appear only where exponents cross the boundary: the constructor and
    the reader :meth:`terms`.
    Printing and JSON read the integer keys as columns, a run of them at
    a time (:meth:`column_slices`), and reduce each exponent x/r to lowest
    terms.
    """

    __slots__ = ("_terms", "_r")

    def __init__(self, terms: Mapping[MonoKey, int] | None = None):
        fracs = []
        r = 1
        if terms:
            for (tau, ell, syms), c in terms.items():
                if c == 0:
                    continue
                if not isinstance(c, int):
                    raise TypeError("MotPoly coefficients must be int, got %r" % (c,))
                tau, ell = Fraction(tau), Fraction(ell)
                r = math.lcm(r, tau.denominator, ell.denominator)
                fracs.append((tau, ell, _norm_syms(syms), c))
        clean: dict[LatKey, int] = {}
        for tau, ell, syms, c in fracs:
            key = (
                tau.numerator * (r // tau.denominator),
                ell.numerator * (r // ell.denominator),
                syms,
            )
            v = clean.get(key, 0) + c
            if v:
                clean[key] = v
            else:
                del clean[key]
        self._terms = clean
        self._r = r

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_lattice(cls, terms: dict[LatKey, int], r: int) -> "MotPoly":
        """The polynomial with integer keys ``(tau*r, ell*r, symmono)``.

        ``terms`` must hold nonzero int coefficients and normalised symbol
        monomials; it is taken over, not copied.
        """
        out = cls.__new__(cls)
        out._terms = terms
        out._r = r
        return out

    @classmethod
    def zero(cls) -> "MotPoly":
        return cls()

    @classmethod
    def one(cls) -> "MotPoly":
        return cls.const(1)

    @classmethod
    def const(cls, c: int) -> "MotPoly":
        return cls({(0, 0, ()): int(c)})

    @classmethod
    def L(cls, exp=1) -> "MotPoly":
        return cls({(0, exp, ()): 1})

    @classmethod
    def T(cls, exp=1) -> "MotPoly":
        return cls({(exp, 0, ()): 1})

    @classmethod
    def sym(cls, name: str, exp: int = 1) -> "MotPoly":
        return cls({(0, 0, ((name, exp),)): 1})

    @classmethod
    def monomial(cls, coeff: int = 1, ell=0, tau=0, syms=()) -> "MotPoly":
        return cls({(tau, ell, _norm_syms(syms)): int(coeff)})

    # -- basics ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[MonoKey, int]]:
        """Terms in canonical order: lexicographic by (tau, ell, symbols)."""
        terms, r = self.lattice()
        return [((Fraction(t, r), Fraction(l, r), s), c) for (t, l, s), c in terms]

    def lattice(self) -> tuple[list[tuple[LatKey, int]], int]:
        """The integer-keyed terms in canonical order, and the scale r.

        On one positive scale the integer keys sort as their Fractions do,
        so this is the order of :meth:`terms`.
        """
        # The keys are distinct, so sorting them alone gives the same order
        # without a tuple comparison around each key comparison.
        terms = self._terms
        keys = sorted(terms)
        return list(zip(keys, map(terms.__getitem__, keys))), self._r

    def column_slices(self, size: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[SymMono, ...],
                                                         list[int]]]:
        """The terms in canonical order as columns, ``size`` terms at a
        time: for each run of the sorted keys, its T-exponents, its
        L-exponents (both integers on the lattice, the scale r), its symbol
        monomials and its coefficients.  Only the list of sorted keys spans
        the whole polynomial."""
        terms = self._terms
        keys = sorted(terms)
        for i in range(0, len(keys), size):
            run = keys[i : i + size]
            yield (*zip(*run), list(map(terms.__getitem__, run)))

    @staticmethod
    def _coerce(x):
        if isinstance(x, MotPoly):
            return x
        if isinstance(x, int):
            return MotPoly.const(x)
        return None

    @staticmethod
    def _common(a: "MotPoly", b: "MotPoly"):
        """Both term dicts on one scale: (terms of a, terms of b, scale)."""
        ra, rb = a._r, b._r
        if ra == rb:
            return a._terms, b._terms, ra
        r = math.lcm(ra, rb)
        return _rescale(a._terms, r // ra), _rescale(b._terms, r // rb), r

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(self._terms) != len(other._terms):
            return False
        a, b, _r = self._common(self, other)
        return a == b

    def __hash__(self):
        # Hash the form on the coarsest lattice, so equal polynomials hash
        # equal whatever scale they are stored at.
        terms, r = self._terms, self._r
        g = math.gcd(r, *map(itemgetter(0), terms), *map(itemgetter(1), terms))
        if g > 1:
            terms = {(t // g, l // g, s): c for (t, l, s), c in terms.items()}
        return hash((r // g, frozenset(terms.items())))

    def __neg__(self) -> "MotPoly":
        return MotPoly.from_lattice({k: -c for k, c in self._terms.items()}, self._r)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        a, b, r = self._common(self, other)
        return MotPoly.from_lattice(_plus(a, b), r)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return MotPoly.zero()
        a, b, r = self._common(self, other)
        acc: dict[LatKey, int] = {}
        get = acc.get
        for (t1, l1, s1), c1 in a.items():
            for (t2, l2, s2), c2 in b.items():
                k = (t1 + t2, l1 + l2, _mul_syms(s1, s2) if s1 and s2 else s1 or s2)
                v = get(k, 0) + c1 * c2
                if v:
                    acc[k] = v
                else:
                    del acc[k]
        return MotPoly.from_lattice(acc, r)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MotPoly":
        if n < 0:
            raise ValueError("MotPoly powers must be nonnegative")
        out = MotPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure queries ----------------------------------------------

    @property
    def scale(self) -> int:
        """The lattice scale r: every exponent is an integer over r."""
        return self._r

    def gcd_monomial(self) -> LatKey:
        """Componentwise-minimal monomial across all terms (coefficient 1),
        keyed on this polynomial's scale; the polynomial must be nonzero.
        The symbols are intersected term by term until none is left."""
        terms = self._terms
        tau = min(map(itemgetter(0), terms))
        ell = min(map(itemgetter(1), terms))
        symss = map(itemgetter(2), terms)
        names = dict(next(symss))
        for syms in symss:
            if not names:
                break
            d = dict(syms)
            names = {n: min(e, d[n]) for n, e in names.items() if n in d}
        return (tau, ell, tuple(sorted(names.items())))

    def height(self) -> int:
        """The largest absolute value of a coefficient; 0 for the zero polynomial."""
        return max(map(abs, self._terms.values()), default=0)

    def has_T(self) -> bool:
        return any(k[0] for k in self._terms)

    def truncate_tau(self, bound) -> "MotPoly":
        """Drop monomials whose T-exponent exceeds ``bound``."""
        bound = _fraction(bound)
        cut = bound.numerator * self._r // bound.denominator
        return MotPoly.from_lattice(
            {k: c for k, c in self._terms.items() if k[0] <= cut}, self._r
        )

    # -- specializations -------------------------------------------------

    def chi(self, chi_env: Mapping[str, int] | None = None) -> int:
        """Euler specialization of the coefficient ring: L -> 1, T -> 1,
        each class symbol to its Euler characteristic."""
        total = 0
        for (_tau, _ell, syms), c in self._terms.items():
            v = c
            for name, e in syms:
                if not chi_env or name not in chi_env:
                    raise MissingChi(name)
                v *= chi_env[name] ** e
            total += v
        return total

    def eval_L(self, p) -> Fraction:
        """Exact value with L = p (T powers are not evaluable here).

        This is the T-free case of :meth:`values_at_L`.  A polynomial with
        a T power fails at its first term, in canonical order, that has a T
        power or no value.
        """
        p = Fraction(p)
        if self.has_T():
            self._raise_first_failure(p, t_free=True)
        values = self.values_at_L(p).values
        return _fraction(values[0]) if values else Fraction(0)

    def values_at_L(self, p) -> ValuesAtL:
        """The value at L = p of the coefficient of each T-power, as columns.

        One pass over the integer keys takes g = gcd(r, every ell*r), so
        each L-exponent is k/D with D = r/g and k = ell*r/g.  D is the lcm
        of the exponents' reduced denominators d, and p has an exact d-th
        root for every d exactly when it has a D-th root (a negative p needs
        every d odd, and then D is odd too); so one root serves the whole
        polynomial.  The terms of each T-column are summed as an integer
        Laurent polynomial in that root, and give one Fraction; at the root
        1 or -1 that is a signed coefficient sum, an int made with no power
        (:meth:`_unit_root_values`).  A class
        symbol has no value: :class:`MissingChi` names it.  When some term
        has no value, the terms are walked in canonical order and the first
        of them that cannot be evaluated is the one reported.

        Before any power is taken, each column's value is bounded from the
        root's size and the column's exponent span and coefficient sum (see
        :func:`_digits_bound`); a value that may pass :data:`MAX_DIGITS`
        digits, and so could not be printed, raises :class:`TooManyDigits`.
        """
        p = Fraction(p)
        terms, r = self._terms, self._r
        g = math.gcd(r, *map(itemgetter(1), terms))
        cols: dict[int, dict[int, int]] = {}
        try:
            a, b = _exact_root(p, r // g)
            if b == 1 and abs(a) == 1 and (
                not terms or _digits_bound(0, 0, sum(map(abs, terms.values())), a, b) <= MAX_DIGITS
            ):
                return self._unit_root_values(a, g)
            for (t, l, syms), c in terms.items():
                if syms:
                    raise MissingChi(syms[0][0])
                col = cols.get(t)
                if col is None:
                    cols[t] = {l // g: c}
                else:
                    col[l // g] = c
            # The bound over all the terms at once is at least each
            # column's, so the columns are bounded one by one only when
            # it passes the limit.  With a root of size at most 1, no L
            # power adds digits, and the exponents are not read.
            lo = hi = 0
            if terms and (abs(a) > 1 or b > 1):
                lo = min(k[1] for k in terms) // g
                hi = max(k[1] for k in terms) // g
            ts = sorted(cols)
            if terms and _digits_bound(lo, hi, sum(map(abs, terms.values())), a, b) > MAX_DIGITS:
                for t in ts:
                    col = cols[t]
                    digits = _digits_bound(
                        min(col), max(col), sum(map(abs, col.values())), a, b
                    )
                    if digits > MAX_DIGITS:
                        raise TooManyDigits(
                            "the coefficient of T^%s at L = %s may have %d decimal digits,"
                            " over the limit %d" % (Fraction(t, r), p, digits, MAX_DIGITS)
                        )
            return ValuesAtL(ts, [_laurent_value(cols[t], a, b) for t in ts], r)
        except (FractionalPowerUnevaluable, ZeroDivisionError, MissingChi):
            # by name, not ValueError: the TooManyDigits raised above must pass
            self._raise_first_failure(p)

    def _unit_root_values(self, a: int, g: int) -> ValuesAtL:
        """:meth:`values_at_L` at the common root a = 1 or -1, under the
        digit limit: each T-column's value is its coefficient sum, each term
        signed by the parity of k = ell*r/g when a = -1, so no power is
        taken.  Over the limit, :meth:`values_at_L` takes its general path,
        which refuses the first column past it."""
        terms, r = self._terms, self._r
        neg = a < 0
        sums: dict[int, int] = {}
        get = sums.get
        for (t, l, syms), c in terms.items():
            if syms:
                raise MissingChi(syms[0][0])
            if neg and l // g & 1:
                c = -c
            sums[t] = get(t, 0) + c
        ts = sorted(sums)
        return ValuesAtL(ts, list(map(sums.__getitem__, ts)), r)

    def _raise_first_failure(self, p: Fraction, t_free: bool = False):
        """Raise the error of the first term, in canonical order, that has
        no value at L = p; with ``t_free`` a T power is such a term too."""
        r = self._r
        roots: dict[int, int] = {}  # d -> numerator of the d-th root of p
        for t, l, syms in sorted(self._terms):
            if t and t_free:
                raise ValueError("monomial carries a T power; cannot evaluate at L only")
            d = r // math.gcd(l, r)
            if d not in roots:
                roots[d] = _exact_root(p, d)[0]
            if l < 0 and not roots[d]:
                # past d = 1 this is what Fraction(0) ** k itself reports
                raise ZeroDivisionError("0 to a negative power" if d == 1 else "Fraction(1, 0)")
            if syms:
                raise MissingChi(syms[0][0])
        raise AssertionError("every term has a value at L = %s" % p)

    # -- binomials: exact division; monomial product ---------------------

    def divide_one_minus(self, ell: int, tau: int, d: int = 1) -> "MotPoly | None":
        """Exact quotient by ``1 - L^(ell/d) * T^(tau/d)``, or None.

        The direction is the integer pair ``x = (tau, ell)`` over the
        denominator d.  Terms are grouped into translation classes along
        it; within a class the division is the usual one-variable
        cumulative-sum quotient, exact iff the class coefficients sum to
        zero.  The quotient lies on the lcm of the polynomial's scale and
        d, so a direction off the polynomial's lattice moves it onto the
        finer one.

        Most divisions the fold tries fail, so one cheap pass rejects first.
        The form ``t*ell - l*tau`` is constant along the direction, so each
        translation class lies on one level of it (and on one symbol
        monomial).  A level's coefficient sum is the sum of its classes'
        sums; if one is nonzero, some class sum is too, and the quotient is
        not exact.  The pass reads the polynomial's own keys, before any
        rescale or class is made.  Zero level sums are necessary only: the
        classes are still walked.
        """
        if not tau and not ell:
            raise ValueError("division by 1 - 1 is undefined")
        if not self._terms:
            return MotPoly.zero()
        terms, r = self._terms, self._r
        levels: dict = {}  # level, or (level, symbols) when there are symbols
        get = levels.get
        for (t, l, s), c in terms.items():
            key = (t * ell - l * tau, s) if s else t * ell - l * tau
            levels[key] = get(key, 0) + c
        if any(levels.values()):
            return None
        if r % d:
            m = d // math.gcd(r, d)
            terms, r = _rescale(terms, m), r * m
        m = r // d
        return _class_quotient(terms, r, tau * m, ell * m)

    def divide_L_minus_one(self) -> "MotPoly | None":
        """Exact quotient by ``L - 1``, or None.

        The class walk of :meth:`divide_one_minus` along the direction L,
        with its quotient by ``1 - L`` negated, after the one cheap
        rejection that direction has: L - 1 divides a polynomial only if
        its coefficients sum to zero.  The fold takes the content
        ``(L - 1)^k`` out of its terms' coefficients with it, so it is a
        method of its own: the divisions by the fold's factors are the
        only calls :meth:`divide_one_minus` counts.
        """
        terms, r = self._terms, self._r
        if sum(terms.values()):
            return None
        q = _class_quotient(terms, r, 0, r)
        return None if q is None else -q

    def mul_monomial(self, r: int, a: tuple[int, int]) -> "MotPoly":
        """The product with the monomial ``x^a``, ``a = (tau*r, ell*r)`` on
        the scale r: each key shifted by ``a``, on the lcm scale."""
        terms, rs = self._terms, self._r
        R = math.lcm(rs, r)
        terms = _rescale(terms, R // rs)
        m = R // r
        ta, la = a[0] * m, a[1] * m
        return MotPoly.from_lattice({(t + ta, l + la, s): c for (t, l, s), c in terms.items()}, R)

    # -- rendering ---------------------------------------------------------

    # The printers live in symring, which imports this module.

    def __str__(self) -> str:
        from .symring import render_poly

        return render_poly(self)

    def __repr__(self) -> str:
        return "MotPoly(%s)" % self

    def latex(self) -> str:
        from .symring import latex_poly

        return latex_poly(self)

    def json_obj(self):
        """The terms as JSON-ready dicts, in canonical order.  The CLI writes
        the same data as text with :func:`qzeta.symring.json_poly`."""
        terms, r = self.lattice()

        def frac(x: int) -> dict:
            num, den = reduce_exp(x, r)
            return {"num": num, "den": den}

        return [
            {"c": c, "L": frac(l), "T": frac(t), "syms": dict(syms)}
            for (t, l, syms), c in terms
        ]


def reduce_exp(x: int, r: int) -> tuple[int, int]:
    """The lattice exponent x/r in lowest terms, as (numerator, denominator)."""
    g = math.gcd(x, r)
    return x // g, r // g


# ---------------------------------------------------------------------------
# exact rational powers


def _int_nth_root(a: int, n: int) -> int | None:
    if n == 1:
        return a
    if a < 0:
        if n % 2 == 0:
            return None
        r = _int_nth_root(-a, n)
        return None if r is None else -r
    if a in (0, 1):
        return a
    # Newton's iteration decreases monotonically to floor(a^(1/n)) from
    # any start at or above it, such as this power of two.
    x = 1 << -(-a.bit_length() // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x**n == a else None


def _exact_root(p: Fraction, d: int) -> tuple[int, int]:
    """The d-th root of p as (numerator, denominator) in lowest terms,
    raising FractionalPowerUnevaluable when it is not rational."""
    if d == 1:
        return p.numerator, p.denominator
    rn = _int_nth_root(p.numerator, d)
    rd = _int_nth_root(p.denominator, d)
    if rn is None or rd is None:
        raise FractionalPowerUnevaluable("%s has no exact rational %d-th root" % (p, d))
    return rn, rd


def _digits_bound(lo: int, hi: int, csum: int, a: int, b: int) -> int:
    """An upper bound on the decimal digits of the numerator and of the
    denominator of sum c * (a/b)^k over lo <= k <= hi with sum |c| = csum,
    as :func:`_laurent_value` forms them: with M = max(|a|, b), the integer
    S there is at most csum * M^(hi - lo) in size, so no power need be
    taken."""
    la = math.log10(abs(a)) if a else 0.0
    lb = math.log10(b)
    num = math.log10(csum) + (hi - lo) * max(la, lb) + max(lo, 0) * la + max(-hi, 0) * lb
    den = max(-lo, 0) * la + max(hi, 0) * lb
    return math.floor(max(num, den)) + 1


def _laurent_value(col: dict[int, int], a: int, b: int) -> Fraction:
    """sum c * (a/b)^k over col = {k: c}, with one division: with lo and hi
    the least and greatest k, it is S * a^lo / b^hi for the integer
    S = sum c * a^(k-lo) * b^(hi-k)."""
    lo, hi = min(col), max(col)
    s = sum(c * a ** (k - lo) * b ** (hi - k) for k, c in col.items())
    num = s * a ** max(lo, 0) * b ** max(-hi, 0)
    return Fraction(num, a ** max(-lo, 0) * b ** max(hi, 0))
