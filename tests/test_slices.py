"""Printed views as slices of bounded size.

Each printer in ``symring`` makes its text as a list of slices, one per
``SLICE_TERMS`` sorted terms, and the CLI writes them one after another.
The slice boundaries must not show in the text: a sum's first sign, the
separators of a JSON list and the common monomial of a factored
polynomial are written once, whatever the slice size.  And a printed view
must cost about its own text in memory, not a multiple of it.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from qzeta import cli, symring
from qzeta.groups import parse_group_literal
from qzeta.motpoly import ValuesAtL
from qzeta.symring import MotPoly, RatFunc, fac, series_expand
from qzeta.zetacore import local_monomial_zeta

SYMS = ((), (("A", 1),), (("B", -2), ("C", 1)), (("%d", 3),))


def _poly(rng: random.Random, nterms: int, syms=SYMS) -> MotPoly:
    """Up to ``nterms`` terms with negative and fractional exponents on a
    random scale, coefficients ±1 among them."""
    r = rng.choice((1, 2, 6))
    terms = {
        (rng.randint(-9, 9), rng.randint(-9, 9), rng.choice(syms)): rng.choice((-1, 1, -3, 2, 10**20))
        for _ in range(nterms)
    }
    return MotPoly.from_lattice(terms, r)


def _polys() -> list[MotPoly]:
    rng = random.Random(26)
    out = [MotPoly.zero(), MotPoly.one(), MotPoly.const(-1), MotPoly.sym("A", -2) * MotPoly.L(F(-1, 2))]
    out += [_poly(rng, n) for n in (2, 3, 5, 8, 13, 40) for _ in range(4)]
    # a common monomial with symbols, whose removal reorders the terms
    common = MotPoly.sym("A", 2) * MotPoly.sym("B", -1) * MotPoly.L(F(-3, 2)) * MotPoly.T(F(1, 3))
    out += [common * _poly(rng, n, ((), (("A", -1),), (("B", 2),), (("A", 1), ("B", 1)))) for n in (3, 9, 30)]
    # a common monomial of L and T alone
    out += [MotPoly.L(-2) * MotPoly.T(F(2, 3)) * _poly(rng, n, ((),)) for n in (4, 25)]
    return out


def _values(rng: random.Random, n: int) -> ValuesAtL:
    r = rng.choice((1, 3))
    ts = sorted(rng.sample(range(-20, 40), n))
    return ValuesAtL(ts, [rng.choice((0, 1, -1, 7, F(-5, 3), 10**20)) for _ in ts], r)


def _views() -> list[str]:
    """Every sliced printer's text on the seeded inputs."""
    rng = random.Random(27)
    out = []
    polys = _polys()
    for p in polys:
        out += [symring.render_poly(p), symring.render_poly_factored(p), symring.latex_poly(p)]
        out += [symring.json_poly(p), str(p)]
        out.append(str(RatFunc(p, ((fac(1, 1), 2), (fac(F(1, 2), F(3, 2)), 1)))))
        out.append(str(RatFunc(p, ())))
    for n in (0, 1, 2, 9, 30):
        vals = _values(rng, n)
        out += [symring.render_values_at_L(F(-8, 3), vals), symring.json_values_at_L(vals)]
        p, q = polys[-3], polys[-7]
        out.append(symring.json_dump({"b": p, "a": q, "c": p, "d": vals, "n": n, "z": [1, {"y": 2}]}))
    out.append(symring.json_dump({}))
    return out


@pytest.mark.parametrize("size", (1, 2, 3, 7))
def test_slices_join_to_the_unbounded_text(monkeypatch, size):
    monkeypatch.setattr(symring, "SLICE_TERMS", 10**9)
    whole = _views()
    monkeypatch.setattr(symring, "SLICE_TERMS", size)
    assert _views() == whole


@pytest.mark.parametrize("size", (1, 3, 512))
def test_each_slice_covers_at_most_the_slice_size(monkeypatch, size):
    monkeypatch.setattr(symring, "SLICE_TERMS", size)
    for p in _polys():
        runs = math.ceil(len(p) / size)
        assert len(symring.render_poly_slices(p)) == max(runs, 1)
        assert len(symring.json_poly_slices(p)) == runs + 2
    vals = _values(random.Random(28), 30)
    assert len(symring.render_values_at_L_slices(1, vals)) == 1 + math.ceil(30 / size)
    assert len(symring.json_values_at_L_slices(vals)) == 2 + math.ceil(30 / size)


# ---------------------------------------------------------------------------
# memory


class _CountingSink:
    """A stdout that keeps nothing, and counts the characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        assert text.isascii()
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def _traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SERIES_ARGV = ["monomial", "--group", "(1;0)", "--N", "1", "--nu", "1", "--series", "20000"]


@pytest.mark.parametrize("views", ([], ["--json"]), ids=("text", "json"))
def test_printing_costs_at_most_twice_its_text(monkeypatch, views):
    # The peak of a CLI run that prints a 20,000-term series, above the
    # peak of building that series, is at most twice the text written.
    # With every view joined into one string it was 12.2 times the text,
    # and 4.6 times for --json.
    sink = _CountingSink()
    monkeypatch.setattr("sys.stdout", sink)
    # the parser, made on the first call and kept
    assert cli.main(SERIES_ARGV[:-1] + ["3", *views]) == 0
    build = _traced_peak(
        lambda: series_expand(local_monomial_zeta(parse_group_literal("(1;0)"), (1,), (1,)), 20000)
    )
    sink.chars = 0
    status = []
    run = _traced_peak(lambda: status.append(cli.main(SERIES_ARGV + views)))
    assert status == [0] and sink.chars > 20000 * 35
    assert (run - build) / sink.chars <= 2
