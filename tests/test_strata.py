from __future__ import annotations

import math
import time
from fractions import Fraction as F

import pytest

from qzeta.cli import main
from qzeta.groups import GroupAction
from qzeta.resolution import (
    YomdinParams,
    hj_resolve,
    hj_stratification,
    tetra_stratification,
    yomdin_stratification,
)
from qzeta.strata import (
    MAX_POWER_DIGITS,
    ParseError,
    UndeclaredSymbol,
    _expr_str,
    parse_strata,
    render_strata,
)
from qzeta.symring import MotPoly
from qzeta.tetra import TetraParams
from qzeta.zetacore import Stratification, Stratum

EXAMPLE = """\
# comments run to end of line
dimension = 2
gindex = 7
symbol C0 chi = -1
stratum { class = L - 1 ; N = [1/7, 0] ; nu = [3/7, 1] ; group = (1; 0,0) }
"""


def test_parse_example():
    sf = parse_strata(EXAMPLE)
    strat = sf.stratification
    assert strat.n == 2 and strat.r == 7
    (st,) = strat.strata
    assert st.klass == MotPoly.L() - 1
    assert st.Nvec == (F(1, 7), F(0))
    assert st.nuvec == (F(3, 7), F(1))
    assert st.group == GroupAction.trivial(2)
    assert sf.chi_env == {"C0": -1}


def test_render_pinned():
    strat = Stratification(
        2,
        7,
        (
            Stratum(
                MotPoly.L() - 1,
                (F(1, 7), F(0)),
                (F(3, 7), F(1)),
                GroupAction.trivial(2),
            ),
        ),
    )
    assert render_strata(strat, {"C0": -1}) == (
        "dimension = 2\n"
        "gindex = 7\n"
        "symbol C0 chi = -1\n"
        "stratum { class = -1 + L ; N = [1/7, 0] ; nu = [3/7, 1] ;"
        " group = (1; 0,0) }\n"
    )


def test_roundtrip_rich():
    C0 = MotPoly.sym("C0")
    D = MotPoly.sym("D")
    L = MotPoly.L()
    g = GroupAction((4, 2), ((1, 2), (0, 1)))
    strat = Stratification(
        2,
        12,
        (
            Stratum(2 * L * L - C0 * D * D + 3, (F(1, 6), F(1)), (F(1), F(1, 2)), g),
            Stratum(-C0 + L, (F(0), F(2)), (F(1), F(3)), GroupAction.trivial(2)),
        ),
    )
    chi = {"C0": 2}
    text = render_strata(strat, chi)
    assert "N = [1/6, 1]" in text
    assert "symbol C0 chi = 2" in text
    assert "symbol D" in text
    sf = parse_strata(text)
    assert sf.stratification == strat
    assert sf.chi_env == chi
    assert render_strata(sf.stratification, sf.chi_env) == text


def test_hj_roundtrip():
    strat = hj_stratification(hj_resolve(7, 1, 3), 1, 1, 1, 1)
    text = render_strata(strat)
    sf = parse_strata(text)
    assert sf.stratification == strat
    assert render_strata(sf.stratification, sf.chi_env) == text


def test_roundtrip_property():
    """Generated stratifications of dimension 1-3, with small groups,
    rational data and class polynomials in declared symbols, parse back
    to themselves and re-render byte for byte."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    names = ("C0", "D", "E1")

    @st.composite
    def strata_files(draw):
        n = draw(st.integers(1, 3))
        groups = []
        for _ in range(draw(st.integers(1, 3))):
            orders = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
            rows = [draw(st.lists(st.integers(0, 11), min_size=n, max_size=n)) for _ in orders]
            groups.append(GroupAction(orders, rows, n))
        r = math.lcm(*(g.d_exp for g in groups)) * draw(st.integers(1, 4))
        strata = []
        for g in groups:
            klass = MotPoly.zero()
            for _ in range(draw(st.integers(0, 4))):
                syms = {x: draw(st.integers(0, 2)) for x in draw(st.sets(st.sampled_from(names)))}
                klass = klass + MotPoly.monomial(
                    draw(st.integers(-5, 5)), ell=draw(st.integers(0, 3)), syms=syms
                )
            Nvec = [F(draw(st.integers(0, 3 * r)), r) for _ in range(n)]
            nuvec = [F(draw(st.integers(1, 3 * r)), r) for _ in range(n)]
            strata.append(Stratum(klass, Nvec, nuvec, g))
        chi = {x: draw(st.integers(-4, 4)) for x in draw(st.sets(st.sampled_from(names)))}
        return Stratification(n, r, tuple(strata)), chi

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(strata_files())
    def check(case):
        strat, chi = case
        text = render_strata(strat, chi)
        sf = parse_strata(text)
        assert sf.stratification == strat
        assert sf.chi_env == chi
        assert render_strata(sf.stratification, sf.chi_env) == text

    check()


def test_expression_grammar():
    text = (
        "dimension = 1\ngindex = 1\nsymbol X\n"
        "stratum { class = -L^2 + 3 * [X] - 2 ; N = [1] ; nu = [1] ;"
        " group = (1; 0) }\n"
    )
    st = parse_strata(text).stratification.strata[0]
    want = -(MotPoly.L() ** 2) + 3 * MotPoly.sym("X") - 2
    assert st.klass == want


def test_error_positions():
    with pytest.raises(ParseError) as ei:
        parse_strata("dimension = x")
    assert (ei.value.line, ei.value.col) == (1, 13)
    with pytest.raises(ParseError) as ei:
        parse_strata("dimension = 2\ngindex = 2\nstratum { klass = 1 }")
    assert (ei.value.line, ei.value.col) == (3, 11)
    with pytest.raises(ParseError) as ei:
        parse_strata("dimension = 2\n@")
    assert (ei.value.line, ei.value.col) == (2, 1)


def test_undeclared_symbol():
    text = (
        "dimension = 1\ngindex = 1\n"
        "stratum { class = [C0] ; N = [1] ; nu = [1] ; group = (1; 0) }\n"
    )
    with pytest.raises(UndeclaredSymbol) as ei:
        parse_strata(text)
    assert isinstance(ei.value, ParseError)
    assert ei.value.line == 3


def test_duplicate_and_missing_declarations():
    with pytest.raises(ParseError, match="declared twice"):
        parse_strata("dimension = 1\ndimension = 2\ngindex = 1\n")
    with pytest.raises(ParseError, match="declared twice"):
        parse_strata("dimension = 1\ngindex = 1\nsymbol A\nsymbol A\n")
    with pytest.raises(ParseError, match="gindex"):
        parse_strata("dimension = 1\n")
    with pytest.raises(ParseError, match="dimension"):
        parse_strata("gindex = 1\n")
    with pytest.raises(ParseError, match="before the dimension"):
        parse_strata(
            "gindex = 1\n"
            "stratum { class = 1 ; N = [1] ; nu = [1] ; group = (1; 0) }\n"
            "dimension = 1\n"
        )


def test_group_shape_errors():
    # GroupAction refuses the shape; the parser reports it at the literal's "("
    head = "dimension = 2\ngindex = 7\n"
    for group, msg in (
        ("(7; 1,3,5)", "generator rows have length 3, dimension is 2"),
        ("(4,2; 1,0)", "2 cyclic orders need as many generator rows, got 1"),
        ("(0; 1,1)", "cyclic orders must be positive"),
    ):
        with pytest.raises(ParseError) as ei:
            parse_strata(
                head + "stratum { class = 1 ; N = [1, 1] ; nu = [1, 1] ;"
                " group = %s }\n" % group
            )
        assert str(ei.value) == "line 3, column 58: " + msg


def test_vector_length_checked():
    # Stratum refuses the lengths; the parser reports it at the stratum's "{"
    with pytest.raises(ParseError) as ei:
        parse_strata(
            "dimension = 2\ngindex = 1\n"
            "stratum { class = 1 ; N = [1] ; nu = [1, 1] ; group = (1; 0,0) }\n"
        )
    assert str(ei.value) == "line 3, column 9: stratum data lengths 1/2 vs group dimension 2"


def _stratum(N="1, 1", nu="1, 1", group="(1; 0,0)") -> str:
    return "stratum { class = 1 ; N = [%s] ; nu = [%s] ; group = %s }\n" % (N, nu, group)


_HEAD = "dimension = 2\ngindex = 7\n"

# Each value a constructor refuses, with the position the parser gives it:
# the stratum's "{" (Stratum), the group literal's "(" (GroupAction), the
# keyword of the refused declaration (Stratification), or the character.
REFUSALS = {
    "N below 0": (_HEAD + _stratum(N="-1, 1"), 3, 9, "stratum N entries must be >= 0"),
    "nu of 0": (_HEAD + _stratum(nu="0, 1"), 3, 9, "stratum nu entries must be > 0"),
    "short vector": (_HEAD + _stratum(N="1"), 3, 9, "stratum data lengths 1/2 vs group dimension 2"),
    "long vector": (_HEAD + _stratum(nu="1, 1, 1"), 3, 9, "stratum data lengths 2/3 vs group dimension 2"),
    "long row": (_HEAD + _stratum(group="(7; 1,3,5)"), 3, 58, "generator rows have length 3, dimension is 2"),
    "order 0": (_HEAD + _stratum(group="(0; 1,1)"), 3, 58, "cyclic orders must be positive"),
    "order over the limit": (
        _HEAD.replace("7", "200003") + _stratum(group="(200003; 1,1)"), 3, 58,
        "refusing to enumerate 200003 tuples",
    ),
    "unprintable order": (
        _HEAD + _stratum(group="(%s,%s7; 1,0; 0,1)" % ("9" * 2200, "1" * 2199)), 3, 58,
        "refusing to enumerate a 4400-digit number of tuples",
    ),
    "denominator": (_HEAD + _stratum(N="1/3, 1"), 2, 1, "denominator of 1/3 does not divide the index 7"),
    "foreign factor": (_HEAD + _stratum(group="(5; 1,1)"), 2, 1, "group exponent 5 has the factor 5 foreign to index 7"),
    "dimension 0": ("dimension = 0\ngindex = 1\n", 1, 1, "dimension and index must be positive"),
    "gindex 0": ("dimension = 1\n  gindex = 0\n", 2, 3, "dimension and index must be positive"),
    "superscript digit": (_HEAD + _stratum(N="\u00b2, 1"), 3, 28, "expected an integer, got '\u00b2'"),
    "non-ASCII digit": (_HEAD + _stratum(N="\u0663, 1"), 3, 28, "unexpected character '\u0663'"),
}


@pytest.mark.parametrize("case", REFUSALS, ids=list(REFUSALS))
def test_every_refusal_has_a_position(case, capsys, tmp_path):
    text, line, col, msg = REFUSALS[case]
    with pytest.raises(ParseError) as ei:
        parse_strata(text)
    assert (ei.value.line, ei.value.col) == (line, col)
    assert str(ei.value) == "line %d, column %d: %s" % (line, col, msg)
    path = tmp_path / "bad.strata"
    path.write_text(text, encoding="utf-8")
    assert main(["strata", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: line %d, column %d: %s\n" % (line, col, msg))


def test_edited_emitted_files_raise_only_parse_errors():
    """One to three character edits of emitted hj, yomdin and tetra files
    either parse or raise ParseError, never another exception."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    texts = [
        render_strata(hj_stratification(hj_resolve(13, 2, 5), F(1, 2), 3, 1, F(5, 3))),
        render_strata(*yomdin_stratification(YomdinParams(4, 2, 2, 3, 2))),
        render_strata(*tetra_stratification(TetraParams(7, 3), F(2, 3), 1)),
    ]
    chars = st.sampled_from(sorted(set("".join(texts)) | set("0123456789\u00b2\u00e9_#\n-")))
    edit = st.tuples(st.sampled_from(("insert", "delete", "replace")), st.floats(0, 1), chars)

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(texts), st.lists(edit, min_size=1, max_size=3))
    def check(text, edits):
        for op, where, ch in edits:
            i = min(int(where * len(text)), len(text) - 1)
            if op == "insert":
                text = text[:i] + ch + text[i:]
            elif op == "delete":
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + ch + text[i + 1:]
        try:
            parse_strata(text)
        except ParseError:
            pass

    check()


def test_render_rejects_nonclass_polynomials():
    st_bad = Stratum(
        MotPoly.L(-1), (F(1),), (F(1),), GroupAction.trivial(1)
    )
    strat = Stratification(1, 1, (st_bad,))
    with pytest.raises(ValueError):
        render_strata(strat)
    st_frac = Stratum(
        MotPoly.L(F(1, 2)) + 1, (F(1),), (F(1),), GroupAction.trivial(1)
    )
    with pytest.raises(ValueError) as ei:
        render_strata(Stratification(1, 1, (st_frac,)))
    assert str(ei.value) == "class polynomial needs plain L powers, got L^1/2"
    # Stratum itself refuses a T power, so the emitter's check is called
    # directly.  Terms are checked in canonical order (T-exponent first).
    with pytest.raises(ValueError) as ei:
        _expr_str(MotPoly.L(2) + MotPoly.T(1))
    assert str(ei.value) == "class polynomial carries a T power"
    with pytest.raises(ValueError) as ei:
        _expr_str(MotPoly.T(1) + MotPoly.L(F(1, 2)))
    assert str(ei.value) == "class polynomial needs plain L powers, got L^1/2"


def test_zero_denominator_position():
    text = "dimension = 2\ngindex = 1\nstratum { class = 1 ; N = [1/0, 0] ; nu = [1, 1] ; group = (1; 0,0) }\n"
    with pytest.raises(ParseError, match="zero denominator") as ei:
        parse_strata(text)
    assert (ei.value.line, ei.value.col) == (3, 30)


def _one_class(expr: str) -> str:
    return (
        "dimension = 1\ngindex = 1\nsymbol X\n"
        "stratum { class = %s ; N = [1] ; nu = [1] ; group = (1; 0) }\n" % expr
    )


def test_integer_power_bounded_at_parse_time():
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as ei:
        parse_strata(_one_class("3^30000000"))
    assert time.perf_counter() - t0 < 5  # the power itself takes tens of seconds
    assert str(ei.value) == "line 4, column 21: 3^30000000 has more than 4300 decimal digits"
    assert MAX_POWER_DIGITS == 4300
    # 3^9012 and 10^4299 have 4300 digits; 3^9013 and 10^4300 have 4301
    fits = (("3^9012", 3**9012), ("10^4299", 10**4299), ("2 - 10^4299", 2 - 10**4299))
    for expr, value in fits:
        (st,) = parse_strata(_one_class(expr)).stratification.strata
        assert st.klass == MotPoly.const(value)
    too_big = (("3^9013", 21), ("10^4300", 22), ("2^14300", 21), ("L + 7^99999999999999999999", 25))
    for expr, col in too_big:
        with pytest.raises(ParseError, match="more than 4300 decimal digits") as ei:
            parse_strata(_one_class(expr))
        assert (ei.value.line, ei.value.col) == (4, col)
    # bases 0 and 1, L and symbols are not bounded: their powers cost nothing
    (st,) = parse_strata(
        _one_class("0^30000000 + 1^30000000 * L^30000000 - [X]^30000000")
    ).stratification.strata
    assert st.klass == MotPoly.L() ** 30000000 - MotPoly.sym("X") ** 30000000


def test_integer_literal_bounded_at_its_token():
    big = "1" + "0" * MAX_POWER_DIGITS  # 10^4300, 4301 digits
    msg = "integer literal has more than 4300 decimal digits"
    cases = (
        (_one_class(big), 4, 19),
        (_one_class("L - " + big), 4, 23),
        (_one_class("L^" + big), 4, 21),
        (_one_class("1").replace("N = [1]", "N = [%s]" % big), 4, 28),
        (_one_class("1").replace("nu = [1]", "nu = [1/%s]" % big), 4, 41),
        (_one_class("1").replace("gindex = 1", "gindex = " + big), 2, 10),
        ("dimension = 1\ngindex = 1\nsymbol X chi = -%s\n" % big, 3, 17),
    )
    for text, line, col in cases:
        with pytest.raises(ParseError) as ei:
            parse_strata(text)
        assert str(ei.value) == "line %d, column %d: %s" % (line, col, msg)
    # 4300 digits still fit, leading zeros included
    (st,) = parse_strata(_one_class("9" * 4300 + " - 0" + "7" * 4299)).stratification.strata
    assert st.klass == MotPoly.const(10**4300 - 1 - int("7" * 4299))


def test_computed_coefficient_bounded_at_its_operator():
    nines = "9" * 4300  # 10^4300 - 1, the largest coefficient that fits
    msg = "coefficient has more than 4300 decimal digits"
    cases = (
        ("10^4299 * 10^4299", 27),
        ("L * 10^2150 * L * 10^2150", 35),
        ("%s + 1" % nines, 4320),
        ("-%s - 1" % nines, 4321),
        ("%s * L - 1 + %s * L" % (nines, nines), 4328),
        # the running sum is bounded, even where a later term brings it back
        ("%s + %s - %s" % (nines, nines, nines), 4320),
    )
    for expr, col in cases:
        with pytest.raises(ParseError) as ei:
            parse_strata(_one_class(expr))
        assert str(ei.value) == "line 4, column %d: %s" % (col, msg)
    c = 10**4300 - 1
    fits = (
        ("10^4299 * 9", MotPoly.const(9 * 10**4299)),
        ("%s - 1 + 1" % nines, MotPoly.const(c)),
        ("-%s + 1 - 1" % nines, MotPoly.const(-c)),
        ("%s + %s * L - %s * L^2" % (nines, nines, nines), c * (1 + MotPoly.L() - MotPoly.L() ** 2)),
        ("L - L + 5", MotPoly.const(5)),
    )
    for expr, klass in fits:
        (st,) = parse_strata(_one_class(expr)).stratification.strata
        assert st.klass == klass
    assert MotPoly.zero().height() == 0 and (3 - 7 * MotPoly.L()).height() == 7


def test_oversized_coefficient_exits_with_a_position(capsys, tmp_path):
    path = tmp_path / "big.strata"
    path.write_text(_one_class("10^4299 * 10^4299"), encoding="utf-8")
    assert main(["strata", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: line 4, column 27: coefficient has more than 4300 decimal digits\n"
    )


def test_emitted_files_round_trip():
    big = 3**9012  # a 4300-digit coefficient is written out in full
    strats = [
        (hj_stratification(hj_resolve(97, 1, 96), 2, 3, 1, 2), None),
        yomdin_stratification(YomdinParams(12, 8, 5, 7, 3)),
        tetra_stratification(TetraParams(13, 4), F(2), F(3)),
    ]
    klass = MotPoly.const(big) * MotPoly.L() - 1
    st = Stratum(klass, (F(1),), (F(1),), GroupAction.trivial(1))
    strats.append((Stratification(1, 1, (st,)), None))
    for strat, chi in strats:
        text = render_strata(strat, chi)
        sf = parse_strata(text)
        assert sf.stratification == strat
        assert render_strata(sf.stratification, sf.chi_env) == text
