from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import qzeta
from qzeta import cli, symring
from qzeta.cli import main
from qzeta.symring import MotPoly, ZetaExpr


def run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_monomial_gor(capsys):
    rc, out, err = run(capsys, ["monomial", "--group", "(2;1,1)", "--N", "0,0", "--nu", "1,1"])
    assert rc == 0
    assert out == "L^-2 * (1 + L)\n"
    assert err == ""


def test_monomial_views(capsys):
    rc, out, _ = run(
        capsys,
        ["monomial", "--group", "(1;0,0)", "--N", "1,1", "--nu", "1,1", "--poles", "--euler"],
    )
    assert rc == 0
    assert out == (
        "(L^-4 * T^2 * (1 - 2 * L + L^2)) / ((1 - L^-1 * T)^2)\n"
        "euler: (1) / ((s + 1)^2)\n"
        "candidate poles: s = -1\n"
    )


def test_series_of_a_quotient_with_no_factor_left(capsys):
    # The chain route of 1/7(1,3) with N = 0 has only factors Fac(0; nu),
    # which have no expansion in T, but its fold cancels all of them: the
    # series is the reduced polynomial, as the direct route prints it.
    data = ["--N", "0,0", "--nu", "1,1", "--series", "3", "--eval-L", "1"]
    hj = run(capsys, ["hj", "--d", "7", "--a", "1", "--b", "3", *data])
    direct = run(capsys, ["monomial", "--group", "(7;1,3)", *data])
    series = (
        "series (T-order <= 3): L^-2 + L^(-10/7) + L^(-9/7) + L^(-8/7) + L^(-6/7)"
        " + L^(-5/7) + L^(-4/7)\n"
        "series at L = 1:\n"
        "  T^0: 7\n"
    )
    assert hj[0] == direct[0] == 0 and hj[2] == direct[2] == ""
    assert hj[1] == direct[1] == "L^-2 * (1 + L^(4/7) + L^(5/7) + L^(6/7) + L^(8/7) + L^(9/7) + L^(10/7))\n" + series
    hj_json = json.loads(run(capsys, ["hj", "--d", "7", "--a", "1", "--b", "3", *data, "--json"])[1])
    direct_json = json.loads(run(capsys, ["monomial", "--group", "(7;1,3)", *data, "--json"])[1])
    assert hj_json["series"] == direct_json["series"] and len(hj_json["series"]) == 7
    assert hj_json["series_at_L"] == direct_json["series_at_L"]
    # a factor that the fold leaves is refused as before
    for argv in (
        ["hj", "--d", "7", "--a", "1", "--b", "3", "--N", "0,1", "--nu", "2,1", "--series", "3"],
        ["monomial", "--group", "(1;0)", "--N", "0", "--nu", "2", "--series", "3"],
    ):
        assert run(capsys, argv) == (1, "", "error: factor Fac(0; 2) has no Laurent expansion in T\n")


def test_series_at_L(capsys):
    rc, out, _ = run(
        capsys,
        ["monomial", "--group", "(1;0)", "--N", "1", "--nu", "1", "--series", "2", "--eval-L", "3"],
    )
    assert rc == 0
    assert out == (
        "(L^-2 * T * (-1 + L)) / ((1 - L^-1 * T))\n"
        "series (T-order <= 2): -L^-2 * T + L^-1 * T - L^-3 * T^2 + L^-2 * T^2\n"
        "series at L = 3:\n"
        "  T^1: 2/9\n"
        "  T^2: 2/27\n"
    )


def test_monomial_latex(capsys):
    rc, out, _ = run(
        capsys, ["monomial", "--group", "(2;1,1)", "--N", "0,0", "--nu", "1,1", "--latex"]
    )
    assert rc == 0
    assert out == "\\left(\\mathbb{L}^{-2}+\\mathbb{L}^{-1}\\right)\n"


def test_latex_writes_the_series_line_in_latex(capsys):
    # the zeta line, euler: and the series line are all LaTeX; the
    # --eval-L lines are values, written as in text
    argv = ["monomial", "--group", "(2;1,1)", "--N", "1,1", "--nu", "1,1", "--series", "2", "--euler"]
    rc, out, _ = run(capsys, argv + ["--latex"])
    assert rc == 0
    assert out.splitlines()[2] == (
        "series (T-order <= 2): \\mathbb{L}^{-3}T^{1}-2\\mathbb{L}^{-2}T^{1}+\\mathbb{L}^{-1}T^{1}"
        "+3\\mathbb{L}^{-4}T^{2}-6\\mathbb{L}^{-3}T^{2}+3\\mathbb{L}^{-2}T^{2}"
    )
    _rc, text, _ = run(capsys, argv + ["--eval-L", "3"])
    _rc, latex, _ = run(capsys, argv + ["--eval-L", "3", "--latex"])
    assert latex.splitlines()[3:] == text.splitlines()[3:] == ["series at L = 3:", "  T^1: 4/27", "  T^2: 4/27"]


def test_eval_L_requires_series(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["monomial", "--group", "(1;0)", "--N", "1", "--nu", "1", "--eval-L", "3"])
    assert ei.value.code == 2
    assert "--eval-L needs --series" in capsys.readouterr().err


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2
    capsys.readouterr()


def _outcome(argv):
    """(exit status, stdout, stderr) of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_shared_parser_leaks_no_state(monkeypatch):
    hj = ["hj", "--d", "7", "--a", "1", "--b", "3"]
    seq = [
        hj + ["--N", "2,3", "--nu", "1,2"],
        hj,
        ["group", "(4;1,2)"],
        ["group", "(4;1,2)", "--json"],
        ["hj", "--d", "x", "--a", "1", "--b", "3"],
        ["monomial", "--group", "(1;0)", "--N", "1", "--nu", "1", "--eval-L", "3"],
        ["frobnicate"],
        ["hj", "--help"],
        hj,
    ]
    shared = [_outcome(argv) for argv in seq]
    # the same calls, each on a parser of its own
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_outcome(argv) for argv in seq]
    assert shared == fresh
    assert [rc for rc, _out, _err in shared] == [0, 0, 0, 0, 2, 2, 2, 0, 0]
    # the default --N 1,1 is applied again after an explicit --N
    assert shared[1] == shared[-1] != shared[0]
    assert shared[7][1].startswith("usage: qzeta hj")


def test_main_builds_its_parser_once(monkeypatch, capsys):
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    for literal in ("(2;1,1)", "(3;1,2)", "(4;1,2)", "(2;1,1)", "(5;1,4)"):
        assert main(["group", literal]) == 0
    capsys.readouterr()
    assert len(builds) == 1
    assert build() is not build()


def test_nonsmall_is_domain_error(capsys):
    rc, out, err = run(capsys, ["monomial", "--group", "(4;1,2)", "--N", "1,1", "--nu", "1,1"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "quasi-reflexions" in err


def _package_exceptions() -> list[type]:
    """Every exception class a qzeta module defines, by name."""
    mods = [importlib.import_module("qzeta." + m.name) for m in pkgutil.iter_modules(qzeta.__path__)]
    return sorted(
        {
            obj
            for mod in mods
            for obj in vars(mod).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == mod.__name__
        },
        key=lambda cls: cls.__name__,
    )


@pytest.mark.parametrize("cls", _package_exceptions(), ids=lambda cls: cls.__name__)
def test_every_refusal_exits_1(capsys, monkeypatch, cls):
    """A refusal of any package type, raised anywhere under a subcommand,
    exits 1 with its message on an error line: the CLI lists no types."""
    msg = "refused by %s" % cls.__name__
    exc = cls(msg, 3, 4) if issubclass(cls, qzeta.strata.ParseError) else cls(msg)

    def refuse(literal):
        raise exc

    monkeypatch.setattr(qzeta.groups, "parse_group_literal", refuse)
    assert run(capsys, ["group", "(2;1)"]) == (1, "", "error: %s\n" % exc)


def test_allow_nonsmall_notice(capsys):
    rc, out, err = run(
        capsys,
        ["monomial", "--group", "(4;1,2)", "--N", "1,1", "--nu", "1,1", "--allow-nonsmall"],
    )
    assert rc == 0
    assert out.endswith("/ ((1 - L^-1 * T)^2)\n")
    assert err == "notice: group is not small; quasi-reflexions contribute extra jets\n"


def test_hj_check_equal(capsys):
    rc, out, _ = run(capsys, ["hj", "--d", "7", "--a", "1", "--b", "3", "--check"])
    assert rc == 0
    assert out.splitlines()[-1] == "cross-check vs direct quotient formula: EQUAL"


def test_check_different_exits_1(capsys, monkeypatch):
    # a second route that disagrees must print DIFFERENT and fail the run
    monkeypatch.setattr("qzeta.cli.yomdin_zeta_closed", lambda y: ZetaExpr.one())
    argv = ["yomdin", "--m", "9", "--k", "4", "--p", "5", "--q", "7", "--a", "2", "--check"]
    rc, out, _ = run(capsys, argv)
    assert rc == 1
    assert out.splitlines()[-1] == "cross-check vs closed-form assembly: DIFFERENT"


@pytest.mark.parametrize(
    "name,argv",
    [
        ("yomdin_zeta_closed", ["yomdin", "--m", "5", "--k", "2", "--p", "2", "--q", "3", "--a", "1"]),
        ("tetra_zeta_closed", ["tetra", "--d", "7", "--q", "3", "--N", "1", "--nu", "2"]),
    ],
)
def test_check_different_on_a_perturbed_closed_form(capsys, monkeypatch, name, argv):
    # The closed form with L^5 added to one coefficient: its terms are
    # those of the strata but for one value, so ze_equal compares quotients.
    closed = getattr(cli, name)

    def perturbed(*args):
        z = closed(*args)
        factors, _coeff = next(iter(z.iter_terms()))
        return z + ZetaExpr.of(MotPoly.L(5), factors)

    monkeypatch.setattr(cli, name, perturbed)
    for view in ([], ["--json"]):
        rc, out, _ = run(capsys, argv + ["--check"] + view)
        assert rc == 1
        assert out.splitlines()[-1] == "cross-check vs closed-form assembly: DIFFERENT"
    monkeypatch.undo()
    rc, out, _ = run(capsys, argv + ["--check"])
    assert (rc, out.splitlines()[-1]) == (0, "cross-check vs closed-form assembly: EQUAL")


def test_hj_arity_error(capsys):
    rc, _, err = run(capsys, ["hj", "--d", "7", "--a", "1", "--b", "3", "--N", "1,1,1"])
    assert rc == 1
    assert err == "error: hj needs two-entry --N and --nu vectors\n"


@pytest.mark.parametrize(
    "data, err",
    [
        (["--N", "1,-1"], "error: stratum N entries must be >= 0\n"),
        (["--nu", "0,1"], "error: stratum nu entries must be > 0\n"),
        # the first stratum, (N2, N of the first curve) = (3, 8/7), has its N
        # in range, so its nu = 0 is refused before the N1 = -1 of the last
        (["--N=-1,3", "--nu=1,0"], "error: stratum nu entries must be > 0\n"),
        (["--N=3,-1", "--nu=0,1"], "error: stratum N entries must be >= 0\n"),
    ],
)
def test_hj_data_out_of_range(capsys, data, err):
    assert run(capsys, ["hj", "--d", "7", "--a", "1", "--b", "3", *data]) == (1, "", err)


@pytest.mark.parametrize(
    "argv, err",
    [
        (["tetra", "--d", "7", "--q", "3", "--N", "-1"], "error: stratum N entries must be >= 0\n"),
        (["tetra", "--d", "7", "--q", "3", "--nu", "0"], "error: stratum nu entries must be > 0\n"),
        # as a checked first stratum (NE, 0, 0), (nuE, 1, 1) would: N first
        (["tetra", "--d", "7", "--q", "3", "--N", "-1", "--nu", "-1"], "error: stratum N entries must be >= 0\n"),
        # a non-small member is reduced first; the refusal leaves no notice
        (["tetra", "--d", "5", "--q", "2", "--nu=-1/2"], "error: stratum nu entries must be > 0\n"),
        (["yomdin", "--m", "3", "--k", "1", "--p", "2", "--q", "4", "--a", "1"],
         "error: cusp pair needs 2 <= p < q coprime\n"),
        (["yomdin", "--m", "460", "--k", "1", "--p", "449", "--q", "451", "--a", "1"],
         "error: refusing to enumerate 202499 tuples\n"),
    ],
    ids=["tetra-N", "tetra-nu", "tetra-both", "tetra-reduced", "yomdin-cusp", "yomdin-size"],
)
def test_builder_refusals_pinned(capsys, argv, err):
    # the yomdin and tetra builders check their input once and make their
    # strata unchecked; the refusals keep the checked strata's lines
    assert run(capsys, argv) == (1, "", err)


def test_tetra_stringy(capsys):
    rc, out, _ = run(capsys, ["tetra", "--d", "3", "--q", "2", "--stringy"])
    assert rc == 0
    assert out == "11\nconjugacy classes: 11 (match)\n"


def test_tetra_stringy_json(capsys):
    rc, out, _ = run(capsys, ["tetra", "--d", "3", "--q", "2", "--stringy", "--json"])
    assert rc == 0
    assert json.loads(out) == {"conjugacy": 11, "match": True, "stringy": 11}


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_tetra_stringy_refuses_nonsmall_before_building(capsys, monkeypatch, extra):
    from qzeta import tetra

    built, scanned = [], []
    build, scan = tetra.build_tetra, tetra.is_small_tetra
    monkeypatch.setattr(tetra, "build_tetra", lambda d, q: built.append((d, q)) or build(d, q))
    monkeypatch.setattr(tetra, "is_small_tetra", lambda t: scanned.append(t) or scan(t))
    rc, out, err = run(capsys, ["tetra", "--d", "40", "--q", "3", "--stringy", *extra])
    assert (rc, out, err) == (1, "", "error: G(40, 3) has quasi-reflexions\n")
    assert built == [] and scanned == []
    # a small member is still built, and its eigenvalue scan still runs
    rc, _out, _err = run(capsys, ["tetra", "--d", "7", "--q", "3", "--stringy", *extra])
    assert rc == 0 and built == [(7, 3)] and len(scanned) == 1


def test_tetra_reduction_notice(capsys):
    rc, out, err = run(capsys, ["tetra", "--d", "5", "--q", "2", "--check"])
    assert rc == 0
    assert err == "notice: G(5, 2) has quasi-reflexions; using G(1, 0)\n"
    assert out.splitlines()[-1] == "cross-check vs closed-form assembly: EQUAL"


def test_yomdin_full(capsys):
    rc, out, err = run(
        capsys,
        [
            "yomdin", "--m", "3", "--k", "1", "--p", "2", "--q", "3", "--a", "3",
            "--check", "--charpoly", "--euler",
        ],
    )
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("(L^-47 * T^3 * (")
    assert lines[0].endswith(
        "/ ((1 - L^-3) * (1 - L^-1 * T) * (1 - L^-5 * T^3) * (1 - L^-35 * T^24))"
    )
    assert lines[1] == "euler: (46*s^2 + 319/3*s + 175/3) / ((s + 1) * (3*s + 5) * (24*s + 35))"
    assert lines[2] == "cross-check vs closed-form assembly: EQUAL"
    assert lines[3] == (
        "monodromy charpoly: (t^3 - 1) * (t^4 - 1) * (t^24 - 1)"
        " / ((t - 1) * (t^8 - 1) * (t^12 - 1))"
    )
    assert lines[4] == "degree: 10"


def test_yomdin_unrealizable_notice(capsys):
    rc, _, err = run(
        capsys, ["yomdin", "--m", "2", "--k", "1", "--p", "2", "--q", "5", "--a", "1"]
    )
    assert rc == 0
    assert err.startswith("notice: no surface with these invariants exists")


def test_monomial_json(capsys):
    rc, out, _ = run(
        capsys,
        ["monomial", "--group", "(2;1,1)", "--N", "1,1", "--nu", "1,1",
         "--json", "--poles", "--euler"],
    )
    assert rc == 0
    obj = json.loads(out)
    assert sorted(obj) == ["euler", "poles", "zeta"]
    assert obj["poles"] == [{"den": 1, "num": -1}]
    assert obj["zeta"]["kind"] == "zeta"
    assert obj["euler"]["numer"] == [{"den": 1, "num": 2}]


def test_group_text(capsys):
    rc, out, _ = run(capsys, ["group", "(4;1,2)"])
    assert rc == 0
    assert out == (
        "order: 4\n"
        "exponent: 4\n"
        "small: no\n"
        "reduced: (2; 1,1)  [m = (2, 1)]\n"
        "gor measure at origin: L^-2 * (1 + L)\n"
        "orb measure at origin: L^-2 + L^(-3/2) + L^(-5/4) + L^(-3/4)\n"
    )


def test_group_json(capsys):
    rc, out, _ = run(capsys, ["group", "(4;1,2)", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["order"] == 4
    assert obj["exponent"] == 4
    assert obj["small"] is False
    assert obj["reduced"] == "(2; 1,1)"
    assert obj["m"] == [2, 1]


@pytest.mark.parametrize(
    "argv,err",
    [
        (["group", "(1000,1000;1,0;0,1)"], "error: refusing to enumerate 1000000 tuples\n"),
        (["tetra", "--d", "300", "--q", "299", "--stringy"], "error: group order 270000 over the limit\n"),
        # an order of 4400 digits is past what str() of an int may print
        (["group", "(%s,%s7;1,0;0,1)" % ("9" * 2200, "1" * 2199)],
         "error: refusing to enumerate a 4400-digit number of tuples\n"),
    ],
    ids=["group", "tetra", "group-unprintable"],
)
def test_size_budget_refuses_before_enumerating(capsys, argv, err):
    # both lie under the older bounds (10^7 and 10^6), where they ran for
    # seconds to minutes; the refusal comes before any element is made
    t0 = time.perf_counter()
    rc, out, got = run(capsys, argv)
    assert (rc, out, got) == (1, "", err)
    assert time.perf_counter() - t0 < 2.0


def test_emit_strata_roundtrip(capsys, tmp_path):
    f1 = tmp_path / "chain.strata"
    f2 = tmp_path / "chain2.strata"
    rc, out_hj, _ = run(
        capsys,
        ["hj", "--d", "7", "--a", "1", "--b", "3", "--emit-strata", str(f1)],
    )
    assert rc == 0
    rc, out_st, _ = run(capsys, ["strata", str(f1)])
    assert rc == 0
    assert out_st == out_hj
    rc, _, _ = run(capsys, ["strata", str(f1), "--emit-strata", str(f2)])
    assert rc == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_strata_parse_error(capsys, tmp_path):
    f = tmp_path / "bad.strata"
    f.write_text("dimension = 2\nwat\n")
    rc, out, err = run(capsys, ["strata", str(f)])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: line 2, column 1")


def test_strata_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, ["strata", str(tmp_path / "nope.strata")])
    assert rc == 1
    assert err.startswith("error: ")


def test_series_zero_denominator_is_usage_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["monomial", "--group", "(2;1,1)", "--N", "1,1", "--nu", "1,1", "--series", "1/0"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qzeta monomial")
    assert "argument --series: invalid Fraction value: '1/0'" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["monomial", "--group", "(2;1,1)", "--N", "1,1", "--nu", "1,1", "--series", "1", "--eval-L", "1/0"],
         "qzeta monomial: error: argument --eval-L: invalid Fraction value: '1/0'"),
        (["tetra", "--d", "3", "--q", "2", "--N", "1/0"],
         "qzeta tetra: error: argument --N: invalid Fraction value: '1/0'"),
        (["tetra", "--d", "3", "--q", "2", "--nu", "1/0"],
         "qzeta tetra: error: argument --nu: invalid Fraction value: '1/0'"),
        (["hj", "--d", "7", "--a", "1", "--b", "3", "--N", "1/0,1"],
         "qzeta hj: error: argument --N: invalid Fraction value: '1/0'"),
        (["hj", "--d", "7", "--a", "1", "--b", "3", "--nu", "1,x"],
         "qzeta hj: error: argument --nu: invalid Fraction value: 'x'"),
        (["monomial", "--group", "(2;1,1)", "--N", "1,1/0", "--nu", "1,1"],
         "qzeta monomial: error: argument --N: invalid Fraction value: '1/0'"),
        (["monomial", "--group", "(2;1,1)", "--N", "1,1", "--nu", ",1"],
         "qzeta monomial: error: argument --nu: invalid Fraction value: ''"),
    ],
    ids=["eval-L", "tetra-N", "tetra-nu", "hj-N", "hj-nu", "monomial-N", "monomial-nu"],
)
def test_rational_option_zero_denominator_is_usage_error(capsys, argv, message):
    # a malformed rational, alone or in a vector, is a usage error
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qzeta %s" % argv[0])
    assert err.splitlines()[-1] == message


def test_eval_L_beyond_float_range(capsys):
    # 2^1104 = (2^23)^48 and the series has exponent denominator 48; both
    # values lie beyond the largest float, so no float root may be taken.
    argv = ["monomial", "--group", "(12;1,5)", "--N", "1/2,3", "--nu", "1,3/4", "--series", "1", "--eval-L"]
    rc, out, err = run(capsys, argv + [str(2**1104)])
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[2] == "series at L = %d:" % 2**1104
    assert [ln.split(":")[0] for ln in lines[3:]] == [
        "  T^(11/24)", "  T^(7/8)", "  T^(11/12)", "  T^(23/24)",
    ]
    x = F(2**23)  # L^(1/48)
    assert lines[3] == "  T^(11/24): %s" % (x**-119 - 2 * x**-71 + x**-23)
    rc, out, err = run(capsys, argv + [str(2**1100)])
    assert (rc, out) == (1, "")
    assert err == "error: %d has no exact rational 48-th root\n" % 2**1100


def test_rational_options_print_as_before(capsys):
    rc, out, _ = run(
        capsys,
        ["monomial", "--group", "(1;0)", "--N", "1", "--nu", "1", "--series", "1", "--eval-L", "6/4"],
    )
    assert rc == 0
    assert out.splitlines()[2:] == ["series at L = 3/2:", "  T^1: 2/9"]
    rc, out, _ = run(capsys, ["tetra", "--d", "3", "--q", "2", "--N", "4/2", "--nu", "3", "--poles"])
    assert rc == 0
    assert out.splitlines()[-1] == "candidate poles: s = -3/2"


def test_check_shares_the_printed_fold(capsys, monkeypatch):
    # --json prints no reduced quotient, so --check folds the chain (the
    # direct route is one term, compared unreduced); the text view prints
    # the chain's fold and must not fold it again.
    add = symring._add
    calls = []

    def counted(*args):
        calls.append(1)
        return add(*args)

    monkeypatch.setattr(symring, "_add", counted)
    argv = ["hj", "--d", "31", "--a", "1", "--b", "7", "--check"]
    counts = []
    for extra in ([], ["--json"]):
        calls.clear()
        rc, out, _ = run(capsys, argv + extra)
        assert rc == 0 and "EQUAL" in out
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize(
    "argv,keep",
    [
        # 1.6 MB on one line, more than any pipe buffer: the write fails
        # while the program is still printing, as under ``| head -c 100``
        (["group", "(10000;1,3,7)", "--json"], 100),
        # a few lines that sit in stdout's buffer: the write fails when
        # the buffer is flushed
        (["group", "(4;1,2)"], 0),
    ],
    ids=["large", "small"],
)
def test_closed_pipe_exits_quietly(argv, keep):
    # stdout block-buffered, as it is on a pipe unless PYTHONUNBUFFERED is set
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(qzeta.__file__).parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "qzeta.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        head = proc.stdout.read(keep)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert len(head) == keep and head.startswith(b'{"exponent": 10000, "gor_measure": ['[:keep])
    assert err == b""


def test_group_order_is_exact_before_the_size_bound(capsys):
    # the cyclic orders multiply to 10^6; the group has order 1000
    rc, out, err = run(capsys, ["group", "(1000,1000;1,1;1,1)"])
    assert (rc, err) == (0, "")
    assert out.startswith("order: 1000\nexponent: 1000\nsmall: yes\n")


def test_series_budget_refuses_at_once(capsys):
    argv = ["monomial", "--group", "(2;1,1)", "--N", "1,1", "--nu", "1,1", "--series", "1e9"]
    t0 = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: refusing to expand to T-order 1000000000: about ")
    assert time.perf_counter() - t0 < 1.0


def test_series_budget_counts_products_and_kept_terms(capsys):
    # Two factors on one ray keep about 6 * M terms, not the product of
    # 2 * jmax over the factors (8 * 10^6 here): the expansion runs.
    argv = ["monomial", "--group", "(2;1,1)", "--N", "1,1", "--nu", "1,1", "--series"]
    rc, out, err = run(capsys, argv + ["1000"])
    assert (rc, err) == (0, "")
    series = out.splitlines()[1]
    assert series.startswith("series (T-order <= 1000): L^-3 * T - 2 * L^-2 * T + L^-1 * T + ")
    assert series.endswith(" * T^1000") and series.count(" * T^") == 3 * 999
    # the same ray at M = 2200 makes 3.9 * 10^7 products, about 10 s
    t0 = time.perf_counter()
    rc, out, err = run(capsys, argv + ["2200"])
    assert (rc, out) == (1, "")
    assert err == (
        "error: refusing to expand to T-order 2200: about 38746404 products,"
        " over the limit 35000000\n"
    )
    # one factor keeps every product: 2 * 750001 terms are one over the limit
    one = ["monomial", "--group", "(1;0)", "--N", "1", "--nu", "1", "--series", "750001"]
    rc, out, err = run(capsys, one)
    assert (rc, out) == (1, "")
    assert err == (
        "error: refusing to expand to T-order 750001: about 1500002 terms,"
        " over the limit 1500000\n"
    )
    assert time.perf_counter() - t0 < 1.0
    # factors on two rays share one T budget: at most 907500 terms are kept,
    # where counting each ray alone gave 1815000, over the limit
    two = ["monomial", "--group", "(1;0,0)", "--N", "1,2", "--nu", "1,1", "--series", "1100"]
    rc, out, err = run(capsys, two)
    assert (rc, err) == (0, "")
    assert out.splitlines()[1].startswith("series (T-order <= 1100): ")


def test_eval_L_digit_budget_refuses_at_once(capsys):
    # The coefficient of T^j here is (P - 1) / P^(j + 1).  At P = 2 it has
    # 4301 digits from j = 14284 on, one past what Python will print.
    argv = ["monomial", "--group", "(1;0)", "--N", "1", "--nu", "1", "--series"]
    t0 = time.perf_counter()
    rc, out, err = run(capsys, argv + ["20000", "--eval-L", "2"])
    assert (rc, out) == (1, "")
    assert err == (
        "error: --eval-L: the coefficient of T^14284 at L = 2 may have 4301 decimal digits,"
        " over the limit 4300\n"
    )
    assert time.perf_counter() - t0 < 2.0
    # at P = 2^1000 the value of T^13 has 4215 digits and prints; T^14 would have 4516
    P = 2**1000
    rc, out, err = run(capsys, argv + ["13", "--eval-L", str(P)])
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "  T^13: %s" % F(P - 1, P**14)
    rc, out, err = run(capsys, argv + ["14", "--eval-L", str(P)])
    assert (rc, out) == (1, "")
    assert err.startswith("error: --eval-L: the coefficient of T^14 at L = %d may have 4516 " % P)


def test_cli_fuzz_exits_cleanly(tmp_path):
    """argv drawn from a small grammar over the six subcommands, with valid
    and malformed values: every run exits 0, 1 or 2, and no exception
    escapes ``main``."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    bad_ints = ["-3", "0", "x", "", "2.5"]
    small = ([str(i) for i in range(1, 8)], bad_ints)
    upto40 = (["1", "2", "3", "5", "7", "12", "31", "40"], bad_ints)
    rats = (["0", "1", "2", "1/2", "3/4", "-1"], ["1/0", "x", ""])
    vecs = (["1,1", "2,3", "0,1", "1/2,3", "3,1/2"], ["1", "1,1,1", "a,b", "", "1,", "1/0,1"])
    literals = (
        ["(2;1,1)", "(4;1,3)", "(4;1,2)", "(3;1,1,1)", "(2,2;1,0;0,1)", "(6,4;1,2;3,1)", "(5;1,2)"],
        ["(1;0)", "(0;1)", "(2;1,1", "2;1,1", "(2;a)", "()", "(2;)", "(2,3;1,1)",
         "(1_0;1,3)", "(+7;1,3)", "(\u0663;1,2)"],
    )
    series = (["0", "1", "2", "4", "1/2"], ["-1", "x"])
    strata_texts = (
        [
            "dimension = 2\ngindex = 7\n"
            "stratum { class = 1 ; N = [1/7, 3/7] ; nu = [1, 5/7] ; group = (1; 0,0) }\n",
            "dimension = 1\ngindex = 2\nsymbol C0 chi = 2\n"
            "stratum { class = [C0] - L ; N = [1/2] ; nu = [1] ; group = (2; 1) }\n",
        ],
        [
            "dimension = 1\ngindex = 1\nstratum { class = [X] ; N = [1] ; nu = [1] ; group = (1; 0) }\n",
            "dimension = 2\nwat\n",
            "dimension = 2\ngindex = 3\n"
            "stratum { class = 1 ; N = [1] ; nu = [0, 1] ; group = (1; 0,0) }\n",
            "",
        ],
    )

    def argv_of(rnd):
        def value(pool):
            # one value in ten is malformed
            valid, malformed = pool
            return rnd.choice(malformed if rnd.random() < 0.1 else valid)

        def opt(name, pool):
            # an option is left out one time in ten
            return [] if rnd.random() < 0.1 else [name, value(pool)]

        def flags(*names):
            return [f for f in names if rnd.random() < 0.3]

        def views():
            out = flags("--euler", "--poles", "--latex", "--json")
            with_series = rnd.random() < 0.5
            if with_series:
                out += ["--series", value(series)]
            # --eval-L mostly with --series; without it, it is a usage error
            if rnd.random() < (0.5 if with_series else 0.05):
                out += ["--eval-L", value(rats)]
            return out

        cmd = rnd.choice(["monomial", "strata", "hj", "yomdin", "tetra", "group"])
        argv = [cmd]
        if cmd == "monomial":
            argv += opt("--group", literals) + opt("--N", vecs) + opt("--nu", vecs)
            argv += flags("--allow-nonsmall") + views()
        elif cmd == "strata":
            path = tmp_path / "fuzz.strata"
            path.write_text(value(strata_texts), encoding="utf-8")
            argv += [str(path)] + flags("--allow-nonsmall") + views()
        elif cmd == "hj":
            for name in ("--d", "--a", "--b"):
                argv += opt(name, upto40)
            argv += opt("--N", vecs) + opt("--nu", vecs) + flags("--check") + views()
        elif cmd == "yomdin":
            for name in ("--m", "--k", "--p", "--q", "--a"):
                argv += opt(name, small)
            argv += flags("--check", "--charpoly") + views()
        elif cmd == "tetra":
            argv += opt("--d", upto40) + opt("--q", upto40) + opt("--N", rats) + opt("--nu", rats)
            argv += rnd.choice([[], ["--stringy"], ["--check"]]) + views()
        else:
            argv += [] if rnd.random() < 0.1 else [value(literals)]
            argv += flags("--json")
        return argv

    @hyp.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(0, 2**32))
    def check(seed):
        # a seeded Random, not hypothesis's own draws, keeps the shares of
        # malformed values and left-out options at the rates set above
        argv = argv_of(random.Random(seed))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        assert rc in (0, 1, 2), (argv, rc, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv

    check()
