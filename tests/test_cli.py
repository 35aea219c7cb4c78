from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import qzeta
from qzeta.cli import main
from qzeta.symring import RatFunc, ZetaExpr


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


def test_nonsmall_is_domain_error(capsys):
    rc, out, err = run(capsys, ["monomial", "--group", "(4;1,2)", "--N", "1,1", "--nu", "1,1"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "quasi-reflexions" in err


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


def test_hj_arity_error(capsys):
    rc, _, err = run(capsys, ["hj", "--d", "7", "--a", "1", "--b", "3", "--N", "1,1,1"])
    assert rc == 1
    assert err == "error: hj needs two-entry --N and --nu vectors\n"


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
    ],
    ids=["group", "tetra"],
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
    # --json prints no reduced quotient, so --check folds each route once;
    # the text view prints the chain's fold and must not fold it again.
    add = RatFunc.add
    calls = []

    def counted(self, other):
        calls.append(1)
        return add(self, other)

    monkeypatch.setattr(RatFunc, "add", counted)
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
