"""Byte-identical stdout of larger CLI runs, pinned by sha256.

The hashes were recorded from the Fraction-keyed implementation of
``MotPoly`` before its exponents moved onto an integer lattice, the
order-10^4 ``group --json`` one while ``json_obj`` still read its terms as
Fractions, the two ``hj --d 1000`` ones while ``--series``/``--eval-L``
and the printers still went through Fraction exponents, the long-chain
text ``hj --check`` and the large ``yomdin`` row while ``--check`` still
folded the printed expression a second time, the odd-root ``--eval-L -8``
pair and the error pins at the end while ``--eval-L`` still split the
series into one polynomial per T-column and took a root per column, and
the last one (a long-chain ``hj --euler --json``) while ``TopZeta`` still
multiplied each term by every denominator factor it lacked and compared
quotients by cross-multiplication.  The two after it (class symbols in
``yomdin --json``, and a non-ASCII symbol name in ``strata --json``) were
recorded while ``--json`` still built a dict per term and handed it to
``json.dumps``.  The two after those (a non-small rank-3 ``group``, whose
``reduced:`` line is the greedy two-generator presentation) were recorded
while group elements were objects and every subgroup was closed by a
breadth-first search.  The last one (an odd root at ``--eval-L -1``) was
recorded while every value at L = 1 or -1 still took a power per term.
The four after it (the symbol tail of ``strata`` in text and LaTeX, and a
non-unit ``--eval-L`` with fractional values in text and JSON) were
recorded while every printer still walked the terms one tuple at a time
and each value was a Fraction.
The last two (a rank-2 ``group --json`` with one row of units and one
reflection row, the shape of the benchmark's abelian actions, and a
``tetra --stringy`` beyond the d <= 40 numpy sweep) were recorded while
the orbifold measure was still summed from zero counts apart from the
Gorenstein one, ``small_reduce`` still mapped every element, and
``conjugacy_count`` still conjugated by all four generators.
The last three (a measure of 10^4 terms as text, and a series of about
1,100 terms as text and as JSON) were recorded while every printer still
joined its whole text into one string.
The two ``--latex`` pins with ``--series`` (the first ``hj --d 331`` row
and ``strata ... --series 3 --latex``) were re-recorded when ``--latex``
began to write the series line in LaTeX, as it writes the zeta and
``euler:`` lines; their stdout changed in that one line only.
Any change to rendering, term order, reduction,
evaluation, error precedence or JSON layout shows up here.  Each run takes
well under two seconds.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from qzeta.cli import main

# A class symbol whose name is not ASCII: JSON escapes it as \u00e9.
ACCENTED = """\
dimension = 2
gindex = 2
symbol C\u00e90 chi = -1
stratum { class = L - 1 ; N = [1/2, 0] ; nu = [1/2, 1] ; group = (1; 0,0) }
stratum { class = [C\u00e90] ; N = [1, 1] ; nu = [1, 1] ; group = (1; 0,0) }
"""

PINS = [
    (
        ["hj", "--d", "331", "--a", "2", "--b", "97", "--N", "3,5", "--nu", "2,7", "--check",
         "--euler", "--poles", "--series", "7/2", "--eval-L", "1", "--latex"],
        22024,
        "9dc043e2314afca6070388604e8906c0866c990a8d56f1b96ea6eba94e633851",
    ),
    (
        ["hj", "--d", "331", "--a", "2", "--b", "97", "--N", "3,5", "--nu", "2,7", "--check",
         "--euler", "--poles", "--series", "7/2", "--eval-L", "1", "--json"],
        50356,
        "16c1fab16dc94cdd2b9e5250bd04b8ce3a2f169f3a42f705c64d43806f673685",
    ),
    (
        ["yomdin", "--m", "9", "--k", "4", "--p", "5", "--q", "7", "--a", "2", "--check",
         "--euler", "--poles", "--charpoly"],
        12881,
        "d3e471bf6feab80d02a4d9e944e2e044dc2210b1f3a62e9309a395ba6ffad5dc",
    ),
    (
        ["group", "(210,6;1,11,29;1,5,0)"],
        7797,
        "acb888abac4124e0bc6950a4108dc8a15861e43f8d9780fae1891d423bbaf861",
    ),
    (
        ["group", "(210,6;1,11,29;1,5,0)", "--json"],
        36891,
        "5c964e54d8e32b9bac4f5f9dd0249cde065121fb05095a6753f5cc619b7b8bad",
    ),
    (
        ["tetra", "--d", "13", "--q", "4", "--N", "2", "--nu", "3", "--check", "--euler",
         "--poles", "--series", "5/2"],
        4053,
        "eae890379383cc2f22a6ad86161568b7f447bf28b6889fc571ab1c0dc37a97b5",
    ),
    (
        ["monomial", "--group", "(12;1,5)", "--N", "1/2,3", "--nu", "1,3/4", "--euler",
         "--poles", "--series", "3", "--eval-L", "281474976710656"],
        7087,
        "cc6247bb09cecb30b9f93279df5c0448d0a9baf867caa7dfecb47d3c6eabe665",
    ),
    (
        ["group", "(10000;1,3,7)", "--json"],
        1669482,
        "f064ccedfbfa4553eea953b6a728aca4250e599605f4b41f51d8c1f6739c15ed",
    ),
    (
        ["hj", "--d", "1000", "--a", "1", "--b", "3", "--N", "3,5", "--nu", "2,7", "--check",
         "--euler", "--poles", "--series", "10", "--eval-L", "1"],
        466154,
        "5b88fd11f5e3f91b49a920607a8630eb3ea0891e3d0e3875a90309ac24237afb",
    ),
    (
        ["hj", "--d", "1000", "--a", "1", "--b", "3", "--N", "3,5", "--nu", "2,7", "--check",
         "--euler", "--poles", "--series", "10", "--eval-L", "1", "--json"],
        1075100,
        "6f401ed51ca763dc69c45b119137982728b727cf7961c9be6bf31c2a8b65595b",
    ),
    (
        ["hj", "--d", "97", "--a", "1", "--b", "96", "--N", "2,3", "--nu", "1,2", "--check"],
        7680,
        "f3ad1db87c71604ee9546a8309d7ba6880d0ff65f1ef1f7dcc1c94508cf5ae59",
    ),
    (
        ["yomdin", "--m", "12", "--k", "8", "--p", "5", "--q", "7", "--a", "3", "--check",
         "--euler", "--poles", "--charpoly"],
        23036,
        "bc8834036cbeea8b492e7bf87d03b87fd08f7aed9c3ba380a42d800209c30d7e",
    ),
    (
        ["monomial", "--group", "(3;1,1)", "--N", "1,1", "--nu", "1,1", "--series", "3",
         "--eval-L", "-8"],
        811,
        "8bbc8fbe4d18a003965510c23a2365e7450bfa3dc6fb07f3bb7242cc168cba44",
    ),
    (
        ["monomial", "--group", "(3;1,1)", "--N", "1,1", "--nu", "1,1", "--series", "3",
         "--eval-L", "-8", "--json"],
        2477,
        "9fdc04794b779727b14cc75587a51fda4a9e31d32c97b6f2b7010ae927678ee1",
    ),
    (
        ["hj", "--d", "97", "--a", "1", "--b", "96", "--N", "2,3", "--nu", "1,2", "--euler",
         "--json"],
        49058,
        "3f5883cd5469063d56356d9b11a3e2872585165ce720740ed90eccc406140c87",
    ),
    (
        ["yomdin", "--m", "9", "--k", "2", "--p", "2", "--q", "3", "--a", "1", "--series", "3",
         "--euler", "--poles", "--json"],
        3113,
        "366b6935a30251e00210bf2bba6f0585b75558a768086ac6ee7eedb3a21013db",
    ),
    (
        ["strata", ACCENTED, "--series", "3", "--json"],
        2417,
        "34a928b69a93f21ddeb6c586d08866ce9c274393dc5dd7b4055c162f1bc9e5d0",
    ),
    (
        ["group", "(10,18,19;7,5,2;6,2,13;6,14,8)"],
        41183,
        "0b50d0bb823c4cca959650add93dd973728324628a617f8c321113020831bdcc",
    ),
    (
        ["group", "(10,18,19;7,5,2;6,2,13;6,14,8)", "--json"],
        203615,
        "44f6b864aa7a49c9e6e24f675996bf552056ae8c2e1285dbb3c37214869031e4",
    ),
    (
        ["hj", "--d", "7", "--a", "1", "--b", "3", "--N", "3,5", "--nu", "2,7", "--series", "6",
         "--eval-L", "-1"],
        1316,
        "4993e76386a8298e76013fd294aa9976fcf417e8438027966365c9bc4b5db8e3",
    ),
    (
        ["strata", ACCENTED, "--series", "3"],
        778,
        "768a6b5b6b3a8d1bb6d43f593a7a58dd641169378fc47d4af82ca2b01c675d6a",
    ),
    (
        ["strata", ACCENTED, "--series", "3", "--latex"],
        881,
        "6e5c324544f6064dfd5bf694f318118d01eb50cd01d629757f3227c8c8b9a22b",
    ),
    (
        ["monomial", "--group", "(2;1,1)", "--N", "1,1/2", "--nu", "1,3/2", "--series", "3",
         "--eval-L", "16"],
        1281,
        "45d80d5d030db7fa8e16beb1e6e7e608fa1f2bc7ca43b84c581d57c127b62cff",
    ),
    (
        ["monomial", "--group", "(2;1,1)", "--N", "1,1/2", "--nu", "1,3/2", "--series", "3",
         "--eval-L", "16", "--json"],
        4070,
        "7293c692735296070f97c4541b03b0d3d8a761c2adf3d7cdf288dfaa95c9465f",
    ),
    (
        ["group", "(68,93;61,5,13,11;55,0,0,0)", "--json"],
        422146,
        "9ebd3bfc6b3487af88c95fa9cf703c6f527c0d7505cc8f798e420e141a821f3c",
    ),
    (
        ["tetra", "--d", "57", "--q", "56", "--stringy"],
        37,
        "afebb6fd5e9516f8f91de39aa795c4daffe54479165b4851e8fdd4cf909054ca",
    ),
    (
        ["group", "(10000;1,3,7)"],
        339474,
        "d4e245a26917d200e303076b78b48199af0f8275276fc0c12dd6a123bc2b8724",
    ),
    (
        ["monomial", "--group", "(1;0,0)", "--N", "1,2", "--nu", "1,1", "--series", "300"],
        19302,
        "7c6adba3658c22b8ad754d8f763e7d18f56d1b18eed407e76b1e6d560f013e44",
    ),
    (
        ["monomial", "--group", "(1;0,0)", "--N", "1,2", "--nu", "1,1", "--series", "300",
         "--json"],
        96243,
        "fd5d07d952436e3e36feae178a1451c954a93449b77c12d9f11a1c5252f9e5b8",
    ),
]


def _with_file(tmp_path, argv):
    """argv with a strata command's inline file text written to a temp file."""
    if argv[0] != "strata":
        return argv
    path = tmp_path / "pinned.strata"
    path.write_text(argv[1], encoding="utf-8")
    return ["strata", str(path)] + argv[2:]


@pytest.mark.parametrize("argv,size,digest", PINS, ids=[p[0][0] + "-" + str(i) for i, p in enumerate(PINS)])
def test_cli_stdout_pinned(capsys, tmp_path, argv, size, digest):
    assert main(_with_file(tmp_path, argv)) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert len(out) == size
    assert hashlib.sha256(out).hexdigest() == digest


# A stratification whose series has a half-integer L power at T^(1/2) and
# a class symbol without an Euler characteristic at T^2.
MISSING_CHI = """\
dimension = 2
gindex = 2
symbol C0
stratum { class = L - 1 ; N = [1/2, 0] ; nu = [1/2, 1] ; group = (1; 0,0) }
stratum { class = [C0] ; N = [1, 1] ; nu = [1, 1] ; group = (1; 0,0) }
"""

# --eval-L failures: exit status 1, nothing on stdout, and the error of the
# first term, in ascending T order, that has no value.  A class symbol has
# no value at L = P; under --euler, one without a declared chi is refused.
ERROR_PINS = [
    (
        ["hj", "--d", "1000", "--a", "1", "--b", "3", "--N", "3,5", "--nu", "2,7", "--check",
         "--euler", "--poles", "--series", "10", "--eval-L", "4"],
        "error: 4 has no exact rational 1000-th root\n",
    ),
    (
        ["hj", "--d", "7", "--a", "1", "--b", "3", "--series", "2", "--eval-L", "0"],
        "error: Fraction(1, 0)\n",
    ),
    (
        ["strata", MISSING_CHI, "--series", "2", "--eval-L", "4"],
        "error: --eval-L: the class symbol [C0] has no value at L = 4\n",
    ),
    (["strata", MISSING_CHI, "--series", "2", "--eval-L", "2"], "error: 2 has no exact rational 2-th root\n"),
    (["strata", MISSING_CHI, "--series", "2", "--eval-L", "-4"], "error: -4 has no exact rational 2-th root\n"),
    (["strata", MISSING_CHI, "--series", "2", "--eval-L", "0"], "error: Fraction(1, 0)\n"),
    (["strata", MISSING_CHI, "--euler"], "error: --euler: no chi declared for the class symbol [C0]\n"),
]


@pytest.mark.parametrize(
    "argv,stderr", ERROR_PINS, ids=["%s-%s" % (p[0][0], p[0][-1]) for p in ERROR_PINS]
)
def test_cli_eval_L_error_pinned(capsys, tmp_path, argv, stderr):
    assert main(_with_file(tmp_path, argv)) == 1
    assert capsys.readouterr() == ("", stderr)


def test_pins_replayed_in_one_process(capsys, tmp_path):
    """Every pin twice in one process, forward and then in reverse, so that
    state one CLI call left behind would change a later call's output."""
    cases = [(argv, 0, digest) for argv, _size, digest in PINS]
    cases += [(argv, 1, stderr) for argv, stderr in ERROR_PINS]
    for argv, status, want in cases + cases[::-1]:
        assert main(_with_file(tmp_path, argv)) == status, argv
        out, err = capsys.readouterr()
        if status:
            assert (out, err) == ("", want), argv
        else:
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, argv


# One stratum whose class is 9 * 10^4299, the longest integer that str()
# writes under Python's default limit of 4300 digits.  The unreduced views
# print it as it is.  The reduced quotient multiplies it by the -2 of
# (L - 1)^2, and the series view too, so each needs 4301 digits and
# fails.  A failing run writes nothing to stdout, because every view is
# formatted in full before the first byte goes out.
HUGE_CLASS = """\
dimension = 2
gindex = 1
stratum { class = 9%s ; N = [1, 1] ; nu = [1, 1] ; group = (1; 0,0) }
""" % ("0" * 4299)

HUGE_CLASS_OK = [
    (["--json"], 4508, "9ad1129410b2a8c436616ee8c74c97663cfb59b85ce1edc415a45c026d99dbd7"),
    (["--latex"], 4409, "7a72821f465ccf7d9df907f5414405478354af2fe7edf07230bdecfcf62dc321"),
]
HUGE_CLASS_FAILING = [[], ["--series", "3", "--json"], ["--euler"], ["--poles"]]


@pytest.fixture
def int_digits_4300():
    """Python's default int-to-str limit, whatever the environment set,
    and the message str() raises beyond it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as info:
            str(10**4300)
        yield str(info.value)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("views", HUGE_CLASS_FAILING, ids=["text", "series-json", "euler", "poles"])
def test_a_view_too_long_to_print_writes_nothing(capsys, tmp_path, int_digits_4300, views):
    assert main(_with_file(tmp_path, ["strata", HUGE_CLASS, *views])) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % int_digits_4300)


@pytest.mark.parametrize("views,size,digest", HUGE_CLASS_OK, ids=["json", "latex"])
def test_the_unreduced_views_of_a_huge_class_print(capsys, tmp_path, int_digits_4300, views, size, digest):
    assert main(_with_file(tmp_path, ["strata", HUGE_CLASS, *views])) == 0
    out, err = capsys.readouterr()
    assert (len(out.encode("utf-8")), hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == (size, digest, "")
