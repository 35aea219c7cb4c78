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
``json.dumps``.  The last two (a non-small rank-3 ``group``, whose
``reduced:`` line is the greedy two-generator presentation) were recorded
while group elements were objects and every subgroup was closed by a
breadth-first search.  Any change to rendering, term order, reduction,
evaluation, error precedence or JSON layout shows up here.  Each run takes
well under two seconds.
"""

from __future__ import annotations

import hashlib

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
        20816,
        "f48882e4da9b18d1093f6bf109437b766e4fc1890b481a17d103013e7d6e74eb",
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
