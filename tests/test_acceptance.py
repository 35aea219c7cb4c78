"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with its runtime against the stated budget.

Run with ``pytest tests/test_acceptance.py`` (output is not captured, so
the ten lines appear inline).
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction as F

from qzeta.cli import main as cli_main
from qzeta.groups import GroupAction, is_small
from qzeta.monodromy import yomdin_charpoly
from qzeta.resolution import (
    YomdinParams,
    hj_resolve,
    hj_stratification,
    tetra_stratification,
    tetra_top_closed,
    yomdin_stratification,
    yomdin_top_closed,
)
from qzeta.strata import parse_strata
from qzeta.symring import (
    MotPoly,
    TopZeta,
    euler_specialize,
    series_expand,
    ze_equal,
)
from qzeta.tetra import TetraParams, build_tetra, conjugacy_count
from qzeta.zetacore import (
    affine_monomial_zeta,
    gor_measure_origin,
    jet_count_oracle,
    local_monomial_zeta,
    orb_measure_origin,
    s_g_sum,
    stratified_zeta,
    veys_det_713,
)

from readers import coeff_of_T


def _report(num: int, ok: bool, detail: str, t0: float, budget: float):
    dt = time.perf_counter() - t0
    line = "criterion %d %s: %s (%.2fs < %gs)" % (
        num,
        "PASS" if ok else "FAIL",
        detail,
        dt,
        budget,
    )
    print(line)
    assert ok, line
    assert dt < budget, "criterion %d over budget: %.2fs" % (num, dt)


def _rand_frac(rng: random.Random, lo: int, hi: int) -> F:
    return F(rng.randint(lo, hi), rng.randint(1, 5))


def test_criterion_1_sg_sum_713():
    t0 = time.perf_counter()
    g = GroupAction.cyclic(7, (1, 3))
    rng = random.Random(101)
    ok = True
    for _ in range(10):
        N1, N2 = _rand_frac(rng, 0, 20), _rand_frac(rng, 0, 20)
        nu1, nu2 = _rand_frac(rng, 1, 20), _rand_frac(rng, 1, 20)
        pairs = [((j % 7), (3 * j) % 7) for j in range(7)]
        acc: dict = {}
        for e1, e2 in pairs:
            key = (-(e1 * N1 + e2 * N2) / 7, (e1 * nu1 + e2 * nu2) / 7, ())
            acc[key] = acc.get(key, 0) + 1
        ok = ok and s_g_sum(g, (N1, N2), (nu1, nu2)) == MotPoly(acc)
        ok = ok and len(acc) == 7  # generic data: all seven pairs distinct
    _report(1, ok, "10 random substitutions, 7 exponent pairs each", t0, 1)


def test_criterion_2_veys_determinant():
    t0 = time.perf_counter()
    g = GroupAction.cyclic(7, (1, 3))
    rng = random.Random(102)
    ok = True
    for _ in range(25):
        N1, N2 = _rand_frac(rng, 0, 12), _rand_frac(rng, 0, 12)
        nu1, nu2 = _rand_frac(rng, 1, 12), _rand_frac(rng, 1, 12)
        ok = ok and veys_det_713(N1, N2, nu1, nu2) == s_g_sum(
            g, (N1, N2), (nu1, nu2)
        )
    _report(2, ok, "determinant = group sum on 25 random inputs", t0, 1)


def test_criterion_3_hj_713():
    t0 = time.perf_counter()
    ch = hj_resolve(7, 1, 3)
    ok = ch.kappa == (3, 2, 2) and ch.coeffs == ((1, 3), (3, 2), (5, 1))
    _report(3, ok, "kappa=(3,2,2), coeffs (1,3),(3,2),(5,1)", t0, 1)


def test_criterion_4_hj_vs_direct():
    t0 = time.perf_counter()
    rng = random.Random(40)
    ok = True
    for _ in range(200):
        d = rng.randint(1, 40)
        units = [x for x in range(1, d + 1) if math.gcd(x, d) == 1]
        a, b = rng.choice(units), rng.choice(units)
        N = (rng.randint(0, 3), rng.randint(0, 3))
        nu = (rng.randint(1, 3), rng.randint(1, 3))
        direct = local_monomial_zeta(GroupAction.cyclic(d, (a, b)), N, nu)
        chain = stratified_zeta(hj_stratification(hj_resolve(d, a, b), *N, *nu))
        ok = ok and ze_equal(chain, direct)
    _report(4, ok, "200 random (d,a,b) with d <= 40, both routes equal", t0, 60)


def test_criterion_5_euler_of_direct():
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    ok = True
    count = 0
    while count < 100:
        n = rng.randint(1, 4)
        rank = rng.randint(1, 2)
        orders = tuple(rng.randint(1, 12) for _ in range(rank))
        rows = tuple(tuple(rng.randrange(d) for _ in range(n)) for d in orders)
        g = GroupAction(orders, rows, n)
        if g.order > 60 or not is_small(g):
            continue
        count += 1
        N = tuple(rng.randint(0, 3) for _ in range(n))
        nu = tuple(rng.randint(1, 3) for _ in range(n))
        tz = euler_specialize(local_monomial_zeta(g, N, nu), None)
        c = F(g.order)
        den: Counter = Counter()
        for Ni, nui in zip(N, nu):
            if Ni:
                den[(F(Ni), F(nui))] += 1
            else:
                c /= nui
        ok = ok and tz == TopZeta.from_quotient([c], den)
    _report(5, ok, "|G| / prod(N s + nu) for 100 random small groups", t0, 30)


def test_criterion_6_measures():
    t0 = time.perf_counter()
    gor = MotPoly.monomial(1, ell=-2) + MotPoly.monomial(1, ell=-1)
    orb = (
        MotPoly.monomial(1, ell=-2)
        + MotPoly.monomial(1, ell=F(-3, 4))
        + MotPoly.monomial(1, ell=F(-3, 2))
        + MotPoly.monomial(1, ell=F(-5, 4))
    )
    ok = (
        gor_measure_origin(GroupAction.cyclic(2, (1, 1))) == gor
        and gor_measure_origin(GroupAction.cyclic(4, (1, 2))) == gor
        and orb_measure_origin(GroupAction.cyclic(4, (1, 2))) == orb
    )
    _report(6, ok, "Gorenstein and orbifold measures match the worked values", t0, 1)


def test_criterion_7_yomdin_sweep():
    t0 = time.perf_counter()
    deg_ok = phi_ok = top_ok = pole_ok = True
    phi_real = phi_formal_neg = 0
    pole_full = pole_collapsed = pole_collapsed_pass = 0
    for m in range(2, 7):
        for k in range(1, 5):
            for p, q in ((2, 3), (3, 4), (2, 5)):
                for a in (1, 2, 3):
                    y = YomdinParams(m, k, p, q, a)
                    cp = yomdin_charpoly(y)
                    deg_ok = deg_ok and cp.degree() == (m - 1) ** 3 + k * (p - 1) * (
                        q - 1
                    )
                    strat, chi = yomdin_stratification(y)
                    top = euler_specialize(stratified_zeta(strat), chi)
                    top_ok = top_ok and top == yomdin_top_closed(y)
                    orders = {
                        o
                        for M, _e in cp.factors
                        for o in range(1, M + 1)
                        if M % o == 0
                    }
                    has_neg = any(cp.phi_multiplicity(o) < 0 for o in orders)
                    if y.realizable:
                        phi_ok = phi_ok and not has_neg
                        phi_real += 1
                    elif has_neg:
                        phi_formal_neg += 1  # recorded, not asserted
                    if a >= 2 and y.realizable:
                        s1 = F(-(a + 2), m)
                        s2 = F(-y.nu1, y.m1)
                        pole_ok = pole_ok and cp.is_eigenvalue_pole(s2)
                        if s1.denominator == m:
                            pole_ok = pole_ok and cp.is_eigenvalue_pole(s1)
                            pole_full += 1
                        else:
                            # order collapses: recorded, not asserted
                            pole_collapsed += 1
                            if cp.is_eigenvalue_pole(s1):
                                pole_collapsed_pass += 1
    ok = deg_ok and phi_ok and top_ok and pole_ok
    detail = (
        "180 instances: degrees, top-zeta routes; phi >= 0 on %d realizable"
        " (%d formal with negatives recorded); poles asserted on %d full-order"
        " instances (%d collapsed recorded, %d of those still pass)"
        % (phi_real, phi_formal_neg, pole_full, pole_collapsed, pole_collapsed_pass)
    )
    _report(7, ok, detail, t0, 60)


def test_criterion_8_tetra_family():
    t0 = time.perf_counter()
    pairs = [
        (d, q)
        for d in range(1, 16)
        for q in range(d if d > 1 else 1)
        if math.gcd(d, q) == 1 and (q**3 + 1) % d == 0
    ]
    ok = len(pairs) == 23
    for d, q in pairs:
        t = TetraParams(d, q)
        grp = build_tetra(d, q)
        ok = ok and grp.order == 3 * d * d
        ok = ok and conjugacy_count(grp) == (d * d + 8 * t.beta) // 3
        for N, nu in ((1, 1), (2, 3)):
            strat, chi = tetra_stratification(t, N, nu)
            tz = euler_specialize(stratified_zeta(strat), chi)
            ok = ok and tz == tetra_top_closed(t, N, nu)
    _report(
        8,
        ok,
        "%d family members: order 3d^2, class count (d^2+8b)/3, top zeta"
        % len(pairs),
        t0,
        120,
    )


def test_criterion_9_jet_oracle():
    t0 = time.perf_counter()
    ok = True
    cases = 0
    for Nvec in ((1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)):
        z = affine_monomial_zeta(Nvec, (1,) * len(Nvec))
        for p in (2, 3):
            for j in range(4):
                coeff = coeff_of_T(series_expand(z, j), j)
                ok = ok and jet_count_oracle(Nvec, p, j) == coeff.eval_L(p)
                cases += 1
    _report(9, ok, "%d oracle cases match the T-coefficients exactly" % cases, t0, 60)


def test_criterion_10_cli_roundtrip(capsys, tmp_path):
    t0 = time.perf_counter()
    ok = True
    jobs = [
        ("hj", ["hj", "--d", "7", "--a", "1", "--b", "3", "--N", "2,3", "--nu", "1,2"]),
        ("yomdin", ["yomdin", "--m", "3", "--k", "1", "--p", "2", "--q", "3", "--a", "3"]),
        ("tetra", ["tetra", "--d", "3", "--q", "2", "--N", "1", "--nu", "1"]),
    ]
    for name, argv in jobs:
        f1 = tmp_path / ("%s.strata" % name)
        f2 = tmp_path / ("%s-2.strata" % name)
        rc = cli_main(argv + ["--emit-strata", str(f1)])
        out1 = capsys.readouterr().out
        ok = ok and rc == 0
        rc = cli_main(argv + ["--emit-strata", str(f1)])
        ok = ok and rc == 0 and capsys.readouterr().out == out1  # deterministic
        rc = cli_main(["strata", str(f1), "--emit-strata", str(f2)])
        out_strata = capsys.readouterr().out
        ok = ok and rc == 0 and out_strata == out1
        ok = ok and f1.read_bytes() == f2.read_bytes()
        sf1 = parse_strata(f1.read_text(encoding="utf-8"))
        sf2 = parse_strata(f2.read_text(encoding="utf-8"))
        ok = ok and sf1.stratification == sf2.stratification
    with capsys.disabled():
        _report(10, ok, "3 emitters round-trip byte-identically", t0, 10)
