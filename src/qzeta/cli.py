"""Command-line front end.

Subcommands::

    qzeta monomial --group "(2;1,1)" --N 0,0 --nu 1,1
    qzeta strata FILE
    qzeta hj --d 7 --a 1 --b 3 --N 1,1 --nu 1,1 --check
    qzeta yomdin --m 3 --k 1 --p 2 --q 3 --a 3 --charpoly
    qzeta tetra --d 3 --q 2 --stringy
    qzeta group "(4;1,2)"

Zeta-producing subcommands print the reduced rational-function form of
the motivic zeta function and accept the shared view flags ``--euler``,
``--poles``, ``--series M``, ``--eval-L P`` (with ``--series``),
``--latex``, ``--json`` and, where a stratification is built,
``--emit-strata FILE``.  Exit status: 0 on success, 1 on a domain error
(reported on stderr) or when the reader closes stdout early (reported
nowhere), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from fractions import Fraction

from . import groups, monodromy, strata, symring, tetra, zetacore
from .resolution import (
    NotCoprime,
    TetraReduced,
    YomdinParams,
    hj_resolve,
    hj_stratification,
    tetra_stratification,
    tetra_zeta_closed,
    yomdin_stratification,
    yomdin_zeta_closed,
)
from .symring import (
    MissingChi,
    ZetaExpr,
    candidate_poles,
    euler_specialize,
    json_dump,
    render_zeta,
    series_expand,
    ze_equal,
    ze_to_ratfunc,
)
from .topzeta import frac_json

DOMAIN_ERRORS = (
    ValueError,
    ZeroDivisionError,
    OSError,
    NotCoprime,
    MissingChi,
    symring.FractionalPowerUnevaluable,
    groups.NotSmall,
    groups.SizeLimit,
    tetra.BadParams,
    zetacore.TInCoefficient,
    zetacore.DimensionMismatch,
    zetacore.BudgetExceeded,
    strata.ParseError,
)


def _notice(msg: str):
    print("notice: %s" % msg, file=sys.stderr)


def _fraction_arg(text: str) -> Fraction:
    """argparse type for one rational; a bad value is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("invalid Fraction value: %r" % text) from None


def _fractions(text: str) -> tuple[Fraction, ...]:
    """argparse type for a comma-separated rational vector."""
    return tuple(_fraction_arg(tok) for tok in text.split(","))


def _add_view_flags(p: argparse.ArgumentParser, with_emit: bool = False):
    p.add_argument("--euler", action="store_true", help="also print the topological zeta function of s")
    p.add_argument("--poles", action="store_true", help="also print the candidate poles")
    p.add_argument("--series", type=_fraction_arg, metavar="M", help="also print the T-expansion truncated at order M")
    p.add_argument("--eval-L", dest="eval_L", type=_fraction_arg, metavar="P", help="evaluate the printed series at L = P (rational)")
    p.add_argument("--latex", action="store_true", help="print LaTeX instead of plain text")
    p.add_argument("--json", action="store_true", help="print a single JSON object instead of text")
    if with_emit:
        p.add_argument("--emit-strata", metavar="FILE", help="write the stratification in the strata-file format")


def _check(z: ZetaExpr, other: ZetaExpr, label: str) -> tuple[str, int]:
    """The --check line comparing z with its second route, and the exit status."""
    if ze_equal(z, other):
        return "cross-check vs %s: EQUAL" % label, 0
    return "cross-check vs %s: DIFFERENT" % label, 1


def _emit_zeta(args, z: ZetaExpr, chi_env=None, stratification=None) -> list[str]:
    """Render the shared zeta views; returns extra plain-text lines to
    print after (the caller prints them so check lines can interleave)."""
    obj = {}
    lines = []
    if args.json:
        obj["zeta"] = z.json_obj()
    elif args.latex:
        lines.append(z.latex())
    else:
        lines.append(str(ze_to_ratfunc(z)))
    if args.euler:
        try:
            tz = euler_specialize(z, chi_env)
        except MissingChi as exc:
            raise ValueError(
                "--euler: no chi declared for the class symbol [%s]" % exc
            ) from None
        if args.json:
            obj["euler"] = tz.json_obj()
        else:
            lines.append("euler: %s" % (tz.latex() if args.latex else str(tz)))
    if args.poles:
        ps = sorted(candidate_poles(z))
        if args.json:
            obj["poles"] = [frac_json(x) for x in ps]
        else:
            lines.append(
                "candidate poles: %s"
                % (", ".join("s = %s" % x for x in ps) if ps else "none")
            )
    if args.series is not None:
        ser = series_expand(z, args.series)
        if args.json:
            obj["series"] = ser
        else:
            lines.append(
                "series (T-order <= %s): %s" % (args.series, symring.render_poly(ser))
            )
        if args.eval_L is not None:
            P = args.eval_L
            try:
                vals = ser.series_at_L(P)
            except MissingChi as exc:
                raise ValueError(
                    "--eval-L: the class symbol [%s] has no value at L = %s" % (exc, P)
                ) from None
            if args.json:
                obj["series_at_L"] = [
                    {"T": frac_json(t), "value": frac_json(v)} for t, v in vals
                ]
            else:
                lines.append("series at L = %s:" % P)
                for t, v in vals:
                    lines.append("  T^%s: %s" % (symring._exp_str(t.numerator, t.denominator), v))
    if stratification is not None and getattr(args, "emit_strata", None):
        text = strata.render_strata(stratification, chi_env)
        with open(args.emit_strata, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        lines.append(json_dump(obj))
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_monomial(args) -> int:
    g = groups.parse_group_literal(args.group)
    if args.allow_nonsmall and not groups.is_small(g):
        _notice("group is not small; quasi-reflexions contribute extra jets")
    z = zetacore.local_monomial_zeta(g, args.N, args.nu, allow_nonsmall=args.allow_nonsmall)
    for line in _emit_zeta(args, z):
        print(line)
    return 0


def cmd_strata(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    sf = strata.parse_strata(text)
    z = zetacore.stratified_zeta(sf.stratification, allow_nonsmall=args.allow_nonsmall)
    for line in _emit_zeta(args, z, sf.chi_env, sf.stratification):
        print(line)
    return 0


def cmd_hj(args) -> int:
    chain = hj_resolve(args.d, args.a, args.b)
    if len(args.N) != 2 or len(args.nu) != 2:
        raise ValueError("hj needs two-entry --N and --nu vectors")
    (N1, N2), (nu1, nu2) = args.N, args.nu
    strat = hj_stratification(chain, N1, N2, nu1, nu2)
    z = zetacore.stratified_zeta(strat)
    lines = _emit_zeta(args, z, None, strat)
    status = 0
    if args.check:
        direct = zetacore.local_monomial_zeta(
            groups.GroupAction.cyclic(args.d, (args.a, args.b)), (N1, N2), (nu1, nu2)
        )
        line, status = _check(z, direct, "direct quotient formula")
        lines.append(line)
    for line in lines:
        print(line)
    return status


def cmd_yomdin(args) -> int:
    y = YomdinParams(args.m, args.k, args.p, args.q, args.a)
    if not y.realizable:
        _notice(
            "no surface with these invariants exists ((m-1)(m-2) < (p-1)(q-1)); "
            "output is the formal evaluation of the formulas"
        )
    strat, chi_env = yomdin_stratification(y)
    z = zetacore.stratified_zeta(strat)
    lines = _emit_zeta(args, z, chi_env, strat)
    status = 0
    if args.check:
        line, status = _check(z, yomdin_zeta_closed(y), "closed-form assembly")
        lines.append(line)
    if args.charpoly:
        cp = monodromy.yomdin_charpoly(y)
        lines.append("monodromy charpoly: %s" % cp)
        lines.append("degree: %d" % cp.degree())
    for line in lines:
        print(line)
    return status


def cmd_tetra(args) -> int:
    t = tetra.TetraParams(args.d, args.q)
    if args.stringy:
        # (d, q) alone decide smallness; refuse before the group is built
        if not t.is_small_formula:
            raise groups.NotSmall("G(%d, %d) has quasi-reflexions" % (t.d, t.q))
        grp = tetra.build_tetra(args.d, args.q)
        st = tetra.stringy_euler_tetra(grp)
        cc = tetra.conjugacy_count(grp)
        if args.json:
            print(json_dump({"stringy": st, "conjugacy": cc, "match": st == cc}))
            return 0 if st == cc else 1
        print(st)
        if st == cc:
            print("conjugacy classes: %d (match)" % cc)
            return 0
        print("conjugacy classes: %d (MISMATCH)" % cc)
        return 1
    N, nu = args.N, args.nu
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        strat, chi_env = tetra_stratification(t, N, nu)
    for w in caught:
        if issubclass(w.category, TetraReduced):
            _notice(str(w.message))
    z = zetacore.stratified_zeta(strat)
    lines = _emit_zeta(args, z, chi_env, strat)
    status = 0
    if args.check:
        line, status = _check(z, tetra_zeta_closed(t, N, nu), "closed-form assembly")
        lines.append(line)
    for line in lines:
        print(line)
    return status


def cmd_group(args) -> int:
    g = groups.parse_group_literal(args.literal)
    reduced, m = groups.small_reduce(g)
    # small_reduce leaves every m_i at 1 exactly when g is already small
    small = all(x == 1 for x in m)
    gor = zetacore.gor_measure_origin(g, reduced)
    orb = zetacore.orb_measure_origin(g)
    if args.json:
        print(
            json_dump(
                {
                    "order": g.order,
                    "exponent": g.exponent(),
                    "small": small,
                    "reduced": groups.group_literal(reduced),
                    "m": list(m),
                    "gor_measure": gor,
                    "orb_measure": orb,
                }
            )
        )
        return 0
    print("order: %d" % g.order)
    print("exponent: %d" % g.exponent())
    print("small: %s" % ("yes" if small else "no"))
    print("reduced: %s  [m = (%s)]" % (
        groups.group_literal(reduced), ", ".join(str(x) for x in m)
    ))
    print("gor measure at origin: %s" % symring.render_poly_factored(gor))
    print("orb measure at origin: %s" % symring.render_poly(orb))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qzeta",
        description="Exact motivic and topological zeta functions of "
        "monomial pairs on abelian quotient singularities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monomial", help="zeta of a monomial pair on C^n / G at the origin")
    p.add_argument("--group", required=True, help='group literal, e.g. "(2;1,1)"')
    p.add_argument("--N", type=_fractions, required=True, help="comma-separated multiplicities")
    p.add_argument("--nu", type=_fractions, required=True, help="comma-separated discrepancy shifts")
    p.add_argument("--allow-nonsmall", action="store_true", help="accept actions with quasi-reflexions")
    _add_view_flags(p)
    p.set_defaults(func=cmd_monomial)

    p = sub.add_parser("strata", help="zeta of a stratification read from a file")
    p.add_argument("file", help="strata file")
    p.add_argument("--allow-nonsmall", action="store_true", help="accept actions with quasi-reflexions")
    _add_view_flags(p, with_emit=True)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("hj", help="zeta of 1/d(a,b) via its Hirzebruch-Jung resolution")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--N", type=_fractions, default="1,1", help="multiplicities of x, y (default 1,1)")
    p.add_argument("--nu", type=_fractions, default="1,1", help="shifts of x, y (default 1,1)")
    p.add_argument("--check", action="store_true", help="cross-check against the direct quotient formula")
    _add_view_flags(p, with_emit=True)
    p.set_defaults(func=cmd_hj)

    p = sub.add_parser("yomdin", help="zeta of a Yomdin-type surface singularity")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--check", action="store_true", help="cross-check against the closed-form assembly")
    p.add_argument("--charpoly", action="store_true", help="also print the monodromy characteristic polynomial")
    _add_view_flags(p, with_emit=True)
    p.set_defaults(func=cmd_yomdin)

    p = sub.add_parser("tetra", help="trihedral quotient family G(d,q)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", type=_fraction_arg, default="1", help="multiplicity of the divisor (default 1)")
    p.add_argument("--nu", type=_fraction_arg, default="1", help="shift of the divisor (default 1)")
    p.add_argument("--stringy", action="store_true", help="print the stringy Euler number and the conjugacy-class count")
    p.add_argument("--check", action="store_true", help="cross-check against the closed-form assembly")
    _add_view_flags(p, with_emit=True)
    p.set_defaults(func=cmd_tetra)

    p = sub.add_parser("group", help="inspect an abelian action: order, smallness, measures")
    p.add_argument("literal", help='group literal, e.g. "(4;1,2)"')
    p.add_argument("--json", action="store_true", help="print a single JSON object instead of text")
    p.set_defaults(func=cmd_group)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "eval_L", None) is not None and getattr(args, "series", None) is None:
        ap.error("--eval-L needs --series")
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed early (``qzeta ... | head``).  Point stdout at
        # devnull, so that the flush at shutdown does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DOMAIN_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
