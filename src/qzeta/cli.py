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
``--emit-strata FILE``.  Exit status: 0 on success, 1 on a refusal
(reported on stderr as an ``error:`` line) or when the reader closes
stdout early (reported nowhere), 2 on a usage error.  A refusal is any
``ValueError``, which every exception class of the package is, a
``ZeroDivisionError`` at ``--eval-L 0``, or an ``OSError`` on a strata
file.  The ``notice:`` lines (a non-small group accepted, a trihedral
G(d, q) reduced to its small member, unrealizable Yomdin invariants) are
decided here, from the parameters, and never in the library.

:func:`main` may be called many times in one process.  It builds its
parser once, on the first call, and every call parses into a fresh
namespace; nothing else is kept between calls.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import groups, monodromy, strata, symring, tetra, zetacore
from .motpoly import TooManyDigits
from .resolution import (
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
    json_dump_slices,
    render_ratfunc_slices,
    series_expand,
    ze_equal,
    ze_to_ratfunc,
)
from .topzeta import frac_json


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


def _write(text: list[str]) -> None:
    """Write the slices of ``text`` to stdout one after another.  Every view
    is formatted in full before this is called, so a view that fails writes
    nothing."""
    write = sys.stdout.write
    for piece in text:
        write(piece)


def _emit_zeta(args, z: ZetaExpr, chi_env=None, stratification=None) -> list[str]:
    """Render the shared zeta views, writing ``--emit-strata``; returns the
    text to print as slices, each line ended by a newline (the caller
    writes it, after adding its own lines)."""
    obj = {}
    lines = []
    if args.json:
        obj["zeta"] = z.json_obj()
    elif args.latex:
        lines.append(z.latex() + "\n")
    else:
        lines += render_ratfunc_slices(ze_to_ratfunc(z))
        lines.append("\n")
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
            lines.append("euler: %s\n" % (tz.latex() if args.latex else str(tz)))
    if args.poles:
        ps = sorted(candidate_poles(z))
        if args.json:
            obj["poles"] = [frac_json(x) for x in ps]
        else:
            lines.append(
                "candidate poles: %s\n"
                % (", ".join("s = %s" % x for x in ps) if ps else "none")
            )
    if args.series is not None:
        ser = series_expand(z, args.series)
        if args.json:
            obj["series"] = ser
        else:
            poly = symring.latex_poly_slices if args.latex else symring.render_poly_slices
            lines += ["series (T-order <= %s): " % args.series, *poly(ser), "\n"]
        if args.eval_L is not None:
            P = args.eval_L
            try:
                vals = ser.values_at_L(P)
            except MissingChi as exc:
                raise ValueError(
                    "--eval-L: the class symbol [%s] has no value at L = %s" % (exc, P)
                ) from None
            except TooManyDigits as exc:
                raise ValueError("--eval-L: %s" % exc) from None
            if args.json:
                obj["series_at_L"] = vals
            else:
                lines += symring.render_values_at_L_slices(P, vals)
                lines.append("\n")
    if stratification is not None and getattr(args, "emit_strata", None):
        text = strata.render_strata(stratification, chi_env)
        with open(args.emit_strata, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        lines += json_dump_slices(obj)
        lines.append("\n")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_monomial(args) -> int:
    g = groups.parse_group_literal(args.group)
    if args.allow_nonsmall and not groups.is_small(g):
        _notice("group is not small; quasi-reflexions contribute extra jets")
    z = zetacore.local_monomial_zeta(g, args.N, args.nu, allow_nonsmall=args.allow_nonsmall)
    _write(_emit_zeta(args, z))
    return 0


def _run_stratified(args, strat, chi_env, route=None, label=None, extra=()) -> int:
    """Sum ``strat`` and print its views; under ``--check``, then the line
    comparing it with ``route()``, the second route; then the ``extra``
    lines, each ended by a newline.  Returns the exit status."""
    z = zetacore.stratified_zeta(strat, allow_nonsmall=getattr(args, "allow_nonsmall", False))
    text = _emit_zeta(args, z, chi_env, strat)
    status = 0
    if route is not None and args.check:
        status = 0 if ze_equal(z, route()) else 1
        text.append("cross-check vs %s: %s\n" % (label, "DIFFERENT" if status else "EQUAL"))
    text.extend(extra)
    _write(text)
    return status


def cmd_strata(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    sf = strata.parse_strata(text)
    return _run_stratified(args, sf.stratification, sf.chi_env)


def cmd_hj(args) -> int:
    chain = hj_resolve(args.d, args.a, args.b)
    if len(args.N) != 2 or len(args.nu) != 2:
        raise ValueError("hj needs two-entry --N and --nu vectors")
    (N1, N2), (nu1, nu2) = args.N, args.nu
    return _run_stratified(
        args,
        hj_stratification(chain, N1, N2, nu1, nu2),
        None,
        lambda: zetacore.local_monomial_zeta(
            groups.GroupAction.cyclic(args.d, (args.a, args.b)), (N1, N2), (nu1, nu2)
        ),
        "direct quotient formula",
    )


def cmd_yomdin(args) -> int:
    y = YomdinParams(args.m, args.k, args.p, args.q, args.a)
    if not y.realizable:
        _notice(
            "no surface with these invariants exists ((m-1)(m-2) < (p-1)(q-1)); "
            "output is the formal evaluation of the formulas"
        )
    strat, chi_env = yomdin_stratification(y)
    extra = []
    if args.charpoly:
        cp = monodromy.yomdin_charpoly(y)
        extra = ["monodromy charpoly: %s\n" % cp, "degree: %d\n" % cp.degree()]
    return _run_stratified(
        args, strat, chi_env, lambda: yomdin_zeta_closed(y), "closed-form assembly", extra
    )


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
            _write([*json_dump_slices({"stringy": st, "conjugacy": cc, "match": st == cc}), "\n"])
        else:
            _write(["%s\n" % st, "conjugacy classes: %d (%s)\n" % (cc, "match" if st == cc else "MISMATCH")])
        return 0 if st == cc else 1
    N, nu = args.N, args.nu
    strat, chi_env = tetra_stratification(t, N, nu)
    if not t.is_small_formula:
        small = t.small_member()
        _notice("G(%d, %d) has quasi-reflexions; using G(%d, %d)" % (t.d, t.q, small.d, small.q))
    return _run_stratified(
        args, strat, chi_env, lambda: tetra_zeta_closed(t, N, nu), "closed-form assembly"
    )


def _group_report(literal: str) -> dict:
    """What ``group`` prints about the action, with no group object kept:
    the enumerated columns are freed before the measures are written.

    The orbifold measure is the age measure of the action itself (see
    :func:`zetacore.orb_measure_origin`), and the Gorenstein measure that of
    the reduced action; a small action is its own reduction, so its two
    measures are one polynomial, summed once and held under both keys."""
    g = groups.parse_group_literal(literal)
    reduced, m = groups.small_reduce(g)
    gor = zetacore.gor_measure_origin(g, reduced)
    return {
        "order": g.order,
        "exponent": g.exponent(),
        # small_reduce leaves every m_i at 1 exactly when g is already small
        "small": all(x == 1 for x in m),
        "reduced": groups.group_literal(reduced),
        "m": list(m),
        "gor_measure": gor,
        "orb_measure": gor if reduced is g else zetacore.orb_measure_origin(g),
    }


def cmd_group(args) -> int:
    rep = _group_report(args.literal)
    if args.json:
        _write([*json_dump_slices(rep), "\n"])
        return 0
    _write([
        "order: %d\n" % rep["order"],
        "exponent: %d\n" % rep["exponent"],
        "small: %s\n" % ("yes" if rep["small"] else "no"),
        "reduced: %s  [m = (%s)]\n" % (rep["reduced"], ", ".join(str(x) for x in rep["m"])),
        "gor measure at origin: ",
        *symring.render_poly_factored_slices(rep["gor_measure"]),
        "\norb measure at origin: ",
        *symring.render_poly_slices(rep["orb_measure"]),
        "\n",
    ])
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the qzeta command line on every call."""
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every :func:`main` call shares.  argparse keeps no
    state of a parse on the parser: each parse makes a fresh namespace and
    converts string defaults again, and help is formatted when printed."""
    return build_parser()


def main(argv=None) -> int:
    ap = _parser()
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
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
