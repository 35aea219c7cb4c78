"""The public surface: what each module exports, and what it no longer does."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import qzeta

MODULES = [
    "cli", "groups", "monodromy", "motpoly", "resolution", "strata",
    "symring", "tetra", "topzeta", "zetacore",
]

# One-line wrappers of methods, and names nothing called, that were removed.
REMOVED = {
    "groups": ["age", "weight", "GroupElement"],
    "monodromy": ["degree", "phi_multiplicity", "is_eigenvalue_pole"],
    "symring": ["eval_L", "ClassSymbol"],
    "resolution": ["yomdin_zeta", "yomdin_top"],
}
# Printers that each walked the terms of a sum, one term at a time.
REMOVED["symring"] += ["_exp_str", "_pow_str", "_lattice_pow_str", "_mono_str", "_render_terms",
                       "_exp_latex"]
# The per-term factor-tuple printer: every view writes its terms from the
# key columns now, through one exponent-column helper.
REMOVED["symring"] += ["_lattice_terms"]
# The expansion one factor at a time: series_expand writes every term
# straight into one dict.
REMOVED["symring"] += ["_expand_term"]
# The fold's per-step helpers on whole polynomials, and the Fraction gcd of
# the series plan: the fold adds lattice dicts on one scale, and the plan
# is made on integers.
REMOVED["symring"] += ["_common", "_lesser_content", "_reduced", "_shifted", "_gcd"]
REMOVED["topzeta"] = ["_spoly_str", "_spoly_latex"]
# The --check line is written by the one runner of the stratified commands.
REMOVED["cli"] = ["_check"]
# The str.format column helpers: every polynomial, JSON list and --eval-L
# block is written by one slice writer, with one %-template per term shape.
REMOVED["symring"] += ["_lowest_terms", "_lattice_texts", "_power_formats", "_factor_texts", "_runs",
                       "_minus"]
# The column printer of the polynomials in s and the joined quotient: every
# printed sum goes through the one slice writer, topzeta._slices.
REMOVED["topzeta"] += ["sum_str", "quotient_str"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module("qzeta." + name)
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), "%s.__all__ lists missing %r" % (name, attr)


def test_package_all_is_what_init_imports():
    tree = ast.parse(Path(qzeta.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(qzeta.__all__) - {"__version__"} == imported
    assert len(qzeta.__all__) == len(set(qzeta.__all__))
    for attr in qzeta.__all__:
        assert hasattr(qzeta, attr)


def test_removed_names_are_gone():
    for name, attrs in REMOVED.items():
        mod = importlib.import_module("qzeta." + name)
        for attr in attrs:
            assert attr not in getattr(mod, "__all__", ()) and not hasattr(mod, attr), (name, attr)
            assert attr not in qzeta.__all__ and not hasattr(qzeta, attr), attr
    assert not hasattr(qzeta.cli, "_series_values")
    # the CLI values a series with MotPoly.values_at_L, not per T-column
    assert not hasattr(qzeta.motpoly.MotPoly, "split_T")
    # readers that only tests called: they live in tests/readers.py
    for attr in ("series_at_L", "coeff_of_T"):
        assert not hasattr(qzeta.motpoly.MotPoly, attr), attr
    assert not hasattr(qzeta.topzeta.TopZeta, "eval_at")
    # the evaluation the tracer wraps stays
    assert callable(qzeta.motpoly.MotPoly.eval_L)
    # the truncated product and the sum of the per-term expansions
    assert not hasattr(qzeta.motpoly.MotPoly, "_mul_truncated")
    assert not hasattr(qzeta.motpoly.MotPoly, "_sum")
    # a factor's polynomials, which only tests read, and the keys and
    # Fractions it kept from construction; the sum of two quotients, and the
    # quotient that tries every division
    for attr in ("numer_poly", "binom_poly", "_numer_keys", "_binom_keys", "_lattice", "__dict__"):
        assert not hasattr(qzeta.symring.StdFactor(1, 1), attr), attr
    assert not hasattr(qzeta.symring.RatFunc, "add") and not hasattr(qzeta.symring.RatFunc, "make")
    # the second quotient constructor, and the Fraction direction a factor
    # cached for divisions: the fold divides along the integer triple
    assert not hasattr(qzeta.symring.RatFunc, "_of")
    for attr in ("_direction", "_dir"):
        assert not hasattr(qzeta.symring.StdFactor, attr) and attr not in qzeta.symring.StdFactor.__slots__, attr
    # the binomial product on whole polynomials: the fold's is on term dicts
    assert not hasattr(qzeta.motpoly.MotPoly, "mul_binomial")
    # members that only tests read, and helpers with a one-line replacement
    assert not hasattr(qzeta.resolution.Chain2D, "c0")
    assert not hasattr(qzeta.resolution.Chain2D, "c_end")
    assert not hasattr(qzeta.tetra.TetraGroup, "identity")
    assert not hasattr(qzeta.motpoly, "_rat")
    assert not hasattr(qzeta.zetacore, "_prime_factors")


def test_one_writer_and_one_vector_code():
    # symring prints through topzeta's writer, and tetra codes its elements
    # with the vector code of groups
    assert qzeta.symring._slices is qzeta.topzeta._slices
    assert qzeta.tetra._codes is qzeta.groups._codes


def test_cli_reads_no_private_symring_name():
    tree = ast.parse(Path(qzeta.cli.__file__).read_text(encoding="utf-8"))
    private = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "symring"
        and node.attr.startswith("_")
    ]
    private += [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "symring"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
