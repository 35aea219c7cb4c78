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
            assert attr not in mod.__all__ and not hasattr(mod, attr), (name, attr)
            assert attr not in qzeta.__all__ and not hasattr(qzeta, attr), attr
    assert not hasattr(qzeta.cli, "_series_values")
    # the CLI values a series with MotPoly.series_at_L, not per T-column
    assert not hasattr(qzeta.motpoly.MotPoly, "split_T")
