"""The benchmark's span tracer wraps named methods from outside the package.

Tier-1 does not run ``perfbench/``, so a method the tracer wraps could be
deleted or moved to a base class with every other test still passing, and
the benchmark would fail only once the tracer is installed.  These tests
load ``perfbench/tracer.py`` by path, without changing it, and check what
it reads.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

from qzeta.groups import GroupAction
from qzeta.motpoly import MotPoly
from qzeta.resolution import hj_resolve, hj_stratification
from qzeta.symring import ze_to_ratfunc
from qzeta.zetacore import stratified_zeta

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    # exec the source text, so that no bytecode cache is written beside it
    mod = types.ModuleType("_perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(mod))
    return mod


TRACED = [
    (mname, cname, meth)
    for mname, classes in _tracer().METHODS.items()
    for cname, methods in classes.items()
    for meth in methods
]


@pytest.mark.parametrize("mname,cname,meth", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_method_is_in_its_class_body(mname, cname, meth):
    # the tracer replaces vars(cls)[meth], so an inherited method will not do
    cls = getattr(importlib.import_module("qzeta." + mname), cname)
    assert meth in vars(cls), "%s.%s.%s" % (mname, cname, meth)


def test_group_action_keeps_the_elements_slot():
    # the enumeration hook counts only calls that find _elements unset
    assert "_elements" in GroupAction.__slots__
    g = GroupAction.cyclic(5, (1, 2))
    assert g._elements is None
    assert len(g.elements()) == 5 and g._elements is not None


def _divisions(monkeypatch, z) -> list:
    """The results of the divide_one_minus calls that folding ``z`` makes."""
    calls = []
    divide = MotPoly.divide_one_minus

    def counted(self, *args):
        calls.append(divide(self, *args))
        return calls[-1]

    monkeypatch.setattr(MotPoly, "divide_one_minus", counted)
    ze_to_ratfunc(z)
    monkeypatch.undo()
    return calls


def test_fold_divides_through_the_traced_method(monkeypatch):
    # symring.divide_calls and divide_useful_ratio count calls of this
    # method; a fold that divided some other way would read 0 for both
    calls = _divisions(monkeypatch, stratified_zeta(hj_stratification(hj_resolve(7, 1, 3), 1, 1, 1, 1)))
    useful = [q for q in calls if q is not None]
    assert len(calls) > len(useful) > 0


def test_shared_ray_fold_divides_through_the_traced_method(monkeypatch):
    # every factor of this chain lies on the ray (1, 1), so the fold adds
    # its terms one by one in insertion order, not in a balanced tree
    z = stratified_zeta(hj_stratification(hj_resolve(33, 31, 26), 2, 2, 2, 2))
    facs = {f for factors, _c in z.iter_terms() for f in factors}
    assert len({f._ray for f in facs}) == 1 < len(facs)
    calls = _divisions(monkeypatch, z)
    useful = [q for q in calls if q is not None]
    assert len(calls) > len(useful) > 0
