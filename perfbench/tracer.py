"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every public function of each
``qzeta`` module plus the few methods that do a layer's work in their own
body (exact division, group enumeration, rendering, evaluation).  Each
wrapper is installed under every name a caller looks it up by: a function
imported with ``from .symring import ze_to_ratfunc`` lives on as
``qzeta.cli.ze_to_ratfunc`` too, and both names get the wrapper.

Spans stay in memory (operation id, span id, parent span id, name, start,
end) and are written out once, at the end of the run.  Self time is a
span's duration minus the time covered by its child spans, accumulated as
spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("symring", "groups", "tetra", "zetacore", "resolution", "strata", "monodromy", "cli")

# Methods whose bodies carry a layer's work; everything else a method does
# is charged to the public function that called it.
METHODS = {
    "symring": {
        "MotPoly": ("divide_one_minus", "eval_L", "json_obj"),
        "RatFunc": ("equivalent", "__str__"),
        "ZetaExpr": ("json_obj",),
        "TopZeta": ("__str__", "latex", "json_obj"),
    },
    "groups": {"GroupAction": ("elements",)},
    "monodromy": {"CyclotomicProduct": ("__str__", "expand")},
}

# Span name -> per-layer metric.  A wrapped name not listed here is charged
# to "<module>.other_s", so every traced span lands in some listed layer.
LAYER_OF = {
    "symring.ze_to_ratfunc": "symring.fold_s",
    "symring.MotPoly.divide_one_minus": "symring.divide_s",
    "symring.ze_equal": "symring.equal_s",
    "symring.RatFunc.equivalent": "symring.equal_s",
    "symring.series_expand": "symring.series_s",
    "symring.euler_specialize": "symring.euler_s",
    "symring.MotPoly.eval_L": "symring.eval_s",
    "symring.eval_L": "symring.eval_s",
    "groups.GroupAction.elements": "groups.enumerate_s",
    "groups.is_small": "groups.small_s",
    "groups.small_reduce": "groups.small_s",
    "zetacore.s_g_sum": "zetacore.sg_sum_s",
    "zetacore.local_monomial_zeta": "zetacore.assemble_s",
    "zetacore.affine_monomial_zeta": "zetacore.assemble_s",
    "zetacore.stratified_zeta": "zetacore.assemble_s",
    "zetacore.gor_measure_origin": "zetacore.measure_s",
    "zetacore.orb_measure_origin": "zetacore.measure_s",
    "tetra.build_tetra": "tetra.build_s",
    "tetra.conjugacy_count": "tetra.conjugacy_s",
    "resolution.hj_resolve": "resolution.build_s",
    "resolution.hj_stratification": "resolution.build_s",
    "resolution.yomdin_stratification": "resolution.build_s",
    "resolution.tetra_stratification": "resolution.build_s",
    "resolution.yomdin_zeta_closed": "resolution.closed_form_s",
    "resolution.tetra_zeta_closed": "resolution.closed_form_s",
    "resolution.yomdin_top_closed": "resolution.closed_form_s",
    "resolution.tetra_top_closed": "resolution.closed_form_s",
    "strata.render_strata": "strata.render_s",
    "strata.parse_strata": "strata.parse_s",
}
_RENDER_PREFIXES = ("render_", "latex_", "json_")
_RENDER_METHODS = ("__str__", "latex", "json_obj")


def layer_of(span: str) -> str:
    if span in LAYER_OF:
        return LAYER_OF[span]
    module, _, attr = span.partition(".")
    if module == "cli":
        return "cli.self_s"
    if module == "monodromy":
        return "monodromy.charpoly_s"
    if module == "symring" and (
        attr.startswith(_RENDER_PREFIXES) or attr.rpartition(".")[2] in _RENDER_METHODS
    ):
        return "symring.render_s"
    return module + ".other_s"


def public_functions(module) -> dict[str, object]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Installs span-recording wrappers and aggregates self time per layer."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[list] = []  # [span id, child ns]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module("qzeta." + name) for name in MODULES}
        package = importlib.import_module("qzeta")
        replaced: dict[int, object] = {}
        for mname, mod in mods.items():
            for fname, fn in public_functions(mod).items():
                replaced[id(fn)] = self._wrap("%s.%s" % (mname, fname), fn)
        for holder in (package, *mods.values()):
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(holder, attr, replaced[id(obj)])
        for mname, classes in METHODS.items():
            for cname, methods in classes.items():
                cls = getattr(mods[mname], cname)
                for meth in methods:
                    span = "%s.%s.%s" % (mname, cname, meth)
                    self._set(cls, meth, self._wrap(span, vars(cls)[meth]))

    def uninstall(self):
        while self._undo:
            holder, attr, obj = self._undo.pop()
            setattr(holder, attr, obj)

    def _set(self, holder, attr, obj):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, obj)

    def _wrap(self, span: str, fn):
        spans, stack, self_ns = self.spans, self._stack, self.self_ns
        before, after = _HOOKS.get(span, (None, None))
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(tracer, args) if before else None
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[span] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((tracer.op_id, sid, parent, span, t0, t1))
            if after:
                after(tracer, args, result, state)
            return result

        return traced

    # -- results --------------------------------------------------------

    def layer_seconds(self) -> dict[str, float]:
        out: Counter = Counter()
        for span, ns in self.self_ns.items():
            out[layer_of(span)] += ns / 1e9
        return dict(out)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for rec in sorted(self.spans, key=lambda r: r[4]):
                fh.write("%d\t%d\t%d\t%s\t%d\t%d\n" % rec)


# -- counters recorded at the same boundaries as the spans -----------------


def _count_divide(tr, args, result, _state):
    tr.counts["symring.divide_calls"] += 1
    if result is not None:
        tr.counts["symring.divide_useful"] += 1


def _count_fold(tr, args, result, _state):
    terms = len(result.numer)
    tr.counts["symring.folds"] += 1
    tr.counts["symring.numer_terms"] += terms
    tr.maxima["symring.numer_terms_max"] = max(tr.maxima["symring.numer_terms_max"], terms)


def _enumerated_before(tr, args):
    # GroupAction caches its elements; only a first call enumerates.
    return getattr(args[0], "_elements", None) is None


def _count_elements(tr, args, result, fresh):
    if fresh:
        tr.counts["groups.elements_count"] += len(result)


def _count_tetra(tr, args, result, _state):
    tr.counts["tetra.elements_count"] += len(result.elements)


def _count_strata(tr, args, result, _state):
    tr.counts["zetacore.strata_count"] += len(args[0].strata)


def _count_strata_bytes(tr, args, result, _state):
    tr.counts["strata.bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "symring.MotPoly.divide_one_minus": (None, _count_divide),
    "symring.ze_to_ratfunc": (None, _count_fold),
    "groups.GroupAction.elements": (_enumerated_before, _count_elements),
    "tetra.build_tetra": (None, _count_tetra),
    "zetacore.stratified_zeta": (None, _count_strata),
    "strata.render_strata": (None, _count_strata_bytes),
}
