"""qzeta benchmark: one closed-loop caller, seeded workloads, verified results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hj-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
given at a fixed reference speed of the machine (see ``Pace``): the speed a
process sees on a shared host swings by up to 2x within seconds.
``--trace 1`` runs every operation twice, untraced and traced, and reports
per-layer self time and counts per operation, the tracing overhead (traced
wall minus untraced wall) and the share of traced wall that the named
layers cover; spans are written to ``perfbench/out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_EDGE_SAMPLES = 3  # set-up samples before the rounds, and again after them
SETUP_GAP_S = 8.0  # least time between two set-up samples taken between rounds
SETUP_TRIES = 3  # fresh interpreters per set-up sample; it keeps the fastest
SETUP_CODE = "import qzeta.cli; qzeta.cli.build_parser()"

TIME_LAYERS = (
    "symring.fold_s", "symring.divide_s", "symring.equal_s", "symring.series_s",
    "symring.render_s", "symring.euler_s", "symring.eval_s", "symring.other_s",
    "groups.enumerate_s", "groups.small_s", "groups.other_s",
    "zetacore.sg_sum_s", "zetacore.assemble_s", "zetacore.measure_s", "zetacore.other_s",
    "tetra.build_s", "tetra.conjugacy_s", "tetra.other_s",
    "resolution.build_s", "resolution.closed_form_s", "resolution.other_s",
    "monodromy.charpoly_s", "strata.render_s", "strata.parse_s", "strata.other_s",
    "cli.self_s",
)
COUNT_LAYERS = (
    "groups.elements_count", "tetra.elements_count", "zetacore.strata_count",
    "symring.divide_calls", "strata.bytes",
)


_REF_POLY = {(Fraction(i, 3), Fraction(j, 2), ()): 7 * i + j + 1 for i in range(3) for j in range(3)}


def ref_kernel() -> int:
    """Fixed pure-Python work in the style of symring: the product of two
    sparse polynomials keyed by (Fraction, Fraction, tuple), then a run of
    integer hashing into a dict."""
    prod: dict = {}
    for (a, b, s), c in _REF_POLY.items():
        for (e, f, t), g in _REF_POLY.items():
            k = (a + e, b + f, s + t)
            prod[k] = prod.get(k, 0) + c * g
    buckets: dict = {}
    x = 12345
    for _ in range(500):
        x = (x * 1103515245 + 12345) % 2147483648
        k = (x >> 8) % 97
        buckets[k] = buckets.get(k, 0) + (x >> 16)
    return len(prod) + len(buckets)


class Pace:
    """The machine's speed, sampled by timing ``ref_kernel``.

    On a shared host the speed one process sees swings by up to 2x within
    seconds, as other tenants come and go; one fixed operation's median
    over 10-s or 30-s windows had an interquartile range of 20-28% of its
    median.  So a time is reported at a fixed reference speed: its wall
    time times ``REF_S`` over the kernel's mean time while it ran.  A
    program change moves the time and not the kernel, so it shows in full.

    The kernel runs between operations, and every ``PERIOD`` seconds
    during them on a SIGALRM timer, in the caller thread; its time is
    taken out of the operation's wall.  The garbage collector is off while
    it runs, so a collection of the program's heap is not charged to it.
    """

    REF_S = 0.0008  # ref_kernel's time on an idle core of the reference machine
    PERIOD = 0.02
    FRESH = 0.005  # a sample younger than this serves as the next "before"

    def __init__(self):
        self.samples: list[float] = []  # kernel durations
        self.last = -1.0  # when the newest sample ended
        self.spent = 0.0  # wall spent sampling, in total
        self._sampling = False
        for _ in range(5):
            ref_kernel()  # warm-up

    def sample(self, *_):
        if self._sampling:  # the timer fired during a sample
            return
        t0 = time.perf_counter()
        self._sampling = True
        was = gc.isenabled()
        gc.disable()
        try:
            k0 = time.perf_counter()
            ref_kernel()
            self.samples.append(time.perf_counter() - k0)
        finally:
            if was:
                gc.enable()
            self._sampling = False
        self.last = time.perf_counter()
        self.spent += self.last - t0

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def timed(self, fn, during: bool = True):
        """Run ``fn()``; returns (its result, wall s, reference-speed s).

        With ``during`` false the timer is held while ``fn`` runs, and only
        the samples just before and after it count: for work in a child
        process, which a sample taken meanwhile would compete with.
        """
        if time.perf_counter() - self.last > self.FRESH:
            self.sample()
        first, spent = len(self.samples) - 1, self.spent
        if not during:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0 - (self.spent - spent)
        self.sample()
        if not during:
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return result, wall, wall * self.REF_S / statistics.fmean(self.samples[first:])


class Run:
    """Closed loop over whole rounds; records latency of verified operations.

    With a pace, latencies are at the reference speed (see ``Pace``).  With
    a tracer, the tracer is installed around each operation only, so
    untraced and traced runs can take turns on the same operations.
    """

    def __init__(self, tracer=None, pace: Pace | None = None):
        self.tracer = tracer
        self.pace = pace
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.ops = []
        self.wall = 0.0  # summed over operations
        self.busy = 0.0  # the same at the reference speed

    def _call(self, op) -> bool:
        try:
            return bool(op.run())
        except Exception:  # a failed operation is counted, never raised
            if self.failed < 3:
                traceback.print_exc()
            return False

    def attempt(self, op) -> bool:
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
            self.tracer.install()
        self.attempted += 1
        try:
            if self.pace is None:
                t0 = time.perf_counter()
                ok = self._call(op)
                dt = ref = time.perf_counter() - t0
            else:
                ok, dt, ref = self.pace.timed(lambda: self._call(op))
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.wall += dt
        self.busy += ref
        if ok:
            self.latencies.append(ref)
        else:
            self.failed += 1
            if self.failed <= 3:
                print("failed operation: %r" % (op.key,), file=sys.stderr)
        self.ops.append(op)
        return ok

    def for_seconds(self, rounds, seconds: float, between=None):
        """Whole rounds until ``seconds`` of them have run; ``between`` runs
        after each round, outside the measured wall time."""
        while self.wall < seconds:
            for op in next(rounds):
                self.attempt(op)
            if between:
                between()


def paired(rounds, seconds: float, tracer) -> tuple[Run, Run]:
    """Each operation runs untraced and traced back to back, and the two
    take turns going first, so neither drift in machine speed nor the
    warm-up a repeat gets lands in the overhead."""
    plain, traced = Run(), Run(tracer)
    r = 0
    while plain.wall < seconds:
        for i, op in enumerate(next(rounds)):
            # alternate by round too: a fixed row keeps its place in a round
            for run in (plain, traced) if (i + r) % 2 == 0 else (traced, plain):
                run.attempt(op)
        r += 1
    return plain, traced


class SetupProbe:
    """Time of a fresh interpreter importing qzeta.cli and building the
    parser, at the reference speed.  A sample is the fastest of
    ``SETUP_TRIES`` interpreters started one after another.  Samples are
    taken before, between and after the rounds, so their median spans the
    run rather than one moment of it."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[float] = []
        self.last = 0.0
        self.sample(record=False)  # fills the bytecode cache

    def sample(self, record: bool = True):
        cmd = [sys.executable, "-c", SETUP_CODE]
        tries = [
            self.pace.timed(lambda: subprocess.run(cmd, env=self.env, cwd=ROOT, check=True),
                            during=False)[2]
            for _ in range(SETUP_TRIES)
        ]
        if record:
            self.samples.append(min(tries))
        self.last = time.perf_counter()

    def between_rounds(self):
        if time.perf_counter() - self.last >= SETUP_GAP_S:
            self.sample()

    def sample_many(self):
        for _ in range(SETUP_EDGE_SAMPLES):
            self.sample()


def input_profile(ops) -> dict[str, float]:
    keys = Counter(op.key for op in ops)
    out = {"input.repeat_share": (len(ops) - len(keys)) / len(ops)}
    for name in ("d", "chain_len", "group_order", "numer_terms"):
        vals = [op.profile[name] for op in ops if name in op.profile]
        out["input.%s_mean" % name] = statistics.fmean(vals) if vals else 0.0
        out["input.%s_max" % name] = max(vals) if vals else 0
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup: SetupProbe) -> dict:
    lat = run.latencies or [0.0]  # only when every operation failed
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    beyond = sum(1 for x in lat if x > p95)
    print("latency samples: %d verified of %d attempted, %d beyond p95%s"
          % (len(lat), run.attempted, beyond, "" if beyond >= 10 else " (p95 is a tail estimate)"))
    print("failed_ratio: %d/%d = %.4f" % (run.failed, run.attempted, run.failed / run.attempted))
    print("setup samples: %d" % len(setup.samples))
    print("wall clock: %.3f s of operations, %.3f s at the reference speed (kernel %d samples, median %.4f ms)"
          % (run.wall, run.busy, len(run.pace.samples), 1e3 * statistics.median(run.pace.samples)))
    return {
        "setup_s": metric(statistics.median(setup.samples), "s"),
        "ops_per_s": metric(len(run.latencies) / run.busy, "1/s"),
        "latency_p50_s": metric(statistics.median(lat), "s"),
        "latency_p95_s": metric(p95, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verified_ratio": metric(1 - run.failed / run.attempted, "ratio"),
    }


def per_layer(untraced: Run, traced: Run, tracer) -> dict:
    n = traced.attempted
    layers = tracer.layer_seconds()
    unknown = set(layers) - set(TIME_LAYERS)
    if unknown:
        raise RuntimeError("spans charged to unlisted layers: %s" % sorted(unknown))
    covered = sum(layers.values())
    out = {name: metric(layers.get(name, 0.0) / n, "s/op") for name in TIME_LAYERS}
    out["bench.self_s"] = metric((traced.wall - covered) / n, "s/op")
    for name in COUNT_LAYERS:
        out[name] = metric(tracer.counts[name] / n, "count/op")
    calls = tracer.counts["symring.divide_calls"]
    useful = tracer.counts["symring.divide_useful"]
    folds = tracer.counts["symring.folds"]
    out["symring.divide_useful_ratio"] = metric(useful / calls if calls else 0.0, "ratio")
    out["symring.numer_terms_max"] = metric(tracer.maxima["symring.numer_terms_max"], "count")
    out["symring.numer_terms_mean"] = metric(
        tracer.counts["symring.numer_terms"] / folds if folds else 0.0, "count")
    out["trace.untraced_wall_s"] = metric(untraced.wall, "s")
    out["trace.traced_wall_s"] = metric(traced.wall, "s")
    out["trace.overhead_s"] = metric(traced.wall - untraced.wall, "s")
    out["trace.overhead_ratio"] = metric(traced.wall / untraced.wall - 1, "ratio")
    out["trace.coverage_ratio"] = metric(covered / traced.wall, "ratio")
    out["trace.ops"] = metric(n, "count")
    out["trace.spans"] = metric(len(tracer.spans), "count")
    print("divide_one_minus useful: %d/%d" % (useful, calls))
    print("traced wall %.3f s, untraced %.3f s, overhead %.3f s; named layers cover %.1f%%"
          % (traced.wall, untraced.wall, traced.wall - untraced.wall, 100 * covered / traced.wall))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qzeta" / "cli.py").is_file():
        print("error: no qzeta sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs the checkout's src on sys.path)

    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.WORKLOADS)))
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = OUT / ("tmp-%d" % os.getpid())
    tmp.mkdir()
    try:
        rounds = workloads.rounds(args.workload, args.seed, tmp)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            untraced, traced = paired(rounds, args.seconds / 2, tracer)
            tracer.write_spans(OUT / ("spans-%s-seed%d.tsv" % (args.workload, args.seed)))
            metrics = per_layer(untraced, traced, tracer)
            metrics.update({k: metric(v, "ratio" if k.endswith("share") else "count")
                            for k, v in input_profile(traced.ops).items()})
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
        else:
            with Pace() as pace:
                setup = SetupProbe(pace)
                setup.sample_many()
                run = Run(pace=pace)
                run.for_seconds(rounds, args.seconds, between=setup.between_rounds)
                setup.sample_many()
            metrics = end_to_end(run, setup)
            attempted, failed = run.attempted, run.failed
            for k, v in input_profile(run.ops).items():
                print("%s: %s" % (k, v))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
