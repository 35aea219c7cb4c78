"""Self-tests of the benchmark: its checkers must catch injected mismatches,
and a one-round run of each workload must report every metric with no
failed operation.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from workloads import Op  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _attempt(fn) -> run.Run:
    r = run.Run()
    r.attempt(Op(("selftest",), fn))
    return r


def test_hj_checker_rejects_mismatched_pair():
    d, a, b = 7, 1, 3
    chain = W.hj_chain(d, a, b, (1, 1), (1, 1))
    assert W.hj_verified(chain, W.hj_direct(d, a, b, (1, 1), (1, 1)))
    wrong = W.hj_direct(d, a, b, (2, 1), (1, 3))
    assert not W.hj_verified(chain, wrong)
    r = _attempt(lambda: W.hj_verified(chain, wrong))
    assert (r.attempted, r.failed, r.latencies) == (1, 1, [])


def _emit(tmp_path):
    views = ["--euler", "--poles", "--series", "4", "--eval-L", "1", "--latex"]
    path = tmp_path / "job.strata"
    ok, lines = W.hj_emit(["--d", "7", "--a", "1", "--b", "3", "--N", "2,1", "--nu", "1,2"], views, path)
    assert ok and W.HJ_EQUAL in lines
    assert W.strata_replay_verified(lines, views, path)
    return views, path, lines


@pytest.mark.parametrize(
    "tamper",
    [
        # a different shift nu: the replayed views change
        lambda text: text.replace("nu = [2, 1]", "nu = [3, 1]", 1),
        # same content, not canonical: re-emission gives other bytes
        lambda text: text.replace(" ; ", " ;  ", 1),
    ],
    ids=["content", "bytes"],
)
def test_replay_checker_rejects_tampered_strata(tmp_path, tamper):
    views, path, lines = _emit(tmp_path)
    text = path.read_text()
    assert tamper(text) != text
    path.write_text(tamper(text))
    assert not W.strata_replay_verified(lines, views, path)
    r = _attempt(lambda: W.strata_replay_verified(lines, views, path))
    assert (r.attempted, r.failed) == (1, 1)


def test_group_checker_rejects_wrong_order():
    rc, out = W.run_cli(["group", "(12;1,5)", "--json"])
    obj = json.loads(out)
    assert rc == 0 and W.group_verified(obj)
    obj["order"] += 1
    assert not W.group_verified(obj)


def test_failing_operation_is_counted_not_raised():
    def boom():
        raise ZeroDivisionError("injected")

    r = _attempt(boom)
    assert (r.attempted, r.failed) == (1, 1)


def test_pace_takes_its_samples_out_of_the_wall():
    import signal
    import time

    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        return "done"

    handler = signal.getsignal(signal.SIGALRM)
    with run.Pace() as pace:
        result, wall, ref = pace.timed(busy)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result == "done"
    # The loop ran 0.3 s of wall clock, the timer's samples included.
    assert len(pace.samples) >= 5
    assert 0.3 - pace.spent < wall < 0.3 - 3 * min(pace.samples)
    assert ref == pytest.approx(wall * run.Pace.REF_S / statistics.fmean(pace.samples))


def test_rounds_depend_only_on_seed(tmp_path):
    first = [op.key for op in next(W.rounds("group-enum", 3, tmp_path))]
    again = [op.key for op in next(W.rounds("group-enum", 3, tmp_path))]
    other = [op.key for op in next(W.rounds("group-enum", 4, tmp_path))]
    assert first == again != other


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_one_round_smoke(workload, trace, capsys):
    from qzeta import cli, symring

    original = symring.ze_to_ratfunc
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0.001",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace:
        assert cli.ze_to_ratfunc is original and symring.ze_to_ratfunc is original
    else:
        assert result["metrics"]["verified_ratio"]["value"] == 1.0
