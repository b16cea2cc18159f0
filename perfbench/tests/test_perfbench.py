"""Tests of the benchmark harness itself.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def synthetic_tree():
    # 0 root [0, 10]
    #   1 a [1, 4]      2 b [3, 6] overlaps a      3 c [8, 9]
    #     4 a1 [2, 3]
    #   5 rec [6, 8]
    #     6 rec [6.5, 7.5]   (recursion)
    return spans.SpanTree([
        ("root", -1, 0.0, 10.0, None),
        ("a", 0, 1.0, 4.0, {"rows": 3}),
        ("b", 0, 3.0, 6.0, None),
        ("c", 0, 8.0, 9.0, {"rows": 5}),
        ("a1", 1, 2.0, 3.0, None),
        ("rec", 0, 6.0, 8.0, None),
        ("rec", 5, 6.5, 7.5, None),
    ])


def test_self_time_subtracts_the_union_of_children():
    tree = synthetic_tree()
    # children of root cover [1, 6] and [6, 8] and [8, 9]: 8 of 10
    assert tree.self_time(0) == pytest.approx(2.0)
    assert tree.self_time(1) == pytest.approx(2.0)
    assert tree.self_time(4) == pytest.approx(1.0)
    assert tree.self_total("rec") == pytest.approx(1.0 + 1.0)


def test_totals_count_recursion_once_and_filter_by_ancestor():
    tree = synthetic_tree()
    assert tree.calls("rec") == 2
    assert tree.total("rec") == pytest.approx(2.0)
    assert tree.total("a1", under="a") == pytest.approx(1.0)
    assert tree.total("a1", under="b") == 0.0
    assert tree.calls("rec", under="rec") == 1
    assert tree.attr_sum("a", "rows") + tree.attr_sum("c", "rows") == 8
    assert tree.attr_sum("c", "rows", under="root") == 5


def test_wrapper_records_parent_counts_and_closes_on_error():
    tracer = spans.Tracer(clock=FakeClock(range(100)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    wrapped_inner = tracer.wrap("inner", inner,
                                lambda args, kwargs, result: {"rows": result})
    outer = tracer.wrap("outer", lambda x: wrapped_inner(x) + 1)
    assert outer(3) == 7
    with pytest.raises(ValueError):
        outer(-1)
    tree = tracer.tree()
    assert [s[0] for s in tree.spans] == ["outer", "inner", "outer", "inner"]
    assert [s[1] for s in tree.spans] == [-1, 0, -1, 2]
    assert tree.attr_sum("inner", "rows") == 6
    assert all(s[3] is not None for s in tree.spans)
    assert tree.self_time(0) == pytest.approx(2.0)


@pytest.mark.parametrize("sample", [False, True])
def test_timed_call_takes_kernel_runs_out_of_the_call(sample):
    out, timing = calibrate.timed_call(lambda: time.sleep(0.2) or 7,
                                       "array", sample)
    assert out == 7
    edges = 2 * calibrate.EDGE_RUNS
    if sample:
        # readings every PERIOD_S during the 0.2 s; their time is not the
        # call's
        assert len(timing.readings) >= edges + 0.2 / calibrate.PERIOD_S / 2
    else:
        assert len(timing.readings) == edges
    assert timing.wall == pytest.approx(0.2, abs=0.02)
    assert timing.speed == pytest.approx(
        sum(timing.readings) / len(timing.readings)
        / calibrate.REFERENCE_S["array"])
    assert timing.scaled == pytest.approx(timing.wall / timing.speed)


def test_timed_call_restores_the_alarm_handler_after_an_error():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ZeroDivisionError):
        calibrate.timed_call(lambda: 1 / 0, "interpreted")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


TINY = {
    "train_euler3": ((300, 2), (300, 2)),
    "train_rk2": ((300, 2), (300, 2)),
    "train_midpoint": ((200, 2), (200, 2)),
    "train_alt": ((100, 3), (100, 3)),
    "gen_pendulum": (200, 200),
    "gen_rigid_body": (4, 4),
    "alt_extract": (100, 100),
    "compare_alt": (0.5, 0.5),
    "convergence": (0.5, 0.5),
    "efficiency": (0.5, 0.5),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = stdout.getvalue().splitlines()
    assert "machine" in json.loads(lines[-2])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    record = json.loads(
        (tmp_path / f"{workload}-seed5-trace{trace}.json").read_text())
    # at this size data calls DOPRI5 with fewer rows than the desk size
    # predicts; every other check must pass
    failures = [f for f in record["failures"] if "rows per call" not in f]
    assert failures == []
    assert result["attempted"] >= 1 and result["failed"] == \
        len(record["failures"])
