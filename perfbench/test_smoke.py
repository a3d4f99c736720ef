"""Smoke tests of the benchmark itself, at a tiny size.

Not part of the repository's tier-1 test paths; run them with::

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402

SMOKE = 0.05
#: 4 items per task: the student bounds are statistical, and one item per
#: task is too few for them
TABLE2_SMOKE = 1 / 3


def _run(workload: str, trace: int) -> dict:
    scale = TABLE2_SMOKE if workload == "table2-gla" else SMOKE
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "0.1", "--trace", str(trace),
            "--scale", str(scale),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == dict(table)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(table)


def test_layer_self_times_partition_the_traced_wall():
    wl = harness.SERVING["paged-preempt"]
    n = wl.scaled(SMOKE)
    tracer = harness.Tracer()
    harness.serving_plan(tracer)
    try:
        engine = wl.engine()
        tracer.call("harness", engine.run, wl.trace(0, n))
    finally:
        tracer.unwrap()
    root = next(s for s in tracer.spans if s[0] == "harness")
    assert tracer.total_self_s() == pytest.approx(root[2] - root[1])
    assert harness.BlockPool.free_bytes.fget.__name__ == "free_bytes"
    assert not hasattr(harness.BlockPool.free_bytes.fget, "__wrapped__")


class _DroppingReference(harness.ReferenceEngine):
    """A reference engine that loses its last completion."""

    def serve(self, trace):
        out = super().serve(trace)
        return dataclasses.replace(out, timings=out.timings[:-1])


@pytest.mark.parametrize("workload", ["chat-prefix", "paged-preempt"])
def test_a_wrong_reference_trips_the_serving_check(workload, monkeypatch):
    wl = harness.SERVING[workload]
    trace = wl.trace(0, wl.scaled(SMOKE))
    report = wl.engine().run(trace)
    harness.check_serving(wl, trace, report)
    monkeypatch.setattr(harness, "ReferenceEngine", _DroppingReference)
    with pytest.raises(harness.CheckFailed, match=workload):
        harness.check_serving(wl, trace, report)


def test_a_wrong_reference_router_trips_the_fleet_check(monkeypatch):
    wl = harness.SERVING["fleet-knee"]
    trace = wl.trace(0, wl.scaled(SMOKE))
    report = wl.engine().run(trace)
    monkeypatch.setattr(
        harness._ReferenceLeastLoaded, "choose", lambda self, request: 0
    )
    with pytest.raises(harness.CheckFailed, match="fleet-knee"):
        harness.check_serving(wl, trace, report)


def test_a_wrong_expected_count_trips_the_serving_check():
    wl = harness.SERVING["paged-preempt"]
    trace = wl.trace(0, wl.scaled(SMOKE))
    other = wl.engine().run(wl.trace(1, wl.scaled(SMOKE)))
    with pytest.raises(harness.CheckFailed, match="paged-preempt"):
        harness.check_serving(wl, trace, other)


def test_a_corrupted_recorded_value_trips_the_table2_check():
    inputs, _, _ = harness.table2_setup(0, TABLE2_SMOKE)
    row = harness.table2_eval(inputs)
    expected = json.loads(harness.EXPECTED_TABLE2.read_text())
    harness.check_table2(inputs, row, expected)
    key = harness.expected_key(inputs)
    bad = json.loads(json.dumps(expected))
    bad[key]["perplexity"] += 1e-6
    with pytest.raises(harness.CheckFailed, match="table2-gla"):
        harness.check_table2(inputs, row, bad)
    bad = json.loads(json.dumps(expected))
    task = next(iter(bad[key]["accuracy"]))
    bad[key]["accuracy"][task] = 1.0 - bad[key]["accuracy"][task]
    with pytest.raises(harness.CheckFailed, match="table2-gla"):
        harness.check_table2(inputs, row, bad)


def test_a_run_outside_a_checkout_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "fleet-knee",
            "--seed", "0", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
