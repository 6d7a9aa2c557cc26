"""Self-tests of the benchmark (about 20 s):

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import setup_cost  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

setup_cost.use_checkout_gnorm()
gnorm = setup_cost.import_gnorm()
SPEC = json.loads((setup_cost.ROOT / "BENCHMARK.json").read_text())


def bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


def assert_metrics(out, declared):
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_declared_workloads_are_the_runner_choices():
    assert [w["name"] for w in SPEC["workloads"]] == list(setup_cost.WORKLOADS)


@pytest.mark.parametrize("workload", ["norms-small", "decisions"])
def test_short_run_prints_every_end_to_end_metric(workload):
    out = last_json(bench(setup_cost.ROOT, workload, 0))
    assert_metrics(out, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_short_traced_run_prints_every_per_layer_metric():
    out = last_json(bench(setup_cost.ROOT, "decisions", 1))
    assert_metrics(out, SPEC["per_layer"])
    assert out["metrics"]["solver.calls"]["value"] == 15  # one solve per call of the cycle
    assert out["metrics"]["cli.self_ms_p50"]["value"] > 0


def test_without_library_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(setup_cost.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "norms-small", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def small_items(tmp_path_factory):
    sections = setup_cost.build_sections(gnorm, "norms-small")
    return workloads.build(gnorm, "norms-small", sections, 1, str(tmp_path_factory.mktemp("w")))


def test_corrupted_values_fail_their_checks(small_items):
    item = next(i for i in small_items if i.name.startswith("states(4)"))
    res = item.call()
    assert item.check(res) is None
    bumped = dataclasses.replace(res, value=res.value * (1 + 1e-4))
    assert item.check(bumped) is not None
    assert item.check(dataclasses.replace(res, status="max_iter")) is not None
    assert item.check(dataclasses.replace(res, gap=1e-3)) is not None

    item = next(i for i in small_items if i.name.startswith("diamond"))
    res = item.call()
    assert item.check(res) is None
    assert item.check(dataclasses.replace(res, value=10.0)) is not None  # above the bracket


def test_certificate_and_hmin_checks_reject_wrong_answers():
    report = json.dumps({"values": {"feasible": False, "candidate_payoff": 0.9}})
    assert checks.cli_certify((0, report), 0.9, 1e-7) is not None
    assert checks.cli_certify((2, ""), 0.9, 1e-7) is not None
    assert checks.close(-1.0 + 1e-4, -1.0, 1e-7, 1.0, "hmin") is not None
    assert checks.consistent(0.5 + 1e-4, 0.5, 1e-7) is not None


def test_repeats_are_checked_against_the_first_call(small_items):
    item = small_items[-1]
    res = item.call()
    calls = [run.Call(len(small_items) - 1, 0.0, r, None)
             for r in (res, dataclasses.replace(res, value=res.value + 1e-3))]
    reasons, _ = run.check_calls(small_items, calls, workloads.TOL)
    assert reasons[0] is None and reasons[1] is not None


def test_tail_is_the_highest_percentile_with_ten_calls_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail([3, 1, 2]) == (3, 100.0, 3)


def test_tracer_nests_spans_and_restores_the_library(small_items):
    solve, base_norm = gnorm.solver.solve, gnorm.norms.base_norm
    tracer = tracing.Tracer()
    tracer.install(gnorm)
    try:
        # names bound by "from .norms import base_norm" are wrapped too
        assert gnorm.decisions.base_norm is gnorm.norms.base_norm is not base_norm
        tracer.call("t0:0", small_items[0].call)
    finally:
        tracer.uninstall()
    assert gnorm.solver.solve is solve and gnorm.decisions.base_norm is base_norm
    spans = {s.name: s for s in tracer.spans}
    assert tracer.spans[0].name == "bench.call" and tracer.spans[0].parent is None
    assert spans["solver.solve"].parent == spans["norms.base_norm"].sid
    assert spans["solver.solve"].attrs["iters"] > 0
    selfs = tracing.self_times(tracer.spans)
    assert abs(sum(selfs) - tracer.spans[0].duration) < 1e-9


class SteadyKernel:
    def factor(self):
        return 0.5


def test_a_slow_machine_cuts_the_passes_short_but_not_below_the_minimum():
    item = workloads.Item("sleep", lambda max_iter=None: time.sleep(0.01), None, None)
    seg = run.run_passes([item], Exception, 10, 0.0, SteadyKernel())
    assert len(seg.pass_s) == run.MIN_PASSES == len(seg.calls)


def test_times_are_scaled_by_the_speed_calibration():
    calls = [run.Call(i % 3, 0.01 * (1 + i % 3), None, None, 0.5) for i in range(33)]
    seg = run.Segment(calls, [0.06] * 11, [0.5] * 11)
    scaled, pct = run.timings(3, seg, [(2.0, 0.5)], scaled=True)
    raw, _ = run.timings(3, seg, [(2.0, 0.5)], scaled=False)
    assert scaled == pytest.approx({k: v * (2.0 if k == "calls_per_s" else 0.5)
                                    for k, v in raw.items()})
    assert raw["call_ms_p50"] == pytest.approx(20.0) and raw["call_ms_tail"] == pytest.approx(30.0)
    assert pct == pytest.approx(100 * 23 / 33)
