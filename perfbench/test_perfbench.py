"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    setup = WORKLOADS[name][0]
    first = setup(7, tmp_path)
    assert first == setup(7, tmp_path)
    if name != "state_oracle":  # exhaustive: the seed does not change its inputs
        assert first != setup(8, tmp_path)


def test_oracle_query_count_matches_the_sweep():
    from qspread.reports import ResidualTracker
    from qspread.weingarten import oracle_equivalence_sweep

    seen = []
    add = ResidualTracker.add
    try:
        ResidualTracker.add = lambda self, w, r: seen.append(w)
        oracle_equivalence_sweep(2, 2, 3)
    finally:
        ResidualTracker.add = add
    assert len(seen) == workloads.oracle_query_count(2, 2, 3)


# --- corrupted outputs count as failures ------------------------------------

def _suite_outputs():
    golden = json.loads((HERE / "golden" / "suite_default.json").read_text())
    lines = [json.dumps({**r, "runtime_ms": 5}) for r in golden["reports"]]
    return {"rc": 0, "lines": lines}, [tuple(c) for c in golden["cases"]]


def test_suite_recorded_stream_passes():
    outputs, cases = _suite_outputs()
    attempted, failures = workloads.suite_check(0, None, outputs, cases)
    assert failures == [] and attempted == workloads.suite_outputs_per_rep(0)


def test_suite_exact_zero_turned_float_fails():
    outputs, cases = _suite_outputs()
    reports = [json.loads(line) for line in outputs["lines"]]
    index = next(i for i, r in enumerate(reports) if r["max_residual"] == "exact-zero")
    reports[index]["max_residual"] = 0.0
    outputs["lines"] = [json.dumps(r) for r in reports]
    for seed in (0, 3):
        _, failures = workloads.suite_check(seed, None, outputs, cases)
        assert len(failures) == 1 and "exact-zero" in failures[0]


def test_suite_dropped_case_fails():
    outputs, cases = _suite_outputs()
    name, count = cases[1]
    cases[1] = (name, count - 1)
    _, failures = workloads.suite_check(3, None, outputs, cases)
    assert len(failures) == 1 and "case counts" in failures[0]


def test_suite_dropped_or_failing_report_fails():
    outputs, cases = _suite_outputs()
    dropped = dict(outputs, lines=outputs["lines"][:-1])
    attempted, failures = workloads.suite_check(3, None, dropped, cases)
    assert len(failures) == 1 and "missing" in failures[0]
    assert attempted == workloads.suite_outputs_per_rep(3)
    reports = [json.loads(line) for line in outputs["lines"]]
    float_index = next(i for i, r in enumerate(reports)
                       if isinstance(r["max_residual"], float) and r["params"]["tolerance"] > 0)
    tolerance = reports[float_index]["params"]["tolerance"]
    for bad in (tolerance * 2, float("nan")):
        reports[float_index]["max_residual"] = bad
        _, failures = workloads.suite_check(3, None, dict(outputs, lines=[
            json.dumps(r) for r in reports]), cases)
        assert len(failures) == 1 and "tolerance" in failures[0]
    # A report that loosens its own tolerance is still held to the recorded one.
    reports[float_index]["max_residual"] = tolerance * 2
    reports[float_index]["params"]["tolerance"] = tolerance * 10
    _, failures = workloads.suite_check(3, None, dict(outputs, lines=[
        json.dumps(r) for r in reports]), cases)
    assert len(failures) == 1 and "tolerance" in failures[0]


def test_suite_float_reordering_is_not_a_failure():
    outputs, cases = _suite_outputs()
    reports = [json.loads(line) for line in outputs["lines"]]
    for r in reports:
        if isinstance(r["max_residual"], float) and r["max_residual"] > 0:
            r["max_residual"] *= 1.5
    _, failures = workloads.suite_check(0, None, dict(outputs, lines=[
        json.dumps(r) for r in reports]), cases)
    assert failures == []


def _oracle_report():
    k, n, m = workloads.ORACLE_SHAPE
    report = {"check_name": "state_oracle_equivalence", "status": "pass",
              "max_residual": "exact-zero", "witness": None,
              "params": {"k_max": k, "n_max": n, "m_max": m, "tolerance": 0.0}}
    return report, [("state_oracle_equivalence", workloads.oracle_query_count(k, n, m))]


def test_oracle_corruptions_fail():
    report, cases = _oracle_report()
    assert workloads.oracle_check(0, None, report, cases) == (2, [])
    assert len(workloads.oracle_check(0, None, dict(report, max_residual=0.0), cases)[1]) == 1
    dropped = [(cases[0][0], cases[0][1] - 1)]
    assert len(workloads.oracle_check(0, None, report, dropped)[1]) == 1


def _traced_rep(coverage, **layers):
    names = [n for n in tracing.per_layer_names() if n not in tracing.HOST]
    return {"mode": "trace", "attempted": 2, "failures": [], "wall_s": 1.0, "calib_s": 0.05,
            "coverage": coverage, "layers": {**dict.fromkeys(names, 1), **layers}}


def test_traced_run_fails_on_unsteady_counters_or_low_coverage():
    untraced = {"mode": "run", "attempted": 2, "failures": [], "wall_s": 0.9, "calib_s": 0.05}
    steady = [untraced, _traced_rep(0.95), _traced_rep(0.97)]
    checks, _ = run.summarize("state_oracle", 0, True, steady)
    assert checks["failed"] == 0 and checks["attempted"] == 3 * 2 + 2
    unsteady = [untraced, _traced_rep(0.95), _traced_rep(0.97, **{"reports.cases": 2})]
    checks, _ = run.summarize("state_oracle", 0, True, unsteady)
    assert checks["failed"] == 1 and "reports.cases" in checks["failures"][0]
    uncovered = [untraced, _traced_rep(0.85), _traced_rep(0.87)]
    checks, _ = run.summarize("state_oracle", 0, True, uncovered)
    assert checks["failed"] == 1 and "cover" in checks["failures"][0]


def _untraced_rep(wall, cpu):
    return {"mode": "run", "attempted": 2, "failures": [], "wall_s": sum(wall),
            "cpu_s": sum(cpu), "setup_s": 0.1, "peak_rss_mb": 30.0, "calib_s": 0.05,
            "wall_segments": wall, "cpu_segments": cpu}


def test_wall_and_cpu_time_take_each_segment_at_its_fastest():
    reps = [_untraced_rep([1.0, 2.0, 3.0], [0.9, 2.0, 3.0]),
            _untraced_rep([2.0, 1.5, 3.5], [2.0, 1.4, 3.5]),
            _untraced_rep([1.5, 2.5, 2.5], [1.5, 2.5, 2.4])]
    checks, metrics = run.summarize("state_oracle", 0, False, reps)
    assert checks["failed"] == 0 and checks["attempted"] == 3 * 2 + 1
    assert metrics["wall_s"] == (pytest.approx(1.0 + 1.5 + 2.5), "s", 3)
    assert metrics["cpu_s"] == (pytest.approx(0.9 + 1.4 + 2.4), "s", 3)
    assert metrics["setup_s"][0] == 0.1 and metrics["peak_rss_mb"][0] == 30.0


def test_repetitions_cut_differently_fail():
    reps = [_untraced_rep([1.0, 2.0], [1.0, 2.0]), _untraced_rep([3.0], [3.0])]
    checks, metrics = run.summarize("state_oracle", 0, False, reps)
    assert checks["failed"] == 1 and "segments" in checks["failures"][0]
    assert "wall_s" not in metrics and "cpu_s" not in metrics


# --- the metric list matches BENCHMARK.json ---------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, tracing.per_layer_unit(n)) for n in tracing.per_layer_names()]
    assert spec["command"] == ["python3", "perfbench/run.py"]


# --- whole runs, in subprocesses --------------------------------------------

def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_bench("--workload", "state_oracle", "--seed", "0",
                            "--seconds", "1", "--trace", "0"))
    # Four repetitions of two outputs each, and their agreement on segments.
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 4 * 2 + 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_counts_repeat_and_spans_cover_wall_time():
    first = _result(_bench("--workload", "state_oracle", "--seed", "2",
                           "--seconds", "1", "--trace", "1"))
    second = _result(_bench("--workload", "state_oracle", "--seed", "5",
                            "--seconds", "1", "--trace", "1"))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == tracing.per_layer_names()
    counts = [n for n in tracing.per_layer_names() if tracing.is_counter(n)]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["trace.coverage"]["value"] >= 0.9


def test_checkout_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "state_oracle", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _children_running() -> list[str]:
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            args = cmdline.read_bytes().split(b"\0")
        except OSError:
            continue
        if str(HERE / "child.py").encode() in args:
            found.append(cmdline.parent.name)
    return found


def test_sigterm_stops_the_child_and_cleans_up():
    proc = subprocess.Popen([sys.executable, "perfbench/run.py", "--workload", "state_oracle",
                             "--seed", "0", "--seconds", "25", "--trace", "0"],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 20
        while not _children_running() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _children_running()
        proc.terminate()
        out, _ = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0 and out.strip() == ""
    assert _children_running() == []
    assert list(ROOT.glob(".perfbench-*")) == []
