"""Self-test of the benchmark harness at reduced sizes.

Run from the repository root:  python3 -m pytest bench/tests
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.relpath(os.path.join(BENCH, "run.py"), ROOT)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
sys.path.insert(0, BENCH)
from workloads import WORKLOADS, compare_reference  # noqa: E402

# Printed next to the JSON metrics, on some workloads only.
PRINTED_ONLY = {"semilinear-2d": {"steps_per_s": "1/s"},
                "scan-1d": {"steps_per_s": "1/s", "scan_s": "s"},
                "linear-2d": {"samples_per_s": "1/s"}}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _assert_metrics(result, expected):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_timed_run_prints_every_end_to_end_metric(workload):
    result, lines = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                                 "--trace", "0", "--quick"))
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = {line.split()[0]: line.split()[2] for line in lines if line.startswith("  ")}
    for m in SPEC["end_to_end"]:
        assert named[m["name"]] == m["unit"]
    for name, unit in PRINTED_ONLY[workload].items():
        assert named[name] == unit
    assert float([line for line in lines if "fail_frac" in line][0].split()[1]) == 0.0
    assert any(line.startswith("env {") for line in lines)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    result, lines = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                                 "--trace", "1", "--quick"))
    _assert_metrics(result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.calls"] >= 1
    if workload != "linear-2d":
        assert metrics["solver.steps"] > 0
        assert metrics["spectral.transforms_per_step"] >= 4
    shares = {k: v for k, v in metrics.items() if k.startswith("share.")}
    # each share is a median over jobs, so their sum is only close to 1
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.1)
    trace_file = os.path.join(ROOT, ".bench_out", f"trace-{workload}-seed3.json")
    with open(trace_file) as fh:
        spans = json.load(fh)["spans"]
    assert {"name", "job", "start", "end", "parent"} <= set(spans[0])


def test_reference_seed_checks_outputs_against_stored_reference():
    # the default seed at full size compares against bench/reference.json;
    # the quick sizes only check invariants, so exercise the comparison directly
    with open(os.path.join(BENCH, "reference.json")) as fh:
        ref = json.load(fh)["scan-1d"]
    assert compare_reference(ref, ref) == []
    moved = json.loads(json.dumps(ref))
    moved["functional"][3][2] *= 1 + 1e-6
    assert compare_reference(moved, ref)
    flipped = json.loads(json.dumps(ref))
    flipped["functional"][0][5] = "ok"
    assert compare_reference(flipped, ref)
    # the smallest norm of the final row is held to the tolerance on its own
    small = json.loads(json.dumps(ref))
    i = min(range(1, len(ref["final_row"])), key=lambda k: abs(ref["final_row"][k]))
    small["final_row"][i] *= 1 + 1e-7
    assert compare_reference(small, ref)


def test_all_runs_every_workload():
    result, _ = _result(_run("--workload", "all", "--seed", "0", "--seconds", "0",
                             "--trace", "0", "--quick"))
    assert result["correct"] and result["failed"] == 0
    assert {k.split(".", 1)[0] for k in result["metrics"]} == set(WORKLOADS)


def test_benchmark_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
