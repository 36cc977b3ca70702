"""Tests of the benchmark itself: output checks catch tampering, and smoke
runs print every metric that BENCHMARK.json names.

Run from the checkout root:  python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run as bench  # noqa: E402  (puts the checkout's src/ on sys.path)
import reference  # noqa: E402
from outputs import report_path  # noqa: E402


def _one_invocation(tmp_path, workload: str, name: str) -> bench.WorkloadRun:
    r = bench.WorkloadRun(workload, 0, str(tmp_path))
    keep = [i for i, inv in enumerate(r.invs) if inv.name == name]
    r.invs = [r.invs[i] for i in keep]
    r.paths = [r.paths[i] for i in keep]
    return r


def _edit_report(out_dir: str, name: str, edit) -> None:
    path = report_path(out_dir, name)
    with open(path, "r", encoding="utf-8") as fh:
        rep = json.load(fh)
    edit(rep)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=2)


def _nudge_witness_lhs(out_dir, name):
    def edit(rep):
        w = rep["verdicts"][0]["witness"]
        w["lhs"] = math.nextafter(w["lhs"], math.inf)
    _edit_report(out_dir, name, edit)


def _flip_cell_status(out_dir, name):
    def edit(rep):
        cell = next(c for c in rep["cells"] if c["status"] == "pass")
        cell["status"] = "fail"
    _edit_report(out_dir, name, edit)


def _change_csv_byte(out_dir, name):
    path = os.path.join(out_dir, f"{name}_trace.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    i = max(data.rfind(bytes([d])) for d in b"0123456789")
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    with open(path, "wb") as fh:
        fh.write(data)


CASES = [
    ("scan", "scan_example1_check", _nudge_witness_lhs),
    ("scan", "scan_affine_sweep", _flip_cell_status),
    ("iterate", "affine_contraction", _change_csv_byte),
]


@pytest.mark.parametrize("workload,name,tamper", CASES,
                         ids=[c[2].__name__.strip("_") for c in CASES])
def test_tampered_output_counts_as_failed(tmp_path, workload, name, tamper):
    r = _one_invocation(tmp_path, workload, name)
    out_dir, codes, _ = r.run_pass()
    assert r.check_pass(out_dir, codes)[0] == 0, r.problems

    out_dir, codes, _ = r.run_pass()
    tamper(out_dir, name)
    assert r.check_pass(out_dir, codes)[0] == 1
    assert (r.attempted, r.failed) == (2, 1)


def test_wrong_exit_code_counts_as_failed(tmp_path):
    r = _one_invocation(tmp_path, "schedule", "tent_schedule")
    out_dir, codes, _ = r.run_pass()
    assert r.check_pass(out_dir, [1 - codes[0]])[0] == 1


def test_speed_meter_samples_a_share_of_each_span():
    meter = reference.SpeedMeter()
    meter.sample(0.0)
    assert len(meter.slices) == 1
    meter.sample(1.0)
    assert sum(meter.slices[1:]) >= reference.SHARE * 1.0
    assert meter.slowdown() == pytest.approx(
        sum(meter.slices) / len(meter.slices) / reference.NOMINAL_S)


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["scan", "iterate", "schedule"])
def test_smoke_run_prints_every_metric_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    specs = _metric_specs()[trace]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    table = "\n".join(lines[:-2])
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in table.splitlines()), m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "schedule",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
