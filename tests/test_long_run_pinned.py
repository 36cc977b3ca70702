"""Frozen outputs of a long, decimated multi-map run through the CLI.

No shipped config runs past DECIMATION_START or uses a growth-1 tent, so
`test_shipped_outputs.py` never reaches the engine's decimated stride or a
tent whose blocks all have the same length. This run does both: 2*10**4
steps over three gentle scalings, a record every 100 steps (every 1000
past step 10**4) and a flat tent of 200-step blocks. The sha256 literals
were recorded before the engine step and the tent walk were rewritten, and
are never re-recorded to fit a change.
"""
import hashlib
import json

from fixedlab import main

LONG_TENT = {
    "name": "long_tent",
    "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0,
               "norm": "l2"},
    "mappings": [{"name": "scaling", "factor": f}
                 for f in (0.999, 0.998, 0.997)],
    "plan": {"mode": "grid", "resolution": 4, "epsilon": 1e-9},
    "engine": "multi",
    "schedule": {"kind": "tent", "peak": 0.25, "first_block_length": 200,
                 "growth": 1.0},
    "iteration": {"lambda": 0.5, "x0": [0.6, 0.3], "max_iters": 20000,
                  "residual_tol": 0.0, "record_every": 100},
}

REPORT_SHA = "5f4de832f26f5644c53cecfe2414815d52b1221eb996ac60bca037918b826fb5"
TRACE_SHA = "1d227a0d8e9e8bbcdc5cfdb3ee038e87593eedab11e6ce3159f62689cb2cf3f4"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_long_decimated_tent_run_is_pinned(tmp_path):
    config = tmp_path / "long_tent.json"
    config.write_text(json.dumps(LONG_TENT))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads((out / "long_tent_report.json").read_text())
    report.pop("duration_seconds")
    assert report["summary"]["total_steps"] == 20000
    assert report["summary"]["recorded_steps"] == 111
    assert sha256(json.dumps(report, indent=2).encode()) == REPORT_SHA
    assert sha256((out / "long_tent_trace.csv").read_bytes()) == TRACE_SHA
