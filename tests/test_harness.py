"""JSON-config front end: exit codes, reports, and byte-identical replays.

Exit code contract: 0 all checks passed, 1 some check failed, 2 the config
or its parameters were unusable, 3 the iteration itself broke down.
"""
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import fixedlab
from fixedlab import ConfigError, ContractViolation, load_config, main, run_command
from fixedlab.iterate import GAMMA_WARN_THRESHOLD
from fixedlab.schedules import PROXY_TOL

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def cfg_path(name):
    return os.path.join(CONFIGS, name)


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# --- load_config ------------------------------------------------------------

def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_load_config_names_missing_fields(tmp_path):
    p = write_cfg(tmp_path, "nodomain.json",
                  {"name": "x", "mappings": [{"name": "identity"}]})
    with pytest.raises(ConfigError, match="domain"):
        load_config(p)


def test_load_config_shipped_files_parse():
    for name in os.listdir(CONFIGS):
        cfg = load_config(cfg_path(name))
        assert cfg.name, name


# --- check ------------------------------------------------------------------

def test_check_example1_fails_with_witness(tmp_path):
    code, report = run_command("check", cfg_path("example1_check.json"),
                               out_dir=str(tmp_path), quiet=True)
    assert code == 1
    assert report["passed"] is False
    by_label = {v["condition"]: v for v in report["verdicts"]}
    assert not by_label["nonexpansive"]["passed"]
    assert by_label["nonexpansive"]["witness"]["x"] == [2.5]
    assert by_label["nonexpansive"]["witness"]["y"] == [4.0]
    # the zero-parameter two-parameter check degenerates to the same verdict
    assert not by_label["condition_B"]["passed"]
    assert by_label["condition_B"]["witness"] == by_label["nonexpansive"]["witness"]
    assert (tmp_path / "example1_check_report.json").exists()


def test_check_passing_config(tmp_path):
    p = write_cfg(tmp_path, "ok.json", {
        "name": "ok",
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                   "norm": "l2"},
        "mappings": [{"name": "affine", "matrix": [[0.6, 0.1], [-0.1, 0.5]],
                      "shift": [0.2, -0.1]}],
        "plan": {"mode": "grid", "resolution": 6, "epsilon": 1e-9},
        "checks": ["nonexpansive", "condition_C",
                   {"check": "condition_B", "gamma": 0.7, "mu": 0.35}],
    })
    code, report = run_command("check", p, out_dir=str(tmp_path), quiet=True)
    assert code == 0
    assert report["passed"] is True
    assert len(report["verdicts"]) == 3


def test_check_fixed_point_shrink_entry(tmp_path):
    base = {
        "name": "shrink",
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                   "norm": "l2"},
        "mappings": [{"name": "affine", "matrix": [[0.6, 0.1], [-0.1, 0.5]],
                      "shift": [0.2, -0.1]}],
        "plan": {"mode": "grid", "resolution": 6, "epsilon": 1e-9},
        "checks": [{"check": "fixed_point_shrink", "gamma": 0.7, "mu": 0.35}],
    }
    p = write_cfg(tmp_path, "shrink.json", base)
    code, report = run_command("check", p, out_dir=str(tmp_path), quiet=True)
    assert code == 0
    (v,) = report["verdicts"]
    assert v["condition"] == "fixed_point_shrink"
    assert v["params"] == {"gamma": 0.7, "mu": 0.35}

    base["checks"] = ["fixed_point_shrink"]   # hypothesis parameters required
    p2 = write_cfg(tmp_path, "shrink_bare.json", base)
    assert main(["check", "--config", p2, "--quiet"]) == 2


def test_check_commuting_entry(tmp_path):
    p = write_cfg(tmp_path, "fam.json", {
        "name": "fam",
        "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0,
                   "norm": "l2"},
        "mappings": [{"name": "scaling", "factor": 0.9},
                     {"name": "scaling", "factor": 0.7}],
        "plan": {"mode": "grid", "resolution": 6, "epsilon": 1e-9},
        "checks": ["nonexpansive", "commuting"],
    })
    code, report = run_command("check", p, out_dir=str(tmp_path), quiet=True)
    assert code == 0
    assert report["commuting"]["passed"] is True


def test_unknown_check_name_is_config_error(tmp_path):
    p = write_cfg(tmp_path, "bad.json", {
        "name": "bad",
        "domain": {"shape": "box", "lower": [0.0], "upper": [4.0], "norm": "l2"},
        "mappings": [{"name": "example1"}],
        "plan": {"mode": "grid", "resolution": 5, "epsilon": 1e-9},
        "checks": ["no_such_check"],
    })
    assert main(["check", "--config", p, "--quiet"]) == 2


def test_unknown_mapping_is_config_error(tmp_path):
    p = write_cfg(tmp_path, "bad.json", {
        "name": "bad",
        "domain": {"shape": "box", "lower": [0.0], "upper": [4.0], "norm": "l2"},
        "mappings": [{"name": "mystery"}],
        "plan": {"mode": "grid", "resolution": 5, "epsilon": 1e-9},
        "checks": ["nonexpansive"],
    })
    assert main(["check", "--config", p, "--quiet", "--out", str(tmp_path)]) == 2


def test_check_per_axis_resolution_runs_and_is_echoed(tmp_path):
    p = write_cfg(tmp_path, "axes.json", {
        "name": "axes",
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "mappings": [{"name": "scaling", "factor": 0.5}],
        "plan": {"mode": "grid", "resolution": [2, 3]},
        "checks": ["nonexpansive"],
    })
    code, report = run_command("check", p, out_dir=str(tmp_path), quiet=True)
    assert code == 0
    assert report["config"]["plan"]["resolution"] == [2, 3]
    assert report["verdicts"][0]["checked_pairs"] == 6 * 6


def test_python_dash_m_fixedlab_reports_as_main(tmp_path):
    """`python -m fixedlab` runs `main` in a fresh interpreter: same exit
    code, same report but for the wall-clock duration."""
    config = cfg_path("example1_check.json")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fixedlab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "fixedlab", "check", "--config", config,
                           "--out", str(tmp_path / "m"), "--quiet"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert main(["check", "--config", config, "--out", str(tmp_path / "main"),
                 "--quiet"]) == 1
    reports = [json.loads((tmp_path / d / "example1_check_report.json").read_text())
               for d in ("m", "main")]
    for r in reports:
        r.pop("duration_seconds")
    assert reports[0] == reports[1]


# --- run --------------------------------------------------------------------

def test_run_example1_writes_trace_and_report(tmp_path):
    code, report = run_command("run", cfg_path("example1.json"), out_dir=str(tmp_path),
                               quiet=True)
    assert code == 0
    assert report["passed"] is True
    assert report["engine"] == "single"
    assert report["summary"]["total_steps"] == 40
    assert report["summary"]["final_x"] == [3.0 * 2.0 ** -40]
    assert report["diagnostics"]["replay"]["passed"] is True
    assert report["diagnostics"]["monotone"][0]["passed"] is True
    assert report["diagnostics"]["residual_vanishes"]["passed"] is True
    csv = (tmp_path / "example1_trace.csv").read_text().splitlines()
    assert csv[0] == "step,x_0,residual,residual_1,alpha,dist_1"
    assert len(csv) == 1 + 41
    assert float(csv[-1].split(",")[1]) == 3.0 * 2.0 ** -40


def test_run_multi_includes_commuting_and_schedule(tmp_path):
    code, report = run_command("run", cfg_path("three_scalings.json"),
                               out_dir=str(tmp_path), quiet=True)
    assert code == 0
    assert report["engine"] == "multi"
    assert report["commuting"]["passed"] is True
    assert report["schedule_report"]["compliant"] is True
    assert report["summary"]["stop_reason"] == "max_iters"


def test_run_truncated_config(tmp_path):
    code, report = run_command("run", cfg_path("truncated_family.json"),
                               out_dir=str(tmp_path), quiet=True)
    assert code == 0
    assert report["engine"] == "truncated"
    assert len(report["summary"]["mappings"]) == 2


def test_run_x0_outside_domain_is_config_error(tmp_path):
    p = write_cfg(tmp_path, "far.json", {
        "name": "far",
        "domain": {"shape": "box", "lower": [0.0], "upper": [4.0], "norm": "l2"},
        "mappings": [{"name": "example1"}],
        "engine": "single",
        "iteration": {"lambda": 0.5, "x0": [9.0], "max_iters": 5},
    })
    assert main(["run", "--config", p, "--quiet", "--out", str(tmp_path)]) == 2


def test_run_domain_escape_is_runtime_error(tmp_path, capsys):
    p = write_cfg(tmp_path, "escape.json", {
        "name": "escape",
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                   "norm": "l2"},
        "mappings": [{"name": "translation", "offset": [0.5, 0.0]}],
        "engine": "single",
        "iteration": {"lambda": 0.9, "x0": [0.9, 0.0], "max_iters": 10},
    })
    assert main(["run", "--config", p, "--quiet", "--out", str(tmp_path)]) == 3
    assert "runtime error at step 1" in capsys.readouterr().err


def test_run_replay_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    code, report = run_command("run", cfg_path("example1.json"), out_dir=str(a),
                               quiet=True)
    assert code == 0
    echo = write_cfg(tmp_path, "echo.json", report["config"])
    code2, report2 = run_command("run", echo, out_dir=str(b), quiet=True)
    assert code2 == 0
    report.pop("duration_seconds")
    report2.pop("duration_seconds")
    assert report == report2
    assert (a / "example1_trace.csv").read_bytes() \
        == (b / "example1_trace.csv").read_bytes()


# --- schedule -----------------------------------------------------------------

def test_schedule_command_pass(tmp_path):
    code, report = run_command("schedule", cfg_path("tent_schedule.json"),
                               out_dir=str(tmp_path), quiet=True)
    assert code == 0
    assert report["passed"] is True
    assert report["report"]["limsup_proxy"] == 0.25


def test_schedule_command_flags_constant(tmp_path):
    code, report = run_command("schedule", cfg_path("constant_schedule.json"),
                               out_dir=str(tmp_path), quiet=True)
    assert code == 1
    assert report["report"]["flags"]


def test_schedule_command_bad_horizon(tmp_path):
    p = write_cfg(tmp_path, "h.json", {
        "name": "h",
        "schedule": {"kind": "constant", "value": 0.1},
        "horizon": 5,
    })
    assert main(["schedule", "--config", p, "--quiet", "--out", str(tmp_path)]) == 2


def test_schedule_command_integer_zero_constant_reports_floats(tmp_path):
    """The tail proxies are floats even when the config spells the constant
    as the integer 0; the echoed schedule keeps the config's spelling."""
    p = write_cfg(tmp_path, "zero.json", {
        "name": "zero", "horizon": 100,
        "schedule": {"kind": "constant", "value": 0}})
    assert main(["schedule", "--config", p, "--quiet", "--out", str(tmp_path)]) == 1
    text = (tmp_path / "zero_report.json").read_text()
    assert '"liminf_proxy": 0.0,' in text and '"limsup_proxy": 0.0,' in text
    assert '"value": 0\n' in text


# --- sweep ----------------------------------------------------------------------

def test_sweep_command_writes_frozen_table(tmp_path):
    code, report = run_command("sweep", cfg_path("example1_sweep.json"),
                               out_dir=str(tmp_path), quiet=True)
    assert code == 1      # two failing cells on the diagonal
    statuses = [row["status"] for row in report["cells"]]
    assert statuses == ["fail", "fail", "pass", "pass", "pass", "pass"]
    lines = (tmp_path / "example1_sweep_sweep.csv").read_text().splitlines()
    assert lines[0] == "gamma,mu,status,witness_x,witness_y,lhs,rhs"
    assert lines[1] == ("0.5,0.25,fail,2.0100000000000002,4,2,"
                        "1.9974999999999998")
    assert lines[2] == ("0.59999999999999998,0.29999999999999999,fail,"
                        "2.0100000000000002,4,2,1.9989999999999997")
    assert lines[3] == "0.69999999999999996,0.34999999999999998,pass,,,,"


def test_seed_override_rewrites_plan(tmp_path):
    p = write_cfg(tmp_path, "rand.json", {
        "name": "rand",
        "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0,
                   "norm": "l2"},
        "mappings": [{"name": "scaling", "factor": 0.8}],
        "plan": {"mode": "random", "seed": 7, "count": 40, "epsilon": 1e-9},
        "checks": ["nonexpansive"],
    })
    _, r7 = run_command("check", p, out_dir=str(tmp_path / "7"), quiet=True)
    _, r99 = run_command("check", p, out_dir=str(tmp_path / "99"), seed=99, quiet=True)
    assert r7["config"]["plan"]["seed"] == 7
    assert r99["config"]["plan"]["seed"] == 99
    native = write_cfg(tmp_path, "rand99.json",
                       {**json.loads((tmp_path / "rand.json").read_text()),
                        "plan": {"mode": "random", "seed": 99, "count": 40,
                                 "epsilon": 1e-9}})
    _, rn = run_command("check", native, out_dir=str(tmp_path / "n"), quiet=True)
    assert r99["verdicts"] == rn["verdicts"]


# --- malformed values ---------------------------------------------------------

SCALING_RUN = {
    "name": "typed",
    "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0,
               "norm": "l2"},
    "mappings": [{"name": "rotation_scaling", "angle": 0.5, "factor": 0.9}],
    "engine": "single",
    "iteration": {"lambda": 0.5, "x0": [0.5, 0.0], "max_iters": 50},
}


TWO_MAPPINGS = {**SCALING_RUN, "mappings": [*SCALING_RUN["mappings"],
                                             {"name": "scaling", "factor": 0.5}]}


WIDE_TENT = {"kind": "tent", "peak": 0.25, "first_block_length": 2, "growth": 1e308}
SCHEDULE_ONLY = {"name": "typed", "horizon": 100,
                 "schedule": {"kind": "constant", "value": 0.1}}
GRID = {"mode": "grid", "resolution": 3}
BOX = {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}


def without(payload, *keys):
    return {k: v for k, v in payload.items() if k not in keys}


def with_iteration(**changes):
    return {**SCALING_RUN, "iteration": {**SCALING_RUN["iteration"], **changes}}


@pytest.mark.parametrize("command,payload,field", [
    # wrong-typed values
    ("run", with_iteration(**{"lambda": "0.5"}), "iteration.lambda"),
    ("schedule", {"name": "typed", "horizon": 100,
                  "schedule": {"kind": "constant", "value": "0.1"}},
     "schedule.value"),
    # fractional integer fields
    ("run", with_iteration(max_iters=7.5), "max_iters"),
    ("run", with_iteration(record_every=2.5), "record_every"),
    ("check", {**SCALING_RUN, "checks": ["nonexpansive"],
               "plan": {"mode": "grid", "resolution": [2.5, 3]}}, "resolution"),
    ("check", {**SCALING_RUN, "checks": ["nonexpansive"],
               "plan": {"mode": "random", "seed": 7.9, "count": 3}}, "seed"),
    ("check", {**SCALING_RUN, "checks": ["nonexpansive"],
               "plan": {"mode": "random", "seed": 7, "count": 3.7}}, "count"),
    ("schedule", {"name": "typed", "horizon": 10000.5,
                  "schedule": {"kind": "constant", "value": 0.1}}, "horizon"),
    ("schedule", {"name": "typed", "horizon": True,
                  "schedule": {"kind": "constant", "value": 0.1}}, "horizon"),
    # wrong-typed sections and entries
    ("run", {**SCALING_RUN, "mappings": None}, "mappings"),
    ("check", {**SCALING_RUN, "plan": {"mode": "grid", "resolution": 3},
               "checks": [None]}, "checks"),
    ("check", {**SCALING_RUN, "plan": {"mode": "grid", "resolution": 3},
               "checks": [{"check": ["nonexpansive"]}]}, "checks"),
    ("sweep", {**SCALING_RUN, "plan": {"mode": "grid", "resolution": 3},
               "sweep": "gamma_grid"}, "sweep"),
    ("run", {**SCALING_RUN, "out": ["report"]}, "out"),
    ("run", {**SCALING_RUN, "out": {"report": "sub/typed.json"}}, "out.report"),
    ("run", {**SCALING_RUN, "out": {"trace": 5}}, "out.trace"),
    ("run", {**SCALING_RUN, "out": {"report": "r\0.json"}}, "out.report"),
    # an empty grid would make a vacuous "passed" over zero cells
    ("sweep", {**SCALING_RUN, "plan": {"mode": "grid", "resolution": 3},
               "sweep": {"gamma_grid": [], "mu_grid": [0.0]}},
     "sweep.gamma_grid: expected a non-empty list of numbers"),
    ("sweep", {**SCALING_RUN, "plan": {"mode": "grid", "resolution": 3},
               "sweep": {"gamma_grid": [0.0], "mu_grid": [], "pairing": "zip"}},
     "sweep.mu_grid: expected a non-empty list of numbers"),
    # refusals of a subcommand that cannot use the config as resolved
    ("check", [SCALING_RUN], "must be a JSON object"),
    ("check", {**SCALING_RUN, "plan": {"mode": "grid", "resolution": 3},
               "checks": ["commuting"]},
     "check: 'commuting' needs at least two mappings"),
    ("run", TWO_MAPPINGS, "run: engine 'single' needs exactly one mapping, got 2"),
    ("run", {**TWO_MAPPINGS, "engine": "multi"}, "run: engine 'multi' needs a schedule"),
    ("sweep", {**TWO_MAPPINGS, "plan": {"mode": "grid", "resolution": 3},
               "sweep": {"gamma_grid": [0.0], "mu_grid": [0.0]}},
     "sweep: config must name exactly one mapping, got 2"),
    # a decay so steep that (n+1)**rate leaves the float range
    ("schedule", {"name": "steep", "horizon": 100,
                  "schedule": {"kind": "decay", "scale": 0.5, "rate": 400}},
     "decay rate 400 overflows a float at step 75: 76**400 is too large"),
    ("schedule", {"name": "steep", "horizon": 100,
                  "schedule": {"kind": "decay", "scale": 0.5, "rate": 400.5}},
     "decay rate 400.5 overflows a float at step 75: 76**400.5 is too large"),
    ("run", {**TWO_MAPPINGS, "engine": "multi",
             "schedule": {"kind": "decay", "scale": 0.5, "rate": 400}},
     "decay rate 400 overflows a float at step 5: 6**400 is too large"),
    ("run", {**TWO_MAPPINGS, "engine": "multi",
             "schedule": {"kind": "decay", "scale": 0.5, "rate": 400.5}},
     "decay rate 400.5 overflows a float at step 5: 6**400.5 is too large"),
    # a tent whose second block, at step 2, is too long for a float
    ("schedule", {"name": "wide", "horizon": 100, "schedule": WIDE_TENT},
     "tent growth 1e+308 overflows a float at block 1, step 2: "
     "2*1e+308**1 is too large"),
    ("run", {**TWO_MAPPINGS, "engine": "multi", "schedule": WIDE_TENT,
             "iteration": {**SCALING_RUN["iteration"], "max_iters": 10}},
     "tent growth 1e+308 overflows a float at block 1, step 2: "
     "2*1e+308**1 is too large"),
    # a part the subcommand needs is missing: refused after the out-path
    # check and before the subcommand's own checks
    ("check", {**SCHEDULE_ONLY, "plan": GRID, "checks": ["nonexpansive"]},
     "config error: check: config names no mappings\n"),
    ("check", {**SCALING_RUN, "checks": ["nonexpansive"]},
     "config error: check: config has no sample plan\n"),
    ("check", {**SCALING_RUN, "plan": GRID}, "config error: check: config requests no checks\n"),
    ("run", without(SCALING_RUN, "iteration"),
     "config error: run: config has no iteration settings\n"),
    ("run", {**TWO_MAPPINGS, "iteration": {"lambda": 0.5, "max_iters": 5}},
     "config error: run: config gives no iteration x0\n"),
    ("run", without(SCALING_RUN, "domain", "mappings"),
     "config error: run: config names no mappings\n"),
    ("schedule", {**SCALING_RUN, "horizon": 100},
     "config error: schedule: config has no schedule descriptor\n"),
    ("schedule", without(SCHEDULE_ONLY, "horizon"),
     "config error: schedule: config has no horizon\n"),
    ("sweep", {**TWO_MAPPINGS, "plan": GRID},
     "config error: sweep: config has no sweep grids\n"),
    ("sweep", {**SCALING_RUN, "sweep": {"gamma_grid": [0.0], "mu_grid": [0.0]}},
     "config error: sweep: config has no sample plan\n"),
    ("run", {**without(SCALING_RUN, "iteration"),
             "out": {"report": "x.csv", "trace": "x.csv"}},
     "config error: out.trace and out.report both name 'x.csv'\n"),
    # unknown names and keys, with the full list of the known ones
    ("check", {**SCALING_RUN, "plan": GRID, "checks": ["nonexpansve"]},
     "config error: checks[0]: unknown check 'nonexpansve'; known: nonexpansive, "
     "quasi_nonexpansive, fixed_point_shrink, condition_C, condition_C_lambda, "
     "condition_B, prop1, commuting\n"),
    ("run", {**SCALING_RUN, "mappings": [{"name": "scalng"}]},
     "config error: mappings[0]: unknown name 'scalng'; known: example1, identity, "
     "constant, affine, scaling, rotation_scaling, piecewise, translation\n"),
    ("run", {**SCALING_RUN, "mappings": [{"name": "example1", "factr": 0.5}]},
     "config error: mappings[0].factr: unknown key; known: name, fixed_points\n"),
    ("check", {**SCALING_RUN, "plan": GRID, "checks": [{"check": "prop1", "thta": 0.5}]},
     "config error: checks[0].thta: unknown key; known: check, theta, gamma, mu\n"),
    # a translation offset of the wrong length: refused, not broadcast
    ("run", {**SCALING_RUN, "domain": BOX,
             "mappings": [{"name": "translation", "offset": [0.5]}]},
     "config error: mappings[0]: translation offset has 1 coordinates, domain has 2\n"),
    ("check", {**SCALING_RUN, "domain": BOX, "plan": GRID, "checks": ["nonexpansive"],
               "mappings": [{"name": "translation", "offset": [0.1, 0.2, 0.3]}]},
     "config error: mappings[0]: translation offset has 3 coordinates, domain has 2\n"),
    # a plan too large for memory: refused before anything is sampled
    ("check", {"name": "typed", "domain": BOX, "plan": {"mode": "grid", "resolution": 10**6},
               "mappings": [{"name": "scaling", "factor": 0.5},
                            {"name": "scaling", "factor": 0.9}], "checks": ["commuting"]},
     "config error: plan.resolution: the plan samples up to 1000000000000 points, "
     "above the bound of 262144\n"),
    ("check", {**SCALING_RUN, "plan": {"mode": "random", "seed": 1, "count": 2**18 + 1},
               "checks": ["nonexpansive"]},
     "config error: plan.count: the plan samples up to 262145 points, "
     "above the bound of 262144\n"),
    # a horizon whose tail window would take minutes: refused at load
    ("schedule", {**SCHEDULE_ONLY, "horizon": 10**15},
     "config error: horizon: 1000000000000000 is above the bound of 100000000\n"),
    ("run", {**TWO_MAPPINGS, "engine": "multi", "horizon": 1e8 + 1,
             "schedule": {"kind": "decay", "scale": 0.5, "rate": 0.5}},
     "config error: horizon: 100000001 is above the bound of 100000000\n"),
    # a run or a sweep that would take minutes and gigabytes: refused at load
    ("run", with_iteration(max_iters=10**6 + 1),
     "config error: iteration.max_iters: 1000001 is above the bound of 1000000\n"),
    ("sweep", {**SCALING_RUN, "plan": GRID, "sweep": {
        "gamma_grid": [0.5] * 257, "mu_grid": [0.25] * 256}},
     "config error: sweep: the grids make 65792 cells, above the bound of 65536\n"),
    ("sweep", {**SCALING_RUN, "plan": GRID, "sweep": {
        "gamma_grid": [0.5] * 65537, "mu_grid": [0.25] * 65537, "pairing": "zip"}},
     "config error: sweep: the grids make 65537 cells, above the bound of 65536\n"),
    # each budget alone holds, but the sweep would scan 2**37 pairs
    ("sweep", {**SCALING_RUN, "domain": BOX, "plan": {"mode": "grid", "resolution": 512},
               "sweep": {"gamma_grid": [0.5, 0.6], "mu_grid": [0.25]}},
     "config error: sweep: 2 cells of 262144**2 pairs make 137438953472 pairs, "
     "above the bound of 68719476736\n"),
    # numpy's own refusal of a negative seed would name no key
    ("check", {**SCALING_RUN, "checks": ["nonexpansive"],
               "plan": {"mode": "random", "seed": -1, "count": 3}},
     "config error: plan.seed: expected a whole number >= 0, got -1\n"),
    # an int rate past the float range, refused without building its power
    ("schedule", {"name": "steep", "horizon": 10,
                  "schedule": {"kind": "decay", "scale": 0.5, "rate": 3000000}},
     "decay rate 3000000 overflows a float at step 8: 9**3000000 is too large"),
    ("schedule", {"name": "steep", "horizon": 100,
                  "schedule": {"kind": "decay", "scale": 1, "rate": 400}},
     "decay rate 400 overflows a float at step 75: 76**400 is too large"),
    ("check", {**SCALING_RUN, "domain": {**SCALING_RUN["domain"], "radius": 0},
               "plan": GRID, "checks": ["nonexpansive"]},
     "config error: domain: ball radius must be finite and positive, got 0\n"),
    ("run", with_iteration(x0=[0.5]),
     "config error: start point has dimension 1, domain needs 2\n"),
], ids=["string-lambda", "string-schedule-value", "fractional-max_iters",
        "fractional-record_every", "fractional-resolution", "fractional-seed",
        "fractional-count", "fractional-horizon", "bool-horizon",
        "null-mappings", "null-check", "list-check-name", "string-sweep",
        "list-out", "out-path-with-directory", "number-out-name",
        "nul-out-name", "empty-gamma-grid", "empty-mu-grid", "list-config",
        "commuting-one-mapping", "single-engine-two-mappings",
        "multi-engine-no-schedule", "sweep-two-mappings",
        "schedule-decay-int-rate-overflows", "schedule-decay-float-rate-overflows",
        "run-decay-int-rate-overflows", "run-decay-float-rate-overflows",
        "schedule-tent-growth-overflows", "run-tent-growth-overflows",
        "check-no-mappings", "check-no-plan", "check-no-checks",
        "run-no-iteration", "run-no-x0", "run-no-mappings",
        "schedule-no-schedule", "schedule-no-horizon", "sweep-no-grids",
        "sweep-no-plan", "out-collision-before-missing-part",
        "unknown-check-name", "unknown-mapping-name", "unknown-mapping-key",
        "unknown-check-key", "short-translation-offset", "long-translation-offset",
        "grid-past-budget", "random-count-past-budget", "schedule-horizon-past-budget",
        "run-horizon-past-budget", "max_iters-past-budget",
        "cross-sweep-past-budget", "zip-sweep-past-budget", "sweep-pairs-past-budget",
        "negative-seed",
        "decay-huge-int-rate",
        "decay-int-over-int-rate-overflows", "zero-ball-radius", "short-x0"])
def test_malformed_value_is_config_error(tmp_path, capsys, command, payload,
                                         field):
    p = write_cfg(tmp_path, "typed.json", payload)
    assert main([command, "--config", p, "--quiet", "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_integer_too_long_to_read_is_a_config_error_naming_the_file(tmp_path, capsys):
    """json.load refuses an int literal past Python's digit limit with a
    ValueError that names neither the file nor a key."""
    p = tmp_path / "long.json"
    p.write_text('{"name": "long", "value": ' + "1" * 5000 + "}")
    assert main(["check", "--config", str(p), "--quiet", "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {str(p)!r} cannot be read:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_largest_horizon_is_accepted(tmp_path):
    """The bound itself passes the load; the schedule run is not started."""
    p = write_cfg(tmp_path, "h.json", {**SCHEDULE_ONLY, "horizon": 10**8})
    assert load_config(p).horizon == 10**8


def test_largest_max_iters_and_sweep_are_accepted(tmp_path):
    """Each bound itself passes the load; nothing is run."""
    p = write_cfg(tmp_path, "i.json", with_iteration(max_iters=10**6))
    assert load_config(p).iteration.max_iters == 10**6
    for pairing, n in (("cross", 256), ("zip", 2**16)):
        p = write_cfg(tmp_path, f"{pairing}.json", {**SCALING_RUN, "plan": GRID, "sweep": {
            "gamma_grid": [0.5] * n, "mu_grid": [0.25] * n, "pairing": pairing}})
        assert len(load_config(p).sweep["gamma_grid"]) == n


def test_a_sweep_of_exactly_the_pair_bound_is_accepted(tmp_path):
    """One cell of a 512 x 512 grid makes (2**18)**2 = 2**36 pairs, the bound
    itself: the load passes, and nothing is sampled or run."""
    p = write_cfg(tmp_path, "s.json", {**SCALING_RUN, "plan": {
        "mode": "grid", "resolution": 512}, "sweep": {"gamma_grid": [0.5], "mu_grid": [0.25]}})
    assert load_config(p).plan.resolution == (512,)


def test_run_command_refuses_an_unknown_command(tmp_path):
    with pytest.raises(ContractViolation,
                       match=r"^unknown command 'bogus'; known: check, run, schedule, sweep$"):
        run_command("bogus", write_cfg(tmp_path, "c.json", SCHEDULE_ONLY),
                    out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_run_that_stops_before_a_tent_overflow_exits_0(tmp_path):
    """max_iters 1 draws only steps of block 0, before the block that overflows."""
    p = write_cfg(tmp_path, "wide.json", {
        **TWO_MAPPINGS, "engine": "multi", "schedule": WIDE_TENT,
        "iteration": {**SCALING_RUN["iteration"], "max_iters": 1}})
    assert main(["run", "--config", p, "--quiet", "--out",
                 str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "typed_report.json").exists()


@pytest.mark.parametrize("name", [["a"], "a/b", "", "..", "a\0b"],
                         ids=["list", "with-directory", "empty", "dotdot", "nul"])
def test_bad_name_is_config_error(tmp_path, capsys, name):
    """`name` prefixes every output file, so it follows the out.* rule."""
    p = write_cfg(tmp_path, "typed.json", {**SCALING_RUN, "name": name})
    assert main(["run", "--config", p, "--quiet", "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: name:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", [{"report": "x.csv", "trace": "x.csv"},
                                 {"trace": "example1_report.json"}],
                         ids=["both-explicit", "explicit-vs-default"])
def test_colliding_out_paths_exit_2_before_any_file(tmp_path, capsys, out):
    with open(cfg_path("example1.json"), encoding="utf-8") as fh:
        payload = {**json.load(fh), "out": out}
    p = write_cfg(tmp_path, "example1.json", payload)
    assert main(["run", "--config", p, "--quiet", "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "out.report" in err and "out.trace" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry,message", [
    ({"check": "condition_C_lambda", "lambda": 1.5},
     "checks[2]: lambda must lie in (0, 1), got 1.5"),
    ({"check": "condition_B", "gamma": 0.2, "mu": 0.3},
     "checks[2]: need 2*mu <= gamma, got gamma=0.2, mu=0.3"),
    ({"check": "fixed_point_shrink", "gamma": 1.5, "mu": 0.25},
     "checks[2]: gamma must lie in [0, 1], got 1.5"),
    ({"check": "prop1", "theta": 1.5, "gamma": 0.5, "mu": 0.25},
     "checks[2]: theta must lie in [0, 1], got 1.5"),
    ({"check": "prop1", "theta": 0.5, "gamma": "0.5", "mu": 0.25},
     "checks[2].gamma: expected a number, got '0.5'"),
    ({"check": "condition_B", "gamma": 0.5},
     "checks[2]: missing required field 'mu'"),
], ids=["lambda", "two-mu-above-gamma", "gamma", "theta", "string-gamma",
        "missing-mu"])
def test_bad_check_parameter_exits_2_before_any_sample(tmp_path, capsys,
                                                       monkeypatch, entry,
                                                       message):
    from fixedlab import conditions

    monkeypatch.setattr(conditions, "sample",
                        lambda *args: pytest.fail("sampled before the error"))
    p = write_cfg(tmp_path, "typed.json", {
        **SCALING_RUN, "plan": {"mode": "grid", "resolution": 4},
        "checks": ["nonexpansive", "condition_C", entry]})
    assert main(["check", "--config", p, "--quiet", "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_commuting_with_one_mapping_exits_2_before_any_scan(tmp_path, capsys,
                                                           monkeypatch):
    from fixedlab import harness

    monkeypatch.setattr(harness, "_checks",
                        lambda *args: pytest.fail("scanned before the error"))
    p = write_cfg(tmp_path, "typed.json", {
        **SCALING_RUN, "plan": {"mode": "grid", "resolution": 4},
        "checks": ["nonexpansive", "condition_C", "commuting"]})
    assert main(["check", "--config", p, "--quiet", "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "config error: check: 'commuting' needs at least two mappings\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,config,out,compute", [
    ("run", "five_scalings_tent.json",
     {"trace": "five_scalings_tent_report.json"}, "multi_map_run"),
    ("sweep", "example1_sweep.json",
     {"report": "table.csv", "table": "table.csv"}, "sweep_condition_B"),
], ids=["run", "sweep"])
def test_colliding_out_paths_exit_2_before_any_compute(tmp_path, capsys,
                                                       monkeypatch, command,
                                                       config, out, compute):
    from fixedlab import harness

    monkeypatch.setattr(harness, compute,
                        lambda *args, **kwargs: pytest.fail(f"{compute} ran"))
    with open(cfg_path(config), encoding="utf-8") as fh:
        payload = {**json.load(fh), "out": out}
    p = write_cfg(tmp_path, config, payload)
    assert main([command, "--config", p, "--quiet", "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out.") and "both name" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,payload,section,field", [
    ("run", with_iteration(max_iters=50.0), "iteration", "max_iters"),
    ("run", with_iteration(record_every=5.0), "iteration", "record_every"),
    ("schedule", {"name": "typed", "horizon": 10000.0,
                  "schedule": {"kind": "constant", "value": 0.1}},
     None, "horizon"),
], ids=["max_iters", "record_every", "horizon"])
def test_integral_float_counts_run_and_echo_as_ints(tmp_path, command, payload,
                                                     section, field):
    """Integer fields follow the sample plan's rule: a whole-valued float is
    that integer, echoed as an int."""
    p = write_cfg(tmp_path, "typed.json", payload)
    assert main([command, "--config", p, "--quiet", "--out",
                 str(tmp_path)]) in (0, 1)
    echo = json.loads((tmp_path / "typed_report.json").read_text())["config"]
    value = echo[section][field] if section else echo[field]
    expected = (payload[section] if section else payload)[field]
    assert type(value) is int and value == expected


SCALING_CHECK = {**SCALING_RUN, "checks": ["nonexpansive"],
                 "plan": {"mode": "grid", "resolution": 4, "epsilon": "RAW"}}


#: An int with no float value: float() of it raises OverflowError.
BIG = "1" + "0" * 400
RANDOM_CHECK = {**SCALING_RUN, "checks": ["nonexpansive"],
                "plan": {"mode": "random", "seed": 1, "count": 5}}
DECAY_SCHEDULE = {"name": "typed", "horizon": 100,
                  "schedule": {"kind": "decay", "scale": 0.5, "rate": 1.0}}


@pytest.mark.parametrize("command,payload,literal,field", [
    ("check", SCALING_CHECK, "1e400", "plan.epsilon"),   # overflows to inf
    ("check", SCALING_CHECK, "NaN", "plan.epsilon"),
    ("check", SCALING_CHECK, "-Infinity", "plan.epsilon"),
    ("run", with_iteration(max_iters="RAW"), "1e400", "iteration.max_iters"),
    ("check", SCALING_CHECK, BIG, "plan.epsilon"),
    ("check", {**SCALING_CHECK, "plan": GRID, "domain": {**BOX, "upper": [1.0, "RAW"]}},
     BIG, "domain.upper[1]"),
    ("check", {**SCALING_CHECK, "plan": GRID,
               "domain": {**SCALING_RUN["domain"], "radius": "RAW"}}, BIG, "domain.radius"),
    ("run", {**SCALING_RUN, "mappings": [{"name": "scaling", "factor": "RAW"}]},
     BIG, "mappings[0].factor"),
    ("run", with_iteration(x0=[0.5, "RAW"]), "-" + BIG, "iteration.x0[1]"),
    ("schedule", {**DECAY_SCHEDULE, "schedule": {"kind": "decay", "scale": "RAW"}},
     BIG, "schedule.scale"),
    ("schedule", {**DECAY_SCHEDULE, "schedule": {"kind": "decay", "scale": 0.5,
                                                 "rate": "RAW"}}, BIG, "schedule.rate"),
    ("check", {**RANDOM_CHECK, "plan": {**RANDOM_CHECK["plan"], "seed": "RAW"}},
     BIG, "plan.seed"),
    ("check", RANDOM_CHECK, BIG, "plan.seed"),   # no "RAW": the literal is --seed
    ("check", RANDOM_CHECK, "-1", "plan.seed"),   # numpy's refusal would name no key
], ids=["overflow", "nan", "negative-infinity", "overflow-max_iters", "big-int-epsilon",
        "big-int-box-coordinate", "big-int-radius", "big-int-factor", "big-int-x0",
        "big-int-decay-scale", "big-int-decay-rate", "big-int-seed", "big-int-cli-seed",
        "negative-cli-seed"])
def test_non_finite_number_is_config_error(tmp_path, capsys, command, payload,
                                           literal, field):
    p = tmp_path / "raw.json"
    text = json.dumps(payload)
    seed = [] if '"RAW"' in text else ["--seed", literal]
    p.write_text(text.replace('"RAW"', literal))
    assert main([command, "--config", str(p), *seed, "--quiet", "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_unexpected_error_exits_3_and_names_its_type(tmp_path, capsys,
                                                     monkeypatch):
    from fixedlab import harness

    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(harness, "verify_schedule", broken)
    assert main(["schedule", "--config", cfg_path("tent_schedule.json"),
                 "--quiet", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "KeyError" in err and "Traceback" not in err


@pytest.mark.parametrize("command,config,patched,field", [
    ("run", "example1.json", "goebel_kirk_gap", "diagnostics.gap_tail_max"),
    ("schedule", "tent_schedule.json", "verify_schedule", "report.diff_proxy"),
], ids=["run-gap", "schedule-proxy"])
def test_non_finite_report_value_exits_3_without_a_report(
        tmp_path, capsys, monkeypatch, command, config, patched, field):
    import dataclasses
    import math

    from fixedlab import harness

    real = getattr(harness, patched)
    bad = {"goebel_kirk_gap": {"tail_max": math.inf},
           "verify_schedule": {"diff_proxy": math.nan}}[patched]
    monkeypatch.setattr(harness, patched, lambda *args: dataclasses.replace(
        real(*args), **bad))
    assert main([command, "--config", cfg_path(config), "--quiet",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and field in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_report.json"))
    assert not list(tmp_path.iterdir())   # no CSV either


# --- one table per section: unknown keys ------------------------------------

def _with(config, edit):
    with open(cfg_path(config), encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    return payload


@pytest.mark.parametrize("command,config,edit,path", [
    ("run", "three_scalings.json",
     lambda c: c.update(shedule=c.pop("schedule")), "shedule"),
    ("run", "example1.json",
     lambda c: c["iteration"].update(record_evry=2), "iteration.record_evry"),
    ("check", "example1_check.json",
     lambda c: c["plan"].update(sed=3), "plan.sed"),
    ("schedule", "constant_schedule.json",
     lambda c: c["schedule"].update(rat=1.0), "schedule.rat"),
    ("sweep", "example1_sweep.json",
     lambda c: c["sweep"].update(pairng="zip"), "sweep.pairng"),
    ("run", "example1.json",
     lambda c: c.update(out={"foo": "x.json"}), "out.foo"),
    ("run", "three_scalings.json",
     lambda c: c["mappings"][0].update(lable="x"), "mappings[0].lable"),
    ("check", "example1_check.json",
     lambda c: c.update(checks=[{"check": "condition_C", "lambda": 0.9}]),
     "checks[0].lambda"),
    ("check", "example1_check.json",
     lambda c: c.update(checks=[{"check": "nonexpansive", "gamma": 0.3}]),
     "checks[0].gamma"),
], ids=["top-level", "iteration", "plan", "schedule", "sweep", "out",
        "mapping", "condition_C-lambda", "nonexpansive-gamma"])
def test_unknown_key_exits_2_naming_its_path(tmp_path, capsys, command,
                                             config, edit, path):
    """A key that no row of its section reads would be echoed but ignored."""
    p = write_cfg(tmp_path, config, _with(config, edit))
    assert main([command, "--config", p, "--quiet", "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: unknown key")
    assert not (tmp_path / "out").exists()


def test_piecewise_case_must_be_a_pair(tmp_path, capsys):
    p = write_cfg(tmp_path, "pw.json", _with("example1_check.json", lambda c: c.update(
        mappings=[{"name": "piecewise", "default": 0.0,
                   "cases": [[4.0, 2.0], [1.0, 0.5, 99]]}])))
    assert main(["check", "--config", p, "--quiet", "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: mappings[0]: cases[1]: expected an [x, value] pair, "
        "got [1.0, 0.5, 99]\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("desc", [
    {"name": "identity"}, {"name": "scaling", "factor": 0.5},
    {"name": "rotation_scaling", "angle": 0.5, "factor": 0.5},
    {"name": "constant", "value": [0.1, 0.2]},
    {"name": "translation", "offset": [0.0, 0.0]},
    {"name": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "shift": [0.0, 0.0]},
], ids=lambda d: d["name"])
def test_every_mapping_with_a_label_parameter_honours_it(tmp_path, desc):
    p = write_cfg(tmp_path, "lab.json", {
        "name": "lab", "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "mappings": [{**desc, "label": "mine"}],
        "plan": {"mode": "grid", "resolution": 3}, "checks": ["nonexpansive"]})
    _, report = run_command("check", p, out_dir=str(tmp_path), quiet=True)
    assert [v["mapping"] for v in report["verdicts"]] == ["mine"]


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_echo_reloads_to_the_same_echo(tmp_path, name):
    """The echo holds only keys the loader reads, so it loads under the same
    strict rule and resolves to itself."""
    echo = load_config(cfg_path(name)).echo
    again = load_config(write_cfg(tmp_path, "echo.json", echo)).echo
    assert again == echo
    assert json.dumps(again) == json.dumps(echo)   # key order too


# --- boundaries: each comparison at its edge, through main ----------------------

def _main(tmp_path, command, payload):
    """(exit code, the warnings raised, the report or None) of one `main`
    run of `payload` written as a config; a run that exits 2 writes no file."""
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", write_cfg(tmp_path, "edge.json", payload),
                     "--quiet", "--out", str(out)])
    reports = sorted(out.glob("*.json")) if out.is_dir() else []
    if code == 2:
        assert not reports and not (out.is_dir() and os.listdir(out))
    return code, caught, json.loads(reports[0].read_text()) if reports else None


@pytest.mark.parametrize("domain", [
    {"shape": "box", "lower": [-1e308], "upper": [1e308]},
    {"shape": "ball", "center": [0.0, 0.0], "radius": 1e308},
    {"shape": "ball", "center": [0.0, 0.0], "radius": 1e200},
    {"shape": "box", "lower": [-1e200, -1e200], "upper": [1e200, 1e200]},
    {"shape": "box", "lower": [0.0, 0.0], "upper": [1e308, 1e308], "norm": "l1"},
], ids=["box", "ball", "l2-ball-norm", "l2-box-norm", "l1-box-norm"])
def test_a_domain_whose_extent_overflows_a_float_exits_2_naming_domain(
        tmp_path, capsys, domain):
    """Sampling such a domain made NaN points, and the error named a mapping;
    or, where only the extent's norm overflows, its distances were infinite
    and the check passed on them (the l2 ball on its centre alone)."""
    code, caught, _ = _main(tmp_path, "check", {
        "name": "wide", "domain": domain, "mappings": [{"name": "scaling", "factor": 0.5}],
        "plan": {"mode": "grid", "resolution": 5}, "checks": ["nonexpansive"]})
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: domain: the extent of the bounding box"), err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_a_wide_linf_box_whose_extent_norm_is_finite_runs_clean(tmp_path):
    """The l2 box of the same bounds is refused: its extent's squares overflow."""
    code, caught, report = _main(tmp_path, "check", {
        "name": "wide", "mappings": [{"name": "scaling", "factor": 0.5}],
        "domain": {"shape": "box", "lower": [-1e200, -1e200], "upper": [1e200, 1e200],
                   "norm": "linf"},
        "plan": {"mode": "grid", "resolution": 5}, "checks": ["nonexpansive", "condition_C"]})
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert [(v["passed"], v["checked_pairs"]) for v in report["verdicts"]] == [(True, 625)] * 2


def test_a_decay_rate_of_zero_is_refused(tmp_path, capsys):
    code, *_ = _main(tmp_path, "schedule", {
        "name": "flat_decay", "schedule": {"kind": "decay", "scale": 0.5, "rate": 0.0},
        "horizon": 100})
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error: schedule: decay rate must be finite and > 0, got 0.0")


def test_a_schedule_whose_tail_max_is_the_tolerance_is_flagged(tmp_path):
    """limsup_ok needs the tail maximum strictly above PROXY_TOL."""
    code, _, report = _main(tmp_path, "schedule", {
        "name": "at_tol", "schedule": {"kind": "constant", "value": PROXY_TOL},
        "horizon": 100})
    assert code == 1
    rep = report["report"]
    assert rep["limsup_proxy"] == PROXY_TOL and rep["liminf_ok"] and rep["diff_ok"]
    assert rep["limsup_ok"] is False and not rep["compliant"]


def test_prop1_part_i_allows_equality(tmp_path):
    """At x = 0, ||Tx - TTx|| is ||x - Tx|| + epsilon exactly: T(0) = 1,
    T(1) = 2 + 2**-20 and epsilon = 2**-20 are all exact."""
    code, _, report = _main(tmp_path, "check", {
        "name": "prop1_edge", "domain": {"shape": "box", "lower": [0.0], "upper": [4.0]},
        "mappings": [{"name": "piecewise", "default": 1.0, "cases": [[1.0, 2.0 + 2.0**-20]]}],
        "plan": {"mode": "grid", "resolution": 5, "epsilon": 2.0**-20},
        "checks": [{"check": "prop1", "theta": 0.5, "gamma": 0.5, "mu": 0.25}]})
    assert code == 0
    assert report["verdicts"][0]["passed"] and report["verdicts"][0]["checked_pairs"] == 25


def test_a_truncation_of_one_map_runs(tmp_path):
    with open(cfg_path("truncated_family.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["iteration"].update(truncation_K=1, max_iters=50)
    code, _, report = _main(tmp_path, "run", payload)
    assert code == 0
    assert report["config"]["iteration"]["truncation_K"] == 1
    assert report["diagnostics"]["replay"]["passed"]


def test_residuals_whose_tail_max_equals_their_head_max_vanish(tmp_path):
    """T(0) = 2 and T(1) = -1 with lambda 1/2 walk 0, 1, 0, 1, ... exactly,
    and every residual is 2.0."""
    code, _, report = _main(tmp_path, "run", {
        "name": "two_cycle", "domain": {"shape": "box", "lower": [-1.0], "upper": [2.0]},
        "mappings": [{"name": "piecewise", "default": 0.5,
                      "cases": [[0.0, 2.0], [1.0, -1.0]]}],
        "engine": "single",
        "iteration": {"lambda": 0.5, "x0": [0.0], "max_iters": 40, "residual_tol": 0.0}})
    assert code == 0
    v = report["diagnostics"]["residual_vanishes"]
    assert v["passed"] and v["observed_max"] == 2.0 and v["checked_pairs"] == 41


@pytest.mark.parametrize("gamma,warns", [
    (GAMMA_WARN_THRESHOLD, False), (math.nextafter(GAMMA_WARN_THRESHOLD, 1.0), True)])
def test_the_gamma_warning_starts_just_above_its_threshold(tmp_path, gamma, warns):
    with open(cfg_path("affine_contraction.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["iteration"]["gamma"] = gamma
    code, caught, _ = _main(tmp_path, "run", payload)
    assert code == 0
    assert [str(w.message) for w in caught if "gamma context" in str(w.message)] == (
        [f"gamma context {gamma} exceeds {GAMMA_WARN_THRESHOLD}; the shipped "
         "experiments only probe small values"] if warns else [])
