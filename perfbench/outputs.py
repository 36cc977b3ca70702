"""Output checks: every invocation's report against values recorded at seed.

`outcome` reduces one invocation's report and CSV files to the fields the
benchmark holds fixed: exit code, pass/fail of every verdict and sweep cell,
witness coordinates and sides as exact float hex, engine stop data, schedule
proxies, and the sha256 of every CSV. `expected.json` holds the outcome of
each invocation as recorded by `record_expected.py`; a run compares against
it with `mismatches`. The seeded random-plan check records no witness, since
it passes for every seed, so its outcome is the same whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

from fixedlab import dist, evaluate, load_config, main

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

# Witness sides these checks compute as ||Tx - Ty|| and ||x - y||, so that
# they can be recomputed point by point with the public evaluate and dist.
_RECOMPUTED = ("nonexpansive", "condition_C")

_DURATION = re.compile(rb'"duration_seconds": [^,\n}]*')


def _hex(v):
    return None if v is None else float(v).hex()


def _vec(v):
    return None if v is None else [_hex(c) for c in v]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _witness(w):
    if w is None:
        return None
    return {"x": _vec(w["x"]), "y": _vec(w.get("y")),
            "lhs": _hex(w["lhs"]), "rhs": _hex(w["rhs"])}


def report_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, f"{name}_report.json")


def outcome(command: str, name: str, exit_code, out_dir: str) -> dict:
    """The checked fields of one invocation's outputs in `out_dir`."""
    out: dict = {"exit": exit_code}
    with open(report_path(out_dir, name), "r", encoding="utf-8") as fh:
        rep = json.load(fh)
    out["passed"] = rep["passed"]
    if command == "check":
        out["verdicts"] = [
            {"mapping": v["mapping"], "condition": v["condition"],
             "passed": v["passed"], "checked_pairs": v["checked_pairs"],
             "witness": _witness(v["witness"])}
            for v in rep["verdicts"]]
    elif command == "sweep":
        out["cells"] = [
            {"gamma": _hex(c["gamma"]), "mu": _hex(c["mu"]),
             "status": c["status"],
             "witness": None if c["lhs"] is None else _witness(
                 {"x": c["witness_x"], "y": c["witness_y"],
                  "lhs": c["lhs"], "rhs": c["rhs"]})}
            for c in rep["cells"]]
        out["table_sha256"] = _sha256(os.path.join(out_dir, rep["table_csv"]))
    elif command == "run":
        s, diag = rep["summary"], rep["diagnostics"]
        out.update(
            total_steps=s["total_steps"], stop_reason=s["stop_reason"],
            final_x=_vec(s["final_x"]),
            replay_passed=diag["replay"]["passed"],
            monotone_passed=[v["passed"] for v in diag["monotone"]],
            residual_passed=(diag["residual_vanishes"] or {}).get("passed"),
            commuting_passed=(rep["commuting"] or {}).get("passed"),
            trace_sha256=_sha256(os.path.join(out_dir, rep["trace_csv"])))
    elif command == "schedule":
        r = rep["report"]
        out.update({k: _hex(r[k]) for k in
                    ("liminf_proxy", "limsup_proxy", "diff_proxy")})
        out["compliant"] = r["compliant"]
    else:
        raise ValueError(f"unknown command {command!r}")
    return out


def mismatches(expected: dict, actual: dict, prefix: str = "") -> list[str]:
    """Paths of the fields where `actual` differs from `expected`."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for k in sorted(set(expected) | set(actual)):
            if k not in expected or k not in actual:
                out.append(f"{prefix}{k}: present on one side only")
            else:
                out += mismatches(expected[k], actual[k], f"{prefix}{k}.")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{prefix[:-1]}: {len(actual)} entries, expected {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{prefix}{i}.")
        return out
    if expected != actual:
        return [f"{prefix[:-1]}: got {actual!r}, expected {expected!r}"]
    return []


def recompute_witnesses(config_path: str, name: str, out_dir: str) -> list[str]:
    """Re-derive nonexpansive/condition_C witness sides with evaluate/dist.

    Both sides must equal the reported ones bit for bit, and the pair must
    violate the inequality by more than the plan's epsilon.
    """
    with open(report_path(out_dir, name), "r", encoding="utf-8") as fh:
        rep = json.load(fh)
    cfg = load_config(config_path)
    by_label = {T.label: T for T in cfg.mappings}
    problems = []
    for i, v in enumerate(rep["verdicts"]):
        w = v["witness"]
        if w is None or v["condition"] not in _RECOMPUTED:
            continue
        T = by_label[v["mapping"]]
        kind = T.domain.norm_kind
        lhs = dist(evaluate(T, w["x"]), evaluate(T, w["y"]), kind)
        rhs = dist(w["x"], w["y"], kind)
        if lhs != w["lhs"] or rhs != w["rhs"]:
            problems.append(f"verdicts.{i}: recomputed sides {lhs!r}, {rhs!r} "
                            f"differ from reported {w['lhs']!r}, {w['rhs']!r}")
        elif not lhs > rhs + cfg.plan.epsilon:
            problems.append(f"verdicts.{i}: witness does not violate the bound")
    return problems


def replay_from_echo(command: str, name: str, out_dir: str,
                     scratch_dir: str) -> list[str]:
    """Run the report's echoed config again and compare every output file.

    The reports must match byte for byte apart from `duration_seconds`, and
    each CSV the first run wrote must be identical.
    """
    with open(report_path(out_dir, name), "rb") as fh:
        first = fh.read()
    rep = json.loads(first)
    os.makedirs(scratch_dir, exist_ok=True)
    echo_path = os.path.join(scratch_dir, f"{name}_echo.json")
    with open(echo_path, "w", encoding="utf-8") as fh:
        json.dump(rep["config"], fh)
    replay_out = os.path.join(scratch_dir, "out")
    main([command, "--config", echo_path, "--quiet", "--out", replay_out])
    problems = []
    with open(report_path(replay_out, name), "rb") as fh:
        second = fh.read()
    if _DURATION.sub(b"", first) != _DURATION.sub(b"", second):
        problems.append("replayed report differs beyond duration_seconds")
    for key in ("trace_csv", "table_csv"):
        if key in rep and _sha256(os.path.join(out_dir, rep[key])) \
                != _sha256(os.path.join(replay_out, rep[key])):
            problems.append(f"replayed {rep[key]} differs")
    return problems


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)
