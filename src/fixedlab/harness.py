"""Config-driven command line: check, run, schedule, sweep.

One JSON document describes an experiment (domain, mappings, sample plan,
schedule, iteration settings, checks or sweep grids); each subcommand
consumes the parts it needs and writes a JSON report next to any CSV
output. Reports echo the fully resolved config, and feeding that echo back
in reproduces every verdict and trace byte for byte — wall-clock duration
is the one field that may differ.

Exit codes: 0 all verdicts passed, 1 some check failed, 2 the config could
not be resolved (missing, wrong-typed or non-finite values included), 3 an
engine failed mid-run, a computed report value was not finite or an
unexpected internal error occurred. Files are written only once the report
passes its checks, so exit 2 or 3 leaves none (barring an I/O failure).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Optional

from .conditions import (BGammaMu, sweep_condition_B, _checks, _condition_b,
                         _condition_c, _lemma3, _nonexpansive, _one, _prop1,
                         _quasi_nonexpansive)
from .errors import (ConfigError, InvariantError, IterationRuntimeError,
                     PreconditionError)
from .iterate import (IterationConfig, goebel_kirk_gap,
                      krasnoselskii_run, monotone_distance_check,
                      multi_map_run, replay_trace, residual_vanishes_check,
                      trace_to_csv, truncated_family_run, _fmt, _write_csv)
from .mappings import (_MAPPINGS, _REQUIRED, Mapping, _any, _is_number,
                       _number, _pick, _read, _test, _vector, build_mapping,
                       make_family)
from .schedules import AlphaSchedule, _KINDS, verify_schedule
from .vecspace import Domain, SamplePlan

__all__ = ["ExperimentConfig", "load_config", "cmd_check", "cmd_run",
           "cmd_schedule", "cmd_sweep", "main"]


@dataclass
class ExperimentConfig:
    """A parsed experiment: resolved objects plus the re-serializable echo."""

    name: str
    echo: dict
    domain: Optional[Domain] = None
    mappings: list[Mapping] = field(default_factory=list)
    plan: Optional[SamplePlan] = None
    schedule: Optional[AlphaSchedule] = None
    horizon: Optional[int] = None
    iteration: Optional[IterationConfig] = None
    x0: Optional[tuple[float, ...]] = None
    engine: Optional[str] = None
    checks: list[dict] = field(default_factory=list)
    sweep: Optional[dict] = None
    out: dict = field(default_factory=dict)


# Parse steps: parse(value, its key path) is the value as the program reads
# it, or a ConfigError naming the path (`mappings._test` makes them).

_count = _test(lambda v: _is_number(v) and v == int(v), "a whole number", int)
_horizon = _test(lambda v: _is_number(v) and v == int(v) and v >= 10,
                 "a whole number >= 10", int)
_list = _test(lambda v: isinstance(v, list), "a list")
# a file name is joined to --out, so it must name no other directory
_file_name = _test(lambda v: isinstance(v, str) and v not in ("", ".", "..")
                   and os.path.basename(v) == v and "\0" not in v,
                   "a plain file name")


def _one_of(*options):
    return _test(lambda v: v in options, f"one of {', '.join(map(repr, options))}")


def _nullable(parse):
    return lambda v, at: None if v is None else parse(v, at)


def _point(v, at: str) -> tuple[float, ...]:
    return tuple(map(float, _vector(v, at)))


def _section(tag: Optional[str], rows):
    """The parse step of a config object: node[tag] picks its row (make,
    keys) of `rows`, or, with no tag, rows is the row. The object read is
    make(*values), or, where make is None, a copy of node as written."""
    def parse(node, at: str):
        make, values = (_pick(node, at, tag, rows) if tag
                        else (rows[0], _read(node, at, rows[1])))
        return _parsed(at, make, *values) if make else dict(node)
    return parse


def _parsed(where: str, parse, *args):
    """parse(*args), with a bad value reported as a ConfigError naming `where`."""
    try:
        return parse(*args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _reject_non_finite(node, where: str,
                       error: Callable[[str], Exception] = ConfigError) -> None:
    """Raise error(message naming the key path) on the first NaN or infinity
    (1e400 parses to inf) in the tree."""
    if isinstance(node, float) and not math.isfinite(node):
        raise error(f"{where}: non-finite number {node!r}")
    if isinstance(node, dict):
        for k, v in node.items():
            _reject_non_finite(v, f"{where}.{k}" if where else str(k), error)
    elif isinstance(node, (list, tuple)):
        for i, v in enumerate(node):
            _reject_non_finite(v, f"{where}[{i}]", error)


# The config's tables. A row (make, keys) reads an object: keys maps each key
# it may hold to (parse step, default or _REQUIRED), in make's argument order.

_ANY, _NUMBER, _COUNT = (_any, _REQUIRED), (_number, _REQUIRED), (_count, _REQUIRED)
_VECTOR = (_vector, _REQUIRED)   # every coordinate list names its element paths
_GAMMA_MU = {"gamma": _NUMBER, "mu": _NUMBER}

_DOMAINS = {
    "box": (Domain.box, {"lower": _VECTOR, "upper": _VECTOR, "norm": (_any, "l2")}),
    "ball": (Domain.ball, {"center": _VECTOR, "radius": _NUMBER, "norm": (_any, "l2")})}

_PLANS = {
    "grid": (SamplePlan.grid, {"resolution": _ANY, "epsilon": (_number, 1e-9)}),
    "random": (SamplePlan.random, {"seed": _COUNT, "count": _COUNT,
                                   "epsilon": (_number, 1e-9)})}

#: kind -> (class, keys): a schedule's keys are its class's fields, all numbers.
_SCHEDULES = {kind: (cls, {f.name: (_number, _REQUIRED if f.default is MISSING else f.default)
                           for f in fields(cls)}) for kind, cls in _KINDS.items()}

#: The iteration section reads as (IterationConfig, x0).
_ITERATION = (lambda *v: (IterationConfig(*v[:-1]), v[-1]), {
    "lambda": _NUMBER, "max_iters": _COUNT,
    "residual_tol": (_number, 0.0), "truncation_K": (_nullable(_count), None),
    "record_every": (_count, 1), "gamma": (_nullable(_number), None),
    "x0": (_nullable(_point), None)})

#: Every check a config may request, in the order error messages list them,
#: with the maker of its request for `conditions._checks`; "commuting"
#: certifies the whole family and has no per-map request.
_CHECKS = {
    "nonexpansive": (_nonexpansive, {}),
    "quasi_nonexpansive": (_quasi_nonexpansive, {}),
    "fixed_point_shrink": (lambda g, m: _lemma3(BGammaMu(g, m)), _GAMMA_MU),
    "condition_C": (lambda: _condition_c(0.5, "condition_C"), {}),
    "condition_C_lambda": (_condition_c, {"lambda": _NUMBER}),
    "condition_B": (lambda g, m: _one(_condition_b(BGammaMu(g, m))), _GAMMA_MU),
    "prop1": (lambda theta, g, m: _prop1(theta, BGammaMu(g, m)),
              {"theta": _NUMBER, **_GAMMA_MU}),
    "commuting": (lambda: None, {}),
}

_request = _section("check", _CHECKS)


def _check_specs(v, at: str) -> list[dict]:
    """The check entries, each as a spec object once it names a request."""
    specs = [{"check": e} if isinstance(e, str) else e for e in _list(v, at)]
    for i, spec in enumerate(specs):
        _request(spec, f"{at}[{i}]")
    return [dict(spec) for spec in specs]


def load_config(path: str, seed_override: Optional[int] = None) -> ExperimentConfig:
    """Read and resolve a JSON experiment config.

    Each object is read by its table above: every value is parsed, absent
    keys take their defaults, and a key that no row names is refused.
    seed_override replaces the seed of a random sample plan (a no-op for
    grid plans) and is reflected in the echo, so a report always names the
    seed that actually ran. NaN, infinities and literals that overflow to
    infinity are rejected wherever they appear.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    _reject_non_finite(raw, "")
    plan = raw.get("plan")
    if seed_override is not None and isinstance(plan, dict) and plan.get("mode") == "random":
        raw["plan"] = {**plan, "seed": seed_override}
    (name, domain, descriptors, plan, schedule, horizon, (iteration, x0), engine,
     checks, sweep, out) = _read(raw, "", {
        "name": (_file_name, os.path.splitext(os.path.basename(path))[0]),
        "domain": (_section("shape", _DOMAINS), None),
        "mappings": (_list, []),
        "plan": (_section("mode", _PLANS), None),
        "schedule": (_section("kind", _SCHEDULES), None),
        "horizon": (_horizon, None),
        "iteration": (_section(None, _ITERATION), (None, None)),
        "engine": (_one_of("single", "multi", "truncated"), None),
        "checks": (_check_specs, []),
        "sweep": (_section(None, (None, {
            "gamma_grid": _VECTOR, "mu_grid": _VECTOR,
            "pairing": (_one_of("cross", "zip"), "cross")})), None),
        "out": (_section(None, (None, dict.fromkeys(
            ("report", "trace", "table"), (_file_name, None)))), {}),
    })
    if "mappings" in raw and domain is None:
        raise ConfigError("mappings given without a domain")
    mappings = []
    for i, desc in enumerate(descriptors):
        _pick(desc, f"mappings[{i}]", "name", _MAPPINGS)   # names a bad key's path
        mappings.append(_parsed(f"mappings[{i}]", build_mapping, desc, domain))
    echo = {"name": name, "domain": domain and domain.to_dict(),
            "mappings": [dict(d) for d in descriptors],
            "plan": plan and plan.to_dict(), "schedule": schedule and schedule.to_dict(),
            "horizon": horizon, "iteration": iteration and {
                **iteration.to_dict(), **({"x0": list(x0)} if x0 else {})},
            "engine": engine, "checks": checks, "sweep": sweep, "out": out}
    return ExperimentConfig(name, {k: v for k, v in echo.items() if v}, domain,
                            mappings, plan, schedule, horizon, iteration, x0,
                            engine, checks, sweep, out)


# ---------------------------------------------------------------------------
# subcommands: each returns (report body, verdict, {out key: write(path)})
# and prints through `say`; _drive writes every file
# ---------------------------------------------------------------------------

_Say = Callable[[str], None]


#: How a subcommand reports a config part it needs but did not get.
_MISSING = {"mappings": "names no mappings", "plan": "has no sample plan",
            "checks": "requests no checks",
            "iteration": "has no iteration settings",
            "x0": "gives no iteration x0",
            "schedule": "has no schedule descriptor",
            "horizon": "has no horizon", "sweep": "has no sweep grids"}


def _require(cfg: ExperimentConfig, command: str, *parts: str) -> None:
    for part in parts:
        if not getattr(cfg, part):
            raise ConfigError(f"{command}: config {_MISSING[part]}")


def _drive(command: str, compute, files: dict[str, str], config_path: str,
           out_dir: Optional[str], seed: Optional[int], quiet: bool) -> tuple[int, dict]:
    """`files` maps each output key but the report to its default suffix."""
    t0 = time.perf_counter()
    cfg = load_config(config_path, seed)
    root = out_dir or "."
    path = {key: os.path.join(root, cfg.out.get(key, f"{cfg.name}{suffix}"))
            for key, suffix in {**files, "report": "_report.json"}.items()}
    owner: dict[str, str] = {}
    for key, p in path.items():
        if owner.setdefault(p, key) != key:
            raise ConfigError(f"out.{owner[p]} and out.{key} both name "
                              f"{os.path.basename(p)!r}")
    say: _Say = (lambda msg: None) if quiet else print
    body, passed, writers = compute(cfg, say)
    body.update({f"{key}_csv": os.path.basename(path[key]) for key in files})
    report = {"command": command, "config": cfg.echo, **body, "passed": passed,
              "duration_seconds": time.perf_counter() - t0}
    _reject_non_finite(report, "", InvariantError)   # before any file exists
    os.makedirs(root, exist_ok=True)
    for key, write in writers.items():
        write(path[key])
    with open(path["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    say(f"{'PASS' if passed else 'FAIL'} -> {path['report']}")
    return (0 if passed else 1), report


def _check(cfg: ExperimentConfig, say: _Say):
    _require(cfg, "check", "mappings", "plan", "checks")
    requests = [_request(s, "check") for s in cfg.checks if s["check"] != "commuting"]
    want_commuting = any(s["check"] == "commuting" for s in cfg.checks)
    if want_commuting and len(cfg.mappings) < 2:
        raise ConfigError("check: 'commuting' needs at least two mappings")
    verdicts = []
    for T in cfg.mappings if requests else ():
        for v in _checks(T, cfg.plan, requests):   # one scan per mapping
            verdicts.append({"mapping": T.label, **v.to_dict()})
            say(f"[{'PASS' if v.passed else 'FAIL'}] {T.label}: "
                f"{v.condition_label}{dict(v.params) if v.params else ''}")
    commuting = None
    if want_commuting:
        commuting = make_family(cfg.mappings, cfg.plan).commuting_certificate
        say(f"[{'PASS' if commuting.passed else 'FAIL'}] family: commuting")
    passed = all(v["passed"] for v in verdicts) and (
        commuting is None or commuting.passed)
    return {"verdicts": verdicts,
            "commuting": commuting.to_dict() if commuting else None}, passed, {}


def _run(cfg: ExperimentConfig, say: _Say):
    _require(cfg, "run", "iteration", "x0", "mappings")
    engine = cfg.engine or ("single" if len(cfg.mappings) == 1 else "multi")
    commuting = None
    if engine == "single":
        if len(cfg.mappings) != 1:
            raise ConfigError(
                f"run: engine 'single' needs exactly one mapping, got {len(cfg.mappings)}")
        subject = cfg.mappings[0]
        trace = krasnoselskii_run(subject, cfg.x0, cfg.iteration)
    else:
        if cfg.schedule is None:
            raise ConfigError(f"run: engine {engine!r} needs a schedule")
        subject = make_family(cfg.mappings, cfg.plan)
        commuting = subject.commuting_certificate
        trace = (multi_map_run if engine == "multi" else truncated_family_run)(
            subject, cfg.schedule, cfg.x0, cfg.iteration)
    gap = goebel_kirk_gap(trace)
    replay = replay_trace(trace, subject)
    monotone = [monotone_distance_check(trace, z) for z in trace.fixed_points]
    residual = residual_note = None
    try:
        residual = residual_vanishes_check(trace)
    except PreconditionError as exc:   # too few records to compare
        residual_note = f"skipped: {exc}"
    schedule_report = None
    if cfg.schedule is not None and cfg.horizon is not None:
        schedule_report = verify_schedule(cfg.schedule, cfg.horizon).to_dict()
    s = trace.summary()
    say(f"stop={s['stop_reason']} steps={s['total_steps']} "
        f"final_residual={s['final_residual']:.3e}")
    return {
        "engine": engine,
        "commuting": commuting.to_dict() if commuting else None,
        "summary": s,
        "diagnostics": {
            "gap_tail_max": gap.tail_max,
            "gap_pairs": len(gap.gaps),
            "replay": replay.to_dict(),
            "monotone": [v.to_dict() for v in monotone],
            "residual_vanishes": residual.to_dict() if residual else None,
            "residual_note": residual_note,
        },
        "schedule_report": schedule_report,
    }, all(v.passed for v in (replay, *monotone, residual, commuting) if v), {
        "trace": lambda path: trace_to_csv(trace, path)}


def _schedule(cfg: ExperimentConfig, say: _Say):
    _require(cfg, "schedule", "schedule", "horizon")
    rep = verify_schedule(cfg.schedule, cfg.horizon)
    say(f"liminf_proxy={rep.liminf_proxy:.6g} "
        f"limsup_proxy={rep.limsup_proxy:.6g} "
        f"diff_proxy={rep.diff_proxy:.6g}")
    for flag in rep.flags():
        say(f"flag: {flag}")
    return {"report": rep.to_dict()}, rep.compliant, {}


def _sweep(cfg: ExperimentConfig, say: _Say):
    _require(cfg, "sweep", "sweep", "plan")
    if len(cfg.mappings) != 1:
        raise ConfigError(
            f"sweep: config must name exactly one mapping, got {len(cfg.mappings)}")
    table = sweep_condition_B(cfg.mappings[0], cfg.sweep["gamma_grid"],
                              cfg.sweep["mu_grid"], cfg.plan,
                              pairing=cfg.sweep.get("pairing", "cross"))
    rows = table.to_rows()
    csv_rows = (",".join([_fmt(r["gamma"]), _fmt(r["mu"]), r["status"],
                          ";".join(map(_fmt, r["witness_x"] or ())),
                          ";".join(map(_fmt, r["witness_y"] or ())),
                          "" if r["lhs"] is None else _fmt(r["lhs"]),
                          "" if r["rhs"] is None else _fmt(r["rhs"])]) + "\n"
                for r in rows)
    header = ["gamma", "mu", "status", "witness_x", "witness_y", "lhs", "rhs"]
    for c in table.cells:
        say(f"gamma={c.gamma:g} mu={c.mu:g}: {c.status}")
    return ({"mapping": table.mapping_label, "pairing": table.pairing, "cells": rows},
            table.all_passed,
            {"table": lambda path: _write_csv(path, header, csv_rows)})


def cmd_check(config_path: str, out_dir: Optional[str] = None,
              seed: Optional[int] = None, quiet: bool = False) -> tuple[int, dict]:
    """Run the configured condition checks; exit 0 only if all pass."""
    return _drive("check", _check, {}, config_path, out_dir, seed, quiet)


def cmd_run(config_path: str, out_dir: Optional[str] = None,
            seed: Optional[int] = None, quiet: bool = False) -> tuple[int, dict]:
    """Execute the configured iteration; write trace CSV and JSON report."""
    return _drive("run", _run, {"trace": "_trace.csv"}, config_path, out_dir,
                  seed, quiet)


def cmd_schedule(config_path: str, out_dir: Optional[str] = None,
                 seed: Optional[int] = None, quiet: bool = False) -> tuple[int, dict]:
    """Verify the configured schedule's tail behavior at the horizon."""
    return _drive("schedule", _schedule, {}, config_path, out_dir, seed, quiet)


def cmd_sweep(config_path: str, out_dir: Optional[str] = None,
              seed: Optional[int] = None, quiet: bool = False) -> tuple[int, dict]:
    """Sweep the two-parameter condition over the configured grids."""
    return _drive("sweep", _sweep, {"table": "_sweep.csv"}, config_path,
                  out_dir, seed, quiet)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "check": (cmd_check, "run condition checks from a config"),
    "run": (cmd_run, "execute an iteration experiment"),
    "schedule": (cmd_schedule, "verify a blend-weight schedule"),
    "sweep": (cmd_sweep, "sweep the two-parameter condition over grids"),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fixedlab",
        description="Empirical fixed-point laboratory: condition checks, "
                    "averaged iteration runs, schedule verification, and "
                    "parameter sweeps, all driven by JSON configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--out", default=None, help="output directory (default: .)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the random sample plan's seed")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")
    args = parser.parse_args(argv)
    try:
        code, _ = _COMMANDS[args.command][0](args.config, args.out, args.seed,
                                             args.quiet)
        return code
    except IterationRuntimeError as exc:
        print(f"runtime error at step {exc.step}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # ConfigError and every contract violation
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:   # exit 1 means "a check failed", never a crash
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
