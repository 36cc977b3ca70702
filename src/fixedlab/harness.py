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
from dataclasses import dataclass, field
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
from .mappings import Mapping, build_mapping, make_family
from .schedules import (AlphaSchedule, ConstantSchedule, DecaySchedule,
                        TentSchedule, verify_schedule)
from .vecspace import Domain, SamplePlan, _whole, as_vector

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


_REQUIRED = object()


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return d[key]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(d: dict, key: str, where: str, default=_REQUIRED):
    """d[key] as a JSON number; null is taken only where the default is null."""
    v = _need(d, key, where) if default is _REQUIRED else d.get(key, default)
    if not (_is_number(v) or (v is None and default is None)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return v


def _count(d: dict, key: str, where: str, default=_REQUIRED):
    """d[key] as an int by `_whole`'s rule: 50.0 is 50, while 7.5 is an error."""
    v = _number(d, key, where, default)
    return v if v is None else _whole(v, key)


def _file_name(field: str, value) -> str:
    """value, once checked to be one plain file name: it is joined to --out."""
    if not isinstance(value, str) or value in ("", ".", "..") \
            or os.path.basename(value) != value or "\0" in value:
        raise ConfigError(f"{field}: expected a plain file name, got {value!r}")
    return value


def _parsed(where: str, parse, *args):
    """parse(*args), with a bad value reported as a ConfigError naming `where`."""
    try:
        return parse(*args)
    except ConfigError:
        raise
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


def _parse_domain(d: dict) -> Domain:
    shape = _need(d, "shape", "domain")
    norm = d.get("norm", "l2")
    if shape == "box":
        return Domain.box(_need(d, "lower", "domain"),
                          _need(d, "upper", "domain"), norm)
    if shape == "ball":
        return Domain.ball(_need(d, "center", "domain"),
                           _need(d, "radius", "domain"), norm)
    raise ConfigError(f"domain: unknown shape {shape!r}")


def _parse_plan(d: dict, seed_override: Optional[int]) -> SamplePlan:
    mode = _need(d, "mode", "plan")
    eps = _number(d, "epsilon", "plan", 1e-9)
    if mode == "grid":
        return SamplePlan.grid(_need(d, "resolution", "plan"), epsilon=eps)
    if mode == "random":
        seed = _number(d, "seed", "plan") if seed_override is None else seed_override
        return SamplePlan.random(seed, _number(d, "count", "plan"), epsilon=eps)
    raise ConfigError(f"plan: unknown mode {mode!r}")


def _parse_schedule(d: dict) -> AlphaSchedule:
    kind = _need(d, "kind", "schedule")
    if kind == "constant":
        return ConstantSchedule(_number(d, "value", "schedule"))
    if kind == "decay":
        return DecaySchedule(_number(d, "scale", "schedule"),
                             _number(d, "rate", "schedule", 1.0))
    if kind == "tent":
        return TentSchedule(_number(d, "peak", "schedule"),
                            _number(d, "first_block_length", "schedule"),
                            _number(d, "growth", "schedule"))
    raise ConfigError(f"schedule: unknown kind {kind!r}")


def _parse_iteration(d: dict) -> tuple[IterationConfig, Optional[tuple[float, ...]]]:
    cfg = IterationConfig(
        lam=_number(d, "lambda", "iteration"),
        max_iters=_count(d, "max_iters", "iteration"),
        residual_tol=_number(d, "residual_tol", "iteration", 0.0),
        truncation_K=_count(d, "truncation_K", "iteration", None),
        record_every=_count(d, "record_every", "iteration", 1),
        gamma=_number(d, "gamma", "iteration", None))
    x0 = d.get("x0")
    if x0 is not None:
        x0 = tuple(float(c) for c in as_vector(x0))
    return cfg, x0


def _gamma_mu(spec: dict, at: str) -> BGammaMu:
    return BGammaMu(_number(spec, "gamma", at), _number(spec, "mu", at))


#: Every check a config may request, in the order error messages list them.
#: entry(spec, at) is the check's request for `conditions._checks`, and a
#: bad parameter raises naming `at`; "commuting" certifies the whole family
#: and has no per-map entry.
_CHECKS = {
    "nonexpansive": lambda spec, at: _nonexpansive(),
    "quasi_nonexpansive": lambda spec, at: _quasi_nonexpansive(),
    "fixed_point_shrink": lambda spec, at: _lemma3(_gamma_mu(spec, at)),
    "condition_C": lambda spec, at: _condition_c(0.5, "condition_C"),
    "condition_C_lambda":
        lambda spec, at: _condition_c(_number(spec, "lambda", at)),
    "condition_B": lambda spec, at: _one(_condition_b(_gamma_mu(spec, at))),
    "prop1": lambda spec, at: _prop1(_number(spec, "theta", at),
                                     _gamma_mu(spec, at)),
    "commuting": None,
}


def _normalize_checks(entries) -> list[dict]:
    """The check specs, each once its parameters resolve to a request."""
    out = []
    for i, entry in enumerate(entries):
        at = f"checks[{i}]"
        spec = {"check": entry} if isinstance(entry, str) else dict(entry)
        if _need(spec, "check", at) not in _CHECKS:
            raise ConfigError(f"{at}: unknown check {spec['check']!r}; "
                              f"known: {', '.join(_CHECKS)}")
        if _CHECKS[spec["check"]]:
            _parsed(at, _CHECKS[spec["check"]], spec, at)
        out.append(spec)
    return out


def load_config(path: str, seed_override: Optional[int] = None) -> ExperimentConfig:
    """Read and resolve a JSON experiment config.

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
    for key, kind in (("mappings", list), ("checks", list), ("sweep", dict), ("out", dict)):
        if not isinstance(raw.get(key, kind()), kind):
            raise ConfigError(f"{key}: expected a {kind.__name__}, got {raw[key]!r}")

    name = _file_name("name", raw["name"] if "name" in raw
                      else os.path.splitext(os.path.basename(path))[0])
    cfg = ExperimentConfig(name=name, echo={"name": name})
    echo = cfg.echo   # each section echoes its resolved form as it is parsed
    if "domain" in raw:
        cfg.domain = _parsed("domain", _parse_domain, raw["domain"])
        echo["domain"] = cfg.domain.to_dict()
    if "mappings" in raw:
        if cfg.domain is None:
            raise ConfigError("mappings given without a domain")
        for i, desc in enumerate(raw["mappings"]):
            cfg.mappings.append(
                _parsed(f"mappings[{i}]", build_mapping, desc, cfg.domain))
        if cfg.mappings:
            echo["mappings"] = [dict(d) for d in raw["mappings"]]
    if "plan" in raw:
        cfg.plan = _parsed("plan", _parse_plan, raw["plan"], seed_override)
        echo["plan"] = cfg.plan.to_dict()
    if "schedule" in raw:
        cfg.schedule = _parsed("schedule", _parse_schedule, raw["schedule"])
        echo["schedule"] = cfg.schedule.to_dict()
    if "horizon" in raw:
        h = _parsed("horizon", _whole, raw["horizon"], "value")
        if h < 10:
            raise ConfigError(f"horizon: must be an integer >= 10, got {h!r}")
        cfg.horizon = echo["horizon"] = h
    if "iteration" in raw:
        cfg.iteration, cfg.x0 = _parsed("iteration", _parse_iteration,
                                        raw["iteration"])
        echo["iteration"] = cfg.iteration.to_dict()
        if cfg.x0 is not None:
            echo["iteration"]["x0"] = list(cfg.x0)
    if "engine" in raw:
        if raw["engine"] not in ("single", "multi", "truncated"):
            raise ConfigError(f"engine: unknown engine {raw['engine']!r}")
        cfg.engine = echo["engine"] = raw["engine"]
    if "checks" in raw:
        cfg.checks = _parsed("checks", _normalize_checks, raw["checks"])
        if cfg.checks:
            echo["checks"] = cfg.checks
    if "sweep" in raw:
        sw = raw["sweep"]
        for k in ("gamma_grid", "mu_grid"):
            grid = _need(sw, k, "sweep")
            if not (isinstance(grid, list) and grid and all(map(_is_number, grid))):
                raise ConfigError(f"sweep.{k}: expected a non-empty list of "
                                  f"numbers, got {grid!r}")
        if sw.get("pairing", "cross") not in ("cross", "zip"):
            raise ConfigError(f"sweep: unknown pairing {sw.get('pairing')!r}")
        cfg.sweep = sw
        echo["sweep"] = dict(sw)
    cfg.out = dict(raw.get("out", {}))
    for key, base in cfg.out.items():
        _file_name(f"out.{key}", base)
    if cfg.out:
        echo["out"] = dict(cfg.out)
    return cfg


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
    requests = [_CHECKS[s["check"]](s, "check") for s in cfg.checks
                if s["check"] != "commuting"]
    verdicts = []
    for T in cfg.mappings if requests else ():
        for v in _checks(T, cfg.plan, requests):   # one scan per mapping
            verdicts.append({"mapping": T.label, **v.to_dict()})
            say(f"[{'PASS' if v.passed else 'FAIL'}] {T.label}: "
                f"{v.condition_label}{dict(v.params) if v.params else ''}")
    commuting = None
    if any(s["check"] == "commuting" for s in cfg.checks):
        if len(cfg.mappings) < 2:
            raise ConfigError("check: 'commuting' needs at least two mappings")
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
    csv_rows = ([_fmt(r["gamma"]), _fmt(r["mu"]), r["status"],
                 ";".join(map(_fmt, r["witness_x"] or ())),
                 ";".join(map(_fmt, r["witness_y"] or ())),
                 "" if r["lhs"] is None else _fmt(r["lhs"]),
                 "" if r["rhs"] is None else _fmt(r["rhs"])] for r in rows)
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
